"""Output checks of the pipeline passes.

A pass fails when it reported an error or a correctness violation, when a
repeated pass over the same suite produced different outputs, or when its
outputs differ from the values recorded in expected.json for the run's seed.
A pass that ran out of the benchmark's memory cap has no outputs to check.
When the seed has a record for its suite, that suite once ran within the cap,
so running out of it now is a regression and the pass fails; a suite with no
record is only reported as capped.
"""

FIELDS = ("sql_fp", "assignment_fp", "suite_cost", "optimizer_calls")


def _outputs(record):
    return tuple(record[f] for f in FIELDS)


def check_passes(passes, expected):
    """Returns one message per failed pass (an empty list when all pass).

    `expected` is the recorded list of per-suite outputs for this seed, or
    None when the seed has no record.
    """
    recorded = {}
    for entry in expected or []:
        recorded[entry.get("suite")] = entry
    first = {}
    failures = []
    for i, p in enumerate(passes):
        reasons = []
        if p.get("memory_capped"):
            if p["suite"] not in recorded:
                continue
            reasons.append("ran out of the memory cap; the recorded outputs "
                           "were produced within it")
        elif p["error"]:
            reasons.append("error: " + p["error"])
        elif p["violations"]:
            reasons.append(f"{p['violations']} correctness violations")
        else:
            seen = first.setdefault(p["suite"], p)
            if _outputs(seen) != _outputs(p):
                reasons.append("outputs differ from the suite's first pass")
            want = recorded.get(p["suite"])
            if want is not None:
                for field in FIELDS:
                    if want.get(field) != p[field]:
                        reasons.append(f"{field} {p[field]!r} != recorded "
                                       f"{want.get(field)!r}")
        if reasons:
            failures.append(f"pass {i} (suite {p['suite']}): " +
                            "; ".join(reasons))
    return failures
