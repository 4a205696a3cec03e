#!/usr/bin/env python3
"""The rule-testing benchmark: builds perfbench, runs one workload, checks
its outputs and reports its metrics.

    python3 perfbench/run.py --workload pairs_topk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload pairs_topk --seed 1 --seconds 40 --record

It builds the repository's libraries and the perfbench binary from source
into .bench_build/ at the repository root, runs the binary for one workload,
and prints one line per metric (name, value, unit, sample count) followed by
one JSON object as the last line of standard output. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the separate traced
mode and reports its per-layer metrics. --record stores the run's suite
outputs in expected.json as the reference for that seed. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160

sys.path.insert(0, HERE)
import checks  # noqa: E402
import stats  # noqa: E402


def log(message):
    print(message, file=sys.stderr, flush=True)


def selftest():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no repository sources next to perfbench/; "
            "nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step exited {done.returncode}: "
                + " ".join(step))
            return False
    return True


def measure(args):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: measurement failed: {err}")
        return None
    if done.returncode != 0:
        log(f"perfbench: binary exited {done.returncode}")
        return None
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Report:
    """Metrics by name, each with its unit and a note on its samples."""

    def __init__(self):
        self.values = {}

    def add(self, name, value, unit, note):
        self.values[name] = (value, unit, note)

    def timing(self, name, samples, scale, unit, what):
        """Adds NAME.p50 and NAME.p99 (the tail kept at ten samples beyond)."""
        scaled = [s * scale for s in samples]
        self.add(name + ".p50", stats.median(scaled), unit,
                 f"median of {len(scaled)} {what}")
        value, used, beyond = stats.tail_percentile(scaled, 99)
        self.add(name + ".p99", value, unit,
                 f"p{used:.4g} of {len(scaled)} {what}, {beyond} beyond")

    def ratio(self, name, part, base, what, unit="ratio"):
        r = stats.Ratio(part, base)
        self.add(name, r.value, unit, f"{r} {what}")

    def print_lines(self, workload):
        for name, (value, unit, note) in self.values.items():
            print(f"{workload:13s} {name:34s} {value:16.6g} {unit:6s} {note}")


def first_per_suite(passes):
    first = {}
    for p in passes:
        first.setdefault(p["suite"], p)
    return [first[s] for s in sorted(first)]


def measured(passes):
    """Passes that produced outputs (not failed, not over the memory cap)."""
    return [p for p in passes if not p["error"] and not p["memory_capped"]]


def end_to_end(raw, report):
    passes = measured(raw["passes"])
    n = len(passes)
    what = "passes"
    for key in ("pipeline_s", "generate_s", "compress_s", "correctness_s"):
        report.add(key, stats.median([p[key] for p in passes]), "s",
                   f"median of {n} {what}")
    suites = first_per_suite(passes)
    report.add("optimizer_calls",
               stats.median([p["optimizer_calls"] for p in suites]), "count",
               f"median over {len(suites)} suites, per pass")
    report.add("suite_cost", stats.median([p["suite_cost"] for p in suites]),
               "cost", f"median over {len(suites)} suites")
    report.add("peak_rss_mb",
               stats.median([p["rss_peak_kb"] for p in passes]) / 1024.0,
               "MB", f"median of {n} per-pass peaks "
               f"(run max {raw['rss_run_max_kb'] / 1024.0:.1f} MB)")
    served = raw["served"]
    report.add("requests_per_s", served["requests"] / served["seconds"],
               "1/s", f"{served['requests']} requests over "
               f"{served['seconds']:.3f} s, 2 connections")
    report.timing("parse_ms", served["parse_ns"], 1e-6, "ms",
                  "parse requests")
    report.timing("optimize_ms", served["optimize_ns"], 1e-6, "ms",
                  "optimize requests")
    report.add("setup_s", stats.median(raw["setup_s"]), "s",
               f"median of {len(raw['setup_s'])} builds of the served stack "
               "(service, TPC-H database, server, clients)")


def per_layer(raw, report):
    layers = raw["layers"]
    plain = [p for p in measured(raw["passes"]) if not p["traced"]]
    traced = [p for p in measured(raw["passes"]) if p["traced"]]
    counters = raw["traced_counters"]
    served = raw["served"]["counters"]

    report.add("qgen.suite_s", stats.median([p["generate_s"] for p in plain]),
               "s", f"median of {len(plain)} suite generations")
    trials = counters.get("qtf.qgen.trials.pattern", 0) + counters.get(
        "qtf.qgen.trials.random", 0)
    queries = raw["corpus_requests"] // 2
    report.add("qgen.trials", trials, "count", "suite 0, traced pass")
    report.ratio("qgen.queries_per_trial", queries, trials,
                 "suite queries / trials")

    search = layers["optimizer.search_ms"]
    report.timing("optimizer.search_ms", search, 1.0, "ms",
                  "cold searches (suite queries and assigned edges)")
    report.add("optimizer.searches", len(search), "count",
               "cold searches replayed")
    for key in ("memo_groups", "memo_exprs"):
        values = layers["optimizer." + key]
        report.add(f"optimizer.{key}.mean", sum(values) / len(values),
                   "count", f"mean over {len(values)} searches")
    report.add("optimizer.saturated", layers["optimizer.saturated"], "count",
               f"of {len(search)} searches")

    report.ratio("plan_cache.hit_rate", served.get("qtf.plan_cache.hits", 0),
                 served.get("qtf.plan_cache.hits", 0) +
                 served.get("qtf.plan_cache.misses", 0), "served leg lookups")
    report.ratio("interner.hit_rate", served.get("qtf.interner.hits", 0),
                 served.get("qtf.interner.hits", 0) +
                 served.get("qtf.interner.misses", 0), "served leg interns")

    report.add("compress.edge_calls", layers["compress.edge_calls"], "count",
               "suite 0")
    report.ratio("compress.edge_prune_ratio", layers["compress.edge_calls"],
                 layers["compress.candidate_edges"],
                 "edge calls / candidate edges")
    report.add("compress.solver_ms", stats.median(layers["compress.solver_ms"]),
               "ms", f"median of {len(layers['compress.solver_ms'])} "
               "re-runs on a warmed provider")

    exec_s = stats.median(layers["exec.round_s"])
    report.add("exec.s", exec_s, "s",
               f"median of {len(layers['exec.round_s'])} replays of "
               f"{layers['exec.plans']} plans")
    report.timing("exec.plan_ms", layers["exec.plan_ms"], 1.0, "ms",
                  "plan executions")
    report.add("exec.rows_per_s", layers["exec.rows"] / exec_s, "1/s",
               "rows produced / exec.s")
    report.add("exec.rows", layers["exec.rows"], "count", "one replay")
    report.add("exec.batches", layers["exec.batches"], "count", "one replay")
    report.add("exec.arena_bytes", layers["exec.arena_bytes"], "bytes",
               "one replay")
    report.ratio("exec.eval_cache_hit_rate", layers["exec.eval_cache_hits"],
                 layers["exec.eval_cache_hits"] +
                 layers["exec.eval_cache_misses"], "program lookups")

    report.add("testing.plans_executed", layers["testing.plans_executed"],
               "count", "suite 0")
    report.ratio("testing.skip_identical_ratio",
                 layers["testing.skipped_identical"],
                 layers["testing.validated_edges"],
                 "identical-plan skips / validated edges")

    report.timing("sql.parse_bind_us", layers["sql.parse_bind_us"], 1.0, "us",
                  "SqlFrontend::Parse calls")
    codec = layers["net.codec_us"]
    report.add("net.codec_us.p50", stats.median(codec), "us",
               f"median of {len(codec)} encode/decode round trips")
    client_us = [ns / 1e3 for ns in raw["served"]["parse_ns"] +
                 raw["served"]["optimize_ns"]]
    execute_us = layers["service.execute_us"]
    report.add("net.overhead_us.p50",
               stats.median(client_us) - stats.median(execute_us), "us",
               f"client median ({len(client_us)}) - in-process median "
               f"({len(execute_us)})")
    requests = served.get("qtf.service.requests", 0)
    report.ratio("net.bytes_per_request",
                 served.get("qtf.service.bytes_in", 0) +
                 served.get("qtf.service.bytes_out", 0), requests,
                 "bytes in+out / requests", unit="bytes")
    report.timing("service.execute_us", execute_us, 1.0, "us",
                  "in-process RuleTestService::Execute calls")
    report.add("service.sheds", served.get("qtf.service.sheds", 0), "count",
               "served leg")
    report.add("service.request_errors",
               served.get("qtf.service.request_errors", 0), "count",
               "served leg")
    report.add("storage.build_s", stats.median(layers["storage.build_s"]), "s",
               f"median of {len(layers['storage.build_s'])} MakeTpchDatabase")
    pairs = [(p, t) for p in plain for t in traced if t["suite"] == p["suite"]]
    report.add("trace.overhead_ratio",
               stats.median([t["pipeline_s"] for _, t in pairs]) /
               stats.median([p["pipeline_s"] for p, _ in pairs]), "ratio",
               f"traced / untraced pipeline_s, {len(pairs)} suite pairs")


def layer_checks(raw):
    """Replay cross-checks of the traced run, as failure messages."""
    layers = raw["layers"]
    failures = []
    if layers["exec.plans"] != layers["testing.plans_executed"]:
        failures.append(f"replayed {layers['exec.plans']} plans, the "
                        f"correctness phase ran "
                        f"{layers['testing.plans_executed']}")
    for key in ("exec.failed", "serving.replay_failed",
                "compress.solver_mismatch", "storage.failed"):
        if layers.get(key, 0):
            failures.append(f"{key}: {layers[key]}")
    return failures


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def record(raw):
    data = load_expected()
    suites = first_per_suite(measured(raw["passes"]))
    entries = [{f: p[f] for f in ("suite",) + checks.FIELDS} for p in suites]
    data.setdefault("workloads", {}).setdefault(raw["workload"], {})[
        str(raw["seed"])] = entries
    with open(EXPECTED, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"perfbench: recorded {len(entries)} suites for "
        f"{raw['workload']} seed {raw['seed']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not selftest():
        log("perfbench: self-tests failed")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 1
    raw = measure(args)
    if raw is None:
        return 1

    expected = load_expected().get("workloads", {}).get(
        args.workload, {}).get(str(args.seed))
    failures = checks.check_passes(raw["passes"], expected)
    if raw["setup_mismatches"]:
        failures.append(f"{raw['setup_mismatches']} corpus answers differ "
                        "between set-ups")
    report = Report()
    if args.trace:
        per_layer(raw, report)
        failures += layer_checks(raw)
        wanted = spec["per_layer"]
    else:
        end_to_end(raw, report)
        wanted = spec["end_to_end"]
    served = raw["served"]
    attempted = len(raw["passes"]) + served["requests"]
    failed = len(failures) + served["failed"]
    report.add("error_rate", failed / attempted, "ratio",
               f"{failed} failed of {attempted} passes and requests")
    if args.record and not failures:
        record(raw)

    report.print_lines(args.workload)
    if args.trace:
        for phase, (count, seconds) in raw["spans"].items():
            print(f"{args.workload:13s} span {phase:29s} {seconds:16.6g} s      "
                  f"{count} spans, traced passes")
        for name, delta in raw["traced_counters"].items():
            print(f"{args.workload:13s} counter {name:42s} {delta:>10d} "
                  "delta over the traced pass of suite 0")
    for message in failures:
        print(f"{args.workload:13s} FAILED {message}")
    capped = sorted({p["suite"] for p in raw["passes"] if p["memory_capped"]})
    print(f"{args.workload:13s} memory_capped: {len(capped)} suites "
          f"{capped} ran out of the address-space cap and are left out")
    print(f"{args.workload:13s} checks: {len(raw['passes'])} passes "
          f"(recorded outputs for seed {args.seed}: "
          f"{'yes' if expected else 'no'}), {served['requests']} responses "
          f"compared byte for byte; {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": report.values[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
