// perfbench: measures one workload of the rule-testing benchmark and prints
// its raw samples as one JSON line. perfbench/run.py builds this binary,
// runs it, checks its outputs and reports the metrics.
//
//   perfbench --workload pairs_topk --seed 1 --seconds 40 --trace 0

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "bench.h"

namespace qtf {
namespace perfbench {
namespace {

constexpr int kSetups = 5;
// Builds of the served stack timed at each set-up; a build takes about a
// millisecond, so one alone is at the mercy of a scheduler hiccup.
constexpr int kBuildsPerSetup = 10;
// The executor materializes every result, and a generated many-to-many join
// can produce millions of rows even at TPC-H scale 1; cap the address space
// so such a suite ends its own pass (see RunPass), not the machine.
constexpr rlim_t kAddressSpaceLimit = rlim_t{3} << 30;

/// Runs every thread of the process on the first CPU it may use. The served
/// leg's request path hops between client, reader and worker threads; on a
/// shared multi-core VM the cross-core wake-ups vary several-fold from run
/// to run, while on one CPU the leg measures the per-request work itself.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void WritePass(const PassRecord& r, bool traced, Json* json) {
  json->Open();
  json->Key("suite").Int(r.suite);
  json->Key("traced").Int(traced ? 1 : 0);
  json->Key("pipeline_s").Num(r.pipeline_s);
  json->Key("generate_s").Num(r.generate_s);
  json->Key("compress_s").Num(r.compress_s);
  json->Key("correctness_s").Num(r.correctness_s);
  json->Key("rss_peak_kb").Int(r.rss_peak_kb);
  json->Key("optimizer_calls").Int(r.optimizer_calls);
  json->Key("suite_cost").Num(r.suite_cost);
  json->Key("sql_fp").Hex(r.sql_fp);
  json->Key("assignment_fp").Hex(r.assignment_fp);
  json->Key("violations").Int(r.violations);
  json->Key("error").Str(r.error);
  json->Key("memory_capped").Int(r.memory_capped ? 1 : 0);
  json->Close();
}

/// Counters that moved between two snapshots.
void WriteCounterDeltas(const obs::MetricsSnapshot& before,
                        const obs::MetricsSnapshot& after, Json* json) {
  json->Open();
  for (const auto& [name, value] : after.counters) {
    const int64_t delta = value - before.CounterValue(name);
    if (delta != 0) json->Key(name).Int(delta);
  }
  json->Close();
}

void WriteSpans(const std::vector<obs::TraceEvent>& events, Json* json) {
  std::map<std::string, std::pair<int64_t, double>> spans;
  for (const obs::TraceEvent& event : events) {
    if (event.kind != obs::TraceEvent::Kind::kEnd) continue;
    auto& [count, seconds] = spans[event.phase];
    ++count;
    seconds += event.seconds;
  }
  json->Open();
  for (const auto& [phase, value] : spans) {
    json->Key(phase).OpenList().Int(value.first).Num(value.second).CloseList();
  }
  json->Close();
}

/// One set-up of the served stack: the resident service with its framework
/// and TPC-H database, the loopback server and both client connections,
/// built kBuildsPerSetup times in a row with each build's time appended to
/// `seconds` (tear-down is not timed). The corpus is then answered once in
/// process on the last build (which warms its plan cache) outside the clock:
/// those answers are cold searches over seed-dependent statements, optimizer
/// work rather than set-up.
Result<std::unique_ptr<ServedStack>> SetUp(
    const std::vector<std::string>& statements,
    std::vector<CorpusRequest>* corpus, std::vector<double>* seconds) {
  std::unique_ptr<ServedStack> stack;
  for (int i = 0; i < kBuildsPerSetup; ++i) {
    stack.reset();
    const double t0 = Now();
    QTF_ASSIGN_OR_RETURN(stack, MakeStack());
    seconds->push_back(Now() - t0);
  }
  QTF_ASSIGN_OR_RETURN(*corpus,
                       BuildCorpus(stack->service.get(), statements));
  return stack;
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // (Sanitizers reserve terabytes of shadow address space up front.)
  const rlimit limit{kAddressSpaceLimit, kAddressSpaceLimit};
  setrlimit(RLIMIT_AS, &limit);
#endif
  PinToOneCpu();

  Json json;
  json.Open();
  json.Key("workload").Str(w->name);
  json.Key("seed").Int(static_cast<int64_t>(args.seed));
  json.Key("trace").Int(args.trace ? 1 : 0);

  // The pipeline runs on a framework of its own, so every pass can start
  // from a cold plan cache while the served stack keeps its corpus warm.
  RuleTestFramework::Options options;
  options.tpch.scale = kTpchScale;
  Result<std::unique_ptr<RuleTestFramework>> created =
      RuleTestFramework::Create(std::move(options));
  if (!created.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  RuleTestFramework* fw = created->get();

  // The served corpus: the canonical SQL of one more suite of the
  // workload's configuration, outside the pipeline's cycle of suites.
  Result<TestSuite> corpus_suite = GenerateSuite(fw, *w, args.seed, w->suites);
  if (!corpus_suite.ok()) {
    std::fprintf(stderr, "perfbench: corpus generation failed: %s\n",
                 corpus_suite.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> statements;
  for (const TestCase& test_case : corpus_suite->queries) {
    statements.push_back(test_case.sql);
  }

  // Set-up runs kSetups times: once now (this stack is kept) and the rest
  // spread over the measurement, each built and torn down, so the median
  // does not rest on one moment of a noisy machine. Every set-up must give
  // the same answers.
  std::vector<double> setup_s;
  int setups = 0;
  int64_t setup_mismatches = 0;
  std::vector<CorpusRequest> corpus;
  std::unique_ptr<ServedStack> stack;
  auto set_up = [&]() -> bool {
    std::vector<CorpusRequest> answered;
    Result<std::unique_ptr<ServedStack>> built =
        SetUp(statements, &answered, &setup_s);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    ++setups;
    if (stack == nullptr) {
      stack = std::move(*built);
      corpus = std::move(answered);
      return true;
    }
    for (size_t r = 0; r < corpus.size(); ++r) {
      if (answered.size() != corpus.size() ||
          answered[r].expected != corpus[r].expected) {
        ++setup_mismatches;
      }
    }
    return true;
  };
  if (!set_up()) return 1;
  obs::MetricsRegistry* served_metrics = stack->service->metrics();
  const obs::MetricsSnapshot served_before = served_metrics->Snapshot();

  // Measurement: pipeline passes alternate with slices of the served loop,
  // sized so the served leg gets its share of the time, until every suite
  // has been passed and --seconds are used. The traced run passes each
  // suite untraced and then traced, once, within the same time.
  ServedResult served;
  int64_t rss_max_kb = 0;
  PassArtifacts first;  // of the first pass that succeeded
  bool have_first = false;
  std::set<int> capped;  // suites not passed again once over the cap
  obs::CollectingTraceSink sink;
  obs::MetricsSnapshot traced_before, traced_after;
  auto run_pass = [&](int suite, bool traced) {
    const bool snapshot = traced && suite == 0;
    if (traced) fw->metrics()->set_trace_sink(&sink);
    if (snapshot) traced_before = fw->metrics()->Snapshot();
    PassRecord r =
        RunPass(fw, *w, args.seed, suite, have_first ? nullptr : &first);
    if (snapshot) traced_after = fw->metrics()->Snapshot();
    fw->metrics()->set_trace_sink(nullptr);
    WritePass(r, traced, &json);
    std::fprintf(stderr, "suite %d%s: %.3fs %s%s\n", suite,
                 traced ? " traced" : "", r.pipeline_s, r.error.c_str(),
                 r.memory_capped ? "memory capped" : "");
    if (r.memory_capped) {
      capped.insert(suite);
    } else {
      rss_max_kb = std::max(rss_max_kb, r.rss_peak_kb);
      if (r.error.empty()) have_first = true;
    }
  };
  json.Key("passes").OpenList();
  double measured = 0;
  for (int i = 0; static_cast<int>(capped.size()) < w->suites; ++i) {
    const int suite = i % w->suites;
    if (args.trace ? (i >= w->suites || (i > 0 && measured >= args.seconds))
                   : (i >= w->suites && measured >= args.seconds)) {
      break;
    }
    if (capped.count(suite) > 0) continue;
    const double t0 = Now();
    run_pass(suite, false);
    if (args.trace && capped.count(suite) == 0) run_pass(suite, true);
    RunServed(stack.get(), corpus,
              (Now() - t0) * w->served_share / (1 - w->served_share),
              &served);
    measured += Now() - t0;
    while (setups < kSetups && measured >= args.seconds * setups / kSetups) {
      if (!set_up()) return 1;
    }
  }
  json.CloseList();
  while (setups < kSetups) {
    if (!set_up()) return 1;
  }
  if (!have_first) {
    std::fprintf(stderr, "perfbench: no pass succeeded\n");
    return 1;
  }

  json.Key("setup_s").Nums(setup_s);
  json.Key("setup_mismatches").Int(setup_mismatches);
  json.Key("corpus_requests").Int(static_cast<int64_t>(corpus.size()));
  json.Key("rss_run_max_kb").Int(rss_max_kb);
  json.Key("served").Open();
  json.Key("seconds").Num(served.seconds);
  json.Key("requests").Int(served.requests);
  json.Key("failed").Int(served.failed);
  json.Key("parse_ns").Ints(served.parse_ns);
  json.Key("optimize_ns").Ints(served.optimize_ns);
  json.Key("counters");
  WriteCounterDeltas(served_before, served_metrics->Snapshot(), &json);
  json.Close();

  if (args.trace) {
    json.Key("traced_counters");
    WriteCounterDeltas(traced_before, traced_after, &json);
    json.Key("spans");
    WriteSpans(sink.TakeEvents(), &json);
    json.Key("layers").Open();
    RunLayerReplays(fw, stack.get(), *w, first, corpus, &json);
    json.Close();
  }
  json.Close();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace qtf

int main(int argc, char** argv) {
  qtf::perfbench::Args args;
  if (!qtf::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  return qtf::perfbench::Run(args);
}
