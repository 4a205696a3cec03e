// The workload table and the pipeline pass: generate k queries per target,
// cost and compress the suite, then execute Plan(q) against Plan(q, ¬R).

#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

#include "bench.h"
#include "common/hash.h"

namespace qtf {
namespace perfbench {
namespace {

// pairs_topk: memo search dominates (generation and TOPK edge costing).
// singles_exec: BASELINE executes every edge, so the executor takes a third
// of each pass, and half the time goes to the served leg. Why these counts
// and shares: README.md.
const Workload kWorkloads[] = {
    {"pairs_topk", true, 6, 5, true, 12, 0.15},
    {"singles_exec", false, 30, 3, false, 64, 0.5},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t SuiteSeed(uint64_t run_seed, int index) {
  return Mix64(run_seed * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(index));
}

int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

void ResetPeakRss() {
  malloc_trim(0);  // hand freed heap back so RSS drops before the reset
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

Result<TestSuite> GenerateSuite(RuleTestFramework* fw, const Workload& w,
                                uint64_t run_seed, int index) {
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.seed = SuiteSeed(run_seed, index);
  const std::vector<RuleTarget> targets =
      w.pairs ? fw->LogicalRulePairs(w.n_rules)
              : fw->LogicalRuleSingletons(w.n_rules);
  return fw->suite_generator()->Generate(targets, w.k, config);
}

namespace {

void RunPassUnguarded(RuleTestFramework* fw, const Workload& w,
                      uint64_t run_seed, int index, PassArtifacts* out,
                      PassRecord* record) {
  PassRecord& rec = *record;
  // Cold pass: with the plan cache cleared every pass of a suite repeats the
  // same searches, so timings and invocation counts are comparable.
  fw->plan_cache()->Clear();
  const int64_t calls_before = fw->optimizer()->invocation_count();

  const double t0 = Now();
  Result<TestSuite> suite = GenerateSuite(fw, w, run_seed, index);
  const double t1 = Now();
  if (!suite.ok()) {
    rec.error = "generate: " + suite.status().ToString();
    return;
  }
  EdgeCostProvider provider(fw->optimizer(), &*suite);
  Result<CompressionSolution> solution =
      w.topk ? CompressTopKIndependent(&provider, w.k,
                                       /*exploit_monotonicity=*/true)
             : CompressBaseline(&provider);
  const double t2 = Now();
  if (!solution.ok()) {
    rec.error = "compress: " + solution.status().ToString();
    return;
  }
  Result<CorrectnessReport> report =
      fw->runner()->Run(*suite, solution->assignment);
  const double t3 = Now();
  if (!report.ok()) {
    rec.error = "correctness: " + report.status().ToString();
    return;
  }

  rec.generate_s = t1 - t0;
  rec.compress_s = t2 - t1;
  rec.correctness_s = t3 - t2;
  rec.pipeline_s = t3 - t0;
  rec.rss_peak_kb = PeakRssKb();
  rec.optimizer_calls = fw->optimizer()->invocation_count() - calls_before;
  rec.suite_cost = solution->total_cost;
  rec.violations = static_cast<int>(report->violations.size());
  uint64_t sql_fp = 0;
  for (const TestCase& test_case : suite->queries) {
    sql_fp = Mix64(sql_fp ^ Fnv1a(test_case.sql));
  }
  uint64_t assignment_fp = 0;
  for (const std::vector<int>& queries : solution->assignment) {
    assignment_fp = Mix64(assignment_fp ^ 0xa55a);  // target boundary
    for (int q : queries) {
      assignment_fp = Mix64(assignment_fp ^ static_cast<uint64_t>(q));
    }
  }
  rec.sql_fp = sql_fp;
  rec.assignment_fp = assignment_fp;
  if (out != nullptr) {
    out->suite = *std::move(suite);
    out->solution = *std::move(solution);
    out->report = *std::move(report);
  }
}

}  // namespace

PassRecord RunPass(RuleTestFramework* fw, const Workload& w,
                   uint64_t run_seed, int index, PassArtifacts* out) {
  PassRecord rec;
  rec.suite = index;
  ResetPeakRss();
  try {
    RunPassUnguarded(fw, w, run_seed, index, out, &rec);
  } catch (const std::bad_alloc&) {
    // The executor materializes every result; a generated many-to-many join
    // can outgrow the process's address-space cap. Report, do not crash.
    rec = PassRecord();
    rec.suite = index;
    rec.memory_capped = true;
  }
  return rec;
}

void Json::Sep() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

Json& Json::Key(const std::string& key) {
  Sep();
  Quote(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Json& Json::Int(int64_t v) {
  Sep();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::Num(double v) {
  Sep();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::Str(const std::string& s) {
  Sep();
  Quote(s);
  return *this;
}

void Json::Quote(const std::string& s) {
  out_ += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

Json& Json::Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return Str(buf);
}

Json& Json::Ints(const std::vector<int64_t>& v) {
  OpenList();
  for (int64_t x : v) Int(x);
  return CloseList();
}

Json& Json::Nums(const std::vector<double>& v) {
  OpenList();
  for (double x : v) Num(x);
  return CloseList();
}

Json& Json::Open() {
  Sep();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

Json& Json::Close() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Json& Json::OpenList() {
  Sep();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

Json& Json::CloseList() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

}  // namespace perfbench
}  // namespace qtf
