#ifndef QTF_PERFBENCH_BENCH_H_
#define QTF_PERFBENCH_BENCH_H_

// Shared pieces of the rule-testing benchmark: the workload table, the
// pipeline pass and served loop every workload runs, and the small JSON
// writer the binary reports through. The binary only measures and emits raw
// samples; perfbench/run.py turns them into the reported metrics.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "net/server.h"
#include "qtf.h"

namespace qtf {
namespace perfbench {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process since the last ResetPeakRss(),
/// in KiB (VmHWM from /proc/self/status; 0 when unreadable).
int64_t PeakRssKb();
/// Returns freed heap to the system and restarts peak-RSS tracking at the
/// current RSS (Linux clear_refs "5"), so a pass's peak is its own.
void ResetPeakRss();

/// One workload: a pipeline configuration run as repeated passes, plus a
/// closed-loop served leg over the SQL of one more suite of that
/// configuration.
struct Workload {
  const char* name;
  bool pairs;            // rule pairs over the first n rules, else singletons
  int n_rules;
  int k;
  bool topk;             // TOPK with monotonicity, else BASELINE
  int suites;            // distinct suites per run; every run passes each once
                         // (suite index `suites` is the served corpus)
  double served_share;   // share of --seconds given to the served leg
};

/// TPC-H scale of every database the benchmark builds. The executor
/// materializes every result, and generated many-to-many joins outgrow
/// memory fast as the scale rises (perfbench/README.md).
constexpr int kTpchScale = 1;

const Workload* FindWorkload(const std::string& name);

/// Generation seed of suite `index` within the run seeded by `run_seed`.
uint64_t SuiteSeed(uint64_t run_seed, int index);

/// What one pipeline pass (generate -> compress -> correctness) produced.
struct PassRecord {
  int suite = 0;
  double pipeline_s = 0, generate_s = 0, compress_s = 0, correctness_s = 0;
  int64_t rss_peak_kb = 0;
  int64_t optimizer_calls = 0;  // Optimizer::Optimize invocations in the pass
  double suite_cost = 0;
  uint64_t sql_fp = 0;         // over every suite query's SQL text
  uint64_t assignment_fp = 0;  // over the compression assignment
  int violations = 0;
  std::string error;           // non-empty when the pass failed
  /// The pass ran out of the process's address-space cap (std::bad_alloc);
  /// it has no outputs and is left out of the metrics.
  bool memory_capped = false;
};

/// Artifacts of a pass, kept for the traced replays.
struct PassArtifacts {
  TestSuite suite;
  CompressionSolution solution;
  CorrectnessReport report;
};

/// Generates suite `index` of the run: k queries per target.
Result<TestSuite> GenerateSuite(RuleTestFramework* fw, const Workload& w,
                                uint64_t run_seed, int index);

/// Runs one cold pass (plan cache cleared first) over suite `index`;
/// `out`, when given, receives the suite and its results.
PassRecord RunPass(RuleTestFramework* fw, const Workload& w,
                   uint64_t run_seed, int index, PassArtifacts* out);

/// The resident service, its loopback server and two client connections.
struct ServedStack {
  ServedStack() = default;
  /// Clients disconnect before the server stops, and the server stops
  /// before the service it calls into is destroyed.
  ~ServedStack() {
    clients.clear();
    server.reset();
  }
  ServedStack(const ServedStack&) = delete;
  ServedStack& operator=(const ServedStack&) = delete;

  std::unique_ptr<service::RuleTestService> service;
  std::unique_ptr<net::ServiceServer> server;
  std::vector<std::unique_ptr<client::ServiceClient>> clients;
};

Result<std::unique_ptr<ServedStack>> MakeStack();

/// One request of the served corpus with its expected response bytes (the
/// in-process answer, encoded as the wire would carry it).
struct CorpusRequest {
  bool optimize = false;
  std::string sql;
  std::string payload;   // encoded SqlRequest
  std::string expected;  // encoded SqlResponse from the in-process service
};

/// Every statement in both modes, answered once in process (which also
/// warms the plan cache for the optimize requests).
Result<std::vector<CorpusRequest>> BuildCorpus(
    service::RuleTestService* svc, const std::vector<std::string>& statements);

/// What the served leg measured, accumulated over its slices.
struct ServedResult {
  std::vector<int64_t> parse_ns, optimize_ns;
  int64_t requests = 0, failed = 0;
  double seconds = 0;
  std::vector<size_t> next;  // per client: the next corpus request to send
};

/// One slice of the closed loop: each client sends its next request when
/// the previous answer arrived, continuing through the corpus where the last
/// slice stopped, until `seconds` elapse. Every response is compared byte
/// for byte with the in-process answer.
void RunServed(ServedStack* stack, const std::vector<CorpusRequest>& corpus,
               double seconds, ServedResult* total);

/// Minimal JSON object writer for the binary's single result line.
class Json {
 public:
  Json& Key(const std::string& key);
  Json& Int(int64_t v);
  Json& Num(double v);
  Json& Str(const std::string& s);
  Json& Hex(uint64_t v);
  Json& Ints(const std::vector<int64_t>& v);
  Json& Nums(const std::vector<double>& v);
  Json& Open();   // {
  Json& Close();  // }
  Json& OpenList();
  Json& CloseList();
  const std::string& str() const { return out_; }

 private:
  void Sep();
  void Quote(const std::string& s);
  std::string out_;
  bool need_comma_ = false;
};

/// Per-layer replays of the traced run (layers.cc): the optimizer, executor
/// and compression over `pass` on the pipeline's framework, the SQL front
/// end, wire codec and service over the corpus on the served stack.
void RunLayerReplays(RuleTestFramework* fw, ServedStack* stack,
                     const Workload& w, const PassArtifacts& pass,
                     const std::vector<CorpusRequest>& corpus, Json* json);

}  // namespace perfbench
}  // namespace qtf

#endif  // QTF_PERFBENCH_BENCH_H_
