// Per-layer replays of the traced run. Each layer is measured from outside,
// by timing calls into its public functions over the inputs the workload's
// pass produced; nothing here changes what the end-to-end run measures.

#include <map>

#include "bench.h"

namespace qtf {
namespace perfbench {
namespace {

constexpr int kRepeats = 5;

double Ms(double seconds) { return seconds * 1e3; }
double Us(double seconds) { return seconds * 1e6; }

struct PlanToRun {
  const Query* query;
  PhysicalOpPtr plan;
};

/// Optimizer: cold Optimize over every suite query and every assigned edge,
/// with the plan cache detached. Returns the plans the correctness phase
/// executed (each base plan once, each edge plan that differs from its base).
std::vector<PlanToRun> ReplayOptimizer(RuleTestFramework* fw,
                                       const PassArtifacts& pass, Json* json) {
  PlanCacheDetachGuard detach(fw->optimizer());
  const TestSuite& suite = pass.suite;
  std::vector<double> search_ms;
  std::vector<int64_t> groups, exprs;
  int64_t saturated = 0;
  auto search = [&](const Query& query,
                    const OptimizerOptions& options) -> PhysicalOpPtr {
    const double t0 = Now();
    Result<OptimizeResult> result = fw->optimizer()->Optimize(query, options);
    const double t1 = Now();
    if (!result.ok()) return nullptr;
    search_ms.push_back(Ms(t1 - t0));
    groups.push_back(result->group_count);
    exprs.push_back(result->expr_count);
    saturated += result->saturated ? 1 : 0;
    return result->plan;
  };

  std::vector<PlanToRun> plans;
  std::map<int, PhysicalOpPtr> base;
  for (size_t q = 0; q < suite.queries.size(); ++q) {
    base[static_cast<int>(q)] =
        search(suite.queries[q].query, OptimizerOptions{});
  }
  std::vector<bool> used(suite.queries.size(), false);
  for (const std::vector<int>& queries : pass.solution.assignment) {
    for (int q : queries) used[static_cast<size_t>(q)] = true;
  }
  for (size_t q = 0; q < used.size(); ++q) {
    if (used[q] && base[static_cast<int>(q)] != nullptr) {
      plans.push_back({&suite.queries[q].query, base[static_cast<int>(q)]});
    }
  }
  for (size_t t = 0; t < pass.solution.assignment.size(); ++t) {
    OptimizerOptions options;
    for (RuleId id : suite.targets[t].rules) options.disabled_rules.insert(id);
    for (int q : pass.solution.assignment[t]) {
      PhysicalOpPtr plan =
          search(suite.queries[static_cast<size_t>(q)].query, options);
      if (plan == nullptr || base[q] == nullptr) continue;
      if (!PhysicalTreeEquals(*plan, *base[q])) {
        plans.push_back({&suite.queries[static_cast<size_t>(q)].query, plan});
      }
    }
  }
  json->Key("optimizer.search_ms").Nums(search_ms);
  json->Key("optimizer.memo_groups").Ints(groups);
  json->Key("optimizer.memo_exprs").Ints(exprs);
  json->Key("optimizer.saturated").Int(saturated);
  return plans;
}

/// Executor: Execute every plan the correctness phase ran, kRepeats times,
/// each with a fresh Executor (as the runner does) and one shared program
/// cache. Work counts come from the first round.
void ReplayExecutor(RuleTestFramework* fw, const std::vector<PlanToRun>& plans,
                    Json* json) {
  obs::MetricsRegistry counters;
  EvalProgramCache programs;
  programs.set_metrics(counters.counter("hits"), counters.counter("misses"));
  std::vector<double> plan_ms;
  std::vector<double> round_s;
  int64_t rows = 0, batches = 0, arena_bytes = 0, failed = 0;
  for (int round = 0; round < kRepeats; ++round) {
    const double r0 = Now();
    for (const PlanToRun& p : plans) {
      Executor executor(&fw->db(), p.query->registry.get());
      executor.set_program_cache(&programs);
      if (round == 0) executor.set_metrics(&counters);
      const double t0 = Now();
      Result<ResultSet> result = executor.Execute(*p.plan);
      plan_ms.push_back(Ms(Now() - t0));
      if (!result.ok()) ++failed;
    }
    round_s.push_back(Now() - r0);
    if (round == 0) {
      obs::MetricsSnapshot snap = counters.Snapshot();
      rows = snap.CounterValue("qtf.exec.rows_produced");
      batches = snap.CounterValue("qtf.exec.batches");
      arena_bytes = snap.CounterValue("qtf.exec.arena_bytes");
    }
  }
  obs::MetricsSnapshot snap = counters.Snapshot();
  json->Key("exec.plans").Int(static_cast<int64_t>(plans.size()));
  json->Key("exec.failed").Int(failed);
  json->Key("exec.round_s").Nums(round_s);
  json->Key("exec.plan_ms").Nums(plan_ms);
  json->Key("exec.rows").Int(rows);
  json->Key("exec.batches").Int(batches);
  json->Key("exec.arena_bytes").Int(arena_bytes);
  json->Key("exec.eval_cache_hits").Int(snap.CounterValue("hits"));
  json->Key("exec.eval_cache_misses").Int(snap.CounterValue("misses"));
}

/// Compression: edge calls against candidate edges, and the Compress*
/// algorithm re-run on a provider whose edges are all cached.
void ReplayCompress(RuleTestFramework* fw, const Workload& w,
                    const PassArtifacts& pass, Json* json) {
  int64_t candidates = 0;
  for (size_t t = 0; t < pass.suite.targets.size(); ++t) {
    candidates += static_cast<int64_t>(
        pass.suite.CandidatesFor(static_cast<int>(t)).size());
  }
  EdgeCostProvider provider(fw->optimizer(), &pass.suite);
  auto compress = [&] {
    return w.topk ? CompressTopKIndependent(&provider, w.k, true)
                  : CompressBaseline(&provider);
  };
  Result<CompressionSolution> warm = compress();
  std::vector<double> solver_ms;
  int64_t mismatches = warm.ok() ? 0 : 1;
  for (int i = 0; i < kRepeats && warm.ok(); ++i) {
    const double t0 = Now();
    Result<CompressionSolution> again = compress();
    solver_ms.push_back(Ms(Now() - t0));
    if (!again.ok() || again->assignment != warm->assignment) ++mismatches;
  }
  json->Key("compress.solver_mismatch").Int(mismatches);
  json->Key("compress.edge_calls").Int(pass.solution.optimizer_calls);
  json->Key("compress.candidate_edges").Int(candidates);
  json->Key("compress.solver_ms").Nums(solver_ms);
}

/// SQL front end, wire codec and in-process service over the corpus.
void ReplayServing(ServedStack* stack,
                   const std::vector<CorpusRequest>& corpus, Json* json) {
  RuleTestFramework* fw = stack->service->framework();
  sql::SqlFrontendOptions options;
  options.interner = fw->interner();
  sql::SqlFrontend frontend(&fw->catalog(), options);
  std::vector<double> parse_us, codec_us, execute_us;
  int64_t failed = 0;
  for (int round = 0; round < kRepeats; ++round) {
    for (const CorpusRequest& entry : corpus) {
      if (entry.optimize) continue;  // each statement once per round
      const double t0 = Now();
      Result<Query> query = frontend.Parse(entry.sql);
      parse_us.push_back(Us(Now() - t0));
      if (!query.ok()) ++failed;
    }
  }
  for (int round = 0; round < kRepeats; ++round) {
    for (const CorpusRequest& entry : corpus) {
      Result<service::ServiceRequest> request =
          net::DecodeRequest(net::MessageType::kSqlRequest, entry.payload);
      Result<service::ServiceResponse> response =
          net::DecodeResponse(net::MessageType::kSqlResponse, entry.expected);
      if (!request.ok() || !response.ok()) {
        ++failed;
        continue;
      }
      const double t0 = Now();
      std::string request_bytes = net::EncodeRequest(*request);
      Result<service::ServiceRequest> request_back =
          net::DecodeRequest(net::MessageType::kSqlRequest, request_bytes);
      std::string response_bytes = net::EncodeResponse(*response);
      Result<service::ServiceResponse> response_back =
          net::DecodeResponse(net::MessageType::kSqlResponse, response_bytes);
      codec_us.push_back(Us(Now() - t0));
      if (!request_back.ok() || !response_back.ok() ||
          response_bytes != entry.expected) {
        ++failed;
      }

      const double e0 = Now();
      Result<service::ServiceResponse> answer =
          stack->service->Execute(*request);
      execute_us.push_back(Us(Now() - e0));
      if (!answer.ok() || net::EncodeResponse(*answer) != entry.expected) {
        ++failed;
      }
    }
  }
  json->Key("sql.parse_bind_us").Nums(parse_us);
  json->Key("net.codec_us").Nums(codec_us);
  json->Key("service.execute_us").Nums(execute_us);
  json->Key("serving.replay_failed").Int(failed);
}

}  // namespace

void RunLayerReplays(RuleTestFramework* fw, ServedStack* stack,
                     const Workload& w, const PassArtifacts& pass,
                     const std::vector<CorpusRequest>& corpus, Json* json) {
  std::vector<double> build_s;
  int64_t build_failed = 0;
  for (int i = 0; i < kRepeats; ++i) {
    TpchConfig config;
    config.scale = kTpchScale;
    const double t0 = Now();
    Result<std::unique_ptr<Database>> db = MakeTpchDatabase(config);
    build_s.push_back(Now() - t0);
    if (!db.ok()) ++build_failed;
  }
  json->Key("storage.build_s").Nums(build_s);
  json->Key("storage.failed").Int(build_failed);

  std::vector<PlanToRun> plans = ReplayOptimizer(fw, pass, json);
  ReplayExecutor(fw, plans, json);
  ReplayCompress(fw, w, pass, json);

  int64_t validated = 0;
  for (const std::vector<int>& queries : pass.solution.assignment) {
    validated += static_cast<int64_t>(queries.size());
  }
  json->Key("testing.plans_executed").Int(pass.report.plans_executed);
  json->Key("testing.skipped_identical").Int(
      pass.report.skipped_identical_plans);
  json->Key("testing.validated_edges").Int(validated);

  ReplayServing(stack, corpus, json);
}

}  // namespace perfbench
}  // namespace qtf
