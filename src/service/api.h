#ifndef QTF_SERVICE_API_H_
#define QTF_SERVICE_API_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/budget.h"
#include "qgen/generation.h"

namespace qtf {
namespace service {

// Wire fields. Every request and response below (and the structs nested in
// them) declares the fields it carries once, in wire order:
//
//   template <class Self, class Visitor>
//   static void Fields(Self& self, Visitor&& visit);
//
// calls visit(name, self.member) per field. Self is the struct, const or
// not, so one declaration drives encoding, decoding and the text dump
// (src/net/wire.h). Members map to wire types by their C++ type: int32_t
// I32, int64_t I64, uint64_t U64, double F64, bool and uint8_t U8, enums U8
// (range-checked against their WireEnum last value), std::string and
// std::vector u32-count-prefixed. Each request names the response that
// answers it as `Response`.

/// Last declared value of an enum that travels as one wire byte; decoders
/// reject any byte above it.
template <class Enum>
struct WireEnum;

template <>
struct WireEnum<GenerationMethod> {
  static constexpr GenerationMethod kLast = GenerationMethod::kPattern;
};

/// Per-request governance knobs, the request-side mirror of ServiceLimits:
/// every field that is left at its "unset" default falls back to the
/// service's configured limit. Transport-neutral — the same struct is
/// populated by in-process callers and decoded off the wire (where `cancel`
/// does not travel: remote cancellation is closing the connection, local
/// callers hand a real token).
struct RequestOptions {
  /// Per-optimization search budget; unlimited (all zero) falls back to
  /// ServiceLimits::default_budget.
  SearchBudget budget;
  /// Whole-request deadline, seconds from admission; <= 0 falls back to
  /// ServiceLimits::default_deadline_seconds (0 there = none). Checked at
  /// request phase boundaries — an expired deadline returns
  /// kDeadlineExceeded for the whole request.
  double deadline_seconds = 0.0;
  /// Checked by every phase of the request; a triggered token returns
  /// kCancelled. Never serialized.
  CancellationToken cancel;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    // `cancel` stays off the wire: remote cancellation is closing the
    // connection.
    visit("budget.wall_seconds", self.budget.wall_seconds);
    visit("budget.max_memo_groups", self.budget.max_memo_groups);
    visit("budget.max_memo_exprs", self.budget.max_memo_exprs);
    visit("deadline_seconds", self.deadline_seconds);
  }
};

/// Everything deterministic about a generation outcome. Wall-clock time is
/// deliberately absent — request latency lands in qtf.service.request_seconds
/// — so responses for the same seed are byte-identical across transports,
/// runs and machines.
struct GenerateResponse {
  bool success = false;
  std::string sql;
  std::vector<RuleId> rule_set;  // RuleSet(query), ascending
  double cost = 0.0;
  int32_t operator_count = 0;
  int32_t trials = 0;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("success", self.success);
    visit("sql", self.sql);
    visit("rule_set", self.rule_set);
    visit("cost", self.cost);
    visit("operator_count", self.operator_count);
    visit("trials", self.trials);
  }
};

/// Ask the resident framework for one query exercising `targets`
/// (singleton rule or rule pair) — TargetedQueryGenerator over the wire.
struct GenerateRequest {
  std::vector<RuleId> targets;
  GenerationMethod method = GenerationMethod::kPattern;
  int32_t max_trials = 2000;
  int32_t extra_ops = 0;
  uint64_t seed = 1;
  /// Singleton targets only: additionally require the rule to be relevant
  /// (disabling it changes the plan — paper Section 7).
  bool require_relevant = false;
  RequestOptions options;

  using Response = GenerateResponse;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("targets", self.targets);
    visit("method", self.method);
    visit("max_trials", self.max_trials);
    visit("extra_ops", self.extra_ops);
    visit("seed", self.seed);
    visit("require_relevant", self.require_relevant);
    visit("options", self.options);
  }
};

struct OptimizeResponse {
  /// SQL rendering of the query that was optimized (seed-determined).
  std::string sql;
  double cost = 0.0;
  std::vector<RuleId> exercised_rules;  // ascending
  int32_t group_count = 0;
  int64_t expr_count = 0;
  bool budget_exhausted = false;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("sql", self.sql);
    visit("cost", self.cost);
    visit("exercised_rules", self.exercised_rules);
    visit("group_count", self.group_count);
    visit("expr_count", self.expr_count);
    visit("budget_exhausted", self.budget_exhausted);
  }
};

/// Optimize one seed-determined random query, optionally with rules
/// disabled — the remote probe for Plan(q, ¬R) behaviour. The query is
/// grown by the service's RandomQueryGenerator from `seed`, so the same
/// seed always optimizes the same query (SqlRequest ships a caller-chosen
/// query instead).
struct OptimizeRequest {
  uint64_t seed = 1;
  int32_t min_ops = 2;
  int32_t max_ops = 9;
  std::vector<RuleId> disabled_rules;
  RequestOptions options;

  using Response = OptimizeResponse;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("seed", self.seed);
    visit("min_ops", self.min_ops);
    visit("max_ops", self.max_ops);
    visit("disabled_rules", self.disabled_rules);
    visit("options", self.options);
  }
};

/// How a CompressSuiteRequest / CorrectnessRequest builds its test suite:
/// first `n_rules` logical rules as singleton targets (or all pairs over
/// them), k queries per target.
struct SuiteSpec {
  int32_t n_rules = 4;
  bool pairs = false;
  int32_t k = 2;
  GenerationMethod method = GenerationMethod::kPattern;
  int32_t max_trials = 2000;
  int32_t extra_ops = 0;
  uint64_t seed = 1;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("n_rules", self.n_rules);
    visit("pairs", self.pairs);
    visit("k", self.k);
    visit("method", self.method);
    visit("max_trials", self.max_trials);
    visit("extra_ops", self.extra_ops);
    visit("seed", self.seed);
  }
};

enum class CompressionAlgorithm : uint8_t {
  kBaseline = 0,
  kSetMultiCover = 1,
  kTopKIndependent = 2,
  kNoSharingMatching = 3,
};

template <>
struct WireEnum<CompressionAlgorithm> {
  static constexpr CompressionAlgorithm kLast =
      CompressionAlgorithm::kNoSharingMatching;
};

const char* CompressionAlgorithmToString(CompressionAlgorithm algorithm);

struct CompressSuiteResponse {
  int32_t suite_queries = 0;
  /// Per target: query indices into the generated suite.
  std::vector<std::vector<int32_t>> assignment;
  double total_cost = 0.0;
  int64_t optimizer_calls = 0;
  int32_t degraded_targets = 0;
  int32_t estimated_edges = 0;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("suite_queries", self.suite_queries);
    visit("assignment", self.assignment);
    visit("total_cost", self.total_cost);
    visit("optimizer_calls", self.optimizer_calls);
    visit("degraded_targets", self.degraded_targets);
    visit("estimated_edges", self.estimated_edges);
  }
};

/// Generate a suite per `suite` and compress it with `algorithm`.
struct CompressSuiteRequest {
  SuiteSpec suite;
  CompressionAlgorithm algorithm = CompressionAlgorithm::kTopKIndependent;
  /// TopKIndependent only (Section 5.3.1).
  bool exploit_monotonicity = true;
  RequestOptions options;

  using Response = CompressSuiteResponse;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("suite", self.suite);
    visit("algorithm", self.algorithm);
    visit("exploit_monotonicity", self.exploit_monotonicity);
    visit("options", self.options);
  }
};

struct ViolationSummary {
  int32_t target = -1;
  int32_t query = -1;
  std::string target_name;
  std::string sql;
  int64_t base_rows = 0;
  int64_t restricted_rows = 0;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("target", self.target);
    visit("query", self.query);
    visit("target_name", self.target_name);
    visit("sql", self.sql);
    visit("base_rows", self.base_rows);
    visit("restricted_rows", self.restricted_rows);
  }
};

struct CorrectnessResponse {
  int32_t plans_executed = 0;
  int32_t skipped_identical_plans = 0;
  int32_t skipped_unavailable = 0;
  std::vector<ViolationSummary> violations;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("plans_executed", self.plans_executed);
    visit("skipped_identical_plans", self.skipped_identical_plans);
    visit("skipped_unavailable", self.skipped_unavailable);
    visit("violations", self.violations);
  }
};

/// Generate a suite, compress it, and execute the compressed assignment
/// for correctness — the paper's full pipeline as one request.
struct CorrectnessRequest {
  SuiteSpec suite;
  CompressionAlgorithm algorithm = CompressionAlgorithm::kTopKIndependent;
  bool exploit_monotonicity = true;
  RequestOptions options;

  using Response = CorrectnessResponse;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("suite", self.suite);
    visit("algorithm", self.algorithm);
    visit("exploit_monotonicity", self.exploit_monotonicity);
    visit("options", self.options);
  }
};

/// What to do with a SqlRequest after binding succeeds.
enum class SqlMode : uint8_t {
  /// Parse + bind only: report the bound tree's fingerprint, canonical SQL
  /// and operator count.
  kParseOnly = 0,
  /// Additionally optimize the bound tree (shared plan cache, budget).
  kOptimize = 1,
  /// Additionally run the correctness pipeline on the bound query: every
  /// logical rule the optimizer exercised becomes a singleton target,
  /// validated by executing Plan(q) against Plan(q, ¬rule).
  kCorrectness = 2,
};

template <>
struct WireEnum<SqlMode> {
  static constexpr SqlMode kLast = SqlMode::kCorrectness;
};

const char* SqlModeToString(SqlMode mode);

/// Deterministic like the other responses: no wall-clock fields, so the
/// same statement yields byte-identical payloads across transports. The
/// optimize fields are meaningful for kOptimize/kCorrectness, the
/// correctness fields for kCorrectness only; both groups are otherwise
/// zero/empty.
struct SqlResponse {
  /// TreeFingerprint of the bound logical tree — the round-trip witness:
  /// re-submitting `canonical_sql` reports the same fingerprint.
  uint64_t fingerprint = 0;
  std::string canonical_sql;
  int32_t operator_count = 0;
  // kOptimize / kCorrectness:
  double cost = 0.0;
  std::vector<RuleId> exercised_rules;  // ascending
  int32_t group_count = 0;
  int64_t expr_count = 0;
  bool budget_exhausted = false;
  // kCorrectness:
  int32_t plans_executed = 0;
  int32_t skipped_identical_plans = 0;
  int32_t skipped_unavailable = 0;
  std::vector<ViolationSummary> violations;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("fingerprint", self.fingerprint);
    visit("canonical_sql", self.canonical_sql);
    visit("operator_count", self.operator_count);
    visit("cost", self.cost);
    visit("exercised_rules", self.exercised_rules);
    visit("group_count", self.group_count);
    visit("expr_count", self.expr_count);
    visit("budget_exhausted", self.budget_exhausted);
    visit("plans_executed", self.plans_executed);
    visit("skipped_identical_plans", self.skipped_identical_plans);
    visit("skipped_unavailable", self.skipped_unavailable);
    visit("violations", self.violations);
  }
};

/// Submit a SQL statement (SQL frontend, src/sql/, docs/sql.md) instead of
/// a seed — the request type that ships a caller-chosen query over the
/// wire. The statement is parsed and bound against the resident catalog;
/// canonical renderer output (GenerateSql) round-trips to the exact
/// original tree.
struct SqlRequest {
  std::string sql;
  SqlMode mode = SqlMode::kParseOnly;
  RequestOptions options;

  using Response = SqlResponse;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("sql", self.sql);
    visit("mode", self.mode);
    visit("options", self.options);
  }
};

struct LoadRulesResponse {
  /// Ids assigned by the registry, in spec order (empty on dry_run).
  std::vector<RuleId> ids;
  /// Rule names in spec order.
  std::vector<std::string> names;
  /// Number of rules that compiled (== names.size()).
  int32_t compiled = 0;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("ids", self.ids);
    visit("names", self.names);
    visit("compiled", self.compiled);
  }
};

/// Load declarative .qtr rule specs (src/ruledsl/, docs/RULES.md) into the
/// resident registry, so a long-running daemon can ingest candidate rules
/// — hand-written or machine-generated — and immediately test them with
/// Sql/Correctness requests. Malformed or ill-bound specs are rejected
/// with their line:col diagnostics (kInvalidArgument); a name collision
/// with any resident rule is kAlreadyExists and nothing is registered
/// (each request is all-or-nothing).
struct LoadRulesRequest {
  /// Text of one or more .qtr rule specs.
  std::string text;
  /// Compile and validate only; report what would be registered.
  bool dry_run = false;
  RequestOptions options;

  using Response = LoadRulesResponse;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("text", self.text);
    visit("dry_run", self.dry_run);
    visit("options", self.options);
  }
};

struct RuleInfo {
  RuleId id = -1;
  std::string name;
  /// RuleType as its wire value: 0 exploration, 1 implementation.
  uint8_t type = 0;
  /// PatternNode::ToString rendering, e.g. "Join[Inner](Any, Any)".
  std::string pattern;
  /// RuleOrigin as its wire value: 0 builtin, 1 dsl.
  uint8_t origin = 0;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("id", self.id);
    visit("name", self.name);
    visit("type", self.type);
    visit("pattern", self.pattern);
    visit("origin", self.origin);
  }
};

struct ListRulesResponse {
  std::vector<RuleInfo> rules;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("rules", self.rules);
  }
};

/// List the resident rule registry — introspection for `qtfctl rules`.
struct ListRulesRequest {
  using Response = ListRulesResponse;

  template <class Self, class Visitor>
  static void Fields(Self&, Visitor&&) {}
};

struct MetricsResponse {
  std::string body;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("body", self.body);
  }
};

/// Snapshot of the resident framework's metrics registry — the service's
/// `/metrics` endpoint. Never shed by admission control, so the registry
/// stays observable exactly when the service is overloaded.
struct MetricsRequest {
  /// false (default): MetricsSnapshot JSON; true: the aligned text form.
  bool text = false;

  using Response = MetricsResponse;

  template <class Self, class Visitor>
  static void Fields(Self& self, Visitor&& visit) {
    visit("text", self.text);
  }
};

/// The transport-neutral request/response surface: everything a transport
/// can carry, everything RuleTestService can execute.
using ServiceRequest =
    std::variant<GenerateRequest, OptimizeRequest, CompressSuiteRequest,
                 CorrectnessRequest, SqlRequest, LoadRulesRequest,
                 ListRulesRequest, MetricsRequest>;
using ServiceResponse =
    std::variant<GenerateResponse, OptimizeResponse, CompressSuiteResponse,
                 CorrectnessResponse, SqlResponse, LoadRulesResponse,
                 ListRulesResponse, MetricsResponse>;

}  // namespace service
}  // namespace qtf

#endif  // QTF_SERVICE_API_H_
