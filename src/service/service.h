#ifndef QTF_SERVICE_SERVICE_H_
#define QTF_SERVICE_SERVICE_H_

#include <memory>
#include <shared_mutex>
#include <utility>
#include <variant>

#include "service/admission.h"
#include "service/api.h"
#include "sql/frontend.h"
#include "testing/framework.h"

namespace qtf {
namespace service {

/// The rule-testing framework as a multi-tenant service: one resident
/// RuleTestFramework executing plain request/response structs (service/api.h)
/// behind admission control, budgets, deadlines and cancellation. Callable
/// in-process (tests and embedders use the typed Call) and over the wire
/// identically — the TCP transport (src/net/) decodes a request,
/// runs it through Execute, and encodes whatever comes back, so a remote
/// call returns byte-identical payloads to a local one for the same seeds.
///
/// Residency is the point (ROADMAP item 1): the shared PlanCache,
/// NodeInterner and EvalProgramCache warm up across requests, so a busy
/// service answers repeat seeds from cache instead of re-searching.
///
/// Thread-safety: every method may be called concurrently. Requests execute
/// on the caller's thread (transports bring their own worker pool); shared
/// mutable state is confined to the framework's thread-safe components.
class RuleTestService {
 public:
  struct Config {
    /// The resident framework's configuration. Its ServiceLimits base
    /// doubles as this service's per-request admission control: default
    /// budget, default deadline, retry policy, max_queue_depth.
    RuleTestFramework::Options framework;
  };

  /// Validates the configuration (see RuleTestFramework::Create) and builds
  /// the resident framework.
  static Result<std::unique_ptr<RuleTestService>> Create(Config config);

  /// Typed entry point: Execute, unwrapped to the response answering
  /// `Request` — Call(OptimizeRequest{...}) is a Result<OptimizeResponse>.
  /// Admits through the gate (shedding with kResourceExhausted when
  /// max_queue_depth requests are in flight; MetricsRequest bypasses it),
  /// resolves budget/deadline fallbacks from limits(), and executes.
  template <class Request>
  Result<typename Request::Response> Call(const Request& request) {
    QTF_ASSIGN_OR_RETURN(ServiceResponse response, Execute(request));
    return std::get<typename Request::Response>(std::move(response));
  }

  /// Variant entry point for transports and generic callers: admits (except
  /// MetricsRequest), then dispatches.
  Result<ServiceResponse> Execute(const ServiceRequest& request);

  /// As Execute, but the caller already holds an admission ticket — this is
  /// what a transport calls after shedding at frame-receipt time, so a
  /// request is never counted against the gate twice. MetricsRequest needs
  /// (and consumes) no ticket.
  Result<ServiceResponse> ExecuteAdmitted(const ServiceRequest& request);

  /// The admission gate transports shed through before queueing work.
  AdmissionGate* admission() { return &gate_; }
  const ServiceLimits& limits() const { return framework_->limits(); }
  /// The resident framework (shared caches, metrics registry, rules).
  RuleTestFramework* framework() { return framework_.get(); }
  obs::MetricsRegistry* metrics() { return framework_->metrics(); }

 private:
  /// Deadline/budget/cancel resolution for one admitted request, plus its
  /// latency observation (qtf.service.request_seconds, counted on scope
  /// destruction so error paths are measured too).
  class RequestScope;

  explicit RuleTestService(std::unique_ptr<RuleTestFramework> framework);

  Status ValidateRuleIds(const std::vector<RuleId>& ids,
                         const char* field) const;
  Status ValidateSuiteSpec(const SuiteSpec& spec) const;
  /// Generates the suite and compresses it — the shared front half of
  /// the CompressSuite and Correctness requests. On success `suite` and
  /// `solution` are filled.
  Status BuildCompressedSuite(const SuiteSpec& spec,
                              CompressionAlgorithm algorithm,
                              bool exploit_monotonicity, RequestScope* scope,
                              TestSuite* suite, CompressionSolution* solution);

  // One overload per request type; ExecuteAdmitted visits into them.
  Result<GenerateResponse> Handle(const GenerateRequest& request);
  Result<OptimizeResponse> Handle(const OptimizeRequest& request);
  Result<CompressSuiteResponse> Handle(const CompressSuiteRequest& request);
  Result<CorrectnessResponse> Handle(const CorrectnessRequest& request);
  /// SQL text in, bound-tree facts (and optionally optimization /
  /// correctness results) out — the SQL frontend behind the service API.
  Result<SqlResponse> Handle(const SqlRequest& request);
  /// Compiles .qtr rule specs (src/ruledsl/) and registers them into the
  /// resident registry — the discovered-rule ingestion path. Registration
  /// invalidates the plan cache (cached results were computed under the
  /// smaller rule set) and extends the per-rule metric families.
  /// All-or-nothing: any compile error or name collision registers
  /// nothing.
  Result<LoadRulesResponse> Handle(const LoadRulesRequest& request);
  /// The resident registry: id, name, type, pattern, origin.
  Result<ListRulesResponse> Handle(const ListRulesRequest& request);
  /// Runs without an admission ticket: the registry must stay observable
  /// exactly when the service is saturated and shedding.
  Result<MetricsResponse> Handle(const MetricsRequest& request);

  std::unique_ptr<RuleTestFramework> framework_;
  /// Shares the framework's catalog, interner and metrics; thread-safe, so
  /// one resident frontend serves every SqlRequest.
  std::unique_ptr<sql::SqlFrontend> frontend_;
  AdmissionGate gate_;
  /// Readers-writer lock over the resident rule registry: every request
  /// holds it shared for its whole execution (registry iteration inside
  /// the optimizer must not race a vector push_back), LoadRules holds it
  /// exclusive while registering. Uncontended in the common case — rule
  /// loading is rare control-plane traffic.
  std::shared_mutex rules_mutex_;
  obs::Counter* requests_ = nullptr;        // qtf.service.requests
  obs::Counter* request_errors_ = nullptr;  // qtf.service.request_errors
  obs::Counter* dsl_loaded_ = nullptr;      // qtf.dsl.loaded
  obs::Histogram* request_seconds_ = nullptr;
};

}  // namespace service
}  // namespace qtf

#endif  // QTF_SERVICE_SERVICE_H_
