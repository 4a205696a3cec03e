// qtfctl — command-line client for a running qtfd.
//
//   qtfctl [--host 127.0.0.1] [--port 7433] COMMAND
//
// Commands:
//   smoke     generate -> optimize -> compress -> sql -> metrics against
//             the server, verifying each response and that the server
//             counted the requests (qtf.service.requests > 0). Exit 0 iff
//             all pass. This is what the CI serving job runs.
//   sql SQL   parse, bind and (per --mode) optimize or correctness-test a
//             SQL statement on the server:
//               qtfctl sql "SELECT l_orderkey FROM lineitem" --mode optimize
//             --mode parse|optimize|correctness (default parse). Exit 1
//             when the correctness run finds violations.
//   metrics   print the server's metrics snapshot (JSON).
//   load-rules FILE
//             compile the .qtr rule specs in FILE (src/ruledsl/) and
//             register them into the server's resident registry. With
//             --dry-run, compile and validate only. Compile errors come
//             back with their line:column diagnostics.
//   rules     list the server's rule registry: id, name, type
//             (0 exploration, 1 implementation), pattern and origin
//             (0 builtin, 1 dsl).
//
// sql, load-rules and rules print the response as `field: value` lines
// (net::Dump), e.g. `canonical_sql: SELECT ...` or `rules[3].name: ...`.
// A malformed flag value (a port outside 0..65535, say) exits 2.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "client/client.h"

namespace {

int Fail(const char* what, const qtf::Status& status) {
  std::fprintf(stderr, "qtfctl: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

/// Pulls the integer value of `"name":` out of the metrics JSON; -1 when
/// the metric is absent.
long MetricValue(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtol(json.c_str() + at + needle.size(), nullptr, 10);
}

int RunSmoke(qtf::client::ServiceClient* client) {
  // Generate: one query for the first logical rule.
  qtf::service::GenerateRequest generate;
  generate.targets = {0};
  generate.seed = 7;
  auto generated = client->Call(generate);
  if (!generated.ok()) return Fail("generate", generated.status());
  if (!generated.value().success || generated.value().sql.empty()) {
    std::fprintf(stderr, "qtfctl: generate produced no query\n");
    return 1;
  }
  std::printf("generate: ok (%d operators, cost %.3f)\n",
              generated.value().operator_count, generated.value().cost);

  // Optimize: a seed-determined random query.
  qtf::service::OptimizeRequest optimize;
  optimize.seed = 11;
  auto optimized = client->Call(optimize);
  if (!optimized.ok()) return Fail("optimize", optimized.status());
  if (optimized.value().sql.empty() || optimized.value().group_count <= 0) {
    std::fprintf(stderr, "qtfctl: optimize returned an empty plan\n");
    return 1;
  }
  std::printf("optimize: ok (%d groups, cost %.3f)\n",
              optimized.value().group_count, optimized.value().cost);

  // Compress: a small suite over 3 rules.
  qtf::service::CompressSuiteRequest compress;
  compress.suite.n_rules = 3;
  compress.suite.k = 1;
  compress.suite.seed = 5;
  auto compressed = client->Call(compress);
  if (!compressed.ok()) return Fail("compress", compressed.status());
  if (compressed.value().assignment.empty()) {
    std::fprintf(stderr, "qtfctl: compression produced no assignment\n");
    return 1;
  }
  std::printf("compress: ok (%d suite queries, total cost %.3f)\n",
              compressed.value().suite_queries, compressed.value().total_cost);

  // Sql: a hand-written statement through the SQL frontend; re-submitting
  // the canonical rendering must report the same fingerprint.
  qtf::service::SqlRequest sql;
  sql.sql = "SELECT l_orderkey, l_extendedprice FROM lineitem "
            "WHERE l_quantity < 25";
  auto parsed = client->Call(sql);
  if (!parsed.ok()) return Fail("sql", parsed.status());
  if (parsed.value().fingerprint == 0 ||
      parsed.value().canonical_sql.empty()) {
    std::fprintf(stderr, "qtfctl: sql bound to an empty tree\n");
    return 1;
  }
  qtf::service::SqlRequest again;
  again.sql = parsed.value().canonical_sql;
  auto rebound = client->Call(again);
  if (!rebound.ok()) return Fail("sql (canonical re-parse)", rebound.status());
  if (rebound.value().fingerprint != parsed.value().fingerprint) {
    std::fprintf(stderr,
                 "qtfctl: canonical SQL re-bound to fingerprint %llx, "
                 "expected %llx\n",
                 static_cast<unsigned long long>(rebound.value().fingerprint),
                 static_cast<unsigned long long>(parsed.value().fingerprint));
    return 1;
  }
  std::printf("sql: ok (%d operators, fingerprint %016llx)\n",
              parsed.value().operator_count,
              static_cast<unsigned long long>(parsed.value().fingerprint));

  // Metrics: the server must have counted the requests above.
  auto metrics = client->Call(qtf::service::MetricsRequest{});
  if (!metrics.ok()) return Fail("metrics", metrics.status());
  const long requests =
      MetricValue(metrics.value().body, "qtf.service.requests");
  if (requests <= 0) {
    std::fprintf(stderr,
                 "qtfctl: expected qtf.service.requests > 0, got %ld\n",
                 requests);
    return 1;
  }
  const long sql_parsed = MetricValue(metrics.value().body, "qtf.sql.parsed");
  if (sql_parsed <= 0) {
    std::fprintf(stderr, "qtfctl: expected qtf.sql.parsed > 0, got %ld\n",
                 sql_parsed);
    return 1;
  }
  std::printf("metrics: ok (qtf.service.requests = %ld, qtf.sql.parsed = "
              "%ld)\n",
              requests, sql_parsed);
  std::printf("smoke: all checks passed\n");
  return 0;
}

/// Sends `request` and prints the response's field dump (net::Dump), one
/// `field: value` line per field; nullopt, after reporting the error, when
/// the call fails.
template <class Request>
std::optional<typename Request::Response> CallAndDump(
    qtf::client::ServiceClient* client, const char* what,
    const Request& request) {
  auto response = client->Call(request);
  if (!response.ok()) {
    Fail(what, response.status());
    return std::nullopt;
  }
  std::fputs(qtf::net::Dump(response.value()).c_str(), stdout);
  return std::move(response).value();
}

/// Parses a whole decimal string within [0, hi].
bool ParseInRange(const char* s, long hi, long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtol(s, &end, 10);
  return end != s && *end == '\0' && errno == 0 && *out >= 0 && *out <= hi;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7433;
  std::string mode_name = "parse";
  bool dry_run = false;
  std::vector<std::string> positional;

  const char* usage =
      "usage: %s [--host IP] [--port N] "
      "{smoke | metrics | sql SQL [--mode parse|optimize|correctness] | "
      "load-rules FILE [--dry-run] | rules}\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port") {
      long n = 0;
      if (i + 1 == argc || !ParseInRange(argv[i + 1], 65535, &n)) {
        std::fprintf(stderr, "qtfctl: bad or missing value for --port\n");
        std::fprintf(stderr, usage, argv[0]);
        return 2;
      }
      port = static_cast<uint16_t>(n);
      ++i;
    } else if (arg == "--mode" && i + 1 < argc) {
      mode_name = argv[++i];
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (!arg.empty() && arg[0] != '-' && positional.size() < 2) {
      positional.push_back(arg);
    } else {
      std::fprintf(stderr, usage, argv[0]);
      return 2;
    }
  }
  const std::string command = positional.empty() ? "" : positional[0];

  auto client_or = qtf::client::ServiceClient::Connect(host, port);
  if (!client_or.ok()) return Fail("connect", client_or.status());
  qtf::client::ServiceClient* client = client_or.value().get();

  if (command == "smoke") return RunSmoke(client);
  if (command == "sql") {
    if (positional.size() != 2) {
      std::fprintf(stderr, usage, argv[0]);
      return 2;
    }
    qtf::service::SqlMode mode;
    if (mode_name == "parse") {
      mode = qtf::service::SqlMode::kParseOnly;
    } else if (mode_name == "optimize") {
      mode = qtf::service::SqlMode::kOptimize;
    } else if (mode_name == "correctness") {
      mode = qtf::service::SqlMode::kCorrectness;
    } else {
      std::fprintf(stderr, "qtfctl: unknown --mode \"%s\"\n",
                   mode_name.c_str());
      return 2;
    }
    qtf::service::SqlRequest request;
    request.sql = positional[1];
    request.mode = mode;
    auto response = CallAndDump(client, "sql", request);
    if (!response) return 1;
    // Violations only come back from --mode correctness.
    return response->violations.empty() ? 0 : 1;
  }
  if (command == "load-rules") {
    if (positional.size() != 2) {
      std::fprintf(stderr, usage, argv[0]);
      return 2;
    }
    std::ifstream in(positional[1]);
    if (!in) {
      std::fprintf(stderr, "qtfctl: cannot read \"%s\"\n",
                   positional[1].c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    qtf::service::LoadRulesRequest request;
    request.text = std::move(text).str();
    request.dry_run = dry_run;
    return CallAndDump(client, "load-rules", request) ? 0 : 1;
  }
  if (command == "rules") {
    return CallAndDump(client, "rules", qtf::service::ListRulesRequest{}) ? 0
                                                                          : 1;
  }
  if (command == "metrics" || command.empty()) {
    auto metrics = client->Call(qtf::service::MetricsRequest{});
    if (!metrics.ok()) return Fail("metrics", metrics.status());
    std::printf("%s\n", metrics.value().body.c_str());
    return 0;
  }
  std::fprintf(stderr, "qtfctl: unknown command \"%s\"\n", command.c_str());
  return 2;
}
