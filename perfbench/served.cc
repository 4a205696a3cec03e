// The served leg: an in-process ServiceServer on loopback with two
// ServiceClient connections, one thread each, in a closed loop over a fixed
// corpus of canonical SQL (half parse-only, half optimize requests).

#include <thread>

#include "bench.h"

namespace qtf {
namespace perfbench {

Result<std::unique_ptr<ServedStack>> MakeStack() {
  auto stack = std::make_unique<ServedStack>();
  service::RuleTestService::Config config;
  config.framework.tpch.scale = kTpchScale;
  QTF_ASSIGN_OR_RETURN(stack->service,
                       service::RuleTestService::Create(std::move(config)));
  net::ServerConfig server_config;
  server_config.workers = 2;
  QTF_ASSIGN_OR_RETURN(
      stack->server,
      net::ServiceServer::Start(stack->service.get(), server_config));
  for (int i = 0; i < 2; ++i) {
    QTF_ASSIGN_OR_RETURN(
        std::unique_ptr<client::ServiceClient> client,
        client::ServiceClient::Connect("127.0.0.1", stack->server->port()));
    stack->clients.push_back(std::move(client));
  }
  return stack;
}

Result<std::vector<CorpusRequest>> BuildCorpus(
    service::RuleTestService* svc, const std::vector<std::string>& statements) {
  std::vector<CorpusRequest> corpus;
  for (const std::string& sql : statements) {
    for (bool optimize : {false, true}) {
      service::SqlRequest request;
      request.sql = sql;
      request.mode = optimize ? service::SqlMode::kOptimize
                              : service::SqlMode::kParseOnly;
      QTF_ASSIGN_OR_RETURN(service::ServiceResponse response,
                           svc->Execute(request));
      CorpusRequest entry;
      entry.optimize = optimize;
      entry.sql = sql;
      entry.payload = net::EncodeSqlRequest(request);
      entry.expected = net::EncodeResponse(response);
      corpus.push_back(std::move(entry));
    }
  }
  return corpus;
}

void RunServed(ServedStack* stack, const std::vector<CorpusRequest>& corpus,
               double seconds, ServedResult* total) {
  const size_t n_clients = stack->clients.size();
  if (total->next.empty()) {
    // Client c starts at its own offset and strides through the corpus, so
    // the connections interleave parse and optimize requests.
    for (size_t c = 0; c < n_clients; ++c) total->next.push_back(c);
  }
  std::vector<ServedResult> per_client(n_clients);
  const double start = Now();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      client::ServiceClient* client = stack->clients[c].get();
      ServedResult& out = per_client[c];
      size_t& i = total->next[c];
      for (; Now() < deadline; i += n_clients) {
        const CorpusRequest& request = corpus[i % corpus.size()];
        const auto t0 = std::chrono::steady_clock::now();
        Result<net::Frame> frame =
            client->CallRaw(net::MessageType::kSqlRequest, request.payload);
        const auto t1 = std::chrono::steady_clock::now();
        ++out.requests;
        if (!frame.ok() || frame->type != net::MessageType::kSqlResponse ||
            frame->payload != request.expected) {
          ++out.failed;
          if (!frame.ok()) return;  // the connection is gone
          continue;
        }
        const int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count();
        (request.optimize ? out.optimize_ns : out.parse_ns).push_back(ns);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  total->seconds += Now() - start;
  for (ServedResult& r : per_client) {
    total->requests += r.requests;
    total->failed += r.failed;
    total->parse_ns.insert(total->parse_ns.end(), r.parse_ns.begin(),
                           r.parse_ns.end());
    total->optimize_ns.insert(total->optimize_ns.end(),
                              r.optimize_ns.begin(), r.optimize_ns.end());
  }
}

}  // namespace perfbench
}  // namespace qtf
