// The qtfd wire protocol (src/net/wire.h): frame round-trips through an
// incrementally-fed decoder, per-message encode/decode round-trips, golden
// payload bytes for every message type (the frozen wire format),
// rejection of every class of malformed input, and a seeded fuzz loop —
// truncations, bit flips and pure garbage must come back as clean
// kInvalidArgument results, never a crash, hang or giant allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "net/wire.h"

namespace qtf {
namespace net {
namespace {

service::GenerateRequest SampleGenerateRequest() {
  service::GenerateRequest request;
  request.targets = {3, 7};
  request.method = GenerationMethod::kRandom;
  request.max_trials = 123;
  request.extra_ops = 2;
  request.seed = 0xdeadbeefcafef00dULL;
  request.require_relevant = false;
  request.options.budget.wall_seconds = 1.5;
  request.options.budget.max_memo_groups = 400;
  request.options.budget.max_memo_exprs = 9000;
  request.options.deadline_seconds = 2.25;
  return request;
}

service::CompressSuiteResponse SampleCompressResponse() {
  service::CompressSuiteResponse response;
  response.suite_queries = 6;
  response.assignment = {{0, 2}, {}, {1, 3, 5}};
  response.total_cost = 123.5;
  response.optimizer_calls = 77;
  response.degraded_targets = 1;
  response.estimated_edges = 12;
  return response;
}

service::SqlRequest SampleSqlRequest() {
  service::SqlRequest request;
  request.sql = "SELECT l_orderkey FROM lineitem WHERE l_quantity < 25";
  request.mode = service::SqlMode::kOptimize;
  request.options.deadline_seconds = 3.5;
  return request;
}

// Decode accepts exactly what Encode produces: a payload either fails as
// kInvalidArgument or decodes to a message that re-encodes to it exactly.
template <class Message>
::testing::AssertionResult ExactOrInvalid(
    const Result<Message>& decoded, std::string (*encode)(const Message&),
    const std::string& payload) {
  if (!decoded.ok()) {
    if (decoded.status().code() == StatusCode::kInvalidArgument) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << decoded.status().ToString();
  }
  const std::string again = encode(*decoded);
  if (again == payload) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "decoded payload re-encodes differently (" << payload.size()
         << " bytes in, " << again.size() << " out)";
}

::testing::AssertionResult DecodesExactlyOrFails(MessageType type,
                                                 const std::string& payload) {
  if (IsRequestType(type)) {
    return ExactOrInvalid(DecodeRequest(type, payload), &EncodeRequest,
                          payload);
  }
  return ExactOrInvalid(DecodeResponse(type, payload), &EncodeResponse,
                        payload);
}

TEST(WireTest, FrameRoundTrip) {
  const std::string payload = "hello payload";
  const std::string bytes =
      EncodeFrame(MessageType::kMetricsRequest, 42, payload);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame).value());
  EXPECT_EQ(frame.type, MessageType::kMetricsRequest);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(decoder.Next(&frame).value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireTest, DecoderHandlesBytewiseFeedAndBackToBackFrames) {
  const std::string a = EncodeFrame(MessageType::kGenerateRequest, 1, "aa");
  const std::string b = EncodeFrame(MessageType::kOptimizeRequest, 2, "");
  const std::string stream = a + b;

  FrameDecoder decoder;
  int frames = 0;
  Frame frame;
  for (char c : stream) {
    decoder.Feed(std::string_view(&c, 1));
    while (decoder.Next(&frame).value()) {
      ++frames;
      if (frames == 1) {
        EXPECT_EQ(frame.type, MessageType::kGenerateRequest);
        EXPECT_EQ(frame.payload, "aa");
      } else {
        EXPECT_EQ(frame.type, MessageType::kOptimizeRequest);
        EXPECT_EQ(frame.request_id, 2u);
      }
    }
  }
  EXPECT_EQ(frames, 2);
}

TEST(WireTest, DecoderRejectsMalformedHeaders) {
  Frame frame;
  {
    // Wrong magic.
    FrameDecoder decoder;
    decoder.Feed(std::string(kFrameHeaderBytes, '\0'));
    Result<bool> got = decoder.Next(&frame);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Wrong version.
    std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
    bytes[4] = 99;
    FrameDecoder decoder;
    decoder.Feed(bytes);
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  {
    // Unknown message type.
    std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
    bytes[5] = 100;
    FrameDecoder decoder;
    decoder.Feed(bytes);
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  {
    // Nonzero reserved bits.
    std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
    bytes[6] = 1;
    FrameDecoder decoder;
    decoder.Feed(bytes);
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  {
    // Oversized payload length.
    std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
    bytes[15] = 0x7f;  // payload_bytes high byte -> ~2 GiB
    FrameDecoder decoder;
    decoder.Feed(bytes);
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
}

TEST(WireTest, GenerateRequestRoundTrip) {
  const service::GenerateRequest request = SampleGenerateRequest();
  const std::string payload = Encode(request);
  auto decoded = Decode<service::GenerateRequest>(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->targets, request.targets);
  EXPECT_EQ(decoded->method, request.method);
  EXPECT_EQ(decoded->max_trials, request.max_trials);
  EXPECT_EQ(decoded->extra_ops, request.extra_ops);
  EXPECT_EQ(decoded->seed, request.seed);
  EXPECT_EQ(decoded->require_relevant, request.require_relevant);
  EXPECT_EQ(decoded->options.budget.wall_seconds,
            request.options.budget.wall_seconds);
  EXPECT_EQ(decoded->options.budget.max_memo_groups,
            request.options.budget.max_memo_groups);
  EXPECT_EQ(decoded->options.budget.max_memo_exprs,
            request.options.budget.max_memo_exprs);
  EXPECT_EQ(decoded->options.deadline_seconds,
            request.options.deadline_seconds);
  // Deterministic: re-encoding the decoded struct reproduces the bytes.
  EXPECT_EQ(Encode(*decoded), payload);
}

TEST(WireTest, CompressSuiteResponseRoundTrip) {
  const service::CompressSuiteResponse response = SampleCompressResponse();
  const std::string payload = Encode(response);
  auto decoded = Decode<service::CompressSuiteResponse>(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->suite_queries, response.suite_queries);
  EXPECT_EQ(decoded->assignment, response.assignment);
  EXPECT_EQ(decoded->total_cost, response.total_cost);
  EXPECT_EQ(decoded->optimizer_calls, response.optimizer_calls);
  EXPECT_EQ(decoded->degraded_targets, response.degraded_targets);
  EXPECT_EQ(decoded->estimated_edges, response.estimated_edges);
  EXPECT_EQ(Encode(*decoded), payload);
}

TEST(WireTest, CorrectnessResponseRoundTrip) {
  service::CorrectnessResponse response;
  response.plans_executed = 9;
  response.skipped_identical_plans = 3;
  response.skipped_unavailable = 1;
  service::ViolationSummary v;
  v.target = 2;
  v.query = 4;
  v.target_name = "R3+R7";
  v.sql = "SELECT *";
  v.base_rows = 100;
  v.restricted_rows = 90;
  response.violations.push_back(v);

  const std::string payload = Encode(response);
  auto decoded = Decode<service::CorrectnessResponse>(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->violations.size(), 1u);
  EXPECT_EQ(decoded->violations[0].target_name, "R3+R7");
  EXPECT_EQ(decoded->violations[0].base_rows, 100);
  EXPECT_EQ(Encode(*decoded), payload);
}

TEST(WireTest, SqlRequestRoundTrip) {
  const service::SqlRequest request = SampleSqlRequest();
  const std::string payload = Encode(request);
  auto decoded = Decode<service::SqlRequest>(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sql, request.sql);
  EXPECT_EQ(decoded->mode, request.mode);
  EXPECT_EQ(decoded->options.deadline_seconds,
            request.options.deadline_seconds);
  EXPECT_EQ(Encode(*decoded), payload);
}

TEST(WireTest, SqlRequestRejectsUnknownMode) {
  service::SqlRequest request = SampleSqlRequest();
  std::string payload = Encode(request);
  // The mode byte sits right after the length-prefixed sql string.
  payload[4 + request.sql.size()] = 9;
  auto decoded = Decode<service::SqlRequest>(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, SqlResponseRoundTrip) {
  service::SqlResponse response;
  response.fingerprint = 0xabcdef0123456789ULL;
  response.canonical_sql = "SELECT l_orderkey AS c1 FROM lineitem";
  response.operator_count = 3;
  response.cost = 17.25;
  response.exercised_rules = {1, 4};
  response.group_count = 8;
  response.expr_count = 21;
  response.budget_exhausted = true;
  response.plans_executed = 2;
  response.skipped_identical_plans = 1;
  service::ViolationSummary v;
  v.target = 0;
  v.query = 0;
  v.target_name = "R4";
  v.sql = "SELECT *";
  v.base_rows = 10;
  v.restricted_rows = 12;
  response.violations.push_back(v);

  const std::string payload = Encode(response);
  auto decoded = Decode<service::SqlResponse>(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->fingerprint, response.fingerprint);
  EXPECT_EQ(decoded->canonical_sql, response.canonical_sql);
  EXPECT_EQ(decoded->operator_count, response.operator_count);
  EXPECT_EQ(decoded->cost, response.cost);
  EXPECT_EQ(decoded->exercised_rules, response.exercised_rules);
  EXPECT_EQ(decoded->budget_exhausted, response.budget_exhausted);
  ASSERT_EQ(decoded->violations.size(), 1u);
  EXPECT_EQ(decoded->violations[0].target_name, "R4");
  EXPECT_EQ(decoded->violations[0].restricted_rows, 12);
  EXPECT_EQ(Encode(*decoded), payload);
}

TEST(WireTest, LoadRulesRequestRoundTrip) {
  service::LoadRulesRequest request;
  request.text = "rule R { match s: select(select($X)) rewrite $X }";
  request.dry_run = true;
  request.options.deadline_seconds = 2.5;
  const std::string payload = Encode(request);
  auto decoded = Decode<service::LoadRulesRequest>(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->text, request.text);
  EXPECT_EQ(decoded->dry_run, request.dry_run);
  EXPECT_EQ(decoded->options.deadline_seconds,
            request.options.deadline_seconds);
  EXPECT_EQ(Encode(*decoded), payload);
}

TEST(WireTest, LoadRulesResponseRoundTrip) {
  service::LoadRulesResponse response;
  response.ids = {39, 40};
  response.names = {"RuleA", "RuleB"};
  response.compiled = 2;
  const std::string payload = Encode(response);
  auto decoded = Decode<service::LoadRulesResponse>(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->ids, response.ids);
  EXPECT_EQ(decoded->names, response.names);
  EXPECT_EQ(decoded->compiled, response.compiled);
  EXPECT_EQ(Encode(*decoded), payload);
}

TEST(WireTest, ListRulesRoundTrip) {
  // The request has no fields; its payload is empty by construction.
  EXPECT_TRUE(Encode(service::ListRulesRequest{}).empty());
  ASSERT_TRUE(Decode<service::ListRulesRequest>("").ok());

  service::ListRulesResponse response;
  service::RuleInfo builtin;
  builtin.id = 0;
  builtin.name = "JoinCommutativity";
  builtin.type = 0;
  builtin.pattern = "Join[Inner](Any, Any)";
  builtin.origin = 0;
  service::RuleInfo dsl;
  dsl.id = 39;
  dsl.name = "DslProbe";
  dsl.type = 0;
  dsl.pattern = "Select(Select(Any))";
  dsl.origin = 1;
  response.rules = {builtin, dsl};
  const std::string payload = Encode(response);
  auto decoded = Decode<service::ListRulesResponse>(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->rules.size(), 2u);
  EXPECT_EQ(decoded->rules[0].name, "JoinCommutativity");
  EXPECT_EQ(decoded->rules[0].origin, 0);
  EXPECT_EQ(decoded->rules[1].id, 39);
  EXPECT_EQ(decoded->rules[1].name, "DslProbe");
  EXPECT_EQ(decoded->rules[1].pattern, "Select(Select(Any))");
  EXPECT_EQ(decoded->rules[1].origin, 1);
  EXPECT_EQ(Encode(*decoded), payload);
}

TEST(WireTest, LoadAndListRulesRejectMalformedPayloads) {
  service::LoadRulesResponse load;
  load.ids = {1};
  load.names = {"R"};
  load.compiled = 1;
  const std::string load_payload = Encode(load);
  for (size_t n = 0; n < load_payload.size(); ++n) {
    auto decoded = Decode<service::LoadRulesResponse>(
        std::string_view(load_payload).substr(0, n));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    auto trailing = Decode<service::LoadRulesResponse>(load_payload + "x");
    ASSERT_FALSE(trailing.ok());
    EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // A garbage name count must be caught by the count-vs-remaining guard,
    // not drive a giant reserve. Layout: empty ids vector, then 0xffffffff
    // as the name count with no bytes behind it.
    std::string huge_count(4, '\0');
    huge_count += std::string(4, '\xff');
    auto decoded = Decode<service::LoadRulesResponse>(huge_count);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }

  service::RuleInfo info;
  info.id = 7;
  info.name = "R";
  info.pattern = "Any";
  service::ListRulesResponse list;
  list.rules = {info};
  const std::string list_payload = Encode(list);
  for (size_t n = 0; n < list_payload.size(); ++n) {
    auto decoded = Decode<service::ListRulesResponse>(
        std::string_view(list_payload).substr(0, n));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  auto request_trailing = Decode<service::ListRulesRequest>("x");
  ASSERT_FALSE(request_trailing.ok());
  EXPECT_EQ(request_trailing.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, ErrorRoundTripUsesFrozenWireCodes) {
  const Status error =
      Status::ResourceExhausted("admission queue full; retry with backoff");
  Status decoded;
  ASSERT_TRUE(DecodeError(EncodeError(error), &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message(), error.message());
}

TEST(WireTest, BoolBytesOtherThanZeroAndOneAreInvalid) {
  ASSERT_TRUE(Decode<service::MetricsRequest>(std::string(1, '\x01')).ok());
  auto decoded = Decode<service::MetricsRequest>(std::string(1, '\x02'));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, MessageTableNamesAndPairsEveryType) {
  EXPECT_EQ(MessageTypeToString(MessageType::kError), "error");
  EXPECT_EQ(MessageTypeToString(MessageType::kCompressSuiteResponse),
            "compress_suite_response");
  EXPECT_EQ(MessageTypeToString(MessageType::kListRulesRequest),
            "list_rules_request");
  for (uint8_t t = 1; t <= kMaxMessageType; ++t) {
    const MessageType type = static_cast<MessageType>(t);
    EXPECT_EQ(IsRequestType(type), t % 2 == 1) << MessageTypeToString(type);
    if (IsRequestType(type)) {
      EXPECT_EQ(ResponseTypeFor(type), static_cast<MessageType>(t + 1));
    }
  }
  EXPECT_FALSE(IsRequestType(MessageType::kError));
  // Wire numbers are declared, not derived from variant order.
  const service::ServiceRequest metrics = service::MetricsRequest{};
  EXPECT_EQ(metrics.index(), 7u);
  EXPECT_EQ(RequestType(metrics), MessageType::kMetricsRequest);
  EXPECT_EQ(ResponseType(service::ServiceResponse(service::SqlResponse{})),
            MessageType::kSqlResponse);
}

TEST(WireTest, DumpPrintsEveryFieldByPath) {
  service::LoadRulesResponse load;
  load.ids = {39, 40};
  load.names = {"RuleA", "RuleB"};
  load.compiled = 2;
  EXPECT_EQ(Dump(load), "ids: [39, 40]\nnames: [RuleA, RuleB]\ncompiled: 2\n");

  EXPECT_EQ(Dump(SampleCompressResponse()),
            "suite_queries: 6\n"
            "assignment: [[0, 2], [], [1, 3, 5]]\n"
            "total_cost: 123.5\n"
            "optimizer_calls: 77\n"
            "degraded_targets: 1\n"
            "estimated_edges: 12\n");

  const std::string generate = Dump(SampleGenerateRequest());
  EXPECT_NE(generate.find("method: 0\n"), std::string::npos) << generate;
  EXPECT_NE(generate.find("require_relevant: false\n"), std::string::npos);
  EXPECT_NE(generate.find("options.budget.wall_seconds: 1.5\n"),
            std::string::npos);
  EXPECT_NE(generate.find("seed: 16045690984503111693\n"), std::string::npos);

  service::CorrectnessResponse clean;
  EXPECT_NE(Dump(clean).find("violations: []\n"), std::string::npos);
  service::CorrectnessResponse dirty;
  dirty.violations.resize(2);
  dirty.violations[1].target_name = "R4";
  dirty.violations[1].base_rows = -3;
  const std::string text = Dump(dirty);
  EXPECT_NE(text.find("violations[1].target_name: R4\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("violations[1].base_rows: -3\n"), std::string::npos);
  EXPECT_EQ(text.find("violations: []"), std::string::npos);
}

TEST(WireTest, VariantDispatchRoundTripsEveryRequestType) {
  const std::vector<service::ServiceRequest> requests = {
      SampleGenerateRequest(), service::OptimizeRequest{},
      service::CompressSuiteRequest{}, service::CorrectnessRequest{},
      SampleSqlRequest(),
      service::LoadRulesRequest{"rule R { match s: select($X) rewrite $X }",
                                true, {}},
      service::ListRulesRequest{}, service::MetricsRequest{true}};
  for (const service::ServiceRequest& request : requests) {
    const MessageType type = RequestType(request);
    EXPECT_TRUE(IsRequestType(type));
    auto decoded = DecodeRequest(type, EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->index(), request.index());
    EXPECT_EQ(EncodeRequest(*decoded), EncodeRequest(request));
  }
}

TEST(WireTest, TruncatedAndOversizedPayloadsAreInvalid) {
  const std::string payload = Encode(SampleGenerateRequest());
  // Every strict prefix is truncated; payload + junk has trailing bytes.
  for (size_t n = 0; n < payload.size(); ++n) {
    auto decoded = Decode<service::GenerateRequest>(
        std::string_view(payload).substr(0, n));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  auto trailing = Decode<service::GenerateRequest>(payload + "x");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, FuzzedPayloadsNeverCrashDecoders) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> length(0, 300);
  const MessageType kDecodable[] = {
      MessageType::kGenerateRequest,    MessageType::kGenerateResponse,
      MessageType::kOptimizeRequest,    MessageType::kOptimizeResponse,
      MessageType::kCompressSuiteRequest,
      MessageType::kCompressSuiteResponse,
      MessageType::kCorrectnessRequest, MessageType::kCorrectnessResponse,
      MessageType::kMetricsRequest,     MessageType::kMetricsResponse,
      MessageType::kSqlRequest,         MessageType::kSqlResponse,
      MessageType::kLoadRulesRequest,   MessageType::kLoadRulesResponse,
      MessageType::kListRulesRequest,   MessageType::kListRulesResponse,
  };
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string junk(static_cast<size_t>(length(rng)), '\0');
    for (char& c : junk) c = static_cast<char>(byte(rng));
    for (MessageType type : kDecodable) {
      ASSERT_TRUE(DecodesExactlyOrFails(type, junk))
          << MessageTypeToString(type) << ", iteration " << iteration;
    }
    Status sink;
    (void)DecodeError(junk, &sink);
  }
}

TEST(WireTest, FuzzedFrameStreamsNeverCrashTheDecoder) {
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> chunk_len(1, 64);
  std::uniform_int_distribution<int> mode(0, 2);

  for (int iteration = 0; iteration < 500; ++iteration) {
    // Build a stream: valid frames, bit-flipped frames, or pure garbage.
    std::string stream;
    const int kind = mode(rng);
    if (kind == 0) {
      stream = EncodeFrame(MessageType::kGenerateRequest, iteration,
                           Encode(SampleGenerateRequest()));
    } else if (kind == 1) {
      stream = EncodeFrame(MessageType::kMetricsRequest, iteration, "");
      const size_t flip = rng() % stream.size();
      stream[flip] = static_cast<char>(stream[flip] ^ (1 << (rng() % 8)));
    } else {
      stream.resize(16 + rng() % 128);
      for (char& c : stream) c = static_cast<char>(byte(rng));
    }

    FrameDecoder decoder;
    size_t fed = 0;
    bool dead = false;
    while (fed < stream.size() && !dead) {
      const size_t n =
          std::min(stream.size() - fed, static_cast<size_t>(chunk_len(rng)));
      decoder.Feed(std::string_view(stream).substr(fed, n));
      fed += n;
      for (;;) {
        Frame frame;
        Result<bool> got = decoder.Next(&frame);
        if (!got.ok()) {
          // Malformed header: a real server closes the connection here.
          EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
          dead = true;
          break;
        }
        if (!got.value()) break;
        // Extracted frames route through payload decoding like the server.
        if (IsRequestType(frame.type)) {
          (void)DecodeRequest(frame.type, frame.payload);
        }
      }
    }
  }
}

// --- Frozen wire format ----------------------------------------------------
//
// One sample per message type, every field away from its default, and the
// exact payload bytes it encodes to. These bytes are the protocol: a codec
// change must reproduce them, never re-capture them.

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (char c : bytes) {
    hex += kDigits[static_cast<uint8_t>(c) >> 4];
    hex += kDigits[static_cast<uint8_t>(c) & 0xf];
  }
  return hex;
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(std::stoi(std::string(hex.substr(i, 2)),
                                         nullptr, 16));
  }
  return bytes;
}

service::RequestOptions GoldenOptions() {
  service::RequestOptions options;
  options.budget.wall_seconds = 0.1;  // fractional bit pattern
  options.budget.max_memo_groups = -400;
  options.budget.max_memo_exprs = 9000;
  options.deadline_seconds = 2.25;
  return options;
}

service::SuiteSpec GoldenSuite() {
  service::SuiteSpec suite;
  suite.n_rules = 5;
  suite.pairs = true;
  suite.k = 3;
  suite.method = GenerationMethod::kRandom;
  suite.max_trials = 50;
  suite.extra_ops = -1;
  suite.seed = 0x0102030405060708ULL;
  return suite;
}

std::vector<service::ViolationSummary> GoldenViolations() {
  service::ViolationSummary a;
  a.target = 2;
  a.query = 4;
  a.target_name = "R3+R7";
  a.sql = "SELECT *";
  a.base_rows = 100;
  a.restricted_rows = -90;
  service::ViolationSummary b;
  b.target = 0;
  b.query = 1;
  b.target_name = "R4";
  b.sql = "";
  b.base_rows = 1LL << 40;
  b.restricted_rows = 0;
  return {a, b};
}

struct GoldenRequest {
  uint8_t type;  // the frozen MessageType number
  service::ServiceRequest sample;
  const char* hex;
};

struct GoldenResponse {
  uint8_t type;
  service::ServiceResponse sample;
  const char* hex;
};

std::vector<GoldenRequest> GoldenRequests() {
  service::GenerateRequest generate;
  generate.targets = {3, 7};
  generate.method = GenerationMethod::kRandom;
  generate.max_trials = 123;
  generate.extra_ops = -2;
  generate.seed = 0xdeadbeefcafef00dULL;
  generate.require_relevant = true;
  generate.options = GoldenOptions();

  service::OptimizeRequest optimize;
  optimize.seed = 42;
  optimize.min_ops = 3;
  optimize.max_ops = 7;
  optimize.disabled_rules = {1, 12};
  optimize.options = GoldenOptions();

  service::CompressSuiteRequest compress;
  compress.suite = GoldenSuite();
  compress.algorithm = service::CompressionAlgorithm::kSetMultiCover;
  compress.exploit_monotonicity = false;
  compress.options = GoldenOptions();

  service::CorrectnessRequest correctness;
  correctness.suite = GoldenSuite();
  correctness.algorithm = service::CompressionAlgorithm::kNoSharingMatching;
  correctness.exploit_monotonicity = false;
  correctness.options = GoldenOptions();

  service::SqlRequest sql;
  sql.sql = "SELECT r_name FROM region";
  sql.mode = service::SqlMode::kCorrectness;
  sql.options = GoldenOptions();

  service::LoadRulesRequest load;
  load.text = "rule R { match s: select($X) rewrite $X }";
  load.dry_run = true;
  load.options = GoldenOptions();

  return {
      {1, generate,
       "020000000300000007000000007b000000feffffff0df0fecaefbeadde019a99"
       "99999999b93f70feffff28230000000000000000000000000240"},
      {3, optimize,
       "2a00000000000000030000000700000002000000010000000c0000009a999999"
       "9999b93f70feffff28230000000000000000000000000240"},
      {5, compress,
       "0500000001030000000032000000ffffffff080706050403020101009a999999"
       "9999b93f70feffff28230000000000000000000000000240"},
      {7, correctness,
       "0500000001030000000032000000ffffffff080706050403020103009a999999"
       "9999b93f70feffff28230000000000000000000000000240"},
      {9, service::MetricsRequest{true}, "01"},
      {11, sql,
       "1900000053454c45435420725f6e616d652046524f4d20726567696f6e029a99"
       "99999999b93f70feffff28230000000000000000000000000240"},
      {13, load,
       "2900000072756c652052207b206d6174636820733a2073656c65637428245829"
       "2072657772697465202458207d019a9999999999b93f70feffff282300000000"
       "00000000000000000240"},
      {15, service::ListRulesRequest{}, ""},
  };
}

std::vector<GoldenResponse> GoldenResponses() {
  service::GenerateResponse generate;
  generate.success = true;
  generate.sql = "SELECT 1";
  generate.rule_set = {2, 5};
  generate.cost = 3.14159;
  generate.operator_count = 4;
  generate.trials = 17;

  service::OptimizeResponse optimize;
  optimize.sql = "SELECT n_name FROM nation";
  optimize.cost = -0.5;
  optimize.exercised_rules = {0, 9};
  optimize.group_count = 6;
  optimize.expr_count = -5;
  optimize.budget_exhausted = true;

  service::CompressSuiteResponse compress;
  compress.suite_queries = 6;
  compress.assignment = {{0, 2}, {}, {1, 3, 5}};
  compress.total_cost = 123.456;
  compress.optimizer_calls = 77;
  compress.degraded_targets = 1;
  compress.estimated_edges = -12;

  service::CorrectnessResponse correctness;
  correctness.plans_executed = 9;
  correctness.skipped_identical_plans = 3;
  correctness.skipped_unavailable = 1;
  correctness.violations = GoldenViolations();

  service::SqlResponse sql;
  sql.fingerprint = 0xabcdef0123456789ULL;
  sql.canonical_sql = "SELECT r_name FROM region";
  sql.operator_count = 2;
  sql.cost = 17.3;
  sql.exercised_rules = {1, 4};
  sql.group_count = 8;
  sql.expr_count = 21;
  sql.budget_exhausted = true;
  sql.plans_executed = 2;
  sql.skipped_identical_plans = 1;
  sql.skipped_unavailable = -1;
  sql.violations = GoldenViolations();

  service::LoadRulesResponse load;
  load.ids = {39, 40};
  load.names = {"RuleA", "RuleB"};
  load.compiled = 2;

  service::RuleInfo builtin;
  builtin.id = 0;
  builtin.name = "JoinCommutativity";
  builtin.type = 1;
  builtin.pattern = "Join[Inner](Any, Any)";
  builtin.origin = 0;
  service::RuleInfo dsl;
  dsl.id = 39;
  dsl.name = "DslProbe";
  dsl.type = 0;
  dsl.pattern = "Select(Select(Any))";
  dsl.origin = 1;
  service::ListRulesResponse list;
  list.rules = {builtin, dsl};

  return {
      {2, generate,
       "010800000053454c45435420310200000002000000050000006e861bf0f92109"
       "400400000011000000"},
      {4, optimize,
       "1900000053454c454354206e5f6e616d652046524f4d206e6174696f6e000000"
       "000000e0bf02000000000000000900000006000000fbffffffffffffff01"},
      {6, compress,
       "0600000003000000020000000000000002000000000000000300000001000000"
       "030000000500000077be9f1a2fdd5e404d0000000000000001000000f4ffffff"},
      {8, correctness,
       "0900000003000000010000000200000002000000040000000500000052332b52"
       "370800000053454c454354202a6400000000000000a6ffffffffffffff000000"
       "00010000000200000052340000000000000000000100000000000000000000"},
      {10, service::MetricsResponse{"{\"counters\":{}}"},
       "0f0000007b22636f756e74657273223a7b7d7d"},
      {12, sql,
       "8967452301efcdab1900000053454c45435420725f6e616d652046524f4d2072"
       "6567696f6e02000000cdcccccccc4c3140020000000100000004000000080000"
       "001500000000000000010200000001000000ffffffff02000000020000000400"
       "00000500000052332b52370800000053454c454354202a6400000000000000a6"
       "ffffffffffffff00000000010000000200000052340000000000000000000100"
       "000000000000000000"},
      {14, load,
       "020000002700000028000000020000000500000052756c65410500000052756c"
       "654202000000"},
      {16, list,
       "0200000000000000110000004a6f696e436f6d6d757461746976697479011500"
       "00004a6f696e5b496e6e65725d28416e792c20416e7929002700000008000000"
       "44736c50726f6265001300000053656c6563742853656c65637428416e792929"
       "01"},
  };
}

TEST(WireGoldenTest, EveryRequestTypeEncodesToItsFrozenBytes) {
  for (const GoldenRequest& golden : GoldenRequests()) {
    SCOPED_TRACE("message type " + std::to_string(golden.type));
    EXPECT_EQ(ToHex(EncodeRequest(golden.sample)), golden.hex);
    auto decoded =
        DecodeRequest(static_cast<MessageType>(golden.type),
                      FromHex(golden.hex));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->index(), golden.sample.index());
    EXPECT_EQ(ToHex(EncodeRequest(*decoded)), golden.hex);
  }
}

TEST(WireGoldenTest, EveryResponseTypeEncodesToItsFrozenBytes) {
  for (const GoldenResponse& golden : GoldenResponses()) {
    SCOPED_TRACE("message type " + std::to_string(golden.type));
    EXPECT_EQ(ToHex(EncodeResponse(golden.sample)), golden.hex);
    auto decoded =
        DecodeResponse(static_cast<MessageType>(golden.type),
                       FromHex(golden.hex));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->index(), golden.sample.index());
    EXPECT_EQ(ToHex(EncodeResponse(*decoded)), golden.hex);
  }
}

TEST(WireGoldenTest, ErrorPayloadAndFrameHeaderAreFrozen) {
  const char* kErrorHex =
      "0a0000001400000061646d697373696f6e2071756575652066756c6c";
  const std::string error =
      EncodeError(Status::ResourceExhausted("admission queue full"));
  EXPECT_EQ(ToHex(error), kErrorHex);
  Status decoded;
  ASSERT_TRUE(DecodeError(FromHex(kErrorHex), &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ToHex(EncodeError(decoded)), kErrorHex);

  EXPECT_EQ(ToHex(EncodeFrame(static_cast<MessageType>(12), 0x01020304u,
                              "ab")),
            "57465451"   // magic
            "01"         // version
            "0c"         // type 12
            "0000"       // reserved
            "04030201"   // request id
            "02000000"   // payload bytes
            "6162");
}

// kError payloads are exempt: an unknown status code deliberately decodes
// as kInternal so that old clients read errors from newer servers.
TEST(WireGoldenTest, SingleByteMutationsDecodeExactlyOrFail) {
  std::vector<std::pair<MessageType, std::string>> payloads;
  for (const GoldenRequest& golden : GoldenRequests()) {
    payloads.emplace_back(static_cast<MessageType>(golden.type),
                          FromHex(golden.hex));
  }
  for (const GoldenResponse& golden : GoldenResponses()) {
    payloads.emplace_back(static_cast<MessageType>(golden.type),
                          FromHex(golden.hex));
  }
  for (const auto& [type, payload] : payloads) {
    for (size_t i = 0; i < payload.size(); ++i) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string mutated = payload;
        mutated[i] = static_cast<char>(byte);
        ASSERT_TRUE(DecodesExactlyOrFails(type, mutated))
            << MessageTypeToString(type) << ": byte " << i << " set to "
            << byte;
      }
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace qtf
