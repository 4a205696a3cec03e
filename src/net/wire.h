#ifndef QTF_NET_WIRE_H_
#define QTF_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "service/api.h"

namespace qtf {
namespace net {

/// The qtfd wire protocol: length-prefixed binary frames over a byte
/// stream (docs/serving.md has the full layout). Everything here is pure
/// serialization — no sockets — so the whole protocol is unit- and
/// fuzz-testable in-process (tests/test_wire.cc).
///
/// Frame header, 16 bytes, little-endian:
///
///   offset 0  u32  magic         0x51544657 ("QTFW")
///   offset 4  u8   version       kWireVersion
///   offset 5  u8   type          MessageType
///   offset 6  u16  reserved      must be 0
///   offset 8  u32  request_id    echoed verbatim in the response frame
///   offset 12 u32  payload_bytes length of the payload that follows
///
/// The request id exists for out-of-order completion: a server executing
/// requests on a worker pool writes each response frame as it finishes,
/// tagged with the id of the request it answers, so one connection can
/// have many requests in flight.
inline constexpr uint32_t kFrameMagic = 0x51544657;  // "QTFW"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Upper bound on a frame payload. Anything larger is a protocol error
/// (the connection is closed), which also caps what a hostile peer can
/// make the server buffer.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

enum class MessageType : uint8_t {
  /// Error response: payload is {i32 wire status code, string message}.
  kError = 0,
  kGenerateRequest = 1,
  kGenerateResponse = 2,
  kOptimizeRequest = 3,
  kOptimizeResponse = 4,
  kCompressSuiteRequest = 5,
  kCompressSuiteResponse = 6,
  kCorrectnessRequest = 7,
  kCorrectnessResponse = 8,
  kMetricsRequest = 9,
  kMetricsResponse = 10,
  kSqlRequest = 11,
  kSqlResponse = 12,
  kLoadRulesRequest = 13,
  kLoadRulesResponse = 14,
  kListRulesRequest = 15,
  kListRulesResponse = 16,
};
inline constexpr uint8_t kMaxMessageType =
    static_cast<uint8_t>(MessageType::kListRulesResponse);

std::string MessageTypeToString(MessageType type);
bool IsRequestType(MessageType type);
/// The response type answering a given request type (kError aside).
MessageType ResponseTypeFor(MessageType request_type);

/// One complete decoded frame.
struct Frame {
  MessageType type = MessageType::kError;
  uint32_t request_id = 0;
  std::string payload;
};

/// Serializes a complete frame (header + payload).
std::string EncodeFrame(MessageType type, uint32_t request_id,
                        std::string_view payload);

/// Incremental frame extractor for a byte stream. Feed() whatever arrived;
/// Next() yields complete frames. Any malformed header — wrong magic,
/// unknown version or type, nonzero reserved bits, oversized payload —
/// returns kInvalidArgument, after which the stream is unsynchronized and
/// the connection must be closed. Truncation is not an error, just "need
/// more bytes".
class FrameDecoder {
 public:
  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  /// True + *frame filled when a complete frame was extracted; false when
  /// more bytes are needed; kInvalidArgument on a malformed header.
  Result<bool> Next(Frame* frame);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Append-only payload builder. All integers little-endian; doubles as
/// their IEEE-754 bit pattern; strings and vectors length-prefixed with
/// u32 counts.
class PayloadWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(std::string_view v);

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked payload consumer. Reads past the end mark the payload
/// malformed and return zero values; every decode finishes with Finish(),
/// which demands a clean and complete parse, so truncated, oversized and
/// garbage payloads all surface as kInvalidArgument instead of crashes or
/// silent misparses.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  /// Only 0 and 1 are bools; any other byte marks the payload malformed.
  bool Bool();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();

  /// Marks the payload malformed; the first reason is the one reported.
  void Fail(std::string reason);

  bool ok() const { return !failed_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  /// kInvalidArgument naming `what` unless the payload parsed cleanly and
  /// completely.
  Status Finish(const std::string& what) const;

 private:
  bool Take(size_t n, const char** out);

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string reason_;
};

// --- Messages ---------------------------------------------------------------
//
// One row per request type ties it (and its Request::Response) to the
// frozen MessageType numbers of both and to the name MessageTypeToString
// reports. The numbers are declared, never derived from variant order
// (MetricsRequest is variant alternative 7 but wire type 9). Adding a
// request type: its request/response structs with their Fields
// (service/api.h), one ServiceRequest/ServiceResponse alternative each, a
// RuleTestService::Handle overload, and one row here.

template <class Request>
struct Rpc {
  MessageType request;
  MessageType response;
  const char* name;
};

inline constexpr std::tuple kRpcs{
    Rpc<service::GenerateRequest>{MessageType::kGenerateRequest,
                                  MessageType::kGenerateResponse, "generate"},
    Rpc<service::OptimizeRequest>{MessageType::kOptimizeRequest,
                                  MessageType::kOptimizeResponse, "optimize"},
    Rpc<service::CompressSuiteRequest>{MessageType::kCompressSuiteRequest,
                                       MessageType::kCompressSuiteResponse,
                                       "compress_suite"},
    Rpc<service::CorrectnessRequest>{MessageType::kCorrectnessRequest,
                                     MessageType::kCorrectnessResponse,
                                     "correctness"},
    Rpc<service::MetricsRequest>{MessageType::kMetricsRequest,
                                 MessageType::kMetricsResponse, "metrics"},
    Rpc<service::SqlRequest>{MessageType::kSqlRequest,
                             MessageType::kSqlResponse, "sql"},
    Rpc<service::LoadRulesRequest>{MessageType::kLoadRulesRequest,
                                   MessageType::kLoadRulesResponse,
                                   "load_rules"},
    Rpc<service::ListRulesRequest>{MessageType::kListRulesRequest,
                                   MessageType::kListRulesResponse,
                                   "list_rules"},
};

/// Calls f(row) for every row of kRpcs.
template <class F>
constexpr void ForEachRpc(F&& f) {
  std::apply([&f](const auto&... rpc) { (f(rpc), ...); }, kRpcs);
}

/// The message type a request or response struct travels as; kError for
/// any other type.
template <class Message>
constexpr MessageType TypeOf() {
  MessageType type = MessageType::kError;
  ForEachRpc([&type]<class Request>(const Rpc<Request>& rpc) {
    if (std::is_same_v<Message, Request>) type = rpc.request;
    if (std::is_same_v<Message, typename Request::Response>) {
      type = rpc.response;
    }
  });
  return type;
}

namespace internal {

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// A struct that declares its own Fields (service/api.h).
template <class T>
inline constexpr bool kIsRecord =
    std::is_class_v<T> && !std::is_same_v<T, std::string> && !kIsVector<T>;
template <class T>
inline constexpr bool kIsRecordVector = false;
template <class T>
inline constexpr bool kIsRecordVector<std::vector<T>> = kIsRecord<T>;

template <class T>
void Put(PayloadWriter* w, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    w->Bool(value);
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, uint8_t>) {
    w->U8(static_cast<uint8_t>(value));
  } else if constexpr (std::is_same_v<T, int32_t>) {
    w->I32(value);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    w->I64(value);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    w->U64(value);
  } else if constexpr (std::is_same_v<T, double>) {
    w->F64(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w->Str(value);
  } else if constexpr (kIsVector<T>) {
    w->U32(static_cast<uint32_t>(value.size()));
    for (const auto& element : value) Put(w, element);
  } else {
    static_assert(kIsRecord<T>, "member type has no wire encoding");
    T::Fields(value, [w](const char*, const auto& field) { Put(w, field); });
  }
}

/// Fewest bytes a T occupies on the wire: the encoding of a default T
/// (full-width scalars, empty strings and vectors). Decoding bounds every
/// vector count by remaining() / MinWireSize<element>(), so a garbage count
/// fails the read instead of driving a huge allocation.
template <class T>
size_t MinWireSize() {
  static const size_t size = [] {
    PayloadWriter w;
    Put(&w, T{});
    return w.Take().size();
  }();
  return size;
}

template <class T>
void Get(PayloadReader* r, const char* name, T* value) {
  if constexpr (std::is_same_v<T, bool>) {
    *value = r->Bool();
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(static_cast<std::underlying_type_t<T>>(
                      service::WireEnum<T>::kLast) <= 0xff,
                  "a wire enum travels as one byte");
    constexpr auto kLast = static_cast<uint8_t>(service::WireEnum<T>::kLast);
    const uint8_t byte = r->U8();
    if (byte > kLast) {
      r->Fail(std::string(name) + " value " + std::to_string(byte) +
              " out of range");
    }
    *value = static_cast<T>(byte);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    *value = r->U8();
  } else if constexpr (std::is_same_v<T, int32_t>) {
    *value = r->I32();
  } else if constexpr (std::is_same_v<T, int64_t>) {
    *value = r->I64();
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    *value = r->U64();
  } else if constexpr (std::is_same_v<T, double>) {
    *value = r->F64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    *value = r->Str();
  } else if constexpr (kIsVector<T>) {
    const uint32_t count = r->U32();
    if (r->remaining() / MinWireSize<typename T::value_type>() < count) {
      r->Fail(std::string(name) + " count " + std::to_string(count) +
              " exceeds the bytes left");
      return;
    }
    value->resize(count);
    for (auto& element : *value) Get(r, name, &element);
  } else {
    static_assert(kIsRecord<T>, "member type has no wire encoding");
    T::Fields(*value, [r](const char* field, auto& member) {
      Get(r, field, &member);
    });
  }
}

/// Shortest decimal that reads back as exactly `value`.
std::string FormatDouble(double value);

/// One-line rendering of a value that has no named fields.
template <class T>
std::string Format(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, uint8_t>) {
    return std::to_string(static_cast<int>(value));
  } else if constexpr (std::is_same_v<T, double>) {
    return FormatDouble(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (kIsVector<T>) {
    std::string out = "[";
    for (size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ", ";
      out += Format(value[i]);
    }
    return out + "]";
  } else {
    return std::to_string(value);
  }
}

template <class T>
void DumpTo(std::string* out, const std::string& path, const T& value) {
  if constexpr (kIsRecord<T>) {
    T::Fields(value, [out, &path](const char* name, const auto& field) {
      DumpTo(out, path.empty() ? name : path + "." + name, field);
    });
  } else if constexpr (kIsRecordVector<T>) {
    if (value.empty()) *out += path + ": []\n";
    for (size_t i = 0; i < value.size(); ++i) {
      DumpTo(out, path + "[" + std::to_string(i) + "]", value[i]);
    }
  } else {
    *out += path + ": " + Format(value) + "\n";
  }
}

}  // namespace internal

// Encode is deterministic (same struct -> same bytes); Decode accepts
// exactly what Encode produces and rejects everything else with
// kInvalidArgument. This is what makes "byte-identical across transports"
// testable: the in-process response, encoded, must equal the wire payload.

/// Payload of one request or response: its Fields, in declaration order.
template <class Message>
std::string Encode(const Message& message) {
  static_assert(TypeOf<Message>() != MessageType::kError,
                "not a request or response with a row in kRpcs");
  PayloadWriter w;
  internal::Put(&w, message);
  return w.Take();
}

template <class Message>
Result<Message> Decode(std::string_view payload) {
  static_assert(TypeOf<Message>() != MessageType::kError,
                "not a request or response with a row in kRpcs");
  PayloadReader r(payload);
  Message message;
  internal::Get(&r, "", &message);
  if (r.ok() && r.AtEnd()) return message;
  return r.Finish(MessageTypeToString(TypeOf<Message>()));
}

/// Text rendering of any request or response, one `field: value` line per
/// field in wire order. Nested structs extend the path (`suite.seed`),
/// vectors of structs index it (`violations[0].sql`), other vectors print
/// inline (`exercised_rules: [1, 4]`).
template <class Message>
std::string Dump(const Message& message) {
  std::string out;
  internal::DumpTo(&out, "", message);
  return out;
}

/// Encode(request) under the name perfbench/served.cc calls.
inline std::string EncodeSqlRequest(const service::SqlRequest& request) {
  return Encode(request);
}

/// kError payload: the Status a request failed with, via the frozen
/// StatusCodeToWire numbering (common/status.h).
std::string EncodeError(const Status& status);
/// Reconstructs the error Status carried by a kError payload into *error;
/// the return value is the decode outcome (Result<Status> would be
/// ambiguous — both alternatives are a Status).
Status DecodeError(std::string_view payload, Status* error);

// --- Variant-level dispatch (from kRpcs) -----------------------------------

/// Message type a given request/response variant travels as.
MessageType RequestType(const service::ServiceRequest& request);
MessageType ResponseType(const service::ServiceResponse& response);

std::string EncodeRequest(const service::ServiceRequest& request);
/// Decodes a request payload of the given type; kInvalidArgument for
/// non-request types or malformed payloads.
Result<service::ServiceRequest> DecodeRequest(MessageType type,
                                              std::string_view payload);
std::string EncodeResponse(const service::ServiceResponse& response);
Result<service::ServiceResponse> DecodeResponse(MessageType type,
                                                std::string_view payload);

}  // namespace net
}  // namespace qtf

#endif  // QTF_NET_WIRE_H_
