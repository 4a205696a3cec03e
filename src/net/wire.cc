#include "net/wire.h"

#include <charconv>
#include <cstring>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/status.h"

namespace qtf {
namespace net {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24);
}

}  // namespace

std::string MessageTypeToString(MessageType type) {
  if (type == MessageType::kError) return "error";
  std::string name = "unknown";
  ForEachRpc([type, &name](const auto& rpc) {
    if (type == rpc.request) name = std::string(rpc.name) + "_request";
    if (type == rpc.response) name = std::string(rpc.name) + "_response";
  });
  return name;
}

bool IsRequestType(MessageType type) {
  bool request = false;
  ForEachRpc([type, &request](const auto& rpc) {
    if (type == rpc.request) request = true;
  });
  return request;
}

MessageType ResponseTypeFor(MessageType request_type) {
  QTF_CHECK(IsRequestType(request_type));
  MessageType response = MessageType::kError;
  ForEachRpc([request_type, &response](const auto& rpc) {
    if (request_type == rpc.request) response = rpc.response;
  });
  return response;
}

std::string EncodeFrame(MessageType type, uint32_t request_id,
                        std::string_view payload) {
  QTF_CHECK(payload.size() <= kMaxPayloadBytes);
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&out, kFrameMagic);
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(0);  // reserved
  out.push_back(0);
  AppendU32(&out, request_id);
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

Result<bool> FrameDecoder::Next(Frame* frame) {
  if (buffer_.size() < kFrameHeaderBytes) return false;
  const char* p = buffer_.data();
  const uint32_t magic = ReadU32(p);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("wire: bad frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(p[4]);
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported protocol version " +
                                   std::to_string(version));
  }
  const uint8_t type = static_cast<uint8_t>(p[5]);
  if (type > kMaxMessageType) {
    return Status::InvalidArgument("wire: unknown message type " +
                                   std::to_string(type));
  }
  if (p[6] != 0 || p[7] != 0) {
    return Status::InvalidArgument("wire: nonzero reserved header bits");
  }
  const uint32_t payload_bytes = ReadU32(p + 12);
  if (payload_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument("wire: payload of " +
                                   std::to_string(payload_bytes) +
                                   " bytes exceeds frame limit");
  }
  if (buffer_.size() < kFrameHeaderBytes + payload_bytes) return false;
  frame->type = static_cast<MessageType>(type);
  frame->request_id = ReadU32(p + 8);
  frame->payload.assign(buffer_, kFrameHeaderBytes, payload_bytes);
  buffer_.erase(0, kFrameHeaderBytes + payload_bytes);
  return true;
}

// --- PayloadWriter / PayloadReader ---------------------------------------

void PayloadWriter::U32(uint32_t v) { AppendU32(&out_, v); }

void PayloadWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v & 0xffffffffu));
  U32(static_cast<uint32_t>(v >> 32));
}

void PayloadWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void PayloadWriter::Str(std::string_view v) {
  U32(static_cast<uint32_t>(v.size()));
  out_.append(v);
}

bool PayloadReader::Take(size_t n, const char** out) {
  if (failed_ || data_.size() - pos_ < n) {
    Fail("truncated");
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

uint8_t PayloadReader::U8() {
  const char* p;
  if (!Take(1, &p)) return 0;
  return static_cast<uint8_t>(*p);
}

bool PayloadReader::Bool() {
  const uint8_t v = U8();
  if (v > 1) Fail("bool byte " + std::to_string(v));
  return v == 1;
}

uint32_t PayloadReader::U32() {
  const char* p;
  if (!Take(4, &p)) return 0;
  return ReadU32(p);
}

uint64_t PayloadReader::U64() {
  const uint64_t lo = U32();
  const uint64_t hi = U32();
  return lo | (hi << 32);
}

double PayloadReader::F64() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string PayloadReader::Str() {
  const uint32_t n = U32();
  // Length validated against the bytes actually present: a garbage count
  // fails the read instead of triggering a giant allocation.
  const char* p;
  if (!Take(n, &p)) return std::string();
  return std::string(p, n);
}

void PayloadReader::Fail(std::string reason) {
  if (failed_) return;
  failed_ = true;
  reason_ = std::move(reason);
}

Status PayloadReader::Finish(const std::string& what) const {
  if (!failed_ && AtEnd()) return Status::OK();
  return Status::InvalidArgument("wire: malformed " + what + " payload (" +
                                 (failed_ ? reason_ : "trailing bytes") +
                                 ")");
}

namespace internal {

std::string FormatDouble(double value) {
  char buf[32];
  const std::to_chars_result end =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end.ptr);
}

}  // namespace internal

// --- Error ----------------------------------------------------------------

std::string EncodeError(const Status& status) {
  PayloadWriter w;
  w.I32(StatusCodeToWire(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeError(std::string_view payload, Status* error) {
  PayloadReader r(payload);
  const StatusCode code = StatusCodeFromWire(r.I32());
  std::string message = r.Str();
  QTF_RETURN_NOT_OK(r.Finish("error"));
  *error = Status(code, std::move(message));
  return Status::OK();
}

// --- Variant-level dispatch ----------------------------------------------

namespace {

// Every ServiceRequest/ServiceResponse alternative has a row in kRpcs, and
// the rows cover each message type 1..kMaxMessageType exactly once.
template <class... Messages>
constexpr bool AllHaveRows(const std::variant<Messages...>*) {
  return ((TypeOf<Messages>() != MessageType::kError) && ...);
}
static_assert(AllHaveRows(static_cast<service::ServiceRequest*>(nullptr)));
static_assert(AllHaveRows(static_cast<service::ServiceResponse*>(nullptr)));

constexpr bool RowsCoverEveryTypeOnce() {
  uint32_t seen = 1;  // kError
  bool once = true;
  ForEachRpc([&seen, &once](const auto& rpc) {
    for (MessageType type : {rpc.request, rpc.response}) {
      const uint32_t bit = 1u << static_cast<uint8_t>(type);
      once = once && (seen & bit) == 0;
      seen |= bit;
    }
  });
  return once && seen == (2u << kMaxMessageType) - 1;
}
static_assert(RowsCoverEveryTypeOnce());

template <class Variant>
MessageType VariantType(const Variant& message) {
  return std::visit(
      [](const auto& typed) { return TypeOf<std::decay_t<decltype(typed)>>(); },
      message);
}

template <class Variant>
std::string EncodeVariant(const Variant& message) {
  return std::visit([](const auto& typed) { return Encode(typed); }, message);
}

/// Decodes `payload` as whichever alternative of Variant travels as `type`.
template <class Variant>
Result<Variant> DecodeVariant(MessageType type, std::string_view payload,
                              const char* kind) {
  Result<Variant> (*decode)(std::string_view) = nullptr;
  ForEachRpc([type, &decode]<class Request>(const Rpc<Request>&) {
    using Message = std::conditional_t<
        std::is_same_v<Variant, service::ServiceRequest>, Request,
        typename Request::Response>;
    if (type != TypeOf<Message>()) return;
    decode = [](std::string_view bytes) -> Result<Variant> {
      QTF_ASSIGN_OR_RETURN(Message message, Decode<Message>(bytes));
      return Variant(std::move(message));
    };
  });
  if (decode == nullptr) {
    return Status::InvalidArgument(std::string("wire: not a ") + kind +
                                   " message type: " +
                                   MessageTypeToString(type));
  }
  return decode(payload);
}

}  // namespace

MessageType RequestType(const service::ServiceRequest& request) {
  return VariantType(request);
}

MessageType ResponseType(const service::ServiceResponse& response) {
  return VariantType(response);
}

std::string EncodeRequest(const service::ServiceRequest& request) {
  return EncodeVariant(request);
}

Result<service::ServiceRequest> DecodeRequest(MessageType type,
                                              std::string_view payload) {
  return DecodeVariant<service::ServiceRequest>(type, payload, "request");
}

std::string EncodeResponse(const service::ServiceResponse& response) {
  return EncodeVariant(response);
}

Result<service::ServiceResponse> DecodeResponse(MessageType type,
                                                std::string_view payload) {
  return DecodeVariant<service::ServiceResponse>(type, payload, "response");
}

}  // namespace net
}  // namespace qtf
