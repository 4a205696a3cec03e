#ifndef QTF_CLIENT_CLIENT_H_
#define QTF_CLIENT_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "net/wire.h"
#include "service/api.h"

namespace qtf {
namespace client {

/// Thin synchronous client for a qtfd server: one TCP connection, one
/// request in flight at a time (issue concurrent requests from multiple
/// clients — qtfd multiplexes connections, and the protocol's request ids
/// exist so richer clients can pipeline later). Call mirrors
/// RuleTestService::Call exactly: a remote Call(GenerateRequest{...})
/// returns the same Result<GenerateResponse> an in-process call would,
/// with server-side errors (shed, deadline, validation) decoded back into
/// their Status.
class ServiceClient {
 public:
  /// Connects to a numeric IPv4 address ("127.0.0.1"), no name resolution.
  static Result<std::unique_ptr<ServiceClient>> Connect(
      const std::string& host, uint16_t port);

  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Sends one request and decodes the response that answers it: the same
  /// Result<Request::Response> an in-process RuleTestService::Call
  /// returns. kError frames come back as their carried Status (a shed
  /// request is kResourceExhausted here, exactly as in-process).
  template <class Request>
  Result<typename Request::Response> Call(const Request& request) {
    using Response = typename Request::Response;
    QTF_ASSIGN_OR_RETURN(
        net::Frame frame,
        CallRaw(net::TypeOf<Request>(), net::Encode(request)));
    QTF_RETURN_NOT_OK(CheckReply(frame, net::TypeOf<Response>()));
    return net::Decode<Response>(frame.payload);
  }

  /// Sends a raw frame and returns the raw response frame, no payload
  /// decoding. This is the byte-identity test hook: the returned payload
  /// can be compared bit-for-bit against a local EncodeResponse().
  Result<net::Frame> CallRaw(net::MessageType type, std::string_view payload);

 private:
  explicit ServiceClient(int fd) : fd_(fd) {}

  /// The Status a kError frame carries; kInternal for a frame that is
  /// neither an error nor of the `expected` response type.
  static Status CheckReply(const net::Frame& frame, net::MessageType expected);

  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  net::FrameDecoder decoder_;
};

}  // namespace client
}  // namespace qtf

#endif  // QTF_CLIENT_CLIENT_H_
