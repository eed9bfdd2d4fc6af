#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace perfbench {

/// One response as the client saw it. `status` is 0 when the transport
/// failed (connect, send, receive or framing error).
struct HttpReply {
  int status = 0;
  std::string body;
  /// Bytes received for this response: status line, headers and body.
  std::size_t wire_bytes = 0;

  bool ok() const { return status >= 200 && status < 300; }
};

/// A blocking keep-alive HTTP/1.1 client connection to 127.0.0.1:port.
/// One request is in flight at a time (no pipelining). After a transport
/// failure the socket is closed and the next `Send` reconnects.
class HttpConnection {
 public:
  explicit HttpConnection(int port) : port_(port) {}
  ~HttpConnection() { Close(); }

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends `request` (a complete request as built by `BuildRequest`) and
  /// reads one response framed by Content-Length.
  HttpReply Send(std::string_view request);

  void Close();

  /// A keep-alive request. `body` is sent as application/json when
  /// non-empty.
  static std::string BuildRequest(std::string_view method,
                                  std::string_view target,
                                  std::string_view body);

 private:
  bool Connect();

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
