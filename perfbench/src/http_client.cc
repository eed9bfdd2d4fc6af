#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <strings.h>

namespace perfbench {
namespace {

/// Content-Length of a header block (`head` ends before the blank line),
/// or -1 when absent or malformed.
long ContentLength(std::string_view head) {
  std::size_t pos = 0;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    constexpr std::string_view kName = "content-length:";
    if (line.size() > kName.size() &&
        strncasecmp(line.data(), kName.data(), kName.size()) == 0) {
      const std::string value(line.substr(kName.size()));
      char* end = nullptr;
      const long n = std::strtol(value.c_str(), &end, 10);
      return end == value.c_str() || n < 0 ? -1 : n;
    }
    pos = eol + 2;
  }
  return -1;
}

}  // namespace

bool HttpConnection::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  buffer_.clear();
  return true;
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

HttpReply HttpConnection::Send(std::string_view request) {
  HttpReply reply;
  if (fd_ < 0 && !Connect()) return reply;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }

  std::size_t header_end = std::string::npos;
  long length = -1;
  char chunk[65536];
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        length = ContentLength(std::string_view(buffer_).substr(0, header_end));
        if (length < 0) {
          Close();
          return reply;
        }
      }
    }
    if (header_end != std::string::npos &&
        buffer_.size() >= header_end + 4 + static_cast<std::size_t>(length)) {
      break;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return reply;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }

  // "HTTP/1.1 200 OK"
  const std::size_t space = buffer_.find(' ');
  const int status =
      space == std::string::npos || space > header_end
          ? 0
          : std::atoi(buffer_.c_str() + space + 1);
  const std::size_t total = header_end + 4 + static_cast<std::size_t>(length);
  reply.body = buffer_.substr(header_end + 4, static_cast<std::size_t>(length));
  reply.wire_bytes = total;
  reply.status = status;
  buffer_.erase(0, total);
  if (status == 0) Close();
  return reply;
}

std::string HttpConnection::BuildRequest(std::string_view method,
                                         std::string_view target,
                                         std::string_view body) {
  std::string out;
  out.reserve(128 + body.size());
  out.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out.append(body);
  return out;
}

}  // namespace perfbench
