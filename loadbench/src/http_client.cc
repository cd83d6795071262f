#include "http_client.h"

#include <cerrno>
#include <charconv>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace loadbench {
namespace {

/// Closes the socket on every exit path.
class Socket {
 public:
  Socket() : fd_(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {}
  ~Socket() {
    if (fd_ >= 0) close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

aqua::Status Errno(const char* what) {
  return aqua::Status::Unavailable(std::string(what) + ": " +
                                   std::strerror(errno));
}

}  // namespace

aqua::Result<HttpReply> Exchange(int port, std::string_view request,
                                 int timeout_ms) {
  Socket sock;
  if (sock.fd() < 0) return Errno("socket");
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  (void)setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  (void)setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("connect");
  }
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = send(sock.fd(), request.data() + sent,
                           request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Errno("send");
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = recv(sock.fd(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Errno("recv");
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }

  const size_t head_end = raw.find("\r\n\r\n");
  constexpr std::string_view kVersion = "HTTP/1.1 ";
  if (head_end == std::string::npos || raw.compare(0, 9, kVersion) != 0 ||
      raw.size() < 12) {
    return aqua::Status::Unavailable("unparseable HTTP reply");
  }
  HttpReply reply;
  std::from_chars(raw.data() + 9, raw.data() + 12, reply.status);
  // Content-Length is the only header aquad's replies need checked: a
  // reply shorter than it announces was cut off.
  size_t length = std::string::npos;
  const std::string_view head(raw.data(), head_end);
  constexpr std::string_view kLength = "\r\nContent-Length: ";
  if (const size_t at = head.find(kLength); at != std::string_view::npos) {
    std::from_chars(head.data() + at + kLength.size(),
                    head.data() + head.size(), length);
  }
  reply.body = raw.substr(head_end + 4);
  if (length != std::string::npos && reply.body.size() != length) {
    return aqua::Status::Unavailable("truncated HTTP reply");
  }
  return reply;
}

}  // namespace loadbench
