// Copyright 2026 The WWT Authors

#include "net/frame.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>

#include "util/serde.h"

namespace wwt::net {
namespace {

/// The one clean-EOF message; IsCleanClose matches on it.
constexpr char kCleanCloseMessage[] = "connection closed by peer";

/// strerror returns a mutable char* — re-point it at the const overload
/// Status::Concat knows how to append.
const char* ErrnoText(int err) { return std::strerror(err); }

uint32_t LoadU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | static_cast<uint32_t>(u[1]) << 8 |
         static_cast<uint32_t>(u[2]) << 16 | static_cast<uint32_t>(u[3]) << 24;
}

/// Blocks until `fd` is ready for `events` or the deadline passes.
Status WaitFor(int fd, short events, Deadline deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != NoDeadline()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        return Status::DeadlineExceeded("deadline expired waiting on socket");
      }
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now)
                          .count();
      timeout_ms = static_cast<int>(
          std::min<long long>(ms + 1, static_cast<long long>(INT_MAX)));
    }
    struct pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    const int rc = ::poll(&p, 1, timeout_ms);
    // Ready (POLLERR/POLLHUP included — the recv/send that follows
    // surfaces the real error); 0 loops so the deadline check decides.
    if (rc > 0) return Status::OK();
    if (rc == 0) continue;
    if (errno == EINTR) continue;
    return Status::IOError("poll: ", ErrnoText(errno));
  }
}

/// Reads exactly `n` bytes. EOF before the first byte sets
/// `*eof_at_start` (when non-null) and returns OK with nothing read;
/// EOF anywhere later is Corruption (a frame can't end mid-way).
Status RecvExact(int fd, char* buf, size_t n, Deadline deadline,
                 bool* eof_at_start) {
  if (eof_at_start != nullptr) *eof_at_start = false;
  size_t got = 0;
  while (got < n) {
    WWT_RETURN_NOT_OK(WaitFor(fd, POLLIN, deadline));
    const ssize_t rc = ::recv(fd, buf + got, n - got, 0);
    if (rc > 0) {
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (got == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return Status::OK();
      }
      return Status::Corruption("truncated frame: peer closed after ", got,
                                " of ", n, " bytes");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Status::IOError("recv: ", ErrnoText(errno));
  }
  return Status::OK();
}

Status SendAll(int fd, std::string_view data, Deadline deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    WWT_RETURN_NOT_OK(WaitFor(fd, POLLOUT, deadline));
    const ssize_t rc =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (rc >= 0) {
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Status::IOError("send: ", ErrnoText(errno));
  }
  return Status::OK();
}

struct ParsedAddress {
  bool is_unix = false;
  std::string path;  // unix socket file
  std::string host;  // tcp
  std::string port;  // tcp
};

Status ParseAddress(const std::string& address, ParsedAddress* out) {
  if (address.rfind("unix:", 0) == 0) {
    out->is_unix = true;
    out->path = address.substr(5);
    if (out->path.empty()) {
      return Status::InvalidArgument("empty unix socket path in \"", address,
                                     "\"");
    }
    return Status::OK();
  }
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument(
        "address \"", address,
        "\" is neither host:port nor unix:/path");
  }
  out->host = address.substr(0, colon);
  out->port = address.substr(colon + 1);
  return Status::OK();
}

Status FillSockaddrUn(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("unix socket path too long (", path.size(),
                                   " bytes): ", path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best effort; fails harmlessly on unix-domain sockets.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::IOError("fcntl: ", ErrnoText(errno));
  const int next = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, next) < 0) {
    return Status::IOError("fcntl: ", ErrnoText(errno));
  }
  return Status::OK();
}

/// "ip:port" of a bound IPv4 socket (what Listen resolved :0 into).
Status LocalTcpAddress(int fd, std::string* out) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::IOError("getsockname: ", ErrnoText(errno));
  }
  char ip[INET_ADDRSTRLEN];
  if (::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip)) == nullptr) {
    return Status::IOError("inet_ntop: ", ErrnoText(errno));
  }
  *out = std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
  return Status::OK();
}

/// getaddrinfo restricted to IPv4 stream sockets (the transport speaks
/// host:port with a bare colon, which IPv6 literals would ambiguate).
Status ResolveTcp(const ParsedAddress& parsed, bool passive, addrinfo** out) {
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  const int rc =
      ::getaddrinfo(parsed.host.c_str(), parsed.port.c_str(), &hints, out);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve \"", parsed.host, ":",
                                   parsed.port, "\": ", gai_strerror(rc));
  }
  return Status::OK();
}

}  // namespace

Deadline DeadlineAfter(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

bool IsCleanClose(const Status& status) {
  return status.IsNotFound() && status.message() == kCleanCloseMessage;
}

std::string EncodeFrame(std::string_view payload) {
  serde::Writer w;
  w.WriteU32(kFrameMagic);
  w.WriteU32(static_cast<uint32_t>(payload.size()));
  w.WriteBytes(payload.data(), payload.size());
  return w.TakeBuffer();
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

StatusOr<Socket> Connect(const std::string& address, Deadline deadline) {
  ParsedAddress parsed;
  WWT_RETURN_NOT_OK(ParseAddress(address, &parsed));

  Socket sock;
  if (parsed.is_unix) {
    sockaddr_un addr;
    WWT_RETURN_NOT_OK(FillSockaddrUn(parsed.path, &addr));
    sock = Socket(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid()) {
      return Status::IOError("socket: ", ErrnoText(errno));
    }
    WWT_RETURN_NOT_OK(SetNonBlocking(sock.fd(), true));
    if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      return Status::IOError("connect to ", address, ": ",
                             ErrnoText(errno));
    }
  } else {
    addrinfo* res = nullptr;
    WWT_RETURN_NOT_OK(ResolveTcp(parsed, /*passive=*/false, &res));
    sock = Socket(::socket(res->ai_family, res->ai_socktype,
                           res->ai_protocol));
    if (!sock.valid()) {
      ::freeaddrinfo(res);
      return Status::IOError("socket: ", ErrnoText(errno));
    }
    Status st = SetNonBlocking(sock.fd(), true);
    if (st.ok() && ::connect(sock.fd(), res->ai_addr, res->ai_addrlen) != 0 &&
        errno != EINPROGRESS) {
      st = Status::IOError("connect to ", address, ": ",
                           ErrnoText(errno));
    }
    ::freeaddrinfo(res);
    WWT_RETURN_NOT_OK(st);
  }

  // Non-blocking connect: writable means resolved; SO_ERROR says how.
  Status wait = WaitFor(sock.fd(), POLLOUT, deadline);
  if (!wait.ok()) {
    if (wait.IsDeadlineExceeded()) {
      return Status::DeadlineExceeded("connect to ", address, " timed out");
    }
    return wait;
  }
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
    return Status::IOError("getsockopt: ", ErrnoText(errno));
  }
  if (err != 0) {
    return Status::IOError("connect to ", address, ": ", ErrnoText(err));
  }
  WWT_RETURN_NOT_OK(SetNonBlocking(sock.fd(), false));
  if (!parsed.is_unix) SetNoDelay(sock.fd());
  return sock;
}

StatusOr<Listener> Listener::Listen(const std::string& address) {
  ParsedAddress parsed;
  WWT_RETURN_NOT_OK(ParseAddress(address, &parsed));

  Listener listener;
  if (parsed.is_unix) {
    sockaddr_un addr;
    WWT_RETURN_NOT_OK(FillSockaddrUn(parsed.path, &addr));
    listener.sock_ = Socket(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!listener.sock_.valid()) {
      return Status::IOError("socket: ", ErrnoText(errno));
    }
    if (::bind(listener.sock_.fd(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::IOError("bind ", address, ": ", ErrnoText(errno));
    }
    listener.unix_path_ = parsed.path;
    listener.address_ = address;
  } else {
    addrinfo* res = nullptr;
    WWT_RETURN_NOT_OK(ResolveTcp(parsed, /*passive=*/true, &res));
    listener.sock_ = Socket(::socket(res->ai_family, res->ai_socktype,
                                     res->ai_protocol));
    Status st;
    if (!listener.sock_.valid()) {
      st = Status::IOError("socket: ", ErrnoText(errno));
    } else {
      int one = 1;
      (void)::setsockopt(listener.sock_.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
      if (::bind(listener.sock_.fd(), res->ai_addr, res->ai_addrlen) != 0) {
        st = Status::IOError("bind ", address, ": ", ErrnoText(errno));
      }
    }
    ::freeaddrinfo(res);
    WWT_RETURN_NOT_OK(st);
    WWT_RETURN_NOT_OK(LocalTcpAddress(listener.sock_.fd(),
                                      &listener.address_));
  }
  if (::listen(listener.sock_.fd(), 128) != 0) {
    return Status::IOError("listen ", address, ": ", ErrnoText(errno));
  }
  return listener;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
    sock_ = std::move(other.sock_);
    address_ = std::move(other.address_);
    unix_path_ = std::move(other.unix_path_);
    other.address_.clear();
    other.unix_path_.clear();
  }
  return *this;
}

Listener::~Listener() {
  sock_.Close();
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

StatusOr<Socket> Listener::Accept() {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket conn(fd);
      SetNoDelay(conn.fd());
      return conn;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    // accept on a shut-down listener fails with EINVAL on Linux — the
    // designed exit path for the accept loop.
    if (errno == EINVAL || errno == EBADF) {
      return Status::FailedPrecondition("listener shut down");
    }
    return Status::IOError("accept: ", ErrnoText(errno));
  }
}

void Listener::Shutdown() { sock_.Shutdown(); }

Status WriteFrame(const Socket& sock, std::string_view payload,
                  Deadline deadline) {
  if (payload.size() > kDefaultMaxFrameBytes) {
    return Status::InvalidArgument("frame payload of ", payload.size(),
                                   " bytes exceeds cap ",
                                   kDefaultMaxFrameBytes);
  }
  return SendAll(sock.fd(), EncodeFrame(payload), deadline);
}

Status ReadFrame(const Socket& sock, std::string* payload, Deadline deadline) {
  char header[kFrameHeaderBytes];
  bool clean_eof = false;
  WWT_RETURN_NOT_OK(
      RecvExact(sock.fd(), header, sizeof(header), deadline, &clean_eof));
  if (clean_eof) return Status::NotFound(kCleanCloseMessage);
  const uint32_t magic = LoadU32(header);
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic ", magic);
  }
  const uint32_t len = LoadU32(header + sizeof(uint32_t));
  if (len > kDefaultMaxFrameBytes) {
    return Status::Corruption("frame of ", len, " bytes exceeds cap ",
                              kDefaultMaxFrameBytes);
  }
  payload->resize(len);
  return RecvExact(sock.fd(), payload->data(), len, deadline, nullptr);
}

}  // namespace wwt::net
