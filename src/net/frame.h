// Copyright 2026 The WWT Authors
//
// Length-prefixed frame transport for the shard RPC (docs/DISTRIBUTED.md):
// blocking BSD sockets with poll(2)-based deadlines. ReadFrame is the one
// frame parser; the corruption/fuzz suite drives it over a socketpair.
//
// Wire layout of one frame:
//
//   [u32 magic "WWTR"][u32 payload_len][payload_len bytes]
//
// both integers little-endian (the serde layout rules). Every malformed
// input — bad magic, length beyond the frame cap, EOF mid-header or
// mid-payload, trailing garbage — surfaces as a clean Status::Corruption;
// a peer that stops talking surfaces as Status::DeadlineExceeded; an
// orderly close at a frame boundary is the distinguished "clean close"
// status (IsCleanClose), never an error a caller would log as corruption.

#ifndef WWT_NET_FRAME_H_
#define WWT_NET_FRAME_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/statusor.h"

namespace wwt::net {

/// First four bytes of every frame ("WWTR" little-endian).
inline constexpr uint32_t kFrameMagic = 0x52545757u;
/// Magic + payload length.
inline constexpr size_t kFrameHeaderBytes = 8;
/// Cap on one frame's payload, for reads and writes alike. A length field
/// beyond the cap is Corruption before any allocation happens — a
/// garbage length can never drive a giant resize, mirroring
/// serde::Reader::ReadString.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// Absolute deadlines on the steady clock; Deadline::max() = none.
using Deadline = std::chrono::steady_clock::time_point;
inline Deadline NoDeadline() { return Deadline::max(); }
/// Deadline `seconds` from now (<= 0 means already expired, not "none").
Deadline DeadlineAfter(double seconds);

/// True for the status ReadFrame returns when the peer closed the
/// connection cleanly at a frame boundary (code kNotFound with the
/// dedicated message) — the one EOF that is not Corruption.
bool IsCleanClose(const Status& status);

/// [header][payload] ready to hand to a socket write.
std::string EncodeFrame(std::string_view payload);

/// RAII file descriptor for one connection. Move-only; closes on
/// destruction. Shutdown() is safe to call from another thread while a
/// reader blocks on the fd (that is how a server unblocks its
/// connection threads to stop).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept { *this = std::move(other); }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { Close(); }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  /// shutdown(SHUT_RDWR): wakes any thread blocked in poll/recv on this
  /// socket without invalidating the fd under it.
  void Shutdown();

 private:
  int fd_ = -1;
};

/// Dials `address` — "host:port" (TCP, numeric or resolvable host) or
/// "unix:/path" — with a connect deadline. TCP sockets get TCP_NODELAY
/// (frames are single small writes; Nagle only adds latency).
[[nodiscard]] StatusOr<Socket> Connect(const std::string& address,
                                       Deadline deadline);

/// A bound, listening server socket. Listen("127.0.0.1:0") picks a free
/// port; address() is the resolved form ("127.0.0.1:PORT" /
/// "unix:/path") a client can Connect() to. A unix-domain listener owns
/// its socket file and unlinks it on destruction.
class Listener {
 public:
  [[nodiscard]] static StatusOr<Listener> Listen(const std::string& address);

  Listener(Listener&& other) noexcept { *this = std::move(other); }
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Blocks for the next connection. After Shutdown() (from any thread)
  /// returns a FailedPrecondition promptly instead of blocking forever.
  [[nodiscard]] StatusOr<Socket> Accept();

  /// Wakes a blocked Accept() and makes every later one fail — the
  /// thread-safe half of stopping an accept loop (the fd itself stays
  /// open until destruction, so there is no close/accept race).
  void Shutdown();

  const std::string& address() const { return address_; }

 private:
  Listener() = default;

  Socket sock_;
  std::string address_;
  std::string unix_path_;  // owned socket file; "" for TCP
};

/// Writes one frame, honoring `deadline` across partial sends.
/// DeadlineExceeded on timeout, IOError on a broken connection (EPIPE is
/// suppressed via MSG_NOSIGNAL — a dead peer is a Status, not a signal).
[[nodiscard]] Status WriteFrame(const Socket& sock, std::string_view payload,
                                Deadline deadline);

/// Reads one frame into `*payload`. DeadlineExceeded if the peer goes
/// quiet past `deadline`; Corruption on bad magic / a length over
/// kDefaultMaxFrameBytes / EOF mid-frame; the distinguished clean-close
/// status (IsCleanClose) when the peer closed at a frame boundary before
/// sending anything.
[[nodiscard]] Status ReadFrame(const Socket& sock, std::string* payload,
                               Deadline deadline);

}  // namespace wwt::net

#endif  // WWT_NET_FRAME_H_
