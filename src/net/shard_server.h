// Copyright 2026 The WWT Authors
//
// The worker side of distributed shard serving: ShardServer listens on
// a TCP or unix endpoint and answers the wire.h RPCs — Hello (shard
// inventory handshake), Probe (one per-shard top-k Search, routed by
// shard content hash), Ping (liveness + counters) — over the framed
// transport in frame.h. One thread per connection over a blocking
// accept loop: per-shard probes are CPU-bound index scans, so the
// thread-per-connection model costs nothing next to the work itself.
// Malformed frames and bodies are clean error replies or clean closes
// (the ReadFrame/decoder contract), never a crash; a probe whose
// relative deadline budget is already spent answers DeadlineExceeded
// without scanning. wwt_shardd is a thin CLI over this class; tests
// embed it in-process.

#ifndef WWT_NET_SHARD_SERVER_H_
#define WWT_NET_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "index/corpus_set.h"
#include "net/frame.h"
#include "util/thread_annotations.h"

namespace wwt::net {

struct ShardServerOptions {
  /// "host:port" (port 0 = kernel-assigned, see address()) or
  /// "unix:/path".
  std::string listen = "127.0.0.1:0";
  /// Chaos injection for tests: sleep this long before answering each
  /// probe (after the deadline check, so an expired budget still fails
  /// fast). 0 = disabled.
  double chaos_probe_delay_s = 0;
};

/// A running worker serving every shard of one CorpusSet. Start() binds
/// and spawns the accept loop; Stop() (idempotent, also the destructor)
/// shuts the listener and every live connection down and joins all
/// threads.
class ShardServer {
 public:
  struct Stats {
    /// Connections accepted over the server's lifetime.
    uint64_t connections = 0;
    /// Probe requests answered with hits.
    uint64_t probes = 0;
    /// Requests answered with an error frame (bad body, unknown shard
    /// hash, expired budget, ...).
    uint64_t errors = 0;
  };

  [[nodiscard]] static StatusOr<std::unique_ptr<ShardServer>> Start(
      std::shared_ptr<const CorpusSet> corpus, ShardServerOptions options = {});

  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// The bound endpoint in connectable form ("127.0.0.1:PORT" with the
  /// real port, or "unix:/path").
  const std::string& address() const { return address_; }

  void Stop();

  Stats GetStats() const;

 private:
  ShardServer(std::shared_ptr<const CorpusSet> corpus,
              ShardServerOptions options, Listener listener);

  void AcceptLoop();
  void ServeConnection(Socket* sock);
  /// Dispatches one decoded frame; the reply payload is always one of
  /// the Ok messages or an error frame.
  std::string HandleMessage(std::string_view payload,
                            std::chrono::steady_clock::time_point arrival);
  std::string HandleHello(std::string_view payload);
  std::string HandleProbe(std::string_view payload,
                          std::chrono::steady_clock::time_point arrival);

  const std::shared_ptr<const CorpusSet> corpus_;
  const ShardServerOptions options_;
  Listener listener_;
  std::string address_;
  /// Probe routing: shard content hash -> that shard's index.
  std::unordered_map<uint64_t, const TableIndex*> shards_by_hash_;

  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> errors_{0};

  struct Connection {
    Socket sock;
    std::thread thread;
  };
  mutable Mutex mu_;
  /// Live (and finished-but-unjoined) connections; std::list for stable
  /// addresses while ServeConnection runs on the element's socket.
  std::list<Connection> connections_live_ WWT_GUARDED_BY(mu_);

  std::thread accept_thread_;
};

}  // namespace wwt::net

#endif  // WWT_NET_SHARD_SERVER_H_
