// Copyright 2026 The WWT Authors
//
// The router side of distributed shard serving: a RemoteShardClient is
// a ShardProbe whose Search scatters to a wwt_shardd worker over the
// framed RPC in wire.h, and a RemoteProbeSet wires one client per shard
// of a CorpusSet (hello-verifying that every endpoint actually serves
// the shard hash it is assigned). Robustness lives here, not in the
// engine: per-request deadline propagation (relative budget on the
// wire), hedged retry against replica endpoints after a configurable
// quiet period, connection pooling with reconnect on stale sockets, and
// health state fed by live Search and Ping outcomes. Every failure is a
// clean Status the engine's ShardFailurePolicy can act on — never a
// crash, never a hang past the caller's deadline.

#ifndef WWT_NET_SHARD_CLIENT_H_
#define WWT_NET_SHARD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/corpus_set.h"
#include "net/frame.h"
#include "net/wire.h"
#include "util/thread_annotations.h"

namespace wwt::net {

struct RemoteProbeOptions {
  /// Per-attempt TCP/unix connect budget (also the Ping/Hello budget).
  double connect_timeout_s = 2.0;
  /// Cap on one whole Search including hedges, applied even when the
  /// request itself carries no deadline — a dead worker must surface as
  /// a Status, not a stuck engine thread.
  double default_rpc_timeout_s = 5.0;
  /// Quiet period after which Search launches the same probe on the
  /// next replica while the earlier attempt keeps running (first answer
  /// wins). 0 = no hedging; irrelevant with one replica.
  double hedge_after_s = 0;
  /// When true, RemoteProbeSet::Connect tolerates a worker that cannot
  /// be REACHED (it stays unhealthy; its shard degrades per the
  /// engine's ShardFailurePolicy, and reconnection is retried on every
  /// probe). Wiring errors — wrong shard hash, protocol mismatch —
  /// fail Connect regardless: a reachable-but-wrong worker is
  /// misconfiguration, not an outage. wwt_serve sets this for
  /// --on-dead-shard partial.
  bool tolerate_unreachable = false;
};

/// One shard client's counters, snapshotted by Stats(). Monotonic over
/// the client's lifetime; `healthy` flips with the latest outcome.
struct RemoteShardStats {
  uint64_t shard_hash = 0;
  /// Comma-joined replica endpoints, for operator output.
  std::string endpoints;
  uint64_t probes = 0;
  /// Failed attempts (dials, writes, reads, error replies) — one probe
  /// can count several across replicas before succeeding.
  uint64_t failures = 0;
  /// Hedged attempts launched because an earlier one was too slow.
  uint64_t hedges = 0;
  /// Fresh connections dialed (first use and re-establishment alike).
  uint64_t reconnects = 0;
  bool healthy = true;
  /// Message of the most recent failure ("" if none yet).
  std::string last_error;
};

/// ShardProbe over one worker shard with 1..N replica endpoints.
/// Thread-safe; const because the engine probes through `const
/// ShardProbe*` from many threads at once.
class RemoteShardClient : public ShardProbe {
 public:
  /// `replicas` (non-empty) are tried in order; hedging and failover
  /// walk the list. `expected_shard_hash` routes every probe and is
  /// what VerifyHello checks the workers against.
  RemoteShardClient(uint64_t expected_shard_hash,
                    std::vector<std::string> replicas,
                    RemoteProbeOptions options);
  ~RemoteShardClient() override;

  RemoteShardClient(const RemoteShardClient&) = delete;
  RemoteShardClient& operator=(const RemoteShardClient&) = delete;

  /// Scatter leg of the distributed probe: sends the keywords + k +
  /// scorer and the REMAINING deadline budget to a worker, hedging and
  /// failing over across replicas, and returns the worker's hits (bit-
  /// identical scores, Search's total order). Never blocks past
  /// min(deadline, now + default_rpc_timeout_s).
  [[nodiscard]] StatusOr<std::vector<ScoredDoc>> Search(
      const std::vector<std::string>& keywords, int k, ProbeScorer scorer,
      std::chrono::steady_clock::time_point deadline) const override;

  /// One health round-trip: OK if any replica answers a Ping in time.
  /// Updates the healthy/last_error state either way.
  [[nodiscard]] Status Ping() const;

  /// Handshakes every replica: protocol version must match and the
  /// worker's shard inventory must contain expected_shard_hash
  /// (FailedPrecondition otherwise — the wrong-worker wiring error).
  [[nodiscard]] Status VerifyHello() const;

  RemoteShardStats Stats() const WWT_EXCLUDES(mu_);

  uint64_t shard_hash() const { return shard_hash_; }
  const std::vector<std::string>& replicas() const { return replicas_; }

 private:
  /// Pool-or-dial a connection to replica `r` and send `payload` as one
  /// frame; a stale pooled socket gets one fresh redial. Returns the
  /// socket awaiting the reply.
  [[nodiscard]] StatusOr<Socket> SendToReplica(size_t r,
                                               const std::string& payload,
                                               Deadline deadline) const
      WWT_EXCLUDES(mu_);
  /// Takes an idle pooled connection for `r` (invalid Socket if none).
  Socket TakeFromPool(size_t r) const WWT_EXCLUDES(mu_);
  /// Returns a connection at a clean frame boundary to the pool.
  void ReturnToPool(size_t r, Socket sock) const WWT_EXCLUDES(mu_);
  void MarkHealthy() const WWT_EXCLUDES(mu_);
  void MarkUnhealthy(const Status& error) const WWT_EXCLUDES(mu_);
  void RecordFailure(const Status& error) const WWT_EXCLUDES(mu_);

  const uint64_t shard_hash_;
  const std::vector<std::string> replicas_;
  const RemoteProbeOptions options_;

  mutable std::atomic<uint64_t> probes_{0};
  mutable std::atomic<uint64_t> failures_{0};
  mutable std::atomic<uint64_t> hedges_{0};
  mutable std::atomic<uint64_t> reconnects_{0};
  mutable std::atomic<bool> healthy_{true};

  mutable Mutex mu_;
  /// Idle connections per replica, most-recently-used last.
  mutable std::vector<std::vector<Socket>> pools_ WWT_GUARDED_BY(mu_);
  mutable std::string last_error_ WWT_GUARDED_BY(mu_);
};

/// The full scatter set: one RemoteShardClient per shard of a serving
/// CorpusSet, in shard order, ready for WwtService::AttachRemoteProbes.
class RemoteProbeSet {
 public:
  /// Builds and hello-verifies one client per corpus shard.
  /// `replica_endpoints[i]` is shard i's replica list (size must equal
  /// corpus.num_shards(); every group non-empty). Fails cleanly if any
  /// worker is unreachable, speaks the wrong protocol version, or does
  /// not serve its assigned shard hash.
  [[nodiscard]] static StatusOr<std::unique_ptr<RemoteProbeSet>> Connect(
      const CorpusSet& corpus,
      const std::vector<std::vector<std::string>>& replica_endpoints,
      const RemoteProbeOptions& options = {});

  size_t num_shards() const { return clients_.size(); }
  const RemoteShardClient& client(size_t i) const { return *clients_[i]; }

  /// The shard probes in shard order — exactly what AttachRemoteProbes
  /// takes. The pointers share ownership with this set.
  std::vector<std::shared_ptr<const ShardProbe>> Probes() const;

  /// Per-shard counter snapshots in shard order.
  std::vector<RemoteShardStats> ShardStats() const;

 private:
  explicit RemoteProbeSet(
      std::vector<std::shared_ptr<RemoteShardClient>> clients);

  const std::vector<std::shared_ptr<RemoteShardClient>> clients_;
};

}  // namespace wwt::net

#endif  // WWT_NET_SHARD_CLIENT_H_
