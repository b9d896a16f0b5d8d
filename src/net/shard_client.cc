#include "net/shard_client.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <utility>

namespace wwt::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Shard hashes in error messages, zero-padded hex like the tools print.
std::string HashHex(uint64_t hash) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// Idle pooled connections kept per replica. Anything beyond this is
/// closed on return — the engine probes one request per shard at a time,
/// so a deep pool only hoards fds.
constexpr size_t kMaxPooledPerReplica = 2;

Deadline MinDeadline(Deadline a, Deadline b) { return a < b ? a : b; }

/// Remaining budget until `deadline` in whole microseconds, for the
/// wire's relative-budget field. 0 would mean "no deadline", so an
/// already-positive budget is clamped up to 1.
uint64_t BudgetMicros(Deadline deadline) {
  if (deadline == NoDeadline()) return 0;
  const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
      deadline - SteadyClock::now());
  const auto micros = remaining.count();
  return micros <= 0 ? 1 : static_cast<uint64_t>(micros);
}

/// True if the pooled socket is still idle: a readable idle connection
/// means the peer closed it (EOF pending) or sent bytes outside any
/// request — either way it must not carry another probe.
bool LooksIdle(const Socket& sock) {
  struct pollfd pfd;
  pfd.fd = sock.fd();
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int rc = ::poll(&pfd, 1, 0);
  return rc == 0;
}

}  // namespace

RemoteShardClient::RemoteShardClient(uint64_t expected_shard_hash,
                                     std::vector<std::string> replicas,
                                     RemoteProbeOptions options)
    : shard_hash_(expected_shard_hash),
      replicas_(std::move(replicas)),
      options_(options) {
  MutexLock lock(mu_);
  pools_.resize(replicas_.size());
}

RemoteShardClient::~RemoteShardClient() = default;

Socket RemoteShardClient::TakeFromPool(size_t r) const {
  MutexLock lock(mu_);
  std::vector<Socket>& pool = pools_[r];
  while (!pool.empty()) {
    Socket sock = std::move(pool.back());
    pool.pop_back();
    if (LooksIdle(sock)) return sock;
    // Stale (peer hung up while pooled): drop and try the next one.
  }
  return Socket();
}

void RemoteShardClient::ReturnToPool(size_t r, Socket sock) const {
  if (!sock.valid()) return;
  MutexLock lock(mu_);
  if (pools_[r].size() >= kMaxPooledPerReplica) return;  // closes sock
  pools_[r].push_back(std::move(sock));
}

void RemoteShardClient::MarkHealthy() const {
  healthy_.store(true, std::memory_order_relaxed);
}

void RemoteShardClient::MarkUnhealthy(const Status& error) const {
  healthy_.store(false, std::memory_order_relaxed);
  MutexLock lock(mu_);
  last_error_ = error.message();
}

void RemoteShardClient::RecordFailure(const Status& error) const {
  failures_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mu_);
  last_error_ = error.message();
}

StatusOr<Socket> RemoteShardClient::SendToReplica(size_t r,
                                                  const std::string& payload,
                                                  Deadline deadline) const {
  const Deadline connect_deadline =
      MinDeadline(deadline, DeadlineAfter(options_.connect_timeout_s));
  Socket sock = TakeFromPool(r);
  bool reused = sock.valid();
  if (!reused) {
    WWT_ASSIGN_OR_RETURN(sock, Connect(replicas_[r], connect_deadline));
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  Status written = WriteFrame(sock, payload, deadline);
  if (!written.ok() && reused) {
    // The pooled connection went stale between the idle check and the
    // send; one fresh dial before reporting the replica down.
    WWT_ASSIGN_OR_RETURN(sock, Connect(replicas_[r], connect_deadline));
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    written = WriteFrame(sock, payload, deadline);
  }
  if (!written.ok()) return written;
  return sock;
}

StatusOr<std::vector<ScoredDoc>> RemoteShardClient::Search(
    const std::vector<std::string>& keywords, int k, ProbeScorer scorer,
    std::chrono::steady_clock::time_point deadline) const {
  probes_.fetch_add(1, std::memory_order_relaxed);
  // The whole call — hedges included — is bounded even when the request
  // carries no deadline: a dead worker must become a Status, never a
  // stuck engine thread.
  const Deadline effective =
      MinDeadline(deadline, DeadlineAfter(options_.default_rpc_timeout_s));

  struct Attempt {
    size_t replica;
    Socket sock;
  };
  std::vector<Attempt> active;
  size_t next_replica = 0;
  Status last_error = Status::IOError("shard ", HashHex(shard_hash_),
                                      ": no replicas configured");

  // Launches the probe on the next untried replica. The budget is
  // stamped at send time, so a hedged attempt gets only what remains.
  auto start_next = [&]() -> bool {
    while (next_replica < replicas_.size()) {
      const size_t r = next_replica++;
      ProbeRequest request;
      request.shard_hash = shard_hash_;
      request.k = k;
      request.scorer = scorer;
      request.budget_micros = BudgetMicros(effective);
      request.keywords = keywords;
      StatusOr<Socket> sent =
          SendToReplica(r, EncodeProbeRequest(request), effective);
      if (sent.ok()) {
        active.push_back(Attempt{r, std::move(sent).value()});
        return true;
      }
      last_error = sent.status();
      RecordFailure(last_error);
    }
    return false;
  };

  if (!start_next()) {
    MarkUnhealthy(last_error);
    return last_error;
  }
  Deadline hedge_at = options_.hedge_after_s > 0
                          ? DeadlineAfter(options_.hedge_after_s)
                          : NoDeadline();

  // First answer wins: wait on every in-flight attempt at once, start a
  // hedge when the quiet period passes, fail over on transport errors.
  for (;;) {
    const bool can_hedge =
        options_.hedge_after_s > 0 && next_replica < replicas_.size();
    const Deadline wait_until =
        can_hedge ? MinDeadline(effective, hedge_at) : effective;

    // Poll all active sockets for readability until wait_until.
    int ready = -1;  // index into `active`; -1 = timed out
    for (;;) {
      std::vector<struct pollfd> fds(active.size());
      for (size_t i = 0; i < active.size(); ++i) {
        fds[i].fd = active[i].sock.fd();
        fds[i].events = POLLIN;
        fds[i].revents = 0;
      }
      const auto now = SteadyClock::now();
      if (now >= wait_until) break;
      const auto remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(wait_until -
                                                                now)
              .count();
      const int timeout_ms = static_cast<int>(
          std::min<long long>(remaining_ms + 1, 1000 * 60 * 60));
      const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("poll failed: errno ", errno);
      }
      if (rc == 0) continue;  // re-check the clock, not the fds
      for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents != 0) {
          ready = static_cast<int>(i);
          break;
        }
      }
      if (ready >= 0) break;
    }

    if (ready < 0) {
      if (SteadyClock::now() >= effective) {
        // Every in-flight attempt is too slow: the probe is over.
        last_error = Status::DeadlineExceeded(
            "shard ", HashHex(shard_hash_), " probe timed out (",
            active.size(), " attempt(s) in flight)");
        RecordFailure(last_error);
        MarkUnhealthy(last_error);
        return last_error;
      }
      // Hedge window expired with replicas left: launch the next one
      // alongside the slow attempt(s) and keep waiting.
      if (start_next()) {
        hedges_.fetch_add(1, std::memory_order_relaxed);
      }
      hedge_at = DeadlineAfter(options_.hedge_after_s);
      continue;
    }

    Attempt attempt = std::move(active[static_cast<size_t>(ready)]);
    active.erase(active.begin() + ready);
    std::string payload;
    Status read = ReadFrame(attempt.sock, &payload, effective);
    Status attempt_error = Status::OK();
    if (read.ok()) {
      StatusOr<MessageType> type = PeekMessageType(payload);
      if (!type.ok()) {
        attempt_error = type.status();
      } else if (type.value() == MessageType::kProbeOk) {
        ProbeResponse response;
        Status decoded = DecodeProbeResponse(payload, &response);
        if (decoded.ok()) {
          // Winner: its connection is at a frame boundary and reusable;
          // hedged losers still carry an unread reply and are closed.
          ReturnToPool(attempt.replica, std::move(attempt.sock));
          MarkHealthy();
          return std::move(response.hits);
        }
        attempt_error = decoded;
      } else if (type.value() == MessageType::kError) {
        Status remote = Status::OK();
        Status decoded = DecodeErrorResponse(payload, &remote);
        attempt_error = decoded.ok() ? remote : decoded;
        if (decoded.ok()) {
          // The worker answered cleanly (an application error): the
          // connection is still at a frame boundary.
          ReturnToPool(attempt.replica, std::move(attempt.sock));
        }
      } else {
        attempt_error =
            Status::Corruption("unexpected reply type ",
                               static_cast<int>(type.value()), " to a probe");
      }
    } else {
      attempt_error = read;
    }
    // This attempt failed; its socket (unless repooled above) closes
    // here. Fail over if no other attempt is still in flight.
    last_error =
        Status(attempt_error.code(), std::string(replicas_[attempt.replica]) +
                                         ": " + attempt_error.message());
    RecordFailure(last_error);
    if (active.empty() && !start_next()) {
      MarkUnhealthy(last_error);
      return last_error;
    }
  }
}

Status RemoteShardClient::Ping() const {
  Status last_error = Status::IOError("shard ", HashHex(shard_hash_),
                                      ": no replicas configured");
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const Deadline deadline = DeadlineAfter(options_.connect_timeout_s);
    StatusOr<Socket> sent =
        SendToReplica(r, EncodePingRequest(), deadline);
    if (!sent.ok()) {
      last_error = sent.status();
      RecordFailure(last_error);
      continue;
    }
    Socket sock = std::move(sent).value();
    std::string payload;
    Status read = ReadFrame(sock, &payload, deadline);
    if (read.ok()) {
      PingResponse pong;
      read = DecodePingResponse(payload, &pong);
    }
    if (read.ok()) {
      ReturnToPool(r, std::move(sock));
      MarkHealthy();
      return Status::OK();
    }
    last_error = read;
    RecordFailure(last_error);
  }
  MarkUnhealthy(last_error);
  return last_error;
}

Status RemoteShardClient::VerifyHello() const {
  for (size_t r = 0; r < replicas_.size(); ++r) {
    const Deadline deadline = DeadlineAfter(options_.connect_timeout_s);
    StatusOr<Socket> sent = SendToReplica(
        r, EncodeHelloRequest(HelloRequest{}), deadline);
    if (!sent.ok()) {
      MarkUnhealthy(sent.status());
      return sent.status();
    }
    Socket sock = std::move(sent).value();
    std::string payload;
    WWT_RETURN_NOT_OK(ReadFrame(sock, &payload, deadline));
    WWT_ASSIGN_OR_RETURN(MessageType type,
                         PeekMessageType(payload));
    if (type == MessageType::kError) {
      Status remote = Status::OK();
      WWT_RETURN_NOT_OK(DecodeErrorResponse(payload, &remote));
      return remote;
    }
    HelloResponse hello;
    WWT_RETURN_NOT_OK(DecodeHelloResponse(payload, &hello));
    if (hello.protocol_version != kWireProtocolVersion) {
      return Status::FailedPrecondition(
          "worker ", replicas_[r], " speaks protocol version ",
          hello.protocol_version, ", expected ", kWireProtocolVersion);
    }
    const bool serves_shard =
        std::any_of(hello.shards.begin(), hello.shards.end(),
                    [this](const WireShardInfo& info) {
                      return info.content_hash == shard_hash_;
                    });
    if (!serves_shard) {
      return Status::FailedPrecondition(
          "worker ", replicas_[r], " does not serve shard ",
          HashHex(shard_hash_), " (it serves ", hello.shards.size(),
          " shard(s) of artifact ", HashHex(hello.artifact_hash), ")");
    }
    ReturnToPool(r, std::move(sock));
  }
  MarkHealthy();
  return Status::OK();
}

RemoteShardStats RemoteShardClient::Stats() const {
  RemoteShardStats stats;
  stats.shard_hash = shard_hash_;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (r > 0) stats.endpoints += ',';
    stats.endpoints += replicas_[r];
  }
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.failures = failures_.load(std::memory_order_relaxed);
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  stats.healthy = healthy_.load(std::memory_order_relaxed);
  MutexLock lock(mu_);
  stats.last_error = last_error_;
  return stats;
}

StatusOr<std::unique_ptr<RemoteProbeSet>> RemoteProbeSet::Connect(
    const CorpusSet& corpus,
    const std::vector<std::vector<std::string>>& replica_endpoints,
    const RemoteProbeOptions& options) {
  if (replica_endpoints.size() != corpus.num_shards()) {
    return Status::InvalidArgument(
        "worker endpoint groups (", replica_endpoints.size(),
        ") != corpus shards (", corpus.num_shards(), ")");
  }
  std::vector<std::shared_ptr<RemoteShardClient>> clients;
  clients.reserve(replica_endpoints.size());
  for (size_t s = 0; s < replica_endpoints.size(); ++s) {
    if (replica_endpoints[s].empty()) {
      return Status::InvalidArgument("shard ", s,
                                     " has no worker endpoints");
    }
    clients.push_back(std::make_shared<RemoteShardClient>(
        corpus.shard(s).content_hash(), replica_endpoints[s], options));
  }
  for (size_t s = 0; s < clients.size(); ++s) {
    Status verified = clients[s]->VerifyHello();
    if (!verified.ok()) {
      // An unreachable worker is an outage the failure policy may be
      // configured to ride out; a reachable worker answering with the
      // wrong shard hash or protocol (FailedPrecondition) is
      // misconfiguration and always fatal.
      const bool wiring_error =
          verified.code() == StatusCode::kFailedPrecondition;
      if (options.tolerate_unreachable && !wiring_error) continue;
      return Status(verified.code(), "shard " + std::to_string(s) + ": " +
                                         verified.message());
    }
  }
  return std::unique_ptr<RemoteProbeSet>(
      new RemoteProbeSet(std::move(clients)));
}

RemoteProbeSet::RemoteProbeSet(
    std::vector<std::shared_ptr<RemoteShardClient>> clients)
    : clients_(std::move(clients)) {}

std::vector<std::shared_ptr<const ShardProbe>> RemoteProbeSet::Probes() const {
  std::vector<std::shared_ptr<const ShardProbe>> probes;
  probes.reserve(clients_.size());
  for (const std::shared_ptr<RemoteShardClient>& client : clients_) {
    probes.push_back(client);
  }
  return probes;
}

std::vector<RemoteShardStats> RemoteProbeSet::ShardStats() const {
  std::vector<RemoteShardStats> stats;
  stats.reserve(clients_.size());
  for (const std::shared_ptr<RemoteShardClient>& client : clients_) {
    stats.push_back(client->Stats());
  }
  return stats;
}

}  // namespace wwt::net
