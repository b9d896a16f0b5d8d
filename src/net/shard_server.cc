#include "net/shard_server.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "net/wire.h"

namespace wwt::net {

namespace {

/// Budget for writing one reply frame to a stalled client before the
/// connection is dropped.
constexpr double kWriteTimeoutSeconds = 30.0;

std::string HashHex(uint64_t hash) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

StatusOr<std::unique_ptr<ShardServer>> ShardServer::Start(
    std::shared_ptr<const CorpusSet> corpus, ShardServerOptions options) {
  if (corpus == nullptr) {
    return Status::InvalidArgument("ShardServer needs a corpus");
  }
  WWT_ASSIGN_OR_RETURN(Listener listener, Listener::Listen(options.listen));
  return std::unique_ptr<ShardServer>(new ShardServer(
      std::move(corpus), std::move(options), std::move(listener)));
}

ShardServer::ShardServer(std::shared_ptr<const CorpusSet> corpus,
                         ShardServerOptions options, Listener listener)
    : corpus_(std::move(corpus)),
      options_(std::move(options)),
      listener_(std::move(listener)),
      address_(listener_.address()) {
  for (size_t s = 0; s < corpus_->num_shards(); ++s) {
    shards_by_hash_[corpus_->shard(s).content_hash()] =
        &corpus_->shard(s).index();
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

ShardServer::~ShardServer() { Stop(); }

void ShardServer::Stop() {
  if (!stopping_.exchange(true)) {
    listener_.Shutdown();
    MutexLock lock(mu_);
    for (Connection& conn : connections_live_) conn.sock.Shutdown();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Claim the connection list under the lock, join outside it (list
  // nodes are address-stable across the swap, so ServeConnection's
  // socket pointers stay valid until their threads are joined).
  std::list<Connection> conns;
  {
    MutexLock lock(mu_);
    conns.swap(connections_live_);
  }
  for (Connection& conn : conns) {
    if (conn.thread.joinable()) conn.thread.join();
  }
}

ShardServer::Stats ShardServer::GetStats() const {
  Stats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  return stats;
}

void ShardServer::AcceptLoop() {
  for (;;) {
    StatusOr<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      // Shutdown() makes Accept fail with FailedPrecondition; anything
      // else during teardown is equally final. Transient per-connection
      // errors are already retried inside Accept.
      return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) return;  // drops socket
    connections_live_.emplace_back();
    Connection& conn = connections_live_.back();
    conn.sock = std::move(accepted).value();
    conn.thread = std::thread([this, &conn] { ServeConnection(&conn.sock); });
  }
}

void ShardServer::ServeConnection(Socket* sock) {
  for (;;) {
    std::string payload;
    const Status read = ReadFrame(*sock, &payload, NoDeadline());
    if (!read.ok()) {
      // Clean close is the normal end of a connection. Anything else —
      // bad magic, over-cap length, EOF mid-frame — desyncs the stream
      // beyond recovery, so the only safe reply is a close.
      if (!IsCleanClose(read)) errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto arrival = std::chrono::steady_clock::now();
    const std::string reply = HandleMessage(payload, arrival);
    if (!WriteFrame(*sock, reply, DeadlineAfter(kWriteTimeoutSeconds)).ok()) {
      return;
    }
  }
}

std::string ShardServer::HandleMessage(
    std::string_view payload, std::chrono::steady_clock::time_point arrival) {
  StatusOr<MessageType> type = PeekMessageType(payload);
  if (!type.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return EncodeErrorResponse(type.status());
  }
  switch (type.value()) {
    case MessageType::kHello:
      return HandleHello(payload);
    case MessageType::kProbe:
      return HandleProbe(payload, arrival);
    case MessageType::kPing: {
      const Status decoded = DecodePingRequest(payload);
      if (!decoded.ok()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return EncodeErrorResponse(decoded);
      }
      PingResponse pong;
      pong.probes_served = probes_.load(std::memory_order_relaxed);
      return EncodePingResponse(pong);
    }
    default: {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return EncodeErrorResponse(Status::InvalidArgument(
          "message type ", static_cast<int>(type.value()),
          " is not a request"));
    }
  }
}

std::string ShardServer::HandleHello(std::string_view payload) {
  HelloRequest request;
  const Status decoded = DecodeHelloRequest(payload, &request);
  if (!decoded.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return EncodeErrorResponse(decoded);
  }
  if (request.protocol_version != kWireProtocolVersion) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return EncodeErrorResponse(Status::FailedPrecondition(
        "client speaks protocol version ", request.protocol_version,
        ", this worker speaks ", kWireProtocolVersion));
  }
  HelloResponse hello;
  hello.artifact_hash = corpus_->content_hash();
  hello.shards.reserve(corpus_->num_shards());
  for (size_t s = 0; s < corpus_->num_shards(); ++s) {
    WireShardInfo info;
    info.content_hash = corpus_->shard(s).content_hash();
    info.first_table_id = corpus_->shard(s).store().first_id();
    info.num_tables = corpus_->shard(s).store().size();
    hello.shards.push_back(info);
  }
  return EncodeHelloResponse(hello);
}

std::string ShardServer::HandleProbe(
    std::string_view payload, std::chrono::steady_clock::time_point arrival) {
  ProbeRequest request;
  const Status decoded = DecodeProbeRequest(payload, &request);
  if (!decoded.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return EncodeErrorResponse(decoded);
  }
  const auto it = shards_by_hash_.find(request.shard_hash);
  if (it == shards_by_hash_.end()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return EncodeErrorResponse(Status::NotFound(
        "this worker does not serve shard ", HashHex(request.shard_hash)));
  }
  // The budget crossed the wire as a relative duration; it becomes
  // absolute against THIS process's arrival time.
  const Deadline deadline =
      request.budget_micros == 0
          ? NoDeadline()
          : arrival + std::chrono::microseconds(request.budget_micros);
  auto expired = [&deadline, &request] {
    return std::chrono::steady_clock::now() >= deadline
               ? EncodeErrorResponse(Status::DeadlineExceeded(
                     "probe budget of ", request.budget_micros,
                     "us exhausted on the worker"))
               : std::string();
  };
  std::string expired_reply = expired();
  if (!expired_reply.empty()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return expired_reply;
  }
  if (options_.chaos_probe_delay_s > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.chaos_probe_delay_s));
    // The injected stall may have eaten the budget — exactly the case
    // the deadline-propagation tests pin.
    expired_reply = expired();
    if (!expired_reply.empty()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return expired_reply;
    }
  }
  ProbeResponse response;
  response.hits =
      it->second->Search(request.keywords, request.k, request.scorer);
  probes_.fetch_add(1, std::memory_order_relaxed);
  return EncodeProbeResponse(response);
}

}  // namespace wwt::net
