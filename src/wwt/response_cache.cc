#include "wwt/response_cache.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace wwt {

Status ValidateResponseCacheOptions(const ResponseCacheOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "ResponseCacheOptions.num_shards must be >= 1, got ",
        options.num_shards);
  }
  if (!std::isfinite(options.ttl_seconds) || options.ttl_seconds < 0) {
    return Status::InvalidArgument(
        "ResponseCacheOptions.ttl_seconds must be finite and >= 0");
  }
  return Status::OK();
}

ResponseCache::ResponseCache(ResponseCacheOptions options, ClockFn clock)
    : options_(std::move(options)), clock_(std::move(clock)) {
  // Clamp the shard count so every shard has a non-zero budget; the
  // budget floor (capacity / shards, truncating) guarantees the shard
  // total never exceeds capacity_bytes.
  size_t shards = static_cast<size_t>(std::max(options_.num_shards, 1));
  if (options_.capacity_bytes > 0) {
    shards = std::min(shards, options_.capacity_bytes);
    per_shard_budget_ = options_.capacity_bytes / shards;
  }
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResponseCache::Clock::time_point ResponseCache::Now() const {
  return clock_ ? clock_() : Clock::now();
}

int ResponseCache::ShardForKey(uint64_t key) const {
  // Keys are already well-mixed hashes, but re-mix (splitmix64 finalizer)
  // so shard routing stays uniform even for adversarially-shaped keys.
  uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<int>(h % shards_.size());
}

bool ResponseCache::ExpiredLocked(const Entry& entry,
                                  Clock::time_point now) const {
  if (options_.ttl_seconds <= 0) return false;
  // Compare in floating seconds: converting a huge-but-valid TTL into
  // Clock::duration could overflow the integral rep (UB).
  return std::chrono::duration<double>(now - entry.inserted).count() >=
         options_.ttl_seconds;
}

void ResponseCache::EraseLocked(Shard& shard,
                                std::list<Entry>::iterator it) {
  shard.bytes -= it->bytes;
  shard.index.erase(it->key);
  shard.lru.erase(it);
}

ResponseCache::Payload ResponseCache::LookupLocked(Shard& shard,
                                                   uint64_t key,
                                                   Clock::time_point now) {
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  if (ExpiredLocked(*it->second, now)) {
    ++shard.expirations;
    EraseLocked(shard, it->second);
    return nullptr;
  }
  // Promote to most-recently-used.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

void ResponseCache::InsertLocked(Shard& shard, uint64_t key, Payload value,
                                 Clock::time_point now) {
  const size_t bytes = ApproxResponseBytes(*value);
  if (bytes > per_shard_budget_) return;  // refused: admitting it could
                                          // never fit the budget
  auto it = shard.index.find(key);
  if (it != shard.index.end()) EraseLocked(shard, it->second);
  while (shard.bytes + bytes > per_shard_budget_ && !shard.lru.empty()) {
    ++shard.evictions;
    EraseLocked(shard, std::prev(shard.lru.end()));
  }
  shard.lru.push_front(Entry{key, std::move(value), bytes, now});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  ++shard.inserts;
}

ResponseCache::Payload ResponseCache::Lookup(uint64_t key) {
  if (!enabled()) return nullptr;
  Shard& shard = *shards_[ShardForKey(key)];
  const Clock::time_point now = Now();
  MutexLock lock(shard.mu);
  Payload payload = LookupLocked(shard, key, now);
  payload != nullptr ? ++shard.hits : ++shard.misses;
  return payload;
}

void ResponseCache::Insert(uint64_t key, Payload value) {
  if (!enabled() || value == nullptr) return;
  Shard& shard = *shards_[ShardForKey(key)];
  const Clock::time_point now = Now();
  MutexLock lock(shard.mu);
  InsertLocked(shard, key, std::move(value), now);
}

ResponseCache::Ticket ResponseCache::Acquire(uint64_t key) {
  Ticket ticket;
  if (!enabled()) {
    // Pass-through: everyone leads, nothing is recorded and Resolve
    // finds no flight to retire.
    ticket.leader = true;
    return ticket;
  }
  Shard& shard = *shards_[ShardForKey(key)];
  const Clock::time_point now = Now();
  MutexLock lock(shard.mu);
  ticket.cached = LookupLocked(shard, key, now);
  if (ticket.cached != nullptr) {
    ++shard.hits;
    return ticket;
  }
  auto it = shard.flights.find(key);
  if (it != shard.flights.end()) {
    ++shard.coalesced;
    ticket.flight = it->second;
    return ticket;
  }
  ++shard.misses;
  auto flight = std::make_shared<Flight>();
  flight->future = flight->promise.get_future().share();
  shard.flights[key] = std::move(flight);
  ticket.leader = true;
  return ticket;
}

void ResponseCache::Resolve(uint64_t key, Payload value) {
  if (!enabled()) return;
  Shard& shard = *shards_[ShardForKey(key)];
  const Clock::time_point now = Now();
  std::shared_ptr<Flight> flight;
  {
    MutexLock lock(shard.mu);
    auto it = shard.flights.find(key);
    if (it != shard.flights.end()) {
      flight = std::move(it->second);
      shard.flights.erase(it);
    }
    // Publish before any later Acquire can run: entry in, flight out,
    // one critical section — a key never has two leaders.
    if (value != nullptr) InsertLocked(shard, key, value, now);
  }
  // Wake followers outside the lock (their first move is Acquire-free,
  // but keep the lock hold time minimal anyway).
  if (flight != nullptr) flight->promise.set_value(std::move(value));
}

size_t ResponseCache::PurgeStale(uint64_t live_corpus_hash) {
  if (!enabled()) return 0;
  size_t removed = 0;
  const Clock::time_point now = Now();
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      auto next = std::next(it);
      if (it->value->corpus_hash != live_corpus_hash) {
        ++shard.stale_purged;
        EraseLocked(shard, it);
        ++removed;
      } else if (ExpiredLocked(*it, now)) {
        ++shard.expirations;
        EraseLocked(shard, it);
        ++removed;
      }
      it = next;
    }
  }
  return removed;
}

void ResponseCache::Clear() {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

ResponseCache::Stats ResponseCache::GetStats() const {
  Stats stats;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.inserts += shard.inserts;
    stats.evictions += shard.evictions;
    stats.expirations += shard.expirations;
    stats.coalesced += shard.coalesced;
    stats.stale_purged += shard.stale_purged;
    stats.entries += shard.lru.size();
    stats.bytes += shard.bytes;
  }
  return stats;
}

// -------------------------------------------------- ApproxResponseBytes
//
// Every helper returns the *heap* bytes a value owns (its inline struct
// size is already counted via its parent's sizeof). The point is a
// stable, proportional cost — so the byte budget means what it says —
// not allocator-exact accounting.

namespace {

size_t HeapOf(const std::string& s) { return s.size(); }

template <typename T>
size_t HeapOf(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable<T>::value,
                "flat accounting needs a trivially copyable element");
  return v.size() * sizeof(T);
}

size_t HeapOf(const std::vector<std::string>& v) {
  size_t bytes = v.size() * sizeof(std::string);
  for (const std::string& s : v) bytes += HeapOf(s);
  return bytes;
}

size_t HeapOf(const SparseVector& v) {
  return v.size() * sizeof(std::pair<TermId, double>);
}

size_t HeapOf(const WebTable& table) {
  size_t bytes = HeapOf(table.url) + HeapOf(table.title_rows);
  for (const std::vector<std::string>& row : table.header_rows) {
    bytes += sizeof(row) + HeapOf(row);
  }
  for (const std::vector<std::string>& row : table.body) {
    bytes += sizeof(row) + HeapOf(row);
  }
  for (const ContextSnippet& snippet : table.context) {
    bytes += sizeof(snippet) + HeapOf(snippet.text);
  }
  return bytes;
}

size_t HeapOf(const CandidateTable& candidate) {
  size_t bytes = HeapOf(candidate.table);
  for (const CandidateColumn& col : candidate.cols) {
    bytes += sizeof(col);
    for (const std::vector<TermId>& row_terms : col.header_terms) {
      bytes += sizeof(row_terms) + HeapOf(row_terms);
    }
    bytes += HeapOf(col.header_vec) + HeapOf(col.content_vec) +
             HeapOf(col.frequent_terms);
  }
  bytes += HeapOf(candidate.title_terms) + HeapOf(candidate.context_terms) +
           HeapOf(candidate.frequent_terms_all);
  return bytes;
}

size_t HeapOf(const MapResult& mapping) {
  size_t bytes = 0;
  for (const TableMapping& tm : mapping.tables) {
    bytes += sizeof(tm) + HeapOf(tm.labels);
  }
  return bytes;
}

size_t HeapOf(const AnswerTable& answer) {
  size_t bytes = HeapOf(answer.column_keywords);
  for (const AnswerRow& row : answer.rows) {
    bytes += sizeof(row) + HeapOf(row.cells) + HeapOf(row.sources);
  }
  return bytes;
}

}  // namespace

size_t ApproxResponseBytes(const QueryResponse& response) {
  size_t bytes = sizeof(response);
  bytes += HeapOf(response.tag);
  bytes += response.retrieval.tables.size() * sizeof(CandidateTable);
  for (const CandidateTable& candidate : response.retrieval.tables) {
    bytes += HeapOf(candidate);
  }
  bytes += HeapOf(response.mapping);
  bytes += HeapOf(response.answer);
  return bytes;
}

}  // namespace wwt
