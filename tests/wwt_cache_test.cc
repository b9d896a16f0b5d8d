// Copyright 2026 The WWT Authors
//
// The response cache, two ways. First the data structure itself,
// deterministically: LRU order, TTL expiry through an injected clock (no
// wall-clock sleeps), shard routing, counter accounting, the
// single-flight leader/follower protocol, and zero-capacity
// pass-through. Then the property that justifies the cache's existence,
// over a real corpus: every cache hit is byte-identical (ResultDigest)
// to a cold recomputation — across per-request option overrides
// (distinct options = distinct keys) and across SwapCorpus (a new
// content hash can never be served a pre-swap answer) — and invalid or
// expired requests are never cached. Runs in the CI unit tier on every
// PR (labels: unit, cache).

#include <chrono>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
#include "util/hash.h"
#include "wwt/service.h"

namespace wwt {
namespace {

// ------------------------------------------------------ data structure

constexpr uint64_t kHashA = 0xAAAA5555AAAA5555ULL;
constexpr uint64_t kHashB = 0xBBBB6666BBBB6666ULL;

/// A deterministic fake time source; tests advance it by hand.
struct FakeClock {
  ResponseCache::Clock::time_point now{};

  ResponseCache::ClockFn fn() {
    return [this] { return now; };
  }
  void Advance(double seconds) {
    now += std::chrono::duration_cast<ResponseCache::Clock::duration>(
        std::chrono::duration<double>(seconds));
  }
};

/// A payload with a fixed shape, so equal-length cells give equal
/// ApproxResponseBytes — which makes eviction arithmetic exact.
ResponseCache::Payload MakePayload(uint64_t fingerprint,
                                   uint64_t corpus_hash,
                                   const std::string& cell = "data") {
  QueryResponse r;
  r.fingerprint = fingerprint;
  r.corpus_hash = corpus_hash;
  AnswerRow row;
  row.cells = {cell};
  row.support = 1;
  r.answer.rows.push_back(std::move(row));
  return std::make_shared<const QueryResponse>(std::move(r));
}

TEST(ValidateResponseCacheOptionsTest, RejectsBadFields) {
  EXPECT_TRUE(ValidateResponseCacheOptions(ResponseCacheOptions{}).ok());

  ResponseCacheOptions options;
  options.num_shards = 0;
  Status status = ValidateResponseCacheOptions(options);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("num_shards"), std::string::npos);

  options = ResponseCacheOptions{};
  options.ttl_seconds = -1;
  status = ValidateResponseCacheOptions(options);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("ttl_seconds"), std::string::npos);

  // ServiceOptions validation covers its cache member.
  ServiceOptions service_options;
  service_options.cache.num_shards = -3;
  EXPECT_TRUE(ValidateServiceOptions(service_options).IsInvalidArgument());
}

TEST(ResponseCacheTest, LruEvictsLeastRecentlyUsedUnderByteBudget) {
  ResponseCache::Payload a = MakePayload(1, kHashA);
  const size_t entry_bytes = ApproxResponseBytes(*a);
  ResponseCacheOptions options;
  options.num_shards = 1;  // one shard: eviction order is global
  options.capacity_bytes = 2 * entry_bytes;
  ResponseCache cache(options);
  ASSERT_TRUE(cache.enabled());
  EXPECT_EQ(cache.per_shard_budget(), 2 * entry_bytes);

  cache.Insert(1, a);
  cache.Insert(2, MakePayload(2, kHashA));
  EXPECT_NE(cache.Lookup(1), nullptr);  // promotes 1 over 2
  cache.Insert(3, MakePayload(3, kHashA));

  EXPECT_EQ(cache.Lookup(2), nullptr) << "2 was LRU and must be evicted";
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);

  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2 * entry_bytes);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResponseCacheTest, ReinsertingALiveKeyRefreshesInPlace) {
  ResponseCache::Payload first = MakePayload(7, kHashA, "older");
  ResponseCacheOptions options;
  options.num_shards = 1;
  options.capacity_bytes = 4 * ApproxResponseBytes(*first);
  ResponseCache cache(options);

  cache.Insert(7, first);
  ResponseCache::Payload second = MakePayload(7, kHashB, "newer");
  cache.Insert(7, second);

  EXPECT_EQ(cache.Lookup(7), second);
  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes, ApproxResponseBytes(*second));
}

TEST(ResponseCacheTest, TtlExpiresThroughTheInjectedClock) {
  FakeClock clock;
  ResponseCacheOptions options;
  options.num_shards = 1;
  options.capacity_bytes = 1 << 20;
  options.ttl_seconds = 10;
  ResponseCache cache(options, clock.fn());

  cache.Insert(1, MakePayload(1, kHashA));
  clock.Advance(5);
  EXPECT_NE(cache.Lookup(1), nullptr) << "fresh at ttl/2";
  clock.Advance(6);  // 11 s after insert: a Lookup hit never refreshes TTL
  EXPECT_EQ(cache.Lookup(1), nullptr);

  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // The expired lookup is a miss, not a hit.
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResponseCacheTest, ZeroCapacityIsPassThrough) {
  ResponseCache cache(ResponseCacheOptions{});  // capacity_bytes == 0
  EXPECT_FALSE(cache.enabled());

  cache.Insert(1, MakePayload(1, kHashA));
  EXPECT_EQ(cache.Lookup(1), nullptr);

  // Acquire appoints every caller leader with no flight to resolve:
  // execution proceeds exactly as if no cache existed.
  ResponseCache::Ticket ticket = cache.Acquire(1);
  EXPECT_TRUE(ticket.leader);
  EXPECT_EQ(ticket.cached, nullptr);
  EXPECT_EQ(ticket.flight, nullptr);
  cache.Resolve(1, MakePayload(1, kHashA));  // harmless no-op
  EXPECT_EQ(cache.Lookup(1), nullptr);

  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(cache.PurgeStale(kHashA), 0u);
}

TEST(ResponseCacheTest, ShardRoutingIsStableAndSpreadsKeys) {
  ResponseCacheOptions options;
  options.num_shards = 8;
  options.capacity_bytes = 8 << 20;
  ResponseCache cache(options);

  std::unordered_set<int> shards_used;
  for (int i = 0; i < 64; ++i) {
    const uint64_t key = Fnv1a("key-" + std::to_string(i));
    const int shard = cache.ShardForKey(key);
    EXPECT_EQ(shard, cache.ShardForKey(key)) << "routing must be pure";
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 8);
    shards_used.insert(shard);
    cache.Insert(key, MakePayload(key, kHashA));
  }
  // 64 hashed keys over 8 shards: a serious skew means broken routing.
  EXPECT_GE(shards_used.size(), 4u);
  EXPECT_EQ(cache.GetStats().entries, 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(cache.Lookup(Fnv1a("key-" + std::to_string(i))), nullptr);
  }
}

TEST(ResponseCacheTest, EntryLargerThanAShardBudgetIsRefused) {
  ResponseCache::Payload big = MakePayload(1, kHashA, std::string(512, 'x'));
  ResponseCacheOptions options;
  options.num_shards = 1;
  options.capacity_bytes = ApproxResponseBytes(*big) - 1;
  ResponseCache cache(options);

  cache.Insert(1, big);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 0u) << "refusal must not evict bystanders";
}

TEST(ResponseCacheTest, SingleFlightLeaderFollowerProtocol) {
  ResponseCacheOptions options;
  options.num_shards = 4;
  options.capacity_bytes = 1 << 20;
  ResponseCache cache(options);

  // First Acquire leads; a second joins the flight instead of leading.
  ResponseCache::Ticket leader = cache.Acquire(42);
  EXPECT_TRUE(leader.leader);
  EXPECT_EQ(leader.cached, nullptr);
  ResponseCache::Ticket follower = cache.Acquire(42);
  EXPECT_FALSE(follower.leader);
  EXPECT_EQ(follower.cached, nullptr);
  ASSERT_NE(follower.flight, nullptr);

  // Resolve publishes to the cache and to every follower atomically.
  ResponseCache::Payload payload = MakePayload(42, kHashA);
  cache.Resolve(42, payload);
  EXPECT_EQ(ResponseCache::Wait(follower.flight), payload);
  ResponseCache::Ticket after = cache.Acquire(42);
  EXPECT_EQ(after.cached, payload);

  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(ResponseCacheTest, FailedLeaderReleasesFollowersAndTheKey) {
  ResponseCacheOptions options;
  options.num_shards = 1;
  options.capacity_bytes = 1 << 20;
  ResponseCache cache(options);

  ResponseCache::Ticket leader = cache.Acquire(43);
  ASSERT_TRUE(leader.leader);
  ResponseCache::Ticket follower = cache.Acquire(43);
  ASSERT_NE(follower.flight, nullptr);

  // A null Resolve = the leader failed: followers get nullptr (and
  // compute for themselves), nothing is cached, and the key is free for
  // a fresh leader.
  cache.Resolve(43, nullptr);
  EXPECT_EQ(ResponseCache::Wait(follower.flight), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  ResponseCache::Ticket retry = cache.Acquire(43);
  EXPECT_TRUE(retry.leader);
  cache.Resolve(43, MakePayload(43, kHashA));
  EXPECT_NE(cache.Lookup(43), nullptr);
}

TEST(ResponseCacheTest, PurgeStaleReclaimsOtherCorporaAndExpired) {
  FakeClock clock;
  ResponseCacheOptions options;
  options.num_shards = 2;
  options.capacity_bytes = 1 << 20;
  options.ttl_seconds = 100;
  ResponseCache cache(options, clock.fn());

  for (uint64_t key = 1; key <= 4; ++key) {
    cache.Insert(key, MakePayload(key, kHashA));
  }
  clock.Advance(200);  // the A entries are now also TTL-expired
  for (uint64_t key = 5; key <= 6; ++key) {
    cache.Insert(key, MakePayload(key, kHashB));
  }

  EXPECT_EQ(cache.PurgeStale(kHashB), 4u);
  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.stale_purged, 4u);
  EXPECT_NE(cache.Lookup(5), nullptr);
  EXPECT_NE(cache.Lookup(6), nullptr);
  EXPECT_EQ(cache.PurgeStale(kHashB), 0u) << "purge must be idempotent";
}

TEST(ResponseCacheTest, ClearDropsEntriesButKeepsCounters) {
  ResponseCacheOptions options;
  options.num_shards = 2;
  options.capacity_bytes = 1 << 20;
  ResponseCache cache(options);
  cache.Insert(1, MakePayload(1, kHashA));
  ASSERT_NE(cache.Lookup(1), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.Lookup(1), nullptr);
  ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.inserts, 1u) << "counters are monotonic across Clear";
}

// -------------------------------------- byte equivalence over a corpus

/// Shares two small generated corpora across all the service-level cache
/// tests in this binary (the same pattern as wwt_service_test).
class ResponseCacheServiceTest : public ::testing::Test {
 protected:
  struct Shared {
    Corpus corpus_a;
    Corpus corpus_b;
    std::vector<std::vector<std::string>> queries;  // corpus A workload
    std::vector<std::string> digest_a;  // cold reference on corpus A
    std::vector<std::string> digest_b;  // cold reference on corpus B
  };

  static const Shared& GetShared() {
    static Shared* shared = [] {
      auto* s = new Shared;
      CorpusOptions a;
      a.seed = 3;
      a.scale = 0.2;
      s->corpus_a = GenerateCorpus(a);
      CorpusOptions b;
      b.seed = 11;
      b.scale = 0.12;
      s->corpus_b = GenerateCorpus(b);
      for (const ResolvedQuery& rq : s->corpus_a.queries) {
        std::vector<std::string> cols;
        for (const QueryColumnSpec& col : rq.spec.columns) {
          cols.push_back(col.keywords);
        }
        s->queries.push_back(std::move(cols));
      }
      WwtEngine engine_a(&s->corpus_a.store, s->corpus_a.index.get(), {});
      WwtEngine engine_b(&s->corpus_b.store, s->corpus_b.index.get(), {});
      for (const auto& q : s->queries) {
        s->digest_a.push_back(ResultDigest(engine_a.Execute(q)));
        s->digest_b.push_back(ResultDigest(engine_b.Execute(q)));
      }
      return s;
    }();
    return *shared;
  }

  static std::unique_ptr<WwtService> CachedService(const Corpus* corpus,
                                                   uint64_t hash,
                                                   int threads = 2,
                                                   EngineOptions engine = {}) {
    ServiceOptions options;
    options.num_threads = threads;
    options.engine = std::move(engine);
    options.cache.capacity_bytes = 256ull << 20;
    StatusOr<std::unique_ptr<WwtService>> service =
        WwtService::Create(options);
    EXPECT_TRUE(service.ok()) << service.status();
    (*service)->SwapCorpus(CorpusHandle::Borrow(corpus, hash));
    return std::move(service).value();
  }
};

TEST_F(ResponseCacheServiceTest, HitsAreByteIdenticalAcrossFullWorkload) {
  const Shared& s = GetShared();
  ASSERT_FALSE(s.queries.empty());
  auto service = CachedService(&s.corpus_a, kHashA);

  // Pass 1 populates; every response must already be byte-identical to
  // the cold direct-engine reference.
  BatchResponse cold = service->RunBatch(s.queries);
  ASSERT_TRUE(cold.all_ok());
  for (size_t i = 0; i < s.queries.size(); ++i) {
    EXPECT_EQ(ResultDigest(cold.responses[i]), s.digest_a[i])
        << "query #" << i;
  }

  // Pass 2: every query is a hit, and every hit is byte-identical.
  BatchResponse warm = service->RunBatch(s.queries);
  ASSERT_TRUE(warm.all_ok());
  for (size_t i = 0; i < s.queries.size(); ++i) {
    const QueryResponse& r = warm.responses[i];
    EXPECT_TRUE(r.served_from_cache) << "query #" << i;
    EXPECT_EQ(ResultDigest(r), s.digest_a[i]) << "query #" << i;
    EXPECT_EQ(r.corpus_hash, kHashA);
    EXPECT_NE(r.fingerprint, 0u);
    EXPECT_EQ(r.fingerprint, cold.responses[i].fingerprint);
  }
  EXPECT_EQ(warm.stats.cache_hits, s.queries.size());
  EXPECT_DOUBLE_EQ(warm.stats.cache_hit_rate, 1.0);
  EXPECT_GE(service->cache_stats().hits, s.queries.size());
}

TEST_F(ResponseCacheServiceTest, DistinctServiceOptionsGetDistinctKeys) {
  const Shared& s = GetShared();
  const std::vector<std::string>& q = s.queries[0];
  EngineOptions tight;
  tight.probe1_k = 1;
  tight.max_candidates = 1;
  auto base_service = CachedService(&s.corpus_a, kHashA);
  auto tight_service = CachedService(&s.corpus_a, kHashA, 2, tight);

  QueryResponse base = base_service->Run(QueryRequest::Of(q));
  ASSERT_TRUE(base.ok()) << base.status;
  EXPECT_FALSE(base.served_from_cache);

  // Other options are another key: the same query on the same corpus is
  // never keyed like the base answer, and its cold run matches a
  // direct tight engine.
  QueryResponse first = tight_service->Run(QueryRequest::Of(q));
  ASSERT_TRUE(first.ok()) << first.status;
  EXPECT_FALSE(first.served_from_cache);
  EXPECT_NE(first.fingerprint, base.fingerprint);
  WwtEngine tight_engine(&s.corpus_a.store, s.corpus_a.index.get(), tight);
  EXPECT_EQ(ResultDigest(first), ResultDigest(tight_engine.Execute(q)));

  // Each service now hits its own key, byte-identical to its own cold
  // run.
  QueryResponse base_again = base_service->Run(QueryRequest::Of(q));
  QueryResponse tight_again = tight_service->Run(QueryRequest::Of(q));
  ASSERT_TRUE(base_again.ok() && tight_again.ok());
  EXPECT_TRUE(base_again.served_from_cache);
  EXPECT_TRUE(tight_again.served_from_cache);
  EXPECT_EQ(base_again.fingerprint, base.fingerprint);
  EXPECT_EQ(tight_again.fingerprint, first.fingerprint);
  EXPECT_EQ(ResultDigest(base_again), ResultDigest(base));
  EXPECT_EQ(ResultDigest(tight_again), ResultDigest(first));
}

TEST_F(ResponseCacheServiceTest, SwapCorpusNeverServesAPreSwapAnswer) {
  const Shared& s = GetShared();
  auto service = CachedService(&s.corpus_a, kHashA);

  // Warm the cache on corpus A.
  ASSERT_TRUE(service->RunBatch(s.queries).all_ok());
  const size_t entries_a = service->cache_stats().entries;
  ASSERT_GT(entries_a, 0u);

  // Swap: every key now embeds B's hash, so the warm A entries are
  // structurally unreachable — each query recomputes on B.
  service->SwapCorpus(CorpusHandle::Borrow(&s.corpus_b, kHashB));
  BatchResponse on_b = service->RunBatch(s.queries);
  ASSERT_TRUE(on_b.all_ok());
  for (size_t i = 0; i < s.queries.size(); ++i) {
    const QueryResponse& r = on_b.responses[i];
    EXPECT_FALSE(r.served_from_cache) << "stale hit on query #" << i;
    EXPECT_EQ(r.corpus_hash, kHashB);
    EXPECT_EQ(ResultDigest(r), s.digest_b[i])
        << "query #" << i << " served a pre-swap answer";
  }
  EXPECT_EQ(on_b.stats.cache_hits, 0u);

  // The B entries hit; the A entries are reclaimable garbage.
  BatchResponse warm_b = service->RunBatch(s.queries);
  ASSERT_TRUE(warm_b.all_ok());
  EXPECT_EQ(warm_b.stats.cache_hits, s.queries.size());
  for (size_t i = 0; i < s.queries.size(); ++i) {
    EXPECT_EQ(ResultDigest(warm_b.responses[i]), s.digest_b[i]);
  }

  const size_t purged = service->PurgeStaleCacheEntries();
  EXPECT_EQ(purged, entries_a);
  // Purging reclaimed only dead bytes: B still hits, byte-identically.
  QueryResponse after = service->Run(QueryRequest::Of(s.queries[0]));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.served_from_cache);
  EXPECT_EQ(ResultDigest(after), s.digest_b[0]);
}

TEST_F(ResponseCacheServiceTest, InvalidAndExpiredRequestsNeverCached) {
  const Shared& s = GetShared();
  auto service = CachedService(&s.corpus_a, kHashA);

  // Invalid requests and expired deadlines never reach the cache.
  EXPECT_TRUE(service->Run(QueryRequest{}).status.IsInvalidArgument());
  QueryRequest expired = QueryRequest::Of(s.queries[0]);
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_TRUE(service->Run(std::move(expired)).status.IsDeadlineExceeded());
  EXPECT_EQ(service->cache_stats().entries, 0u);

  // ... while a normal request is cached as usual.
  ASSERT_TRUE(service->Run(QueryRequest::Of(s.queries[0])).ok());
  EXPECT_EQ(service->cache_stats().entries, 1u);
}

TEST_F(ResponseCacheServiceTest, DisabledCacheKeepsLegacyBehavior) {
  const Shared& s = GetShared();
  ServiceOptions options;  // cache.capacity_bytes == 0
  options.num_threads = 1;
  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::Create(options);
  ASSERT_TRUE(service.ok());
  (*service)->SwapCorpus(CorpusHandle::Borrow(&s.corpus_a, kHashA));

  EXPECT_FALSE((*service)->cache_enabled());
  QueryResponse first = (*service)->Run(QueryRequest::Of(s.queries[0]));
  QueryResponse second = (*service)->Run(QueryRequest::Of(s.queries[0]));
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_FALSE(second.served_from_cache);
  EXPECT_EQ(ResultDigest(second), s.digest_a[0]);
  EXPECT_EQ((*service)->cache_stats().entries, 0u);
  EXPECT_EQ((*service)->PurgeStaleCacheEntries(), 0u);
}

}  // namespace
}  // namespace wwt
