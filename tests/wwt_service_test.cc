// Copyright 2026 The WWT Authors
//
// WwtService over a real corpus: async Submit must be byte-identical to
// serial WwtEngine::Execute, per-request option overrides must apply,
// deadlines must expire cleanly in the queue, fingerprints must be
// stable per (request, corpus) and move with the corpus hash, and — the
// hot-swap contract — a SwapCorpus racing an in-flight RunBatch must
// leave the batch byte-identical on the old snapshot while new
// submissions see the new one. The shared read
// paths under the service (index, store, sparse vectors) must also hold
// up under concurrent probing. Labeled "slow" (corpus builds); CI runs
// it on pushes to main, the sanitizer job makes the race tests
// TSan/ASan-grade checks.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
#include "text/tfidf.h"
#include "wwt/engine.h"
#include "wwt/service.h"

namespace wwt {
namespace {

class WwtServiceCorpusTest : public ::testing::Test {
 protected:
  struct Shared {
    Corpus corpus_a;
    Corpus corpus_b;
  };

  static const Shared& GetShared() {
    static Shared* shared = [] {
      auto* s = new Shared;
      CorpusOptions a;
      a.seed = 3;
      a.scale = 0.25;
      s->corpus_a = GenerateCorpus(a);
      // A second, genuinely different corpus for the swap tests: other
      // seed and scale, so answers differ.
      CorpusOptions b;
      b.seed = 11;
      b.scale = 0.15;
      s->corpus_b = GenerateCorpus(b);
      return s;
    }();
    return *shared;
  }

  static constexpr uint64_t kHashA = 0xAAAA5555AAAA5555ULL;
  static constexpr uint64_t kHashB = 0xBBBB6666BBBB6666ULL;

  static std::vector<std::vector<std::string>> WorkloadQueries(
      const Corpus& corpus) {
    std::vector<std::vector<std::string>> queries;
    for (const ResolvedQuery& rq : corpus.queries) {
      std::vector<std::string> cols;
      for (const QueryColumnSpec& col : rq.spec.columns) {
        cols.push_back(col.keywords);
      }
      queries.push_back(std::move(cols));
    }
    return queries;
  }

  static std::unique_ptr<WwtService> ServiceOver(
      const Corpus* corpus, uint64_t hash, int threads,
      EngineOptions engine = {}) {
    ServiceOptions options;
    options.num_threads = threads;
    options.engine = std::move(engine);
    StatusOr<std::unique_ptr<WwtService>> service =
        WwtService::Create(options);
    EXPECT_TRUE(service.ok());
    (*service)->SwapCorpus(CorpusHandle::Borrow(corpus, hash));
    return std::move(service).value();
  }
};

TEST_F(WwtServiceCorpusTest, AsyncSubmitIsByteIdenticalToSerialEngine) {
  const Shared& s = GetShared();
  const auto queries = WorkloadQueries(s.corpus_a);
  ASSERT_FALSE(queries.empty());

  WwtEngine engine(&s.corpus_a.store, s.corpus_a.index.get(), {});
  std::vector<std::string> serial;
  for (const auto& q : queries) {
    serial.push_back(ResultDigest(engine.Execute(q)));
  }

  auto service = ServiceOver(&s.corpus_a, kHashA, 4);
  // All futures in flight at once: the raw Submit path, not RunBatch.
  std::vector<std::future<QueryResponse>> futures;
  for (const auto& q : queries) {
    futures.push_back(service->Submit(QueryRequest::Of(q)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status;
    EXPECT_EQ(ResultDigest(r), serial[i]) << "query #" << i;
    EXPECT_EQ(r.corpus_hash, kHashA);
    EXPECT_NE(r.fingerprint, 0u);
    EXPECT_GT(r.execute_seconds, 0.0);
  }
}

TEST_F(WwtServiceCorpusTest, RunBatchKeepsBatchStats) {
  const Shared& s = GetShared();
  const auto queries = WorkloadQueries(s.corpus_a);
  auto service = ServiceOver(&s.corpus_a, kHashA, 2);
  BatchResponse batch = service->RunBatch(queries);

  ASSERT_EQ(batch.responses.size(), queries.size());
  EXPECT_TRUE(batch.all_ok());
  const BatchStats& st = batch.stats;
  EXPECT_EQ(st.num_queries, queries.size());
  EXPECT_EQ(st.concurrency, 2);
  EXPECT_GT(st.wall_seconds, 0.0);
  EXPECT_GT(st.qps, 0.0);
  EXPECT_EQ(st.latency.count, queries.size());
  EXPECT_LE(st.latency.p50, st.latency.p95);
  EXPECT_LE(st.latency.p95, st.latency.p99);
  EXPECT_LE(st.latency.p99, st.latency.max);
  // Merged stage accounting equals the sum over per-query timers.
  // A stage's latency summary covers exactly the queries that ran it.
  for (int s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    size_t ran = 0;
    for (const QueryResponse& r : batch.responses) ran += r.timing.ran(stage);
    EXPECT_EQ(st.stage_latency[s].count, ran) << kStageNames[s];
    EXPECT_EQ(st.total_stage_time.ran(stage), ran > 0) << kStageNames[s];
  }
  double summed = 0;
  for (const QueryResponse& r : batch.responses) summed += r.timing.Total();
  EXPECT_NEAR(st.total_stage_time.Total(), summed, 1e-9);
  EXPECT_EQ(st.stage_latency[kStage1stIndex].count, queries.size());

  // The stats report the workers actually used: never more than the
  // pool width, and never more than queries.
  EXPECT_EQ(service->RunBatch({{"country", "population"}}).stats.concurrency,
            1);
  std::vector<std::vector<std::string>> three(3, {"country"});
  EXPECT_EQ(service->RunBatch(three).stats.concurrency, 2);
}

TEST_F(WwtServiceCorpusTest, ServiceOptionsApplyAndChangeFingerprint) {
  const Shared& s = GetShared();
  const std::vector<std::string> q = {"country", "population"};

  QueryResponse base =
      ServiceOver(&s.corpus_a, kHashA, 2)->Run(QueryRequest::Of(q));
  ASSERT_TRUE(base.ok()) << base.status;

  EngineOptions tight;
  tight.probe1_k = 1;
  tight.max_candidates = 1;
  QueryResponse limited =
      ServiceOver(&s.corpus_a, kHashA, 2, tight)->Run(QueryRequest::Of(q));
  ASSERT_TRUE(limited.ok()) << limited.status;
  EXPECT_LE(limited.retrieval.tables.size(), 1u);
  EXPECT_LT(limited.retrieval.tables.size(), base.retrieval.tables.size());
  // The service's options are part of the cache key.
  EXPECT_NE(limited.fingerprint, base.fingerprint);
  EXPECT_EQ(limited.fingerprint,
            RequestFingerprint(q, EngineOptionsFingerprint(tight), kHashA));
}

TEST_F(WwtServiceCorpusTest, DeadlineCanExpireInTheQueue) {
  const Shared& s = GetShared();
  // One worker: a slow head-of-line request makes the queued one expire.
  auto service = ServiceOver(&s.corpus_a, kHashA, 1);
  const auto queries = WorkloadQueries(s.corpus_a);
  ASSERT_GE(queries.size(), 2u);

  std::vector<std::future<QueryResponse>> futures;
  // Enough head-of-line work to outlast a 1 ms deadline.
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service->Submit(QueryRequest::Of(queries[0])));
  }
  QueryResponse expired = service->Submit(QueryRequest::Of(queries[1])
                                              .WithTag("late")
                                              .WithTimeout(1e-3))
                              .get();
  EXPECT_TRUE(expired.status.IsDeadlineExceeded()) << expired.status;
  EXPECT_EQ(expired.tag, "late");
  EXPECT_GT(expired.queue_seconds, 0.0);
  // The fingerprint is still computed: a cache layer can serve expired
  // requests from cache next time.
  EXPECT_NE(expired.fingerprint, 0u);
  EXPECT_TRUE(expired.answer.rows.empty());
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

TEST_F(WwtServiceCorpusTest, SwapCorpusRacingInFlightBatchIsByteIdentical) {
  const Shared& s = GetShared();
  const auto queries = WorkloadQueries(s.corpus_a);
  ASSERT_FALSE(queries.empty());

  // Serial reference on corpus A.
  WwtEngine engine(&s.corpus_a.store, s.corpus_a.index.get(), {});
  std::vector<std::string> serial_a;
  for (const auto& q : queries) {
    serial_a.push_back(ResultDigest(engine.Execute(q)));
  }

  auto service = ServiceOver(&s.corpus_a, kHashA, 2);
  std::weak_ptr<const CorpusSet> weak_a = service->corpus();
  ASSERT_FALSE(weak_a.expired());

  // Launch the batch, then swap to corpus B while it is in flight.
  std::future<BatchResponse> batch_future =
      std::async(std::launch::async,
                 [&] { return service->RunBatch(queries); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service->SwapCorpus(CorpusHandle::Borrow(&s.corpus_b, kHashB));

  BatchResponse batch = batch_future.get();
  ASSERT_EQ(batch.responses.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch.responses[i].ok()) << batch.responses[i].status;
    // The whole batch was served by the snapshot captured at its start:
    // byte-identical to corpus A, stamped with A's hash.
    EXPECT_EQ(ResultDigest(batch.responses[i]), serial_a[i])
        << "query #" << i << " mixed corpora mid-batch";
    EXPECT_EQ(batch.responses[i].corpus_hash, kHashA);
  }

  // The batch finished, the service dropped A at the swap: the old
  // handle is provably released, nothing leaks per swap.
  EXPECT_TRUE(weak_a.expired());

  // New submissions see corpus B.
  QueryResponse after = service->Run(QueryRequest::Of(queries[0]));
  ASSERT_TRUE(after.ok()) << after.status;
  EXPECT_EQ(after.corpus_hash, kHashB);
  EXPECT_EQ(after.fingerprint,
            RequestFingerprint(
                queries[0], EngineOptionsFingerprint(service->engine_options()),
                kHashB));
}

TEST_F(WwtServiceCorpusTest, FingerprintStableAcrossSubmissionsAndCorpora) {
  const Shared& s = GetShared();
  auto service = ServiceOver(&s.corpus_a, kHashA, 2);
  const std::vector<std::string> q = {"country", "population"};

  QueryResponse first = service->Run(QueryRequest::Of(q));
  QueryResponse second = service->Run(QueryRequest::Of(q).WithTag("again"));
  ASSERT_TRUE(first.ok() && second.ok());
  // Same request + same snapshot -> same fingerprint (tag irrelevant).
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  // Canonically-equal keywords -> same fingerprint.
  QueryResponse spaced =
      service->Run(QueryRequest::Of({" Country ", "POPULATION"}));
  ASSERT_TRUE(spaced.ok());
  EXPECT_EQ(spaced.fingerprint, first.fingerprint);

  // Different corpus content hash -> different fingerprint.
  service->SwapCorpus(CorpusHandle::Borrow(&s.corpus_a, kHashB));
  QueryResponse other = service->Run(QueryRequest::Of(q));
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.fingerprint, first.fingerprint);
}

// Regression test for the shared-read-path audit: the index, store and
// prebuilt candidate vectors are hammered from many threads at once.
// Under ASan/UBSan (the CI sanitizer job) a lazily-mutating "const" read
// path — like SparseVector's old compact-on-read — corrupts or races
// here.
TEST_F(WwtServiceCorpusTest, SharedReadPathsSurviveConcurrentProbes) {
  const Corpus& c = GetShared().corpus_a;
  const TableIndex& index = *c.index;

  // A shared dirty vector: const reads must not mutate it.
  SparseVector shared_dirty;
  for (TermId t = 0; t < 64; ++t) shared_dirty.Add(t % 8, 1.0);
  ASSERT_FALSE(shared_dirty.compacted());
  const SparseVector& dirty_ref = shared_dirty;

  std::vector<ScoredDoc> expect_hits =
      index.Search({"country", "population"}, 10);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 20; ++iter) {
        std::vector<ScoredDoc> hits =
            index.Search({"country", "population"}, 10);
        if (hits.size() != expect_hits.size()) ok = false;
        for (size_t i = 0; i < hits.size(); ++i) {
          if (hits[i].doc != expect_hits[i].doc) ok = false;
        }
        index.MatchAllInHeaderOrContext({"country"});
        index.MatchAllInContent({"india"});
        for (TableId id = 0; id < std::min<TableId>(c.store.size(), 16);
             ++id) {
          if (!c.store.Get(id).ok()) ok = false;
        }
        // Concurrent reads of one dirty vector: correct sums, no mutation.
        if (dirty_ref.Get(3) != 8.0) ok = false;
        if (dirty_ref.NormSquared() != 8 * 64.0) ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_FALSE(shared_dirty.compacted()) << "const read mutated the vector";
}

}  // namespace
}  // namespace wwt
