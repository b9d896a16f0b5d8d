// Copyright 2026 The WWT Authors
//
// The sharded hot-swap contract under load: SwapCorpus of a whole
// CorpusSet must be atomic — a batch in flight finishes byte-identically
// on the set it captured (never a mix of old and new shards), the old
// set is provably released once the batch drains, and under a swap storm
// every response's ResultDigest matches the set its corpus_hash claims.
// Labeled "slow": CI runs it on pushes to main, where the sanitizer job
// makes it an ASan/UBSan-grade race check.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
#include "index/snapshot.h"
#include "wwt/service.h"

namespace wwt {
namespace {

class WwtShardRaceTest : public ::testing::Test {
 protected:
  struct Shared {
    Corpus corpus_a;
    Corpus corpus_b;
    /// A's workload keywords, served against both corpora.
    std::vector<std::vector<std::string>> queries;
    std::vector<std::string> serial_a;
    std::vector<std::string> serial_b;
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
      b.scale = 0.15;
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
        s->serial_a.push_back(ResultDigest(engine_a.Execute(q)));
        s->serial_b.push_back(ResultDigest(engine_b.Execute(q)));
      }
      return s;
    }();
    return *shared;
  }

  /// Deterministically-hashed sharded sets over A (3 shards) and B (2
  /// shards), rebuilt per call — each set owns its partitions.
  static std::shared_ptr<const CorpusSet> SetA() {
    std::vector<Corpus> parts = PartitionCorpus(GetShared().corpus_a, 3);
    std::vector<std::shared_ptr<const CorpusHandle>> handles;
    for (size_t s = 0; s < parts.size(); ++s) {
      handles.push_back(
          CorpusHandle::Own(std::move(parts[s]), 0xA000 + s));
    }
    return CorpusSet::Of(std::move(handles));
  }
  static std::shared_ptr<const CorpusSet> SetB() {
    std::vector<Corpus> parts = PartitionCorpus(GetShared().corpus_b, 2);
    std::vector<std::shared_ptr<const CorpusHandle>> handles;
    for (size_t s = 0; s < parts.size(); ++s) {
      handles.push_back(
          CorpusHandle::Own(std::move(parts[s]), 0xB000 + s));
    }
    return CorpusSet::Of(std::move(handles));
  }
};

TEST_F(WwtShardRaceTest, SwapOfWholeSetMidBatchIsAtomic) {
  const Shared& s = GetShared();
  ASSERT_FALSE(s.queries.empty());

  std::shared_ptr<const CorpusSet> set_a = SetA();
  const uint64_t hash_a = set_a->content_hash();

  ServiceOptions options;
  options.num_threads = 2;
  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::Create(options);
  ASSERT_TRUE(service.ok());
  (*service)->SwapCorpus(set_a);
  std::weak_ptr<const CorpusSet> weak_a = set_a;
  set_a.reset();  // the service (and in-flight requests) hold it now

  std::future<BatchResponse> batch_future =
      std::async(std::launch::async,
                 [&] { return (*service)->RunBatch(s.queries); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::shared_ptr<const CorpusSet> set_b = SetB();
  const uint64_t hash_b = set_b->content_hash();
  (*service)->SwapCorpus(std::move(set_b));

  BatchResponse batch = batch_future.get();
  ASSERT_EQ(batch.responses.size(), s.queries.size());
  for (size_t i = 0; i < s.queries.size(); ++i) {
    ASSERT_TRUE(batch.responses[i].ok()) << batch.responses[i].status;
    // The whole batch rode the set captured at its start: byte-identical
    // to corpus A at every index, stamped with A's SET hash — no
    // response ever mixed pre- and post-swap shards.
    EXPECT_EQ(ResultDigest(batch.responses[i]), s.serial_a[i])
        << "query #" << i << " mixed sets mid-batch";
    EXPECT_EQ(batch.responses[i].corpus_hash, hash_a);
  }

  // The batch drained, the service dropped A at the swap: all three
  // shard snapshots of the old set are provably released.
  EXPECT_TRUE(weak_a.expired());

  // New submissions land on set B.
  QueryResponse after = (*service)->Run(QueryRequest::Of(s.queries[0]));
  ASSERT_TRUE(after.ok()) << after.status;
  EXPECT_EQ(after.corpus_hash, hash_b);
  EXPECT_EQ(ResultDigest(after), s.serial_b[0]);
}

TEST_F(WwtShardRaceTest, SwapStormServesOnlySetConsistentAnswers) {
  const Shared& s = GetShared();

  ServiceOptions options;
  options.num_threads = 2;
  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::Create(options);
  ASSERT_TRUE(service.ok());

  std::shared_ptr<const CorpusSet> set_a = SetA();
  std::shared_ptr<const CorpusSet> set_b = SetB();
  const uint64_t hash_a = set_a->content_hash();
  const uint64_t hash_b = set_b->content_hash();
  (*service)->SwapCorpus(set_a);

  // A swapper flips the whole set while submitters hammer the service.
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    bool use_b = true;
    while (!stop.load()) {
      (*service)->SwapCorpus(use_b ? set_b : set_a);
      use_b = !use_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<QueryResponse>> futures;
    std::vector<size_t> indices;
    for (size_t i = 0; i < s.queries.size(); ++i) {
      futures.push_back(
          (*service)->Submit(QueryRequest::Of(s.queries[i])));
      indices.push_back(i);
    }
    for (size_t f = 0; f < futures.size(); ++f) {
      QueryResponse r = futures[f].get();
      ASSERT_TRUE(r.ok()) << r.status;
      const size_t i = indices[f];
      // Whatever set the request captured, the answer must be exactly
      // that set's answer — a hash from one set with bytes from the
      // other means a probe crossed a swap boundary.
      if (r.corpus_hash == hash_a) {
        EXPECT_EQ(ResultDigest(r), s.serial_a[i]) << "query #" << i;
      } else {
        ASSERT_EQ(r.corpus_hash, hash_b);
        EXPECT_EQ(ResultDigest(r), s.serial_b[i]) << "query #" << i;
      }
    }
  }
  stop.store(true);
  swapper.join();
}

}  // namespace
}  // namespace wwt
