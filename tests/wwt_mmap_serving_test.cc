// Copyright 2026 The WWT Authors
//
// Zero-copy serving lifetime and equivalence: a v4 snapshot is served
// straight from its file mapping, so the mapping must stay pinned for
// exactly as long as anything can still read it — in-flight requests
// across a SwapCorpus that drops the last owner, and even across an
// unlink of the file itself. Also proves the serve-path equivalences:
// the mapped load answers the full stored workload byte-identically to
// the in-memory corpus it was saved from, and a mapped corpus
// partitions into shards that scatter-gather to the same bytes as the
// unsharded serve.

#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "index/corpus_set.h"
#include "index/snapshot.h"
#include "util/logging.h"
#include "wwt/service.h"

namespace wwt {
namespace {

CorpusOptions MmapOptions() {
  CorpusOptions options;
  options.seed = 11;
  options.scale = 0.15;
  options.noise_pages = 40;
  const std::vector<QuerySpec>& all = Table1Workload();
  options.workload.assign(all.begin(), all.begin() + 6);
  return options;
}

class MmapServingTest : public ::testing::Test {
 protected:
  static const Corpus& GetCorpus() {
    static Corpus* corpus = new Corpus(GenerateCorpus(MmapOptions()));
    return *corpus;
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "wwt_mmap_" + name + ".wwtsnap";
  }

  static std::vector<std::vector<std::string>> WorkloadQueries(
      const std::vector<ResolvedQuery>& queries) {
    std::vector<std::vector<std::string>> out;
    for (const ResolvedQuery& rq : queries) {
      std::vector<std::string> cols;
      for (const QueryColumnSpec& col : rq.spec.columns) {
        cols.push_back(col.keywords);
      }
      out.push_back(std::move(cols));
    }
    return out;
  }
};

TEST_F(MmapServingTest, ResponsesSurviveSwapAndUnlink) {
  // The lifetime gate: submit against a loaded set, drop the service's
  // reference (SwapCorpus to an empty set) AND unlink the snapshot file
  // while the requests are in flight. The captured CorpusSet pins the
  // corpus, which pins the mapping (Corpus::mapping), so every future
  // must still resolve to a valid, correct response.
  const std::string path = TempPath("lifetime");
  WWT_CHECK_OK(SaveSnapshot(GetCorpus(), MmapOptions(), path));

  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::FromSnapshot(path);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_EQ((*service)->Stats().corpus_format, kSnapshotFormatVersion);
  ASSERT_GT((*service)->Stats().mapped_bytes, 0u);

  const auto queries = WorkloadQueries((*service)->corpus()->queries());
  ASSERT_FALSE(queries.empty());

  // Reference answers, fully served before the rug-pull.
  std::vector<std::string> expected;
  for (const auto& cols : queries) {
    QueryResponse response = (*service)->Run(QueryRequest::Of(cols));
    ASSERT_TRUE(response.ok()) << response.status;
    expected.push_back(ResultDigest(response));
  }

  std::vector<std::future<QueryResponse>> futures;
  for (const auto& cols : queries) {
    futures.push_back((*service)->Submit(QueryRequest::Of(cols)));
  }
  // The service drops its owner, and the file is gone too.
  (*service)->SwapCorpus(std::shared_ptr<const CorpusSet>());
  std::remove(path.c_str());
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << "query " << i << ": " << response.status;
    EXPECT_EQ(ResultDigest(response), expected[i]) << "query " << i;
  }
  // With no corpus, new submissions fail cleanly — nothing dangles.
  QueryResponse after = (*service)->Run(QueryRequest::Of(queries[0]));
  EXPECT_TRUE(after.status.IsFailedPrecondition()) << after.status;
}

TEST_F(MmapServingTest, MappedAndMaterializedAnswersAreByteIdentical) {
  // Full-workload gate: the zero-copy load must serve every stored
  // workload query with digests byte-identical to the heap-built corpus
  // it was saved from, served through the same service path.
  const std::string path = TempPath("mapped_vs_built");
  WWT_CHECK_OK(SaveSnapshot(GetCorpus(), MmapOptions(), path));

  StatusOr<std::unique_ptr<WwtService>> mapped =
      WwtService::FromSnapshot(path);
  StatusOr<std::unique_ptr<WwtService>> built = WwtService::Create();
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(built.ok()) << built.status();
  (*built)->SwapCorpus(CorpusHandle::Borrow(&GetCorpus()));
  EXPECT_EQ((*mapped)->Stats().corpus_format, kSnapshotFormatVersion);
  EXPECT_GT((*mapped)->Stats().mapped_bytes, 0u);
  EXPECT_EQ((*built)->Stats().corpus_format, 0u);
  EXPECT_EQ((*built)->Stats().mapped_bytes, 0u);

  const auto queries = WorkloadQueries(GetCorpus().queries);
  ASSERT_EQ(WorkloadQueries((*mapped)->corpus()->queries()), queries);
  BatchResponse mapped_batch = (*mapped)->RunBatch(queries);
  BatchResponse built_batch = (*built)->RunBatch(queries);
  ASSERT_EQ(mapped_batch.responses.size(), queries.size());
  ASSERT_EQ(built_batch.responses.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(mapped_batch.responses[i].ok())
        << mapped_batch.responses[i].status;
    ASSERT_TRUE(built_batch.responses[i].ok())
        << built_batch.responses[i].status;
    EXPECT_EQ(ResultDigest(mapped_batch.responses[i]),
              ResultDigest(built_batch.responses[i]))
        << "query " << i;
  }
  std::remove(path.c_str());
}

TEST_F(MmapServingTest, PartitionedMappedCorpusMatchesUnsharded) {
  // PartitionCorpus must work on a zero-copy corpus (it reads through
  // the mapped store/vocab/idf surfaces) and the resulting shards must
  // scatter-gather to the same bytes as serving the mapped corpus
  // whole.
  const std::string path = TempPath("partition");
  WWT_CHECK_OK(SaveSnapshot(GetCorpus(), MmapOptions(), path));
  SnapshotInfo info;
  StatusOr<Corpus> loaded = LoadSnapshot(path, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->index->mapped());

  std::vector<Corpus> shards = PartitionCorpus(*loaded, 2);
  ASSERT_EQ(shards.size(), 2u);
  std::vector<std::shared_ptr<const CorpusHandle>> handles;
  for (Corpus& shard : shards) {
    handles.push_back(CorpusHandle::Own(std::move(shard)));
  }

  StatusOr<std::unique_ptr<WwtService>> whole = WwtService::Create();
  StatusOr<std::unique_ptr<WwtService>> sharded = WwtService::Create();
  ASSERT_TRUE(whole.ok() && sharded.ok());
  (*whole)->SwapCorpus(CorpusHandle::Borrow(&*loaded, info.content_hash));
  (*sharded)->SwapCorpus(CorpusSet::Of(std::move(handles)));
  ASSERT_EQ((*sharded)->Stats().corpus_shards, 2u);

  const auto queries = WorkloadQueries(loaded->queries);
  BatchResponse whole_batch = (*whole)->RunBatch(queries);
  BatchResponse sharded_batch = (*sharded)->RunBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(whole_batch.responses[i].ok());
    ASSERT_TRUE(sharded_batch.responses[i].ok());
    EXPECT_EQ(ResultDigest(sharded_batch.responses[i]),
              ResultDigest(whole_batch.responses[i]))
        << "query " << i;
  }
  std::remove(path.c_str());
}

TEST_F(MmapServingTest, OpenCorpusRoutesBothArtifactKinds) {
  // The OpenCorpus facade: same call, snapshot or manifest, sniffed by
  // magic. A snapshot opens as a 1-shard set with its SnapshotInfo; a
  // manifest opens every shard; garbage and missing files are clean
  // errors.
  const std::string snap_path = TempPath("open_snap");
  SnapshotInfo saved;
  WWT_CHECK_OK(SaveSnapshot(GetCorpus(), MmapOptions(), snap_path, &saved));

  StatusOr<OpenCorpusResult> snap = OpenCorpus(snap_path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_FALSE(snap->is_set);
  EXPECT_EQ(snap->corpus->num_shards(), 1u);
  EXPECT_EQ(snap->info.content_hash, saved.content_hash);
  EXPECT_EQ(snap->info.format_version, kSnapshotFormatVersion);
  EXPECT_EQ(snap->corpus->format_version(), kSnapshotFormatVersion);
  EXPECT_GT(snap->corpus->mapped_bytes(), 0u);

  const std::string set_path = ::testing::TempDir() + "wwt_mmap_open.wwtset";
  SetManifest manifest;
  WWT_CHECK_OK(
      SaveShardedSnapshot(GetCorpus(), MmapOptions(), set_path, 2, &manifest));
  StatusOr<OpenCorpusResult> set = OpenCorpus(set_path);
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_TRUE(set->is_set);
  EXPECT_EQ(set->corpus->num_shards(), 2u);
  EXPECT_EQ(set->info.content_hash, manifest.set_hash);
  EXPECT_EQ(set->info.num_tables, manifest.num_tables);

  // Both routes serve the same answers (1-shard set vs 2-shard set).
  StatusOr<std::unique_ptr<WwtService>> a = WwtService::Create();
  StatusOr<std::unique_ptr<WwtService>> b = WwtService::Create();
  ASSERT_TRUE(a.ok() && b.ok());
  (*a)->SwapCorpus(snap->corpus);
  (*b)->SwapCorpus(set->corpus);
  const auto queries = WorkloadQueries(snap->corpus->queries());
  BatchResponse batch_a = (*a)->RunBatch(queries);
  BatchResponse batch_b = (*b)->RunBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(ResultDigest(batch_b.responses[i]),
              ResultDigest(batch_a.responses[i]))
        << "query " << i;
  }

  StatusOr<OpenCorpusResult> missing =
      OpenCorpus(::testing::TempDir() + "wwt_mmap_nope.wwtsnap");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIOError()) << missing.status();

  const std::string junk_path = ::testing::TempDir() + "wwt_mmap_junk";
  WWT_CHECK_OK(serde::WriteFileAtomic(junk_path, "not an artifact at all"));
  StatusOr<OpenCorpusResult> junk = OpenCorpus(junk_path);
  ASSERT_FALSE(junk.ok());
  EXPECT_TRUE(junk.status().IsCorruption()) << junk.status();

  std::remove(snap_path.c_str());
  std::remove(junk_path.c_str());
  for (const ShardManifestEntry& e : manifest.shards) {
    std::remove(ResolveShardPath(set_path, e.file).c_str());
  }
  std::remove(set_path.c_str());
}

}  // namespace
}  // namespace wwt
