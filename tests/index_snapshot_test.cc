// Copyright 2026 The WWT Authors
//
// Snapshot save/load: metadata fidelity, BuildOrLoad caching semantics,
// and the failure paths — any version but the current one, bad magic,
// truncation at arbitrary offsets, and structurally corrupt sections
// must all come back as clean Status errors, never a crash. A small
// workload-subset corpus keeps this in the unit tier; the full-workload
// answer-equality check lives in wwt_snapshot_roundtrip_test (labeled
// slow).

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/snapshot.h"
#include "util/logging.h"
#include "util/serde.h"

namespace wwt {
namespace {

CorpusOptions SmallOptions() {
  CorpusOptions options;
  options.seed = 7;
  options.scale = 0.15;
  options.noise_pages = 40;
  const std::vector<QuerySpec>& all = Table1Workload();
  options.workload.assign(all.begin(), all.begin() + 6);
  return options;
}

class SnapshotTest : public ::testing::Test {
 protected:
  static const Corpus& GetCorpus() {
    static Corpus* corpus =
        new Corpus(GenerateCorpus(SmallOptions()));
    return *corpus;
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "wwt_snapshot_" + name + ".wwtsnap";
  }

  /// Saves the shared corpus and returns the path.
  static std::string SavedSnapshot(const std::string& name) {
    const std::string path = TempPath(name);
    WWT_CHECK_OK(SaveSnapshot(GetCorpus(), SmallOptions(), path));
    return path;
  }

  static std::string ReadFile(const std::string& path) {
    StatusOr<serde::InputFile> file = serde::InputFile::Open(path);
    WWT_CHECK(file.ok());
    return std::string(file->data());
  }

  static void WriteFile(const std::string& path,
                        const std::string& contents) {
    WWT_CHECK_OK(serde::WriteFileAtomic(path, contents));
  }
};

TEST_F(SnapshotTest, InspectReportsMetadata) {
  const std::string path = SavedSnapshot("inspect");
  StatusOr<SnapshotInfo> info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->format_version, kSnapshotFormatVersion);
  EXPECT_EQ(info->seed, 7u);
  EXPECT_DOUBLE_EQ(info->scale, 0.15);
  EXPECT_EQ(info->noise_pages, 40);
  EXPECT_EQ(info->num_tables, GetCorpus().store.size());
  EXPECT_EQ(info->num_queries, GetCorpus().queries.size());
  EXPECT_EQ(info->num_terms, GetCorpus().index->vocab().size());
  EXPECT_EQ(info->workload_hash, WorkloadFingerprint(SmallOptions()));
  EXPECT_NE(info->content_hash, 0u);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, LoadRestoresRetrievalState) {
  const std::string path = SavedSnapshot("load");
  SnapshotInfo info;
  StatusOr<Corpus> loaded = LoadSnapshot(path, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Corpus& fresh = GetCorpus();

  EXPECT_EQ(loaded->store.size(), fresh.store.size());
  EXPECT_EQ(loaded->index->num_docs(), fresh.index->num_docs());
  EXPECT_EQ(loaded->index->vocab().size(), fresh.index->vocab().size());
  EXPECT_EQ(loaded->truth.size(), fresh.truth.size());
  ASSERT_EQ(loaded->queries.size(), fresh.queries.size());
  // Like a partitioned shard, a loaded corpus leaves the knowledge base
  // null: serving never consults it, and rebuilding it would dominate
  // the zero-copy cold start.
  EXPECT_EQ(loaded->kb, nullptr);

  // Stored records byte-identical.
  for (TableId id = 0; id < fresh.store.size(); ++id) {
    ASSERT_EQ(loaded->store.RecordSize(id), fresh.store.RecordSize(id));
  }
  // Vocabulary preserved with identical ids.
  for (TermId t = 0; t < fresh.index->vocab().size(); ++t) {
    ASSERT_EQ(loaded->index->vocab().Term(t), fresh.index->vocab().Term(t));
  }
  // IDF statistics preserved.
  EXPECT_EQ(loaded->index->idf().num_docs(), fresh.index->idf().num_docs());
  for (TermId t = 0; t < fresh.index->vocab().size(); ++t) {
    ASSERT_EQ(loaded->index->idf().DocFreq(t),
              fresh.index->idf().DocFreq(t));
  }
  // Queries preserved.
  for (size_t i = 0; i < fresh.queries.size(); ++i) {
    EXPECT_EQ(loaded->queries[i].spec.name, fresh.queries[i].spec.name);
    EXPECT_EQ(loaded->queries[i].topic, fresh.queries[i].topic);
    EXPECT_EQ(loaded->queries[i].semantics, fresh.queries[i].semantics);
  }
  // Identical search behaviour on a probe query.
  std::vector<std::string> probe = {
      fresh.queries[0].spec.columns[0].keywords};
  auto fresh_hits = fresh.index->Search(probe, 10);
  auto loaded_hits = loaded->index->Search(probe, 10);
  ASSERT_EQ(fresh_hits.size(), loaded_hits.size());
  for (size_t i = 0; i < fresh_hits.size(); ++i) {
    EXPECT_EQ(fresh_hits[i].doc, loaded_hits[i].doc);
    EXPECT_DOUBLE_EQ(fresh_hits[i].score, loaded_hits[i].score);
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, LoadedIndexMatchesBuiltUnderBothScorers) {
  // The INDX section carries the merged scoring layout; a loaded index
  // must reproduce the built index's results for every workload query
  // under BOTH scorers with bit-identical scores (EXPECT_EQ on doubles,
  // not near-equality).
  const std::string path = SavedSnapshot("scorers");
  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Corpus& fresh = GetCorpus();
  for (size_t q = 0; q < fresh.queries.size(); ++q) {
    std::vector<std::string> probe = {
        fresh.queries[q].spec.columns[0].keywords};
    for (ProbeScorer scorer :
         {ProbeScorer::kWand, ProbeScorer::kExhaustive}) {
      auto fresh_hits = fresh.index->Search(probe, 10, scorer);
      auto loaded_hits = loaded->index->Search(probe, 10, scorer);
      ASSERT_EQ(fresh_hits.size(), loaded_hits.size())
          << "query " << q << " scorer " << ProbeScorerName(scorer);
      for (size_t i = 0; i < fresh_hits.size(); ++i) {
        EXPECT_EQ(fresh_hits[i].doc, loaded_hits[i].doc);
        EXPECT_EQ(fresh_hits[i].score, loaded_hits[i].score);
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, VersionBelowMinimumIsRejected) {
  // Only the current format loads: a file stamped with any older version
  // is an InvalidArgument naming that version, never a decode attempt.
  const std::string path = SavedSnapshot("old_version");
  const std::string contents = ReadFile(path);
  for (uint32_t version : {1u, 2u, 3u}) {
    std::string stamped = contents;
    stamped[8] = static_cast<char>(version);  // u32 LSB
    WriteFile(path, stamped);
    StatusOr<Corpus> loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << "v" << version;
    EXPECT_TRUE(loaded.status().IsInvalidArgument())
        << "v" << version << ": " << loaded.status();
    EXPECT_NE(loaded.status().message().find(
                  "file has " + std::to_string(version)),
              std::string::npos)
        << loaded.status();
    EXPECT_NE(loaded.status().message().find("wwt_indexer"),
              std::string::npos)
        << loaded.status();
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, SaveIsDeterministic) {
  const std::string path_a = SavedSnapshot("det_a");
  const std::string path_b = SavedSnapshot("det_b");
  EXPECT_EQ(ReadFile(path_a), ReadFile(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(SnapshotTest, VersionMismatchIsRejected) {
  const std::string path = SavedSnapshot("version");
  std::string contents = ReadFile(path);
  contents[8] = static_cast<char>(kSnapshotFormatVersion + 1);  // u32 LSB
  WriteFile(path, contents);

  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, BadMagicIsRejected) {
  const std::string path = SavedSnapshot("magic");
  std::string contents = ReadFile(path);
  contents[0] = 'X';
  WriteFile(path, contents);
  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, TruncationAtAnyPrefixFailsCleanly) {
  const std::string path = SavedSnapshot("truncate");
  const std::string contents = ReadFile(path);
  // A spread of prefixes: empty file, mid-header, exactly the header,
  // mid-payload, one byte short.
  const size_t cuts[] = {0, 7, 17, 32, contents.size() / 2,
                         contents.size() - 1};
  for (size_t cut : cuts) {
    ASSERT_LT(cut, contents.size());
    WriteFile(path, contents.substr(0, cut));
    StatusOr<Corpus> loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "cut at " << cut << ": " << loaded.status();
  }
  std::remove(path.c_str());
}

// --- v4 zero-copy specifics -----------------------------------------------

/// Body offset of the first section tagged `tag4` ("STOR", "INDX", ...)
/// by walking the section framing from the fixed 32-byte header.
size_t SectionBodyOffset(const std::string& contents, const char* tag4) {
  size_t pos = 32;
  while (pos + 12 <= contents.size()) {
    const uint64_t size = static_cast<uint8_t>(contents[pos + 4]) |
                          static_cast<uint64_t>(
                              static_cast<uint8_t>(contents[pos + 5]))
                              << 8 |
                          static_cast<uint64_t>(
                              static_cast<uint8_t>(contents[pos + 6]))
                              << 16 |
                          static_cast<uint64_t>(
                              static_cast<uint8_t>(contents[pos + 7]))
                              << 24;
    if (contents.compare(pos, 4, tag4, 4) == 0) return pos + 12;
    pos += 12 + size;
  }
  ADD_FAILURE() << "section " << tag4 << " not found";
  return std::string::npos;
}

TEST_F(SnapshotTest, V4LoadServesInPlace) {
  // The tentpole contract: a default-version load materializes nothing —
  // store, vocabulary, IDF and postings all read from the pinned file
  // mapping.
  const std::string path = SavedSnapshot("v4_inplace");
  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->store.mapped());
  EXPECT_TRUE(loaded->index->mapped());
  EXPECT_TRUE(loaded->index->vocab().mapped());
  EXPECT_TRUE(loaded->index->idf().mapped());
  ASSERT_NE(loaded->mapping, nullptr);
  EXPECT_EQ(loaded->store.HeapBytes(), 0u);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, V4ResaveIsByteIdentical) {
  // A mapped corpus re-saved reproduces the file byte for byte (the
  // writer reads through the same surfaces the load installed).
  const std::string path = SavedSnapshot("v4_resave");
  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  const std::string resave = TempPath("v4_resave_out");
  WWT_CHECK_OK(SaveSnapshot(*loaded, SmallOptions(), resave));
  EXPECT_EQ(ReadFile(resave), ReadFile(path));
  std::remove(path.c_str());
  std::remove(resave.c_str());
}

TEST_F(SnapshotTest, V4AlignmentPadTamperFailsCleanly) {
  // Blow up the INDX section's first alignment marker (directly after
  // the fixed 37-byte options prefix + nterms/doc_count/idf_docs): an
  // absurd pad length must be a Corruption, not a wild read.
  const std::string path = SavedSnapshot("v4_pad");
  std::string contents = ReadFile(path);
  const size_t indx = SectionBodyOffset(contents, "INDX");
  ASSERT_NE(indx, std::string::npos);
  contents[indx + 37 + 20] = static_cast<char>(0xff);  // pad-length LSB
  WriteFile(path, contents);
  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, V4OffsetTableTamperFailsCleanly) {
  // Corrupt the STOR offset table (entry 1 -> 2^64-1): the monotonicity
  // check must reject the file before any record is dereferenced.
  const std::string path = SavedSnapshot("v4_offsets");
  std::string contents = ReadFile(path);
  const size_t stor = SectionBodyOffset(contents, "STOR");
  ASSERT_NE(stor, std::string::npos);
  // Body: u64 first_id, u64 count, [u32 pad_len][pad], u64 offsets[].
  const size_t pad_len = static_cast<uint8_t>(contents[stor + 16]) |
                         static_cast<uint8_t>(contents[stor + 17]) << 8;
  const size_t offsets = stor + 16 + 4 + pad_len;
  for (size_t i = 0; i < 8; ++i) {
    contents[offsets + 8 + i] = static_cast<char>(0xff);  // offsets[1]
  }
  WriteFile(path, contents);
  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("monotone"), std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, BuildOrLoadBuildsThenLoads) {
  const std::string path = TempPath("build_or_load");
  std::remove(path.c_str());
  CorpusOptions options = SmallOptions();

  BuildOrLoadResult first = BuildOrLoadCorpus(options, path);
  EXPECT_FALSE(first.loaded);
  EXPECT_GT(first.info.num_tables, 0u);
  EXPECT_EQ(first.info.format_version, kSnapshotFormatVersion);

  BuildOrLoadResult second = BuildOrLoadCorpus(options, path);
  EXPECT_TRUE(second.loaded);
  EXPECT_EQ(second.corpus.store.size(), first.corpus.store.size());
  EXPECT_EQ(second.info.content_hash, first.info.content_hash);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, BuildOrLoadRebuildsOnParameterMismatch) {
  const std::string path = TempPath("stale");
  std::remove(path.c_str());
  CorpusOptions options = SmallOptions();
  EXPECT_FALSE(BuildOrLoadCorpus(options, path).loaded);

  CorpusOptions changed = options;
  changed.seed = options.seed + 1;
  BuildOrLoadResult result = BuildOrLoadCorpus(changed, path);
  EXPECT_FALSE(result.loaded);  // stale parameters: rebuilt + overwritten

  // The overwritten file now matches the new parameters.
  StatusOr<SnapshotInfo> info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->seed, changed.seed);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, BuildOrLoadRebuildsOnWorkloadMismatch) {
  const std::string path = TempPath("workload");
  std::remove(path.c_str());
  CorpusOptions options = SmallOptions();
  EXPECT_FALSE(BuildOrLoadCorpus(options, path).loaded);

  CorpusOptions changed = options;
  changed.workload.pop_back();
  BuildOrLoadResult result = BuildOrLoadCorpus(changed, path);
  EXPECT_FALSE(result.loaded);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, BuildOrLoadEmptyPathNeverTouchesDisk) {
  BuildOrLoadResult result = BuildOrLoadCorpus(SmallOptions(), "");
  EXPECT_FALSE(result.loaded);
  EXPECT_EQ(result.info.format_version, 0u);  // no file backs the corpus
  EXPECT_GT(result.corpus.store.size(), 0u);
}

TEST_F(SnapshotTest, BuildOrLoadSurvivesUnwritablePath) {
  // A failed save must not discard the freshly built corpus.
  BuildOrLoadResult result =
      BuildOrLoadCorpus(SmallOptions(), "/proc/none/x.wwtsnap");
  EXPECT_FALSE(result.loaded);
  EXPECT_EQ(result.info.format_version, 0u);  // records the failed save
  EXPECT_GT(result.corpus.store.size(), 0u);
}

TEST_F(SnapshotTest, MissingFileIsIOErrorNotCorruption) {
  StatusOr<Corpus> loaded =
      LoadSnapshot(::testing::TempDir() + "nope.wwtsnap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
}

}  // namespace
}  // namespace wwt
