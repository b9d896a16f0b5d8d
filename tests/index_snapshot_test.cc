// Copyright 2026 The WWT Authors
//
// Snapshot save/load: metadata fidelity, BuildOrLoad caching semantics,
// and the failure paths — any version but the current one, bad magic,
// truncation at arbitrary offsets, and structurally corrupt sections
// must all come back as clean Status errors, never a crash. A small
// workload-subset corpus keeps this in the unit tier; the full-workload
// answer-equality check lives in wwt_snapshot_roundtrip_test (labeled
// slow).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
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
  for (uint32_t version : {1u, 2u, 3u, 4u, 5u}) {
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

// --- zero-copy specifics ---------------------------------------------------

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

TEST_F(SnapshotTest, ForwardIndexTamperFailsAtLoad) {
  // FWRD is validated like STOR: offsets monotone, and the same id range
  // as the store. Body: u64 first_id, u64 count, [u32 pad_len][pad],
  // u64 offsets[count + 1] (in u32 words), u32 words[].
  const std::string path = SavedSnapshot("fwrd_tamper");
  const std::string contents = ReadFile(path);
  const size_t fwrd = SectionBodyOffset(contents, "FWRD");
  ASSERT_NE(fwrd, std::string::npos);
  uint64_t count;
  std::memcpy(&count, contents.data() + fwrd + 8, sizeof(count));
  ASSERT_EQ(count, GetCorpus().store.size());
  const size_t pad_len = static_cast<uint8_t>(contents[fwrd + 16]);
  const size_t offsets = fwrd + 16 + 4 + pad_len;

  auto expect_corruption = [&](const std::string& tampered, const char* what,
                               const char* message) {
    WriteFile(path, tampered);
    StatusOr<Corpus> loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_TRUE(loaded.status().IsCorruption())
        << what << ": " << loaded.status();
    EXPECT_NE(loaded.status().message().find(message), std::string::npos)
        << what << ": " << loaded.status();
  };
  auto put_u64 = [](std::string* s, size_t pos, uint64_t v) {
    std::memcpy(s->data() + pos, &v, sizeof(v));
  };

  std::string t = contents;
  put_u64(&t, offsets + 8, ~uint64_t{0});  // offsets[1]
  expect_corruption(t, "offsets[1] = 2^64-1", "monotone");
  t = contents;
  put_u64(&t, offsets, 1);  // offsets[0]
  expect_corruption(t, "offsets[0] = 1", "does not start at 0");
  t = contents;
  put_u64(&t, fwrd + 8, count - 1);
  expect_corruption(t, "count - 1", "forward index covers");
  t = contents;
  put_u64(&t, fwrd, 1);
  expect_corruption(t, "first id 1", "forward index covers");
  t = contents;
  put_u64(&t, offsets + 8 * count, ~uint64_t{0} / 2);  // offsets[count]
  expect_corruption(t, "blob past the section", "truncated");

  // A file without the section is refused: every v6 snapshot has it.
  t = contents;
  t.replace(fwrd - 12, 4, "FWRX");
  expect_corruption(t, "no FWRD", "missing a required section");
  std::remove(path.c_str());
}

// --- the vocabulary slot table ---------------------------------------------

/// Where INDX keeps the vocabulary slot table. Body: the 37-byte options
/// prefix, u64 nterms, u64 doc_count, u32 idf_docs, [u32 pad_len][pad],
/// u64 offsets[nterms + 1], u64 nslots, [u32 pad_len][pad],
/// u32 slots[nslots].
struct SlotTableAt {
  uint64_t nterms = 0;
  uint64_t nslots = 0;
  size_t count_pos = 0;  // the u64 nslots
  size_t slots_pos = 0;  // slots[0]
};

SlotTableAt LocateSlotTable(const std::string& contents) {
  auto u64 = [&contents](size_t pos) {
    uint64_t v;
    std::memcpy(&v, contents.data() + pos, sizeof(v));
    return v;
  };
  auto u32 = [&contents](size_t pos) {
    uint32_t v;
    std::memcpy(&v, contents.data() + pos, sizeof(v));
    return v;
  };
  SlotTableAt at;
  const size_t indx = SectionBodyOffset(contents, "INDX");
  at.nterms = u64(indx + 37);
  size_t pos = indx + 37 + 20;
  pos += 4 + u32(pos);
  pos += (at.nterms + 1) * sizeof(uint64_t);
  at.count_pos = pos;
  at.nslots = u64(pos);
  pos += sizeof(uint64_t);
  pos += 4 + u32(pos);
  at.slots_pos = pos;
  return at;
}

void PutU32(std::string* contents, size_t pos, uint32_t v) {
  std::memcpy(contents->data() + pos, &v, sizeof(v));
}

TEST_F(SnapshotTest, MappedFindMatchesHeapFind) {
  const std::string path = SavedSnapshot("slots_find");
  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Vocabulary& heap = GetCorpus().index->vocab();
  const Vocabulary& mapped = loaded->index->vocab();
  ASSERT_FALSE(heap.mapped());
  ASSERT_TRUE(mapped.mapped());
  ASSERT_EQ(mapped.size(), heap.size());
  ASSERT_EQ(mapped.num_slots(), Vocabulary::SlotCountFor(heap.size()));
  ASSERT_EQ(heap.num_slots(), mapped.num_slots());
  EXPECT_TRUE(std::equal(heap.Slots(), heap.Slots() + heap.num_slots(),
                         mapped.Slots()));

  size_t prefix_misses = 0;
  for (TermId t = 0; t < heap.size(); ++t) {
    const std::string term(heap.Term(t));
    EXPECT_EQ(heap.Find(term), t);
    EXPECT_EQ(mapped.Find(term), t) << term;
    for (size_t len = 0; len < term.size(); ++len) {
      const std::string prefix = term.substr(0, len);
      const std::optional<TermId> want = heap.Find(prefix);
      EXPECT_EQ(mapped.Find(prefix), want) << prefix;
      if (!want) ++prefix_misses;
    }
  }
  EXPECT_GT(prefix_misses, 0u);
  for (const char* unknown : {"", "zzqqxx", "notaterm0", "\xff\xfe"}) {
    EXPECT_FALSE(mapped.Find(unknown).has_value()) << unknown;
    EXPECT_FALSE(heap.Find(unknown).has_value()) << unknown;
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, SlotTableTamperFailsCleanly) {
  const std::string path = SavedSnapshot("slots_tamper");
  const std::string contents = ReadFile(path);
  const SlotTableAt at = LocateSlotTable(contents);
  ASSERT_GT(at.nterms, 0u);
  ASSERT_EQ(at.nslots, Vocabulary::SlotCountFor(at.nterms));

  auto expect_corruption = [&](const std::string& tampered,
                               const char* what, const char* message) {
    WriteFile(path, tampered);
    StatusOr<Corpus> loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_TRUE(loaded.status().IsCorruption())
        << what << ": " << loaded.status();
    EXPECT_NE(loaded.status().message().find(message), std::string::npos)
        << what << ": " << loaded.status();
  };

  // A slot naming a term id past the vocabulary.
  std::string out_of_range = contents;
  PutU32(&out_of_range, at.slots_pos, static_cast<uint32_t>(at.nterms));
  expect_corruption(out_of_range, "slot id >= nterms", "holds term id");

  // A slot count that is not a power of two.
  std::string odd_count = contents;
  const uint64_t odd = at.nslots + 1;
  std::memcpy(odd_count.data() + at.count_pos, &odd, sizeof(odd));
  expect_corruption(odd_count, "slot count", "slot table of");

  // Every slot filled: a probe for an unknown term would never end.
  std::string full = contents;
  for (uint64_t s = 0; s < at.nslots; ++s) {
    PutU32(&full, at.slots_pos + s * sizeof(uint32_t),
           static_cast<uint32_t>(s % at.nterms));
  }
  expect_corruption(full, "no empty slot", "no empty slot");
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
