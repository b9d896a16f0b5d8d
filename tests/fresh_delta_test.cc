// Copyright 2026 The WWT Authors
//
// DeltaShard / DeltaView semantics (docs/FRESHNESS.md): mutation
// validation, supersede/tombstone visibility, the write-ahead journal
// (replay, base-hash check, torn-tail drop), and the headline
// equivalence contract — an engine serving (frozen + delta overlay) is
// byte-identical, per ResultDigest, to one serving a from-scratch
// rebuild that contains the same edits and pins the base statistics.
// The rebuild here is hand-built in the test (seed-add-pin inline), so
// it checks the serving overlay against first principles, not against
// FoldDelta (fresh_merge_test covers that production path).

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
#include "fresh/delta_shard.h"
#include "index/corpus_set.h"
#include "util/serde.h"
#include "wwt/api.h"
#include "wwt/engine.h"

namespace wwt {
namespace fresh {
namespace {

WebTable MakeTable(const std::string& title,
                   const std::vector<std::string>& header,
                   const std::vector<std::vector<std::string>>& body) {
  WebTable t;
  t.url = "http://fresh.example/" + title;
  t.title_rows.push_back(title);
  t.header_rows.push_back(header);
  t.body = body;
  t.num_cols = static_cast<int>(header.size());
  t.context.push_back({"freshly added table about " + title, 1.0});
  return t;
}

class FreshDeltaTest : public ::testing::Test {
 protected:
  struct Shared {
    std::shared_ptr<const CorpusSet> set;
    std::vector<std::vector<std::string>> queries;
  };

  static const Shared& GetShared() {
    static Shared* shared = [] {
      auto* s = new Shared;
      CorpusOptions options;
      options.seed = 7;
      options.scale = 0.05;
      options.noise_pages = 10;
      Corpus corpus = GenerateCorpus(options);
      for (const ResolvedQuery& rq : corpus.queries) {
        std::vector<std::string> cols;
        for (const QueryColumnSpec& col : rq.spec.columns) {
          cols.push_back(col.keywords);
        }
        s->queries.push_back(std::move(cols));
      }
      s->set = CorpusSet::FromHandle(
          CorpusHandle::Own(std::move(corpus), 0xFEED));
      return s;
    }();
    return *shared;
  }

  static std::string TempPath(const std::string& name) {
    const char* dir = std::getenv("TMPDIR");
    return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
  }
};

TEST_F(FreshDeltaTest, EmptyDeltaIsInvisible) {
  const Shared& s = GetShared();
  auto delta = DeltaShard::Open(s.set);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  std::shared_ptr<const DeltaView> view = (*delta)->view();
  EXPECT_TRUE(view->empty());
  EXPECT_EQ(view->freshness_hash(), 0u);
  EXPECT_EQ(view->generation(), 0u);
  EXPECT_EQ(view->hidden_count(), 0u);
  EXPECT_EQ(view->index(), nullptr);
  EXPECT_EQ(view->base_end_id(), view->next_table_id());
  // The combined statistics surface degenerates to the base's.
  EXPECT_EQ(view->stats().num_docs(), s.set->stats().num_docs());
  EXPECT_EQ(&view->stats().vocab(), &s.set->stats().vocab());
}

TEST_F(FreshDeltaTest, AddAllocatesSequentialIdsAndServes) {
  const Shared& s = GetShared();
  auto delta = DeltaShard::Open(s.set).value();
  const TableId base_end = BaseEndId(*s.set);

  StatusOr<TableId> id = delta->AddTable(MakeTable(
      "zyzzogeton census", {"zyzzogeton name", "zyzzogeton count"},
      {{"alpha", "3"}, {"beta", "5"}}));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, base_end);
  StatusOr<TableId> id2 = delta->AddTable(
      MakeTable("more zyzzogetons", {"name"}, {{"gamma"}}));
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, base_end + 1);

  std::shared_ptr<const DeltaView> view = delta->view();
  EXPECT_FALSE(view->empty());
  EXPECT_EQ(view->num_tables(), 2u);
  EXPECT_EQ(view->generation(), 2u);
  EXPECT_TRUE(view->Contains(*id));
  EXPECT_FALSE(view->Hides(*id));  // new ids are not frozen ids
  EXPECT_EQ(view->hidden_count(), 0u);

  // The fresh-only term resolves through the combined vocabulary and
  // the delta index finds the new table.
  ASSERT_NE(view->index(), nullptr);
  std::vector<ScoredDoc> hits =
      view->index()->Search({"zyzzogeton"}, 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, *id);
  // Pinned statistics: an unseen term gets the base IDF for df=0, not a
  // live count — num_docs is the base's.
  EXPECT_EQ(view->index()->idf().num_docs(), s.set->stats().num_docs());
}

TEST_F(FreshDeltaTest, UpdateSupersedesFrozenTable) {
  const Shared& s = GetShared();
  auto delta = DeltaShard::Open(s.set).value();
  WebTable replacement =
      MakeTable("replacement", {"brand new header"}, {{"brand new cell"}});
  replacement.id = 0;
  ASSERT_TRUE(delta->UpdateTable(replacement).ok());

  std::shared_ptr<const DeltaView> view = delta->view();
  EXPECT_TRUE(view->Contains(0));
  EXPECT_TRUE(view->Hides(0));
  EXPECT_EQ(view->hidden_count(), 1u);
  StatusOr<WebTable> read = view->Read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->title_rows[0], "replacement");

  // Updating an id that was never allocated is NotFound.
  WebTable bogus = MakeTable("x", {"h"}, {{"c"}});
  bogus.id = view->next_table_id() + 100;
  EXPECT_FALSE(delta->UpdateTable(bogus).ok());
}

TEST_F(FreshDeltaTest, OverridePatchesServedRecord) {
  const Shared& s = GetShared();
  auto delta = DeltaShard::Open(s.set).value();
  // Not every generated table has header rows (the paper's corpus was
  // 18% headerless) — patch the first one that does.
  TableId target = 0;
  bool found = false;
  for (TableId id = 0; id < BaseEndId(*s.set) && !found; ++id) {
    WebTable t = ReadFrozenTable(*s.set, id).value();
    if (!t.header_rows.empty() && !t.header_rows[0].empty()) {
      target = id;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "corpus has no table with header rows";
  WebTable before = ReadFrozenTable(*s.set, target).value();

  SummaryOverride patch;
  patch.title = "corrected title";
  patch.header_cells.push_back({0, 0, "corrected header"});
  patch.context = "corrected context";
  ASSERT_TRUE(delta->OverrideSummary(target, patch).ok());

  std::shared_ptr<const DeltaView> view = delta->view();
  EXPECT_EQ(view->num_overrides(), 1u);
  WebTable after = view->Read(target).value();
  EXPECT_EQ(after.title_rows, std::vector<std::string>{"corrected title"});
  EXPECT_EQ(after.header_rows[0][0], "corrected header");
  ASSERT_EQ(after.context.size(), 1u);
  EXPECT_EQ(after.context[0].text, "corrected context");
  // Unpatched parts are served as stored.
  EXPECT_EQ(after.body, before.body);
  EXPECT_EQ(after.url, before.url);

  // Overrides stack: a second patch applies over the first.
  SummaryOverride second;
  second.title = "re-corrected title";
  ASSERT_TRUE(delta->OverrideSummary(target, second).ok());
  EXPECT_EQ(delta->view()->Read(target).value().title_rows[0],
            "re-corrected title");
  EXPECT_EQ(delta->view()->Read(target).value().header_rows[0][0],
            "corrected header");

  // Out-of-range cell edits and empty patches are rejected atomically.
  SummaryOverride bad;
  bad.body_cells.push_back({100000, 0, "nope"});
  EXPECT_FALSE(delta->OverrideSummary(target, bad).ok());
  EXPECT_FALSE(delta->OverrideSummary(target, SummaryOverride{}).ok());
  EXPECT_EQ(delta->view()->Read(target).value().title_rows[0],
            "re-corrected title");
}

TEST_F(FreshDeltaTest, TombstoneHidesAndUpdateRevives) {
  const Shared& s = GetShared();
  auto delta = DeltaShard::Open(s.set).value();
  ASSERT_TRUE(delta->TombstoneTable(2).ok());

  std::shared_ptr<const DeltaView> view = delta->view();
  EXPECT_TRUE(view->Hides(2));
  EXPECT_FALSE(view->Contains(2));
  EXPECT_EQ(view->num_tombstones(), 1u);

  // Double tombstone and override-of-tombstoned are rejected.
  EXPECT_FALSE(delta->TombstoneTable(2).ok());
  SummaryOverride patch;
  patch.title = "zombie";
  EXPECT_FALSE(delta->OverrideSummary(2, patch).ok());

  // An update revives the id with fresh content.
  WebTable revived = MakeTable("revived", {"h"}, {{"c"}});
  revived.id = 2;
  ASSERT_TRUE(delta->UpdateTable(revived).ok());
  view = delta->view();
  EXPECT_TRUE(view->Contains(2));
  EXPECT_TRUE(view->Hides(2));  // still hides the FROZEN record
  EXPECT_EQ(view->num_tombstones(), 0u);
}

TEST_F(FreshDeltaTest, FreshnessHashTracksEveryMutation) {
  const Shared& s = GetShared();
  auto delta = DeltaShard::Open(s.set).value();
  ASSERT_TRUE(delta->AddTable(MakeTable("a", {"h"}, {{"c"}})).ok());
  const uint64_t h1 = delta->view()->freshness_hash();
  EXPECT_NE(h1, 0u);
  ASSERT_TRUE(delta->TombstoneTable(0).ok());
  const uint64_t h2 = delta->view()->freshness_hash();
  EXPECT_NE(h2, h1);
  EXPECT_NE(h2, 0u);
}

// The tentpole contract: serving over (frozen + delta overlay) is
// byte-identical to a from-scratch rebuild containing the same edits
// with pinned base statistics — for the whole workload, via the one
// canonical ResultDigest.
TEST_F(FreshDeltaTest, OverlayServesByteIdenticalToRebuild) {
  const Shared& s = GetShared();
  auto delta = DeltaShard::Open(s.set).value();

  // A representative mix: two adds, one frozen update, one override,
  // one tombstone (plus a tombstoned-then-revived add).
  ASSERT_TRUE(delta
                  ->AddTable(MakeTable(
                      "fresh countries", {"name of country", "capital"},
                      {{"atlantis", "poseidonia"}, {"elbonia", "mudville"}}))
                  .ok());
  WebTable upd = MakeTable("updated zero", {"h0"}, {{"c0"}});
  upd.id = 0;
  ASSERT_TRUE(delta->UpdateTable(upd).ok());
  SummaryOverride patch;
  patch.title = "patched title three";
  ASSERT_TRUE(delta->OverrideSummary(3, patch).ok());
  ASSERT_TRUE(delta->TombstoneTable(4).ok());
  StatusOr<TableId> extra =
      delta->AddTable(MakeTable("ephemeral", {"h"}, {{"c"}}));
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(delta->TombstoneTable(*extra).ok());

  std::shared_ptr<const DeltaView> view = delta->view();

  // ---- The from-scratch rebuild, assembled inline from first
  // principles: effective record per id, seed-add-pin index.
  TableStore rebuilt_store;
  for (TableId id = 0; id < view->next_table_id(); ++id) {
    WebTable table;
    if (view->Contains(id)) {
      table = view->Read(id).value();
    } else if (view->tombstoned().count(id) == 0 &&
               id < view->base_end_id()) {
      table = ReadFrozenTable(*s.set, id).value();
    }
    ASSERT_EQ(rebuilt_store.Put(std::move(table)), id);
  }
  const TableIndex& base_index = s.set->shard(0).index();
  TableIndex rebuilt_index(base_index.options(),
                           base_index.tokenizer().options());
  rebuilt_index.SeedVocabulary(s.set->stats().vocab());
  for (TableId id = 0; id < view->next_table_id(); ++id) {
    rebuilt_index.Add(rebuilt_store.Get(id).value());
  }
  rebuilt_index.InstallGlobalStats(s.set->stats().idf());

  WwtEngine live(s.set->shard_refs(), &view->stats(), {}, nullptr,
                 view.get());
  WwtEngine rebuilt(&rebuilt_store, &rebuilt_index, {});
  ASSERT_FALSE(s.queries.empty());
  for (const auto& query : s.queries) {
    QueryExecution a = live.Execute(query);
    QueryExecution b = rebuilt.Execute(query);
    ASSERT_TRUE(a.retrieval.shard_status.ok());
    EXPECT_EQ(ResultDigest(a), ResultDigest(b))
        << "overlay diverged from rebuild";
  }
  // And a query only answerable from the delta.
  QueryExecution a = live.Execute({"fresh countries", "capital"});
  QueryExecution b = rebuilt.Execute({"fresh countries", "capital"});
  EXPECT_EQ(ResultDigest(a), ResultDigest(b));
}

TEST_F(FreshDeltaTest, JournalReplaysAcrossReopen) {
  const Shared& s = GetShared();
  const std::string path = TempPath("fresh_delta_journal_test.wwtdlt");
  std::remove(path.c_str());

  uint64_t hash = 0;
  uint64_t generation = 0;
  {
    auto delta = DeltaShard::Open(s.set, {path});
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_TRUE(
        (*delta)->AddTable(MakeTable("journaled", {"h"}, {{"c"}})).ok());
    ASSERT_TRUE((*delta)->TombstoneTable(1).ok());
    SummaryOverride patch;
    patch.title = "patched";
    ASSERT_TRUE((*delta)->OverrideSummary(0, patch).ok());
    hash = (*delta)->view()->freshness_hash();
    generation = (*delta)->view()->generation();
  }
  EXPECT_TRUE(IsDeltaJournal(path));
  EXPECT_FALSE(IsDeltaJournal("/does/not/exist"));

  {
    auto reopened = DeltaShard::Open(s.set, {path});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::shared_ptr<const DeltaView> view = (*reopened)->view();
    EXPECT_EQ(view->freshness_hash(), hash);
    EXPECT_EQ(view->generation(), generation);
    EXPECT_EQ(view->num_tables(), 2u);  // the add + the patched 0
    EXPECT_EQ(view->num_tombstones(), 1u);
    EXPECT_EQ(view->Read(0).value().title_rows[0], "patched");
  }

  StatusOr<DeltaJournalInfo> info = InspectDeltaJournal(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->base_hash, s.set->content_hash());
  EXPECT_EQ(info->num_records, 3u);
  EXPECT_EQ(info->num_overrides, 1u);
  EXPECT_EQ(info->pending_tables, 2u);
  EXPECT_EQ(info->num_tombstones, 1u);
  EXPECT_EQ(info->generation, generation);
  EXPECT_FALSE(info->truncated);

  // A journal is bound to ONE base: a set with a different content hash
  // refuses to replay it.
  {
    Corpus other;
    other.store.Put(MakeTable("other", {"h"}, {{"c"}}));
    other.index = std::make_unique<TableIndex>();
    other.index->Add(other.store.Get(0).value());
    auto other_set = CorpusSet::FromHandle(
        CorpusHandle::Own(std::move(other), 0xD00D));
    auto mismatched = DeltaShard::Open(other_set, {path});
    EXPECT_FALSE(mismatched.ok());
  }
  std::remove(path.c_str());
}

TEST_F(FreshDeltaTest, TornJournalTailIsDroppedAndRewritten) {
  const Shared& s = GetShared();
  const std::string path = TempPath("fresh_delta_torn_test.wwtdlt");
  std::remove(path.c_str());
  {
    auto delta = DeltaShard::Open(s.set, {path}).value();
    ASSERT_TRUE(delta->AddTable(MakeTable("kept", {"h"}, {{"c"}})).ok());
    ASSERT_TRUE(delta->TombstoneTable(0).ok());
  }
  // Crash mid-append: a record frame cut off halfway.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = "\x40\x00\x00\x00\x00\x00\x00\x00half a record";
    out.write(torn, sizeof(torn) - 1);
  }
  StatusOr<DeltaJournalInfo> info = InspectDeltaJournal(path);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->truncated);
  EXPECT_EQ(info->num_records, 2u);

  {
    auto reopened = DeltaShard::Open(s.set, {path});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->view()->generation(), 2u);
    EXPECT_EQ((*reopened)->view()->num_tables(), 1u);
  }
  // Open rewrote the journal clean — the torn tail is gone for good.
  info = InspectDeltaJournal(path);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->truncated);
  EXPECT_EQ(info->num_records, 2u);
  std::remove(path.c_str());
}

TEST_F(FreshDeltaTest, NormalizationAndValidation) {
  const Shared& s = GetShared();
  auto delta = DeltaShard::Open(s.set).value();
  // Ragged rows are padded to the widest row.
  WebTable ragged;
  ragged.title_rows.push_back("ragged");
  ragged.header_rows.push_back({"a", "b", "c"});
  ragged.body.push_back({"1"});
  StatusOr<TableId> id = delta->AddTable(ragged);
  ASSERT_TRUE(id.ok());
  WebTable stored = delta->view()->Read(*id).value();
  EXPECT_EQ(stored.num_cols, 3);
  EXPECT_EQ(stored.body[0].size(), 3u);
  // A table with no columns at all is rejected.
  EXPECT_FALSE(delta->AddTable(WebTable{}).ok());
}


// ---- Hostile journals. Every record below carries a valid checksum, so
// only replay's checks stand between it and the served view: the checks
// the live mutation it claims to record would have passed.

constexpr uint8_t kAddKind = 1;
constexpr uint8_t kUpdateKind = 2;
constexpr uint8_t kOverrideKind = 3;
constexpr uint8_t kTombstoneKind = 4;

/// One journal record as written, before framing.
struct Forged {
  uint64_t seq = 0;
  uint8_t kind = 0;
  uint64_t id = 0;
  /// The bytes after the id: a table blob, a patch, or nothing.
  std::string payload;
};

std::string TablePayload(const WebTable& table) {
  serde::Writer w;
  w.WriteString(SerializeTable(table));
  return w.TakeBuffer();
}

std::string PatchPayload(const SummaryOverride& patch) {
  serde::Writer w;
  w.WriteU8(patch.title.has_value() ? 1 : 0);
  if (patch.title.has_value()) w.WriteString(*patch.title);
  for (const auto* cells : {&patch.header_cells, &patch.body_cells}) {
    w.WriteU32(static_cast<uint32_t>(cells->size()));
    for (const SummaryOverride::CellEdit& e : *cells) {
      w.WriteU32(e.row);
      w.WriteU32(e.col);
      w.WriteString(e.text);
    }
  }
  w.WriteU8(patch.context.has_value() ? 1 : 0);
  if (patch.context.has_value()) w.WriteString(*patch.context);
  return w.TakeBuffer();
}

/// A journal over `set` holding `records`, each framed and checksummed
/// as the writer frames it.
std::string ForgeJournal(const CorpusSet& set,
                         const std::vector<Forged>& records) {
  serde::Writer w;
  w.WriteBytes(kDeltaJournalMagic, sizeof(kDeltaJournalMagic));
  w.WriteU32(kDeltaJournalFormatVersion);
  w.WriteU32(0);
  w.WriteU64(set.content_hash());
  w.WriteU64(BaseEndId(set));
  for (const Forged& r : records) {
    serde::Writer body;
    body.WriteU64(r.seq);
    body.WriteU8(r.kind);
    body.WriteU64(r.id);
    body.WriteBytes(r.payload.data(), r.payload.size());
    const std::string bytes = body.TakeBuffer();
    w.WriteU64(bytes.size());
    w.WriteBytes(bytes.data(), bytes.size());
    w.WriteU64(serde::Checksum(bytes));
  }
  return w.TakeBuffer();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The forger writes exactly what the live writer writes, so the hostile
// cases below differ from a real journal only where they say they do.
TEST_F(FreshDeltaTest, ForgedJournalMatchesTheWriter) {
  const Shared& s = GetShared();
  const std::string path = TempPath("fresh_delta_forge_test.wwtdlt");
  std::remove(path.c_str());
  WebTable added = MakeTable("forge check", {"h1", "h2"}, {{"a", "b"}});
  SummaryOverride patch;
  patch.title = "patched";
  patch.body_cells.push_back({0, 1, "cell"});
  patch.context = "context";
  const TableId base_end = BaseEndId(*s.set);
  {
    auto delta = DeltaShard::Open(s.set, {path}).value();
    ASSERT_TRUE(delta->AddTable(added).ok());
    ASSERT_TRUE(delta->OverrideSummary(base_end, patch).ok());
    ASSERT_TRUE(delta->TombstoneTable(1).ok());
  }
  added.id = base_end;
  EXPECT_EQ(ReadBytes(path),
            ForgeJournal(*s.set, {{1, kAddKind, base_end, TablePayload(added)},
                                  {2, kOverrideKind, base_end,
                                   PatchPayload(patch)},
                                  {3, kTombstoneKind, 1, ""}}));
  std::remove(path.c_str());
}

// Each case fails on its last record; everything before it is a
// legitimate journal. Replay refuses the whole file with Corruption
// naming that record's seq and leaves the file as it was.
TEST_F(FreshDeltaTest, HostileJournalRecordsAreCorruption) {
  const Shared& s = GetShared();
  const std::string path = TempPath("fresh_delta_hostile_test.wwtdlt");
  const uint64_t base_end = BaseEndId(*s.set);
  const std::string table = TablePayload(MakeTable("forged", {"h"}, {{"c"}}));
  SummaryOverride retitle;
  retitle.title = "forged title";
  const std::string patch = PatchPayload(retitle);
  WebTable no_columns;
  no_columns.title_rows.push_back("no columns at all");

  struct Case {
    const char* what;
    std::vector<Forged> records;
  };
  const std::vector<Case> cases = {
      {"add of id 0xFFFFFFFF", {{1, kAddKind, 0xFFFFFFFFull, table}}},
      {"tombstone of id 2^32+5 (frozen table 5 once truncated)",
       {{1, kTombstoneKind, (1ull << 32) + 5, ""}}},
      {"update of id 2^32+5", {{1, kUpdateKind, (1ull << 32) + 5, table}}},
      {"add that skips ids",
       {{1, kAddKind, base_end, table},
        {2, kAddKind, base_end + 1 + 1000000, table}}},
      {"update of an unallocated id", {{1, kUpdateKind, base_end, table}}},
      {"override of an unallocated id",
       {{1, kAddKind, base_end, table},
        {2, kOverrideKind, base_end + 1, patch}}},
      {"tombstone of an unallocated id",
       {{1, kTombstoneKind, base_end, ""}}},
      {"tombstone written twice",
       {{1, kTombstoneKind, 2, ""}, {2, kTombstoneKind, 2, ""}}},
      {"override of a tombstoned id",
       {{1, kTombstoneKind, 3, ""}, {2, kOverrideKind, 3, patch}}},
      {"add of a 0-column table",
       {{1, kAddKind, base_end, TablePayload(no_columns)}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::vector<Forged> prefix = c.records;
    prefix.pop_back();
    WriteBytes(path, ForgeJournal(*s.set, prefix));
    ASSERT_TRUE(DeltaShard::Open(s.set, {path}).ok());

    const std::string bytes = ForgeJournal(*s.set, c.records);
    WriteBytes(path, bytes);
    StatusOr<std::unique_ptr<DeltaShard>> opened =
        DeltaShard::Open(s.set, {path});
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(opened.status().IsCorruption())
        << opened.status().ToString();
    const std::string seq =
        "record seq " + std::to_string(c.records.back().seq) + " ";
    EXPECT_NE(opened.status().message().find(seq), std::string::npos)
        << opened.status().ToString();
    EXPECT_EQ(ReadBytes(path), bytes);
  }
  std::remove(path.c_str());
}

// Open's replay and the live API share one rule book: a random journal
// of well-checksummed records opens exactly when the same operations,
// applied through the live API, all succeed — and then to the same
// state, freshness hash included.
TEST_F(FreshDeltaTest, RandomJournalsReplayLikeTheLiveApi) {
  const Shared& s = GetShared();
  const std::string path = TempPath("fresh_delta_random_test.wwtdlt");
  const uint64_t base_end = BaseEndId(*s.set);
  std::mt19937_64 rng(20261017);
  auto chance = [&rng](int percent) {
    return static_cast<int>(rng() % 100) < percent;
  };

  // A live operation and the record that claims to journal it;
  // `expressible` is false when the live API cannot produce the record
  // (a garbled payload or kind, an id past 32 bits, a seq out of order).
  struct Op {
    Forged record;
    WebTable table;
    SummaryOverride patch;
    bool expressible = true;
  };

  int opened = 0;
  int refused = 0;
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<Op> ops;
    uint64_t next_add = base_end;
    const int n = 1 + static_cast<int>(rng() % 6);
    for (int i = 0; i < n; ++i) {
      Op op;
      Forged& r = op.record;
      r.seq = !ops.empty() && chance(4) ? ops.back().record.seq : i + 1;
      r.kind = static_cast<uint8_t>(1 + rng() % 4);
      const uint64_t k = rng() % 3;
      switch (rng() % 6) {
        case 0: r.id = 0; break;
        case 1: r.id = base_end - 1 - k; break;
        case 2: r.id = base_end + k; break;
        case 3: r.id = 0xFFFFFFFFull; break;
        case 4: r.id = (1ull << 32) + k; break;
        default: r.id = next_add; break;
      }
      if (r.kind == kAddKind && chance(50)) r.id = next_add;
      if (r.kind == kAddKind || r.kind == kUpdateKind) {
        const size_t cols = rng() % 3;
        op.table = MakeTable("random " + std::to_string(rng() % 5),
                             std::vector<std::string>(cols, "hdr"),
                             {std::vector<std::string>(cols, "cell")});
        if (cols == 0) op.table = WebTable{};
        op.table.id = static_cast<TableId>(r.id);
        r.payload = TablePayload(op.table);
        if (r.kind == kAddKind && r.id == next_add) ++next_add;
      } else if (r.kind == kOverrideKind) {
        if (chance(80)) op.patch.title = "retitled";
        if (chance(30)) {
          op.patch.body_cells.push_back({static_cast<uint32_t>(rng() % 3),
                                         static_cast<uint32_t>(rng() % 3),
                                         "edited"});
        }
        r.payload = PatchPayload(op.patch);
      }
      if (chance(8)) {
        // Garbled: a byte short, or a byte over.
        if (!r.payload.empty() && chance(50)) {
          r.payload.pop_back();
        } else {
          r.payload.push_back('\x01');
        }
        op.expressible = false;
      }
      if (chance(3)) {
        r.kind = chance(50) ? 0 : 5;
        op.expressible = false;
      }
      if (r.id > 0xFFFFFFFFull ||
          (!ops.empty() && r.seq <= ops.back().record.seq)) {
        op.expressible = false;
      }
      ops.push_back(std::move(op));
    }

    auto live = DeltaShard::Open(s.set).value();
    bool live_ok = true;
    for (const Op& op : ops) {
      const TableId id = static_cast<TableId>(op.record.id);
      Status st;
      if (!op.expressible) {
        st = Status::InvalidArgument("not a live operation");
      } else if (op.record.kind == kAddKind) {
        StatusOr<TableId> added = live->AddTable(op.table);
        st = added.ok() && *added != id
                 ? Status::FailedPrecondition("allocated ", *added)
                 : added.status();
      } else if (op.record.kind == kUpdateKind) {
        st = live->UpdateTable(op.table);
      } else if (op.record.kind == kOverrideKind) {
        st = live->OverrideSummary(id, op.patch);
      } else {
        st = live->TombstoneTable(id);
      }
      if (!st.ok()) {
        live_ok = false;
        break;
      }
    }

    std::vector<Forged> records;
    for (const Op& op : ops) records.push_back(op.record);
    WriteBytes(path, ForgeJournal(*s.set, records));
    StatusOr<std::unique_ptr<DeltaShard>> replayed =
        DeltaShard::Open(s.set, {path});
    ASSERT_EQ(replayed.ok(), live_ok) << replayed.status().ToString();
    if (!replayed.ok()) {
      EXPECT_TRUE(replayed.status().IsCorruption())
          << replayed.status().ToString();
      ++refused;
      continue;
    }
    ++opened;
    std::shared_ptr<const DeltaView> a = (*replayed)->view();
    std::shared_ptr<const DeltaView> b = live->view();
    ASSERT_EQ(a->tables().size(), b->tables().size());
    for (auto ia = a->tables().begin(), ib = b->tables().begin();
         ia != a->tables().end(); ++ia, ++ib) {
      EXPECT_EQ(ia->first, ib->first);
      EXPECT_EQ(SerializeTable(ia->second), SerializeTable(ib->second));
    }
    EXPECT_EQ(a->tombstoned(), b->tombstoned());
    EXPECT_EQ(a->next_table_id(), b->next_table_id());
    EXPECT_EQ(a->num_overrides(), b->num_overrides());
    EXPECT_EQ(a->hidden_count(), b->hidden_count());
    EXPECT_EQ(a->freshness_hash(), b->freshness_hash());
  }
  // Both outcomes are exercised, each many times.
  EXPECT_GE(opened, 25);
  EXPECT_GE(refused, 25);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fresh
}  // namespace wwt
