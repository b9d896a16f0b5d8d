// Copyright 2026 The WWT Authors
//
// CandidateTable::Build against a straightforward reference: a token
// vector per string, an unordered_set per cell and an unordered_map per
// column, kept here as the oracle. Every table of a seed-42, scale-0.25
// corpus is built through the heap-built corpus and through its loaded
// snapshot (mapped vocabulary and IDF), and both are compared with the
// reference field by field, doubles by their bits.
//
// The snapshot's forward index (section FWRD) against the one-pass Build
// that tokenized every candidate before the index existed, kept here as
// the second oracle: every table materialized from its stored entry must
// equal it bit for bit, and an entry that is truncated, names a term past
// the vocabulary, or disagrees with its record's shape is a Corruption.
// Labels: unit.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate.h"
#include "index/snapshot.h"
#include "util/logging.h"
#include "wwt/engine.h"

namespace wwt {
namespace {

// ------------------------------------------------------ reference oracle

struct ReferenceColumn {
  std::vector<std::vector<TermId>> header_terms;
  SparseVector header_vec;
  SparseVector content_vec;
  std::unordered_set<TermId> frequent_terms;
};

struct ReferenceCandidate {
  int num_cols = 0;
  int num_header_rows = 0;
  std::vector<ReferenceColumn> cols;
  std::unordered_set<TermId> title_terms;
  std::unordered_set<TermId> context_terms;
  std::unordered_set<TermId> frequent_terms_all;
};

std::vector<TermId> ReferenceKnownTerms(const std::string& text,
                                        const CorpusStats& stats) {
  std::vector<TermId> out;
  for (const std::string& tok : stats.tokenizer().Tokenize(text)) {
    auto id = stats.vocab().Find(tok);
    if (id) out.push_back(*id);
  }
  return out;
}

ReferenceCandidate ReferenceBuild(const WebTable& table,
                                  const CorpusStats& stats,
                                  double frequent_cell_fraction = 0.3) {
  ReferenceCandidate cand;
  cand.num_cols = table.num_cols;
  cand.num_header_rows = table.num_header_rows();
  for (const std::string& title : table.title_rows) {
    for (TermId t : ReferenceKnownTerms(title, stats)) {
      cand.title_terms.insert(t);
    }
  }
  for (const ContextSnippet& snip : table.context) {
    for (TermId t : ReferenceKnownTerms(snip.text, stats)) {
      cand.context_terms.insert(t);
    }
  }
  cand.cols.resize(table.num_cols);
  for (int c = 0; c < table.num_cols; ++c) {
    ReferenceColumn& col = cand.cols[c];
    col.header_terms.resize(table.num_header_rows());
    for (int r = 0; r < table.num_header_rows(); ++r) {
      col.header_terms[r] = ReferenceKnownTerms(table.header_rows[r][c], stats);
      for (TermId t : col.header_terms[r]) {
        col.header_vec.Add(t, stats.idf().Idf(t));
      }
    }
    std::unordered_map<TermId, int> cells_with_term;
    int non_empty_cells = 0;
    for (const auto& row : table.body) {
      const std::string& cell = row[c];
      if (cell.empty()) continue;
      ++non_empty_cells;
      std::vector<TermId> terms = ReferenceKnownTerms(cell, stats);
      std::unordered_set<TermId> distinct(terms.begin(), terms.end());
      for (TermId t : distinct) {
        col.content_vec.Add(t, stats.idf().Idf(t));
        ++cells_with_term[t];
      }
    }
    for (const auto& [t, n] : cells_with_term) {
      if (n >= 2 && n >= frequent_cell_fraction * non_empty_cells) {
        col.frequent_terms.insert(t);
        cand.frequent_terms_all.insert(t);
      }
    }
    col.header_vec.Compact();
    col.content_vec.Compact();
  }
  return cand;
}

/// Build as it was before the forward index: one pass per string, term
/// ids straight into the candidate.
CandidateTable SinglePassBuild(WebTable table, const CorpusStats& stats,
                               double frequent_cell_fraction = 0.3) {
  auto known_terms = [&stats](std::string_view text,
                              std::vector<TermId>* out) {
    stats.tokenizer().ForEachToken(text, [&](std::string_view token) {
      if (auto id = stats.vocab().Find(token)) out->push_back(*id);
    });
  };
  auto sort_distinct = [](std::vector<TermId>* terms) {
    std::sort(terms->begin(), terms->end());
    terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
  };
  const IdfDictionary& idf = stats.idf();
  CandidateTable cand;
  cand.num_cols = table.num_cols;
  cand.num_header_rows = table.num_header_rows();
  for (const std::string& title : table.title_rows) {
    known_terms(title, &cand.title_terms);
  }
  sort_distinct(&cand.title_terms);
  for (const ContextSnippet& snip : table.context) {
    known_terms(snip.text, &cand.context_terms);
  }
  sort_distinct(&cand.context_terms);
  std::vector<TermId> cell_terms;
  std::vector<TermId> column_terms;
  cand.cols.resize(table.num_cols);
  for (int c = 0; c < table.num_cols; ++c) {
    CandidateColumn& col = cand.cols[c];
    col.header_terms.resize(cand.num_header_rows);
    for (int r = 0; r < cand.num_header_rows; ++r) {
      known_terms(table.header_rows[r][c], &col.header_terms[r]);
      for (TermId t : col.header_terms[r]) col.header_vec.Add(t, idf.Idf(t));
    }
    column_terms.clear();
    int non_empty_cells = 0;
    for (const auto& row : table.body) {
      const std::string& cell = row[c];
      if (cell.empty()) continue;
      ++non_empty_cells;
      cell_terms.clear();
      known_terms(cell, &cell_terms);
      sort_distinct(&cell_terms);
      column_terms.insert(column_terms.end(), cell_terms.begin(),
                          cell_terms.end());
    }
    std::sort(column_terms.begin(), column_terms.end());
    for (size_t i = 0; i < column_terms.size();) {
      const TermId t = column_terms[i];
      size_t end = i + 1;
      while (end < column_terms.size() && column_terms[end] == t) ++end;
      const int cells = static_cast<int>(end - i);
      const double term_idf = idf.Idf(t);
      double weight = 0;
      for (int k = 0; k < cells; ++k) weight += term_idf;
      col.content_vec.Add(t, weight);
      if (cells >= 2 && cells >= frequent_cell_fraction * non_empty_cells) {
        col.frequent_terms.push_back(t);
        cand.frequent_terms_all.push_back(t);
      }
      i = end;
    }
    col.header_vec.Compact();
    col.content_vec.Compact();
  }
  sort_distinct(&cand.frequent_terms_all);
  cand.table = std::move(table);
  return cand;
}

// ------------------------------------------------------------ comparison

std::vector<TermId> Sorted(const std::unordered_set<TermId>& set) {
  std::vector<TermId> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

void ExpectSameVector(const SparseVector& got, const SparseVector& want,
                      const std::string& where) {
  ASSERT_TRUE(got.compacted()) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.entries()[i].first, want.entries()[i].first)
        << where << " entry " << i;
    EXPECT_EQ(Bits(got.entries()[i].second), Bits(want.entries()[i].second))
        << where << " entry " << i;
  }
}

/// Compares every field of a built candidate with the reference's.
void ExpectSameCandidate(const CandidateTable& got,
                         const ReferenceCandidate& want,
                         const WebTable& table) {
  const std::string id = "table " + std::to_string(table.id);
  EXPECT_EQ(got.table.id, table.id);
  EXPECT_EQ(got.table.body, table.body) << id;
  ASSERT_EQ(got.num_cols, want.num_cols) << id;
  ASSERT_EQ(got.num_header_rows, want.num_header_rows) << id;
  EXPECT_EQ(got.title_terms, Sorted(want.title_terms)) << id;
  EXPECT_EQ(got.context_terms, Sorted(want.context_terms)) << id;
  EXPECT_EQ(got.frequent_terms_all, Sorted(want.frequent_terms_all)) << id;
  ASSERT_EQ(got.cols.size(), want.cols.size()) << id;
  for (size_t c = 0; c < got.cols.size(); ++c) {
    const std::string where = id + " column " + std::to_string(c);
    EXPECT_EQ(got.cols[c].header_terms, want.cols[c].header_terms) << where;
    ExpectSameVector(got.cols[c].header_vec, want.cols[c].header_vec,
                     where + " header_vec");
    ExpectSameVector(got.cols[c].content_vec, want.cols[c].content_vec,
                     where + " content_vec");
    EXPECT_EQ(got.cols[c].frequent_terms, Sorted(want.cols[c].frequent_terms))
        << where;
  }
}

/// Compares every field of two candidates, doubles by their bits.
void ExpectSameCandidate(const CandidateTable& got,
                         const CandidateTable& want) {
  const std::string id = "table " + std::to_string(want.table.id);
  EXPECT_EQ(got.table.id, want.table.id);
  EXPECT_EQ(got.table.body, want.table.body) << id;
  EXPECT_EQ(got.table.header_rows, want.table.header_rows) << id;
  ASSERT_EQ(got.num_cols, want.num_cols) << id;
  ASSERT_EQ(got.num_header_rows, want.num_header_rows) << id;
  EXPECT_EQ(got.title_terms, want.title_terms) << id;
  EXPECT_EQ(got.context_terms, want.context_terms) << id;
  EXPECT_EQ(got.frequent_terms_all, want.frequent_terms_all) << id;
  ASSERT_EQ(got.cols.size(), want.cols.size()) << id;
  for (size_t c = 0; c < got.cols.size(); ++c) {
    const std::string where = id + " column " + std::to_string(c);
    EXPECT_EQ(got.cols[c].header_terms, want.cols[c].header_terms) << where;
    ExpectSameVector(got.cols[c].header_vec, want.cols[c].header_vec,
                     where + " header_vec");
    ExpectSameVector(got.cols[c].content_vec, want.cols[c].content_vec,
                     where + " content_vec");
    EXPECT_EQ(got.cols[c].frequent_terms, want.cols[c].frequent_terms)
        << where;
  }
}

TEST(CandidateOracleTest, EveryTableMatchesReferenceHeapAndMapped) {
  CorpusOptions options;
  options.seed = 42;
  options.scale = 0.25;
  const Corpus built = GenerateCorpus(options);
  const std::string path =
      ::testing::TempDir() + "wwt_candidate_oracle.wwtsnap";
  WWT_CHECK_OK(SaveSnapshot(built, options, path));
  StatusOr<Corpus> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_FALSE(built.index->vocab().mapped());
  ASSERT_TRUE(loaded->index->vocab().mapped());
  ASSERT_TRUE(loaded->index->idf().mapped());
  ASSERT_EQ(loaded->store.size(), built.store.size());
  ASSERT_GT(built.store.size(), 0u);

  // The reference runs on the heap-built corpus only, so the mapped
  // build is checked against it too (mapped lookups and IDF included).
  for (size_t i = 0; i < built.store.size(); ++i) {
    const TableId id = built.store.first_id() + static_cast<TableId>(i);
    StatusOr<WebTable> heap_table = built.store.Get(id);
    StatusOr<WebTable> mapped_table = loaded->store.Get(id);
    ASSERT_TRUE(heap_table.ok()) << heap_table.status();
    ASSERT_TRUE(mapped_table.ok()) << mapped_table.status();
    const ReferenceCandidate want = ReferenceBuild(*heap_table, *built.index);
    ExpectSameCandidate(CandidateTable::Build(*heap_table, *built.index),
                        want, *heap_table);
    ExpectSameCandidate(
        CandidateTable::Build(*mapped_table, *loaded->index), want,
        *heap_table);
    if (HasFailure()) break;  // one table's diff is enough
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------ forward index

/// The seed-42, scale-0.25 corpus built once, and its v6 snapshot loaded.
struct ForwardFixture {
  CorpusOptions options;
  Corpus built;
  Corpus loaded;
  std::string path;
};

const ForwardFixture& Forward() {
  static ForwardFixture* f = [] {
    auto* fx = new ForwardFixture;
    fx->options.seed = 42;
    fx->options.scale = 0.25;
    fx->built = GenerateCorpus(fx->options);
    fx->path = ::testing::TempDir() + "wwt_candidate_forward.wwtsnap";
    WWT_CHECK_OK(SaveSnapshot(fx->built, fx->options, fx->path));
    StatusOr<Corpus> loaded = LoadSnapshot(fx->path);
    WWT_CHECK(loaded.ok()) << loaded.status();
    fx->loaded = std::move(loaded).value();
    return fx;
  }();
  return *f;
}

TEST(ForwardIndexTest, EveryMaterializedTableMatchesSinglePassBuild) {
  const ForwardFixture& f = Forward();
  const TableStore& store = f.loaded.store;
  ASSERT_TRUE(store.mapped());
  ASSERT_EQ(store.size(), f.built.store.size());
  ASSERT_GT(store.size(), 0u);
  ASSERT_EQ(f.built.store.Forward(store.first_id()).words, nullptr);
  for (TableId id = store.first_id(); id < store.end_id(); ++id) {
    StatusOr<WebTable> table = store.Get(id);
    ASSERT_TRUE(table.ok()) << table.status();
    const ForwardEntry entry = store.Forward(id);
    ASSERT_NE(entry.words, nullptr);
    // The stored entry is what the writer computes from the record.
    std::vector<uint32_t> words;
    CandidateTable::AppendForwardEntry(*table, *f.built.index, &words);
    ASSERT_EQ(std::vector<uint32_t>(entry.words, entry.words + entry.size),
              words)
        << "table " << id;
    const CandidateTable want = SinglePassBuild(*table, *f.built.index);
    for (double fraction : {0.3, 0.1, 0.9}) {
      StatusOr<CandidateTable> got = CandidateTable::FromForwardEntry(
          *table, entry, *f.loaded.index, fraction);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameCandidate(*got, fraction == 0.3
                                    ? want
                                    : SinglePassBuild(*table, *f.built.index,
                                                      fraction));
    }
    ExpectSameCandidate(CandidateTable::Build(*table, *f.loaded.index), want);
    if (HasFailure()) break;  // one table's diff is enough
  }
}

/// Table `id`'s stored entry as a vector, to tamper with.
std::vector<uint32_t> EntryWords(const TableStore& store, TableId id) {
  const ForwardEntry entry = store.Forward(id);
  return std::vector<uint32_t>(entry.words, entry.words + entry.size);
}

Status Materialize(const TableStore& store, TableId id,
                   const std::vector<uint32_t>& words,
                   const CorpusStats& stats) {
  StatusOr<WebTable> table = store.Get(id);
  WWT_CHECK(table.ok());
  return CandidateTable::FromForwardEntry(std::move(table).value(),
                                          {words.data(), words.size()}, stats)
      .status();
}

TEST(ForwardIndexTest, TamperedEntriesAreCorruption) {
  const ForwardFixture& f = Forward();
  const TableStore& store = f.loaded.store;
  const CorpusStats& stats = *f.loaded.index;
  const uint32_t nterms = static_cast<uint32_t>(stats.vocab().size());
  // A table with a title term, a header row and a body.
  TableId id = store.end_id();
  for (TableId t = store.first_id(); t < store.end_id(); ++t) {
    StatusOr<WebTable> table = store.Get(t);
    ASSERT_TRUE(table.ok());
    if (table->num_header_rows() > 0 && table->num_body_rows() > 0 &&
        store.Forward(t).words[2] > 0) {
      id = t;
      break;
    }
  }
  ASSERT_NE(id, store.end_id());
  const std::vector<uint32_t> entry = EntryWords(store, id);
  ASSERT_TRUE(Materialize(store, id, entry, stats).ok());

  auto expect_corruption = [&](std::vector<uint32_t> words,
                               const char* what) {
    const Status status = Materialize(store, id, words, stats);
    EXPECT_TRUE(status.IsCorruption()) << what << ": " << status;
  };
  std::vector<uint32_t> w = entry;
  w[0] += 1;
  expect_corruption(w, "num_cols differs from the record");
  w = entry;
  w[1] += 1;
  expect_corruption(w, "num_header_rows differs from the record");
  w = entry;
  w[2] = 0xffffffffu;
  expect_corruption(w, "title count overruns the entry");
  w = entry;
  w[3] = nterms;
  expect_corruption(w, "title term id == nterms");
  w = entry;
  w[3] = 0xffffffffu;
  expect_corruption(w, "title term id 2^32-1");
  w = entry;
  w.push_back(0);
  expect_corruption(w, "a trailing word");
  for (size_t cut : {size_t{0}, size_t{1}, size_t{3}, entry.size() / 2,
                     entry.size() - 1}) {
    expect_corruption(std::vector<uint32_t>(entry.begin(), entry.begin() + cut),
                      "a truncated entry");
  }
  // Every word of the entry set to a huge count or id: a Corruption or
  // a candidate, never a read past the entry (the ASan tier checks).
  for (size_t i = 0; i < entry.size(); ++i) {
    for (uint32_t v : {nterms, 0xffffffffu, 0x7fffffffu}) {
      w = entry;
      w[i] = v;
      (void)Materialize(store, id, w, stats);
    }
  }
}

TEST(ForwardIndexTest, ReadTablesSkipsATableWhoseEntryIsBad) {
  // The engine reads through the mapped store: a table whose entry does
  // not parse is skipped with a warning, like an unreadable record, and
  // the query is served from the rest.
  const ForwardFixture& f = Forward();
  WwtEngine engine(&f.loaded.store, f.loaded.index.get());
  const std::vector<std::string> keywords = {
      f.loaded.queries[0].spec.columns[0].keywords};
  const Query query = Query::Parse(keywords, *f.loaded.index);
  const RetrievalResult clean = engine.Retrieve(query, nullptr);
  ASSERT_GT(clean.tables.size(), 1u);
  const TableId victim = clean.tables[0].table.id;

  // Rewrite the victim's num_cols in the file and serve the copy.
  StatusOr<serde::InputFile> file = serde::InputFile::Open(f.path);
  ASSERT_TRUE(file.ok());
  std::string contents(file->data());
  const ForwardEntry entry = f.loaded.store.Forward(victim);
  const size_t at = reinterpret_cast<const char*>(entry.words) -
                    f.loaded.mapping->data().data();
  uint32_t cols;
  std::memcpy(&cols, contents.data() + at, sizeof(cols));
  ++cols;
  std::memcpy(contents.data() + at, &cols, sizeof(cols));
  const std::string tampered =
      ::testing::TempDir() + "wwt_candidate_forward_tampered.wwtsnap";
  WWT_CHECK_OK(serde::WriteFileAtomic(tampered, contents));
  StatusOr<Corpus> loaded = LoadSnapshot(tampered);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  WwtEngine tampered_engine(&loaded->store, loaded->index.get());
  const RetrievalResult served = tampered_engine.Retrieve(query, nullptr);
  std::vector<TableId> want, got;
  for (const CandidateTable& t : clean.tables) {
    if (t.table.id != victim) want.push_back(t.table.id);
  }
  for (const CandidateTable& t : served.tables) got.push_back(t.table.id);
  // The first probe's set without the victim (the second probe may
  // differ, since the victim no longer seeds it).
  ASSERT_GE(got.size(), static_cast<size_t>(clean.from_first_probe - 1));
  EXPECT_EQ(std::vector<TableId>(got.begin(),
                                 got.begin() + clean.from_first_probe - 1),
            std::vector<TableId>(want.begin(),
                                 want.begin() + clean.from_first_probe - 1));
  EXPECT_EQ(std::count(got.begin(), got.end(), victim), 0);
  std::remove(tampered.c_str());
}

}  // namespace
}  // namespace wwt
