// Copyright 2026 The WWT Authors
//
// CandidateTable::Build against a straightforward reference: a token
// vector per string, an unordered_set per cell and an unordered_map per
// column, kept here as the oracle. Every table of a seed-42, scale-0.25
// corpus is built through the heap-built corpus and through its loaded
// snapshot (mapped vocabulary and IDF), and both are compared with the
// reference field by field, doubles by their bits. Labels: unit.

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

}  // namespace
}  // namespace wwt
