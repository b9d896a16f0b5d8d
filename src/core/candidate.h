// Copyright 2026 The WWT Authors
//
// CandidateTable: a web table preprocessed for the column mapper — every
// part of the table the SegSim similarity consults (title, context,
// per-row-per-column headers, frequent body tokens) tokenized once, plus
// per-column content vectors for the cross-table overlap machinery.
//
// A candidate is made in two steps. The forward-index entry holds what
// depends on neither IDF nor options: the table's term ids, one pass over
// each string's bytes (tokens arrive as views from
// Tokenizer::ForEachToken and are looked up in the vocabulary's slot
// table without a copy). A snapshot stores one entry per table (section
// FWRD), so serving a snapshot never tokenizes a table. Materializing
// applies IDF and the frequent-cell rule to an entry. The term sets are
// sorted id vectors (membership by binary search), not hash sets.

#ifndef WWT_CORE_CANDIDATE_H_
#define WWT_CORE_CANDIDATE_H_

#include <algorithm>
#include <vector>

#include "index/table_index.h"
#include "index/table_store.h"
#include "table/web_table.h"
#include "text/tfidf.h"

namespace wwt {

/// Per-column preprocessed state.
struct CandidateColumn {
  /// Header tokens by header row: header_terms[r] = tokens of H_rc.
  std::vector<std::vector<TermId>> header_terms;
  /// Combined header vector (all rows), used by baselines and the
  /// cross-table column matching.
  SparseVector header_vec;
  /// TF-IDF vector over the column's body cells (content overlap).
  SparseVector content_vec;
  /// Tokens appearing in a large fraction of the column's cells — the
  /// "frequent content" part B of outSim (the "Black metal" signal).
  /// Sorted, distinct.
  std::vector<TermId> frequent_terms;
};

/// A candidate web table ready for mapping.
struct CandidateTable {
  WebTable table;  // owned copy (consolidation reads the body later)

  int num_cols = 0;
  int num_header_rows = 0;
  std::vector<CandidateColumn> cols;
  // The term sets below are sorted and distinct; test membership with
  // Contains().
  std::vector<TermId> title_terms;    // part T
  std::vector<TermId> context_terms;  // part C
  /// Union of all columns' frequent terms (part B is defined over "some
  /// column of t").
  std::vector<TermId> frequent_terms_all;

  /// Membership in one of the sorted term sets.
  static bool Contains(const std::vector<TermId>& terms, TermId t) {
    return std::binary_search(terms.begin(), terms.end(), t);
  }

  /// Tokenizes and vectorizes `table` against the corpus statistics (a
  /// TableIndex, or a CorpusSet's global stats view — identical vectors
  /// either way, because shard indexes carry the global vocabulary/IDF):
  /// AppendForwardEntry, then FromForwardEntry.
  /// `frequent_cell_fraction`: a token is "frequent content" when it
  /// appears in at least this fraction of the column's non-empty cells
  /// (and at least twice).
  static CandidateTable Build(WebTable table, const CorpusStats& stats,
                              double frequent_cell_fraction = 0.3);

  /// Appends `table`'s forward-index entry, in u32 words: num_cols,
  /// num_header_rows, the title and the context term sets (each a count,
  /// then sorted distinct ids), then per column each header row's known
  /// token ids in token order (a count, then ids), the column's non-empty
  /// body-cell count, and its distinct content terms (a count, then
  /// ascending (term, cells holding it) pairs).
  static void AppendForwardEntry(const WebTable& table,
                                 const CorpusStats& stats,
                                 std::vector<uint32_t>* words);

  /// The candidate of `table` from its forward-index entry: IDF and the
  /// frequent-cell rule applied, bit-identical to Build when the entry
  /// came from `table` and the same vocabulary. Corruption when a count
  /// overruns the entry, a term id is outside stats.vocab(), a set is not
  /// ascending, or the entry's shape differs from `table`'s.
  static StatusOr<CandidateTable> FromForwardEntry(
      WebTable table, ForwardEntry entry, const CorpusStats& stats,
      double frequent_cell_fraction = 0.3);
};

}  // namespace wwt

#endif  // WWT_CORE_CANDIDATE_H_
