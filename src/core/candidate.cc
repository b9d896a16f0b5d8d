#include "core/candidate.h"

#include <optional>

namespace wwt {

namespace {

/// Appends the ids of `text`'s tokens that the corpus vocabulary knows,
/// in token order.
void AppendKnownTerms(std::string_view text, const CorpusStats& stats,
                      std::vector<TermId>* out) {
  const Vocabulary& vocab = stats.vocab();
  stats.tokenizer().ForEachToken(text, [&](std::string_view token) {
    if (std::optional<TermId> id = vocab.Find(token)) out->push_back(*id);
  });
}

/// Sorts `terms` and drops duplicates.
void SortDistinct(std::vector<TermId>* terms) {
  std::sort(terms->begin(), terms->end());
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
}

}  // namespace

CandidateTable CandidateTable::Build(WebTable table,
                                     const CorpusStats& stats,
                                     double frequent_cell_fraction) {
  const IdfDictionary& idf = stats.idf();
  CandidateTable cand;
  cand.num_cols = table.num_cols;
  cand.num_header_rows = table.num_header_rows();

  for (const std::string& title : table.title_rows) {
    AppendKnownTerms(title, stats, &cand.title_terms);
  }
  SortDistinct(&cand.title_terms);
  for (const ContextSnippet& snip : table.context) {
    AppendKnownTerms(snip.text, stats, &cand.context_terms);
  }
  SortDistinct(&cand.context_terms);

  // Each non-empty cell's distinct terms go into one per-column buffer;
  // sorted, a term's run length is the number of cells holding it.
  std::vector<TermId> cell_terms;
  std::vector<TermId> column_terms;
  cand.cols.resize(table.num_cols);
  for (int c = 0; c < table.num_cols; ++c) {
    CandidateColumn& col = cand.cols[c];
    col.header_terms.resize(cand.num_header_rows);
    for (int r = 0; r < cand.num_header_rows; ++r) {
      AppendKnownTerms(table.header_rows[r][c], stats, &col.header_terms[r]);
      for (TermId t : col.header_terms[r]) {
        col.header_vec.Add(t, idf.Idf(t));
      }
    }

    column_terms.clear();
    int non_empty_cells = 0;
    for (const auto& row : table.body) {
      const std::string& cell = row[c];
      if (cell.empty()) continue;
      ++non_empty_cells;
      cell_terms.clear();
      AppendKnownTerms(cell, stats, &cell_terms);
      SortDistinct(&cell_terms);
      column_terms.insert(column_terms.end(), cell_terms.begin(),
                          cell_terms.end());
    }
    std::sort(column_terms.begin(), column_terms.end());
    for (size_t i = 0; i < column_terms.size();) {
      const TermId t = column_terms[i];
      size_t end = i + 1;
      while (end < column_terms.size() && column_terms[end] == t) ++end;
      const int cells = static_cast<int>(end - i);
      // One IDF per cell, summed in sequence as SparseVector::Compact
      // sums one Add() per cell; cells * idf would round differently.
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
    // Candidate tables are shared read-only across query threads;
    // compact now so no reader ever sees a dirty vector.
    col.header_vec.Compact();
    col.content_vec.Compact();
  }
  SortDistinct(&cand.frequent_terms_all);

  cand.table = std::move(table);
  return cand;
}

}  // namespace wwt
