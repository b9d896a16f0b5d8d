#include "eval/reliability.h"

#include <algorithm>

namespace wwt {

namespace {

bool HeaderIntersects(const QueryColumn& ql, const CandidateColumn& col) {
  for (const auto& row : col.header_terms) {
    for (TermId t : ql.terms) {
      if (std::find(row.begin(), row.end(), t) != row.end()) return true;
    }
  }
  return false;
}

bool InAnyHeaderRow(const CandidateColumn& col, TermId t, int skip_row) {
  for (int r = 0; r < static_cast<int>(col.header_terms.size()); ++r) {
    if (r == skip_row) continue;
    const auto& row = col.header_terms[r];
    if (std::find(row.begin(), row.end(), t) != row.end()) return true;
  }
  return false;
}

}  // namespace

PartReliability EstimateReliability(const std::vector<EvalCase>& cases,
                                    ReliabilityCounts* counts_out) {
  ReliabilityCounts counts;

  for (const EvalCase& c : cases) {
    for (size_t t = 0; t < c.retrieval.tables.size(); ++t) {
      const CandidateTable& table = c.retrieval.tables[t];
      // Only relevant tables participate (§3.2.1: "all Q_l and
      // relevant t").
      bool relevant = false;
      for (int l : c.truth[t]) relevant |= (l != kLabelNr);
      if (!relevant) continue;

      for (int l = 0; l < c.query.q(); ++l) {
        const QueryColumn& ql = c.query.cols[l];
        for (int col = 0; col < table.num_cols; ++col) {
          if (!HeaderIntersects(ql, table.cols[col])) continue;
          const bool correct = c.truth[t][col] == l;

          bool in_title = false, in_context = false, in_other_row = false,
               in_other_col = false, in_body = false;
          for (TermId term : ql.terms) {
            in_title |= CandidateTable::Contains(table.title_terms, term);
            in_context |= CandidateTable::Contains(table.context_terms, term);
            if (InAnyHeaderRow(table.cols[col], term, -1) &&
                table.num_header_rows > 1) {
              // Token present in some header row of this column; a
              // conservative stand-in for the Hc part.
              in_other_row = true;
            }
            for (int c2 = 0; c2 < table.num_cols; ++c2) {
              if (c2 == col) continue;
              if (InAnyHeaderRow(table.cols[c2], term, -1)) {
                in_other_col = true;
              }
            }
            in_body |= CandidateTable::Contains(table.frequent_terms_all, term);
          }
          if (in_title) {
            ++counts.title_hits;
            counts.title_correct += correct;
          }
          if (in_context) {
            ++counts.context_hits;
            counts.context_correct += correct;
          }
          if (in_other_row) {
            ++counts.other_row_hits;
            counts.other_row_correct += correct;
          }
          if (in_other_col) {
            ++counts.other_col_hits;
            counts.other_col_correct += correct;
          }
          if (in_body) {
            ++counts.body_hits;
            counts.body_correct += correct;
          }
        }
      }
    }
  }

  PartReliability p;  // defaults = paper values
  auto ratio = [](int correct, int hits, double fallback) {
    return hits > 0 ? static_cast<double>(correct) / hits : fallback;
  };
  p.title = ratio(counts.title_correct, counts.title_hits, p.title);
  p.context = ratio(counts.context_correct, counts.context_hits,
                    p.context);
  p.other_header_row = ratio(counts.other_row_correct,
                             counts.other_row_hits, p.other_header_row);
  p.other_header_col = ratio(counts.other_col_correct,
                             counts.other_col_hits, p.other_header_col);
  p.frequent_body = ratio(counts.body_correct, counts.body_hits,
                          p.frequent_body);
  if (counts_out != nullptr) *counts_out = counts;
  return p;
}

}  // namespace wwt
