// Copyright 2026 The WWT Authors
//
// The node-potential features of §3.2:
//  * SegSim  — the two-part query segmentation similarity (Eq. 1),
//  * Cover   — the matched-query-fraction variant (§3.2.2),
//  * PMI^2   — corpus co-occurrence of keywords and column content
//              (§3.2.3),
//  * R(Q, t) — clipped table relevance (Eq. 2).
//
// SegSim and Cover maximize over the same segmentations and differ only
// in inSim, so one walk over the splits of each (query column, table
// column) pair scores both, and R(Q, t) reads the Cover values that walk
// produced. A table's header-row IDF vectors are built once per column,
// and the walk allocates nothing once its buffers are warm. Every value
// is bit-identical to scoring each split with its own SparseVector: the
// sums run in the order SparseVector::Compact, Dot and NormSquared use.

#ifndef WWT_CORE_FEATURES_H_
#define WWT_CORE_FEATURES_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/candidate.h"
#include "core/query.h"

namespace wwt {

/// Reliability of a match in each table part for outSim, §3.2.1. The
/// defaults are the paper's empirical values for {T, C, Hc, Hr, B}.
struct PartReliability {
  double title = 1.0;          // T: table title rows
  double context = 0.9;        // C: page context
  double other_header_row = 0.5;   // Hc: other header rows of column c
  double other_header_col = 1.0;   // Hr: other columns' headers in row r
  double frequent_body = 0.8;  // B: frequent content tokens
};

struct FeatureOptions {
  PartReliability reliability;
  /// Rows sampled per column for the PMI^2 statistic (it needs one index
  /// probe per distinct cell; §5.1 reports it as the expensive feature).
  int max_pmi_rows = 25;
  /// §5.2 ablation: replace the segmentation model by plain whole-string
  /// similarity against the column's header text (SegSim -> cosine,
  /// Cover -> token coverage), the "unsegmented" comparison of Fig. 8.
  bool unsegmented = false;
};

/// SegSim and Cover of every (query column l, table column c) pair of
/// one table t, and R(Q, t) from those Cover values.
struct TableFeatures {
  std::vector<double> seg_sim;  // [l * t.num_cols + c]
  std::vector<double> cover;    // [l * t.num_cols + c]
  double relevance = 0;         // R(Q, t), Eq. 2
};

/// Computes all §3.2 features for one query against one candidate table.
/// Per-instance caches keep repeated PMI^2 cells cheap, and the walk's
/// buffers are reused across calls. Not thread-safe.
class FeatureComputer {
 public:
  /// `stats` supplies corpus-wide IDF and the PMI^2 doc-set probes — a
  /// TableIndex, or a CorpusSet's stats view for sharded corpora.
  FeatureComputer(const CorpusStats* stats, FeatureOptions options = {});

  /// SegSim, Cover and R(Q, t) of `t` for every query column: one
  /// segmentation walk per (l, c). Valid until the next call.
  ///  * SegSim (Eq. 1) is zero when the table has no header rows (no
  ///    valid segmentation pins the query to a column).
  ///  * Cover (§3.2.2) is Eq. 1 with inSim replaced by the weighted
  ///    fraction of the header part's tokens present in H_rc.
  ///  * R(Q, t) (Eq. 2) is (1/q) clip(sum_l max_c Cover(Q_l, tc),
  ///    min(q, 1.5)).
  const TableFeatures& Compute(const Query& query, const CandidateTable& t);

  /// §3.2.3. Uses conjunctive index probes H(Q_l) and B(cell).
  double Pmi2(const QueryColumn& ql, const CandidateTable& t, int c);

 private:
  /// The query side of the walk for one query column against one table.
  struct ColumnSplits {
    /// Token indices by (term, weight): the order SparseVector::Compact
    /// sorts a split's entries into and merges duplicate terms in.
    std::vector<int> order;
    /// Token-order sums of TI(w)^2: over [0, k) and over [k, m).
    std::vector<double> prefix_sq;
    std::vector<double> suffix_sq;
    /// Per token: outSim's miss product over the parts T and C.
    std::vector<double> title_context_miss;
    std::vector<char> frequent;  // per token: in part B
  };
  /// One header row's IDF vector: header_entries_[begin, end), sorted
  /// and merged, with its squared norm.
  struct HeaderRow {
    size_t begin = 0, end = 0;
    double norm_sq = 0;
  };

  /// SegSim and Cover of (ql, c); `splits` and the header rows of `c`
  /// must be prepared.
  std::pair<double, double> Walk(const QueryColumn& ql,
                                 const ColumnSplits& splits,
                                 const CandidateTable& t, int c);

  void PrepareSplits(const QueryColumn& ql, const CandidateTable& t,
                     ColumnSplits* splits) const;
  void PrepareHeaderRows(const CandidateTable& t, int c);

  /// The unsegmented ablation's Cover: the weighted fraction of query
  /// tokens present in the header text.
  static double UnsegmentedCover(const QueryColumn& ql,
                                 const CandidateColumn& col);

  const CorpusStats* index_;
  FeatureOptions options_;

  /// PMI caches: per query-column term-set probes and per cell probes.
  std::unordered_map<std::string, std::vector<TableId>> h_cache_;
  std::unordered_map<std::string, std::vector<TableId>> b_cache_;

  /// Buffers of the walk, reused by every call.
  TableFeatures table_;
  std::vector<ColumnSplits> splits_;  // per query column
  std::vector<std::pair<TermId, double>> header_entries_;
  std::vector<HeaderRow> header_rows_;  // of the current table column
  std::vector<char> in_header_;         // per token, for the current row
  std::vector<double> gain_;  // per token: 1 - outSim's miss product
};

}  // namespace wwt

#endif  // WWT_CORE_FEATURES_H_
