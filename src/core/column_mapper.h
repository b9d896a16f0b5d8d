// Copyright 2026 The WWT Authors
//
// The column mapper (§3-§4): given a query and candidate web tables,
// decide per table whether it is relevant and map its columns to query
// columns, maximizing objective Eq. 9 (node potentials + cross-table edge
// potentials + table-level hard constraints).
//
// Five inference algorithms are provided (Table 2):
//  * kIndependent      — per-table optimum via bipartite matching (§4.1),
//                        no collective inference ("None" in Table 2).
//  * kTableCentric     — the paper's winning algorithm (§4.2):
//                        max-marginal probabilities -> neighbor messages
//                        -> per-table re-inference.
//  * kAlphaExpansion   — constrained α-expansion (§4.3, Figs. 4).
//  * kBeliefPropagation, kTrws — edge-centric message passing with the
//                        constraints reduced to pairwise potentials
//                        (Eq. 11) and must/min-match post-processing.

#ifndef WWT_CORE_COLUMN_MAPPER_H_
#define WWT_CORE_COLUMN_MAPPER_H_

#include <vector>

#include "core/candidate.h"
#include "core/edges.h"
#include "core/potentials.h"
#include "core/query.h"

namespace wwt {

enum class InferenceMode {
  kIndependent,
  kTableCentric,
  kAlphaExpansion,
  kBeliefPropagation,
  kTrws,
};

const char* InferenceModeToString(InferenceMode mode);

struct MapperOptions {
  MapperWeights weights;
  InferenceMode mode = InferenceMode::kTableCentric;
  /// Compute the PMI^2 feature (expensive; default off as in WWT §5.1).
  bool use_pmi2 = false;
  FeatureOptions features;
  EdgeOptions edges;
  /// Column-confidence gate of Eq. 4.
  double confidence_threshold = 0.6;
  /// Softmax temperature calibrating Pr(l|tc) from max-marginals (§4.2
  /// step 1). Score gaps are O(1), so a fraction-of-a-unit temperature is
  /// what makes "0.6-confident" meaningful.
  double prob_temperature = 0.25;
};

/// Final decision for one candidate table.
struct TableMapping {
  TableId id = 0;
  bool relevant = false;
  /// Per column, external encoding: 0..q-1 / kLabelNa / kLabelNr.
  std::vector<int> labels;
  /// Calibrated table relevance probability (drives the second index
  /// probe's top-2 selection and row ranking).
  double relevance_prob = 0;
};

struct MapResult {
  std::vector<TableMapping> tables;
  /// Value of objective Eq. 9 for the returned labeling (hard-constraint
  /// violations contribute -kHardPenalty each); used by the §5.3
  /// score-vs-error analysis.
  double objective = 0;
};

/// Column mapping solver. Holds per-instance PMI caches; create one per
/// thread.
class ColumnMapper {
 public:
  /// `stats` supplies the corpus-wide statistics the features consult —
  /// a TableIndex, or a CorpusSet's stats view for sharded corpora.
  ColumnMapper(const CorpusStats* stats, MapperOptions options = {});

  /// Labels every column of every candidate table.
  MapResult Map(const Query& query,
                const std::vector<CandidateTable>& tables);

  const MapperOptions& options() const { return options_; }
  MapperOptions* mutable_options() { return &options_; }

 private:
  struct TableInference {
    std::vector<int> labels;  // internal encoding
    bool relevant = false;
    double score = 0;  // node-potential part of Eq. 9 for this table
  };
  /// One matcher and its input buffers, reused by every solve of a Map
  /// call (defined in the .cc).
  struct MatchScratch;

  /// §4.1 optimum for one table given node potentials.
  TableInference SolveTableIndependent(
      const std::vector<std::vector<double>>& theta, int q, int min_match,
      MatchScratch* scratch) const;

  /// §4.2 step 1: per-column softmax of max-marginals, the calibrated
  /// label distribution (internal label order: 0..q-1, na, nr).
  std::vector<std::vector<double>> MaxMarginalProbs(
      const std::vector<std::vector<double>>& theta, int q,
      MatchScratch* scratch) const;

  const CorpusStats* index_;
  MapperOptions options_;
};

}  // namespace wwt

#endif  // WWT_CORE_COLUMN_MAPPER_H_
