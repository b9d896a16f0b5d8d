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
//
// Every mode starts from the same table-local work: each table's node
// potentials (Eq. 3) and its §4.1 optimum, a TableSolve. It depends only
// on the query, the table and the mapper's weights, features and
// use_pmi2, so the engine's quick confidence pass (§2.2.1) solves the
// first-probe tables once and hands the solves to Map, which computes
// only the rest.

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

/// A table-independent (§4.1) labeling of one table.
struct TableInference {
  std::vector<int> labels;  // internal encoding
  bool relevant = false;
  double score = 0;  // node-potential part of Eq. 9 for this table
};

/// One table's table-local mapping work: its node potentials and its
/// §4.1 optimum.
struct TableSolve {
  TableId id = 0;
  std::vector<std::vector<double>> theta;  // [column][internal label]
  TableInference base;
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

  /// Labels every column of every candidate table. `solved` is
  /// SolveTables' output for a prefix of `tables`, made with this
  /// mapper's options; those tables are not solved again, and the result
  /// is the same as with an empty prefix.
  MapResult Map(const Query& query,
                const std::vector<CandidateTable>& tables,
                std::vector<TableSolve> solved = {});

  /// Returns a solve per table: those of `solved`, which must be a
  /// prefix of `tables` in order (ids are checked), then one computed
  /// for each remaining table.
  std::vector<TableSolve> SolveTables(
      const Query& query, const std::vector<CandidateTable>& tables,
      std::vector<TableSolve> solved = {}) const;

  /// The TableMapping Map reports for a solved table whose final
  /// labeling (internal encoding) is `labels`.
  TableMapping MappingFor(const TableSolve& solve,
                          const std::vector<int>& labels, int q) const;

  const MapperOptions& options() const { return options_; }
  MapperOptions* mutable_options() { return &options_; }

 private:
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
