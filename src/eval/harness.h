// Copyright 2026 The WWT Authors
//
// Evaluation harness: retrieves each workload query's candidate tables
// once (through the real two-phase probe), attaches ground-truth labels,
// and evaluates any column-mapping method on the shared candidate sets —
// exactly how §5 compares Basic / NbrText / PMI2 / WWT and the Table 2
// inference algorithms.

#ifndef WWT_EVAL_HARNESS_H_
#define WWT_EVAL_HARNESS_H_

#include <functional>
#include <string>
#include <vector>

#include "corpus/corpus_generator.h"
#include "eval/metrics.h"
#include "wwt/engine.h"

namespace wwt {

/// One query's frozen evaluation inputs.
struct EvalCase {
  ResolvedQuery resolved;
  Query query;
  RetrievalResult retrieval;
  /// Ground-truth labels per candidate table (external encoding).
  std::vector<std::vector<int>> truth;

  int num_relevant_truth() const;
};

/// A method under evaluation: maps (query, candidates) -> MapResult.
using MappingFn = std::function<MapResult(
    const Query&, const std::vector<CandidateTable>&)>;

class EvalHarness {
 public:
  /// `corpus` must outlive the harness. `num_threads` sizes the thread
  /// pool BuildCases retrieves on (0 = hardware concurrency; 1 = fully
  /// serial).
  EvalHarness(const Corpus* corpus, EngineOptions engine_options = {},
              int num_threads = 0);

  /// Runs WwtEngine::Retrieve + truth labeling for every workload query,
  /// spread over a pool of `num_threads` workers that share one engine.
  /// Results are deterministic and identical to serial retrieval (case
  /// order follows the workload order).
  std::vector<EvalCase> BuildCases();

  /// Per-query F1 error of `method` over `cases`.
  std::vector<double> Evaluate(const std::vector<EvalCase>& cases,
                               const MappingFn& method) const;

  /// Predicted labels per table for one case.
  static std::vector<std::vector<int>> PredictedLabels(
      const MapResult& result);

  /// Fig. 6 helper: consolidated-answer error of `mapping` against the
  /// ground-truth consolidation for one case.
  double AnswerError(const EvalCase& eval_case,
                     const MapResult& mapping) const;

  const Corpus* corpus() const { return corpus_; }
  const EngineOptions& engine_options() const { return engine_options_; }

 private:
  /// MapResult built from ground-truth labels (perfect mapper).
  MapResult TruthMapping(const EvalCase& eval_case) const;

  const Corpus* corpus_;
  EngineOptions engine_options_;
  int num_threads_;
};

}  // namespace wwt

#endif  // WWT_EVAL_HARNESS_H_
