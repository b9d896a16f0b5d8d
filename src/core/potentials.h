// Copyright 2026 The WWT Authors
//
// Node potentials (Eq. 3) and the model weights of objective Eq. 9.
//
// Internal label encoding used across the mapper: 0..q-1 are query
// columns, q is `na`, q+1 is `nr` (so there are q+2 labels). The public
// MapResult converts to the external encoding shared with ground truth
// (kLabelNa / kLabelNr).

#ifndef WWT_CORE_POTENTIALS_H_
#define WWT_CORE_POTENTIALS_H_

#include <vector>

#include "core/features.h"

namespace wwt {

/// The six trainable parameters of Eq. 9 (w1..w5 in Eq. 3, we in Eq. 4).
/// Defaults are the output of the grid-search trainer on the synthetic
/// training split (bench/bench_train regenerates them).
struct MapperWeights {
  double w1 = 1.2;   // SegSim
  double w2 = 0.3;   // Cover
  double w3 = 0.0;   // PMI^2 (default off: §5.1 found it unhelpful)
  double w4 = 0.6;   // nr (irrelevant-table) potential scale
  double w5 = -0.5;  // bias; negative, vetoes weak similarity matches
  double we = 2.0;   // edge feature weight
};

/// Internal label helpers.
inline int NaLabel(int q) { return q; }
inline int NrLabel(int q) { return q + 1; }
inline int NumLabels(int q) { return q + 2; }

/// Converts an internal label to the external encoding of ground_truth.h.
int ToExternalLabel(int internal, int q);

/// Computes theta[c][label] per Eq. 3 for every column of `t`:
///   theta(tc, l)  = w1 SegSim + w2 Cover + w3 PMI^2 + w5   (l in 1..q)
///   theta(tc, nr) = w4 * (min(q, nt)/nt) * (1 - R(Q, t))
///   theta(tc, na) = 0
/// SegSim, Cover and R(Q, t) come from one FeatureComputer::Compute
/// walk. PMI^2 is only computed when use_pmi2 (it is the expensive
/// feature).
std::vector<std::vector<double>> ComputeNodePotentials(
    const Query& query, const CandidateTable& t, FeatureComputer* features,
    const MapperWeights& weights, bool use_pmi2);

}  // namespace wwt

#endif  // WWT_CORE_POTENTIALS_H_
