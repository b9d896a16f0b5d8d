// Copyright 2026 The WWT Authors
//
// Cross-table edge construction, §3.3: content-overlap similarity between
// columns of different tables, restricted to the best one-to-one matching
// per table pair (max-matching edges), with the asymmetric normalization
// nsim(tc, t'c') = sim / (lambda + sum of tc's neighbor similarities).

#ifndef WWT_CORE_EDGES_H_
#define WWT_CORE_EDGES_H_

#include <vector>

#include "core/candidate.h"

namespace wwt {

struct EdgeOptions {
  /// Smoothing constant lambda in the nsim normalization (§3.3).
  double nsim_lambda = 0.3;
  /// Neighbors with unnormalized similarity below this are ignored.
  /// Must be in (0, 1].
  double sim_floor = 0.1;
  /// Column matching weight = content_weight * content cosine +
  /// (1 - content_weight) * header cosine (§3.3 "weighted sum of their
  /// content and header similarity"). Must be in (0, 1].
  double content_weight = 0.8;
  /// Ablations of the §3.3 design choices (bench_ablation_edges):
  /// false -> connect every similar column pair instead of only the
  /// one-to-one max matching per table pair.
  bool max_matching_only = true;
  /// false -> use raw similarity as nsim (skip the lambda-smoothed
  /// neighbor normalization).
  bool normalize = true;
};

/// One max-matching edge between columns of two different tables.
struct CrossEdge {
  int t1 = 0, c1 = 0;
  int t2 = 0, c2 = 0;
  double sim = 0;      // unnormalized content similarity
  double nsim_12 = 0;  // nsim(t1c1, t2c2)
  double nsim_21 = 0;  // nsim(t2c2, t1c1)
};

/// Builds the edge set over all table pairs, ordered by (t1, t2, c1, c2).
///
/// One content-term postings list per call drives the scoring: each
/// column walks its terms in ascending order and accumulates its dot
/// products with the columns of later tables that share a term, so only
/// those column pairs are scored, and each cosine is bit-identical to
/// SparseVector::Cosine. A table pair whose pairs at or above sim_floor
/// already form a one-to-one set emits them without running the
/// bipartite matcher: each weighs at least content_weight * sim_floor and
/// every other pair weighs 0, so they are exactly the max-weight
/// matching. Only table pairs whose kept pairs share a column run the
/// bipartite matcher: one CapacitatedMatcher per call, reused across
/// those pairs, on a flat a.cols x b.cols weight buffer.
///
/// Both shortcuts need sim_floor and content_weight in (0, 1]; this is
/// WWT_CHECKed (ValidateEngineOptions rejects other values at submit).
std::vector<CrossEdge> BuildCrossEdges(
    const std::vector<CandidateTable>& tables,
    const EdgeOptions& options = {});

}  // namespace wwt

#endif  // WWT_CORE_EDGES_H_
