#include "core/potentials.h"

#include <algorithm>

#include "table/labels.h"

namespace wwt {

int ToExternalLabel(int internal, int q) {
  if (internal < q) return internal;
  if (internal == NaLabel(q)) return kLabelNa;
  return kLabelNr;
}

std::vector<std::vector<double>> ComputeNodePotentials(
    const Query& query, const CandidateTable& t, FeatureComputer* features,
    const MapperWeights& weights, bool use_pmi2) {
  const int q = query.q();
  const int nt = t.num_cols;
  std::vector<std::vector<double>> theta(
      nt, std::vector<double>(NumLabels(q), 0.0));

  const TableFeatures& f = features->Compute(query, t);
  const double nr_potential = weights.w4 *
                              (std::min<double>(q, nt) / std::max(nt, 1)) *
                              (1.0 - f.relevance);

  for (int c = 0; c < nt; ++c) {
    for (int l = 0; l < q; ++l) {
      double score = weights.w1 * f.seg_sim[l * nt + c] +
                     weights.w2 * f.cover[l * nt + c];
      if (use_pmi2 && weights.w3 != 0) {
        score += weights.w3 * features->Pmi2(query.cols[l], t, c);
      }
      theta[c][l] = score + weights.w5;
    }
    theta[c][NaLabel(q)] = 0.0;
    theta[c][NrLabel(q)] = nr_potential;
  }
  return theta;
}

}  // namespace wwt
