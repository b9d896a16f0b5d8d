#include "core/column_mapper.h"

#include <algorithm>
#include <cmath>

#include "flow/bipartite_matcher.h"
#include "gm/alpha_expansion.h"
#include "gm/belief_propagation.h"
#include "gm/mrf.h"
#include "gm/trws.h"
#include "util/logging.h"

namespace wwt {

namespace {

/// Large additive constant forcing label 1 into every relevant labeling
/// (the M_l of §4.1).
constexpr double kMustMatchBonus = 1e4;

bool AllNr(const std::vector<int>& labels, int q) {
  for (int l : labels) {
    if (l != NrLabel(q)) return false;
  }
  return true;
}

/// Checks the four table constraints (Eqs. 5-8) on an internal labeling.
bool SatisfiesConstraints(const std::vector<int>& labels, int q,
                          int min_match) {
  const int nt = static_cast<int>(labels.size());
  if (nt == 0) return true;
  if (AllNr(labels, q)) return true;
  int matched = 0;
  bool has_first = false;
  std::vector<int> count(q, 0);
  for (int l : labels) {
    if (l == NrLabel(q)) return false;  // all-Irr violated
    if (l < q) {
      if (++count[l] > 1) return false;  // mutex violated
      ++matched;
      if (l == 0) has_first = true;
    }
  }
  if (!has_first) return false;                      // must-match
  if (matched < std::min(min_match, nt)) return false;  // min-match
  return true;
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

const char* InferenceModeToString(InferenceMode mode) {
  switch (mode) {
    case InferenceMode::kIndependent:
      return "independent";
    case InferenceMode::kTableCentric:
      return "table-centric";
    case InferenceMode::kAlphaExpansion:
      return "alpha-expansion";
    case InferenceMode::kBeliefPropagation:
      return "bp";
    case InferenceMode::kTrws:
      return "trws";
  }
  return "?";
}

ColumnMapper::ColumnMapper(const CorpusStats* stats, MapperOptions options)
    : index_(stats), options_(std::move(options)) {}

struct ColumnMapper::MatchScratch {
  CapacitatedMatcher matcher;
  std::vector<double> weight;  // row-major nt x (q + 1)
  std::vector<int> right_cap;
  std::vector<double> mu;
};

ColumnMapper::TableInference ColumnMapper::SolveTableIndependent(
    const std::vector<std::vector<double>>& theta, int q, int min_match,
    MatchScratch* scratch) const {
  TableInference result;
  const int nt = static_cast<int>(theta.size());
  if (nt == 0) return result;
  const int m = std::min(min_match, nt);

  std::vector<double>& weight = scratch->weight;
  scratch->right_cap.assign(q, 1);
  scratch->right_cap.push_back(std::max(0, nt - m));  // na
  weight.resize(nt * (q + 1));
  for (int c = 0; c < nt; ++c) {
    double* row = &weight[c * (q + 1)];
    for (int l = 0; l < q; ++l) {
      row[l] = theta[c][l] + (l == 0 ? kMustMatchBonus : 0.0);
    }
    row[q] = theta[c][NaLabel(q)];
  }
  scratch->matcher.Solve(weight, scratch->right_cap);
  const std::vector<int>& match = scratch->matcher.left_match();

  std::vector<int> labels(nt, NaLabel(q));
  double rel_score = 0;
  for (int c = 0; c < nt; ++c) {
    int r = match[c];
    labels[c] = (r >= 0 && r < q) ? r : NaLabel(q);
    rel_score += theta[c][labels[c]];
  }
  double nr_score = 0;
  for (int c = 0; c < nt; ++c) nr_score += theta[c][NrLabel(q)];

  if (rel_score >= nr_score &&
      SatisfiesConstraints(labels, q, min_match)) {
    result.labels = std::move(labels);
    result.relevant = true;
    result.score = rel_score;
  } else {
    result.labels.assign(nt, NrLabel(q));
    result.relevant = false;
    result.score = nr_score;
  }
  return result;
}

std::vector<std::vector<double>> ColumnMapper::MaxMarginalProbs(
    const std::vector<std::vector<double>>& theta, int q,
    MatchScratch* scratch) const {
  const int nt = static_cast<int>(theta.size());
  std::vector<std::vector<double>> probs(
      nt, std::vector<double>(NumLabels(q), 0.0));
  if (nt == 0) return probs;

  // Fig. 3 graph: no must-match bonus, na capacity nt (min-match and
  // must-match excluded so relative magnitudes stay undistorted).
  std::vector<double>& weight = scratch->weight;
  scratch->right_cap.assign(q, 1);
  scratch->right_cap.push_back(nt);  // na
  weight.resize(nt * (q + 1));
  for (int c = 0; c < nt; ++c) {
    double* row = &weight[c * (q + 1)];
    for (int l = 0; l < q; ++l) row[l] = theta[c][l];
    row[q] = theta[c][NaLabel(q)];
  }
  scratch->matcher.Solve(weight, scratch->right_cap);
  scratch->matcher.MaxMarginals(&scratch->mu);
  const std::vector<double>& mu = scratch->mu;

  double mu_nr = 0;
  for (int c = 0; c < nt; ++c) mu_nr += theta[c][NrLabel(q)];

  const double inv_t = 1.0 / std::max(options_.prob_temperature, 1e-6);
  for (int c = 0; c < nt; ++c) {
    std::vector<double> vals(NumLabels(q));
    for (int l = 0; l <= q; ++l) vals[l] = mu[c * (q + 1) + l];
    vals[NrLabel(q)] = mu_nr;
    const double hi = *std::max_element(vals.begin(), vals.end());
    double z = 0;
    for (int l = 0; l < NumLabels(q); ++l) {
      vals[l] = std::isfinite(vals[l])
                    ? std::exp((vals[l] - hi) * inv_t)
                    : 0.0;
      z += vals[l];
    }
    for (int l = 0; l < NumLabels(q); ++l) probs[c][l] = vals[l] / z;
  }
  return probs;
}

MapResult ColumnMapper::Map(const Query& query,
                            const std::vector<CandidateTable>& tables) {
  const int q = query.q();
  const int n = static_cast<int>(tables.size());
  const int min_match = query.min_match();
  FeatureComputer features(index_, options_.features);

  MatchScratch scratch;
  const bool collective = options_.mode != InferenceMode::kIndependent;

  // ----- Node potentials, base inference, and the table-local
  // probabilities that only collective inference reads.
  std::vector<std::vector<std::vector<double>>> theta(n);
  std::vector<std::vector<std::vector<double>>> probs(n);
  std::vector<TableInference> base(n);
  for (int t = 0; t < n; ++t) {
    theta[t] = ComputeNodePotentials(query, tables[t], &features,
                                     options_.weights, options_.use_pmi2);
    if (collective) probs[t] = MaxMarginalProbs(theta[t], q, &scratch);
    base[t] = SolveTableIndependent(theta[t], q, min_match, &scratch);
  }

  auto confident = [&](int t, int c) {
    double best = 0;
    for (int l = 0; l < q; ++l) best = std::max(best, probs[t][c][l]);
    return best > options_.confidence_threshold;
  };

  // ----- Cross-table edges (only needed for collective modes).
  std::vector<CrossEdge> edges;
  if (collective) edges = BuildCrossEdges(tables, options_.edges);
  const double we = options_.weights.we;

  // ----- Inference.
  std::vector<std::vector<int>> labels(n);
  switch (options_.mode) {
    case InferenceMode::kIndependent: {
      for (int t = 0; t < n; ++t) labels[t] = base[t].labels;
      break;
    }
    case InferenceMode::kTableCentric: {
      // Stage 2: neighbor messages; stage 3: per-table re-inference with
      // potentials max(msg, theta).
      std::vector<std::vector<std::vector<double>>> msg(n);
      for (int t = 0; t < n; ++t) {
        msg[t].assign(tables[t].num_cols, std::vector<double>(q, 0.0));
      }
      for (const CrossEdge& e : edges) {
        for (int l = 0; l < q; ++l) {
          if (confident(e.t2, e.c2)) {
            msg[e.t1][e.c1][l] += we * e.nsim_12 * probs[e.t2][e.c2][l];
          }
          if (confident(e.t1, e.c1)) {
            msg[e.t2][e.c2][l] += we * e.nsim_21 * probs[e.t1][e.c1][l];
          }
        }
      }
      for (int t = 0; t < n; ++t) {
        std::vector<std::vector<double>> boosted = theta[t];
        for (int c = 0; c < tables[t].num_cols; ++c) {
          for (int l = 0; l < q; ++l) {
            boosted[c][l] = std::max(boosted[c][l], msg[t][c][l]);
          }
        }
        labels[t] =
            SolveTableIndependent(boosted, q, min_match, &scratch).labels;
      }
      break;
    }
    case InferenceMode::kAlphaExpansion:
    case InferenceMode::kBeliefPropagation:
    case InferenceMode::kTrws: {
      // Flatten columns into MRF nodes.
      const int L = NumLabels(q);
      std::vector<int> first_node(n + 1, 0);
      for (int t = 0; t < n; ++t) {
        first_node[t + 1] = first_node[t] + tables[t].num_cols;
      }
      Mrf mrf;
      mrf.num_labels = L;
      for (int t = 0; t < n; ++t) {
        for (int c = 0; c < tables[t].num_cols; ++c) {
          std::vector<double> energy(L);
          for (int l = 0; l < L; ++l) energy[l] = -theta[t][c][l];
          mrf.AddNode(std::move(energy));
        }
      }
      const bool message_passing =
          options_.mode != InferenceMode::kAlphaExpansion;
      // Within-table constraints as pairwise energies.
      for (int t = 0; t < n; ++t) {
        const int nt = tables[t].num_cols;
        for (int ci = 0; ci < nt; ++ci) {
          for (int cj = ci + 1; cj < nt; ++cj) {
            std::vector<double> energy(L * L, 0.0);
            for (int li = 0; li < L; ++li) {
              for (int lj = 0; lj < L; ++lj) {
                // all-Irr (Eq. 11): exactly one nr is inconsistent.
                int nr_count = (li == NrLabel(q)) + (lj == NrLabel(q));
                if (nr_count == 1) energy[li * L + lj] += kHardPenalty;
                // mutex as a pairwise energy (BP / TRWS only; §5.3).
                if (message_passing && li == lj && li < q) {
                  energy[li * L + lj] += kHardPenalty;
                }
              }
            }
            mrf.AddEdge(first_node[t] + ci, first_node[t] + cj,
                        std::move(energy));
          }
        }
      }
      // Cross-table attractive potentials (Eq. 4).
      for (const CrossEdge& e : edges) {
        double s = we * (e.nsim_12 * (confident(e.t2, e.c2) ? 1 : 0) +
                         e.nsim_21 * (confident(e.t1, e.c1) ? 1 : 0));
        if (s <= 0) continue;
        std::vector<double> energy(L * L, 0.0);
        for (int l = 0; l < L; ++l) {
          if (l == NrLabel(q)) continue;
          energy[l * L + l] = -s;
        }
        mrf.AddEdge(first_node[e.t1] + e.c1, first_node[e.t2] + e.c2,
                    std::move(energy));
      }

      std::vector<int> flat;
      if (options_.mode == InferenceMode::kAlphaExpansion) {
        AlphaExpansionOptions opts;
        opts.init_label = NaLabel(q);
        for (int t = 0; t < n; ++t) {
          std::vector<int> group;
          for (int c = 0; c < tables[t].num_cols; ++c) {
            group.push_back(first_node[t] + c);
          }
          if (group.size() > 1) opts.mutex_groups.push_back(group);
        }
        for (int l = 0; l < q; ++l) opts.constrained_labels.push_back(l);
        flat = AlphaExpansion(mrf, opts);
      } else if (options_.mode == InferenceMode::kBeliefPropagation) {
        flat = MinSumBeliefPropagation(mrf);
      } else {
        flat = Trws(mrf);
      }

      // Unflatten + repair constraint violations per table (§4.3: greedy
      // fix via the table-independent algorithm).
      for (int t = 0; t < n; ++t) {
        labels[t].assign(flat.begin() + first_node[t],
                         flat.begin() + first_node[t + 1]);
        if (!SatisfiesConstraints(labels[t], q, min_match)) {
          labels[t] =
              SolveTableIndependent(theta[t], q, min_match, &scratch).labels;
        }
      }
      break;
    }
  }

  // ----- Assemble result + objective (Eq. 9).
  MapResult result;
  double objective = 0;
  for (int t = 0; t < n; ++t) {
    TableMapping mapping;
    mapping.id = tables[t].table.id;
    mapping.relevant = !AllNr(labels[t], q) && tables[t].num_cols > 0;
    for (int c = 0; c < tables[t].num_cols; ++c) {
      mapping.labels.push_back(ToExternalLabel(labels[t][c], q));
      objective += theta[t][c][labels[t][c]];
    }
    double nr_score = 0;
    for (int c = 0; c < tables[t].num_cols; ++c) {
      nr_score += theta[t][c][NrLabel(q)];
    }
    mapping.relevance_prob =
        Sigmoid((base[t].score - nr_score +
                 (base[t].relevant ? 0.0 : -1.0)) /
                std::max(options_.prob_temperature, 1e-6));
    if (!SatisfiesConstraints(labels[t], q, min_match)) {
      objective -= kHardPenalty;
    }
    result.tables.push_back(std::move(mapping));
  }
  for (const CrossEdge& e : edges) {
    int l1 = labels[e.t1][e.c1];
    int l2 = labels[e.t2][e.c2];
    if (l1 == l2 && l1 != NrLabel(q)) {
      double s = we * (e.nsim_12 * (confident(e.t2, e.c2) ? 1 : 0) +
                       e.nsim_21 * (confident(e.t1, e.c1) ? 1 : 0));
      objective += s;
    }
  }
  result.objective = objective;
  return result;
}

}  // namespace wwt
