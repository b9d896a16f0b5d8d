#include "gm/belief_propagation.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wwt {

std::vector<int> MinSumBeliefPropagation(const Mrf& mrf,
                                         const BpOptions& options) {
  const int L = mrf.num_labels;
  const int n = mrf.num_nodes();
  const int m = static_cast<int>(mrf.edges.size());

  // Directed messages: 2*m of them; message 2e is u->v, 2e+1 is v->u.
  std::vector<std::vector<double>> msg(2 * m, std::vector<double>(L, 0.0));
  // incoming[v] lists (directed message id, source node).
  std::vector<std::vector<std::pair<int, int>>> incoming(n);
  for (int e = 0; e < m; ++e) {
    incoming[mrf.edges[e].v].emplace_back(2 * e, mrf.edges[e].u);
    incoming[mrf.edges[e].u].emplace_back(2 * e + 1, mrf.edges[e].v);
  }

  // sum[v] = node energy + every message into v, kept current as the
  // messages change, so the h of an outgoing message is sum minus the
  // reverse message: O(L) per message instead of O(deg * L). Updates
  // stay sequential (each message sees the ones before it this sweep).
  std::vector<std::vector<double>> sum = mrf.node_energy;
  std::vector<double> h(L);
  std::vector<double> work(L);
  for (int iter = 0; iter < options.max_iters; ++iter) {
    double max_delta = 0;
    for (int e = 0; e < m; ++e) {
      const Mrf::Edge& edge = mrf.edges[e];
      for (int dir = 0; dir < 2; ++dir) {
        const int from = dir == 0 ? edge.u : edge.v;
        const int to = dir == 0 ? edge.v : edge.u;
        const int mid = 2 * e + dir;
        const int rev = 2 * e + (1 - dir);
        // h(x_from) = node energy + all incoming messages except reverse.
        for (int x = 0; x < L; ++x) h[x] = sum[from][x] - msg[rev][x];
        // work(x_to) = min_{x_from} h(x_from) + theta(x_from, x_to).
        for (int xt = 0; xt < L; ++xt) {
          double best = std::numeric_limits<double>::infinity();
          for (int xf = 0; xf < L; ++xf) {
            double pair_e = dir == 0 ? edge.energy[xf * L + xt]
                                     : edge.energy[xt * L + xf];
            best = std::min(best, h[xf] + pair_e);
          }
          work[xt] = best;
        }
        // Normalize to min 0 to avoid drift.
        double lo = *std::min_element(work.begin(), work.end());
        for (int xt = 0; xt < L; ++xt) work[xt] -= lo;
        for (int xt = 0; xt < L; ++xt) {
          double updated = options.damping * msg[mid][xt] +
                           (1.0 - options.damping) * work[xt];
          max_delta = std::max(max_delta, std::fabs(updated - msg[mid][xt]));
          sum[to][xt] += updated - msg[mid][xt];
          msg[mid][xt] = updated;
        }
      }
    }
    if (max_delta < options.tolerance) break;
  }

  // Beliefs and decisions.
  std::vector<int> labels(n, 0);
  for (int v = 0; v < n; ++v) {
    std::vector<double> belief = mrf.node_energy[v];
    for (const auto& [in_id, _] : incoming[v]) {
      for (int x = 0; x < L; ++x) belief[x] += msg[in_id][x];
    }
    labels[v] = static_cast<int>(
        std::min_element(belief.begin(), belief.end()) - belief.begin());
  }
  return labels;
}

}  // namespace wwt
