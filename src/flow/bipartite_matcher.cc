#include "flow/bipartite_matcher.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace wwt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Tolerance for "strictly shorter" comparisons; avoids infinite relaxation
// loops from floating-point noise.
constexpr double kEps = 1e-12;
}  // namespace

void CapacitatedMatcher::AddArc(int u, int v, int64_t cap, double cost) {
  arcs_.push_back({v, cap, cost});
  arcs_.push_back({u, 0, -cost});
}

void CapacitatedMatcher::Solve(const std::vector<double>& weight,
                               const std::vector<int>& right_cap) {
  const int nr = static_cast<int>(right_cap.size());
  WWT_CHECK(nr > 0 && weight.size() % nr == 0)
      << "weight must be num_left x right_cap.size()";
  const int nl = static_cast<int>(weight.size() / nr);
  int64_t total_right = 0;
  for (int cap : right_cap) {
    WWT_CHECK(cap >= 0);
    total_right += cap;
  }
  const int64_t deficit = total_right - nl;
  num_left_ = nl;
  num_right_ = nr;
  num_nodes_ = 2 + nl + nr + (deficit != 0 ? 1 : 0);
  const int s = 0, t = 1, dummy = 2 + nl + nr;

  // The graph, in the order the header's tie-breaking contract fixes.
  arcs_.clear();
  for (int l = 0; l < nl; ++l) AddArc(s, LeftNode(l), 1, 0.0);
  for (int r = 0; r < nr; ++r) AddArc(RightNode(r), t, right_cap[r], 0.0);
  for (int l = 0; l < nl; ++l) {
    for (int r = 0; r < nr; ++r) {
      AddArc(LeftNode(l), RightNode(r), std::min(1, right_cap[r]),
             -weight[l * nr + r]);
    }
  }
  if (deficit > 0) {
    // Right side is larger: a dummy left node absorbs the excess.
    AddArc(s, dummy, deficit, 0.0);
    for (int r = 0; r < nr; ++r) {
      AddArc(dummy, RightNode(r), right_cap[r], 0.0);
    }
  } else if (deficit < 0) {
    AddArc(dummy, t, -deficit, 0.0);
    for (int l = 0; l < nl; ++l) AddArc(LeftNode(l), dummy, 1, 0.0);
  }

  // CSR by tail node (arc id ^ 1 points back at the tail); a stable
  // bucket pass keeps each node's arcs in insertion order.
  const int n = num_nodes_;
  const int num_arcs = static_cast<int>(arcs_.size());
  adj_begin_.assign(n + 1, 0);
  for (int id = 0; id < num_arcs; ++id) ++adj_begin_[arcs_[id ^ 1].to + 1];
  for (int u = 0; u < n; ++u) adj_begin_[u + 1] += adj_begin_[u];
  adj_.resize(num_arcs);
  in_arc_.assign(adj_begin_.begin(), adj_begin_.end() - 1);  // fill cursor
  for (int id = 0; id < num_arcs; ++id) {
    adj_[in_arc_[arcs_[id ^ 1].to]++] = id;
  }

  // Successive shortest paths; SPFA (queue-based Bellman-Ford) finds the
  // cheapest augmenting path. The FIFO ring never holds a node twice.
  dist_.resize(n);
  queue_.resize(n);
  in_queue_.resize(n);
  while (true) {
    std::fill(dist_.begin(), dist_.end(), kInf);
    std::fill(in_arc_.begin(), in_arc_.end(), -1);
    std::fill(in_queue_.begin(), in_queue_.end(), 0);
    dist_[s] = 0;
    queue_[0] = s;
    in_queue_[s] = 1;
    for (int head = 0, size = 1; size > 0; --size) {
      const int u = queue_[head];
      head = head + 1 == n ? 0 : head + 1;
      in_queue_[u] = 0;
      for (int k = adj_begin_[u]; k < adj_begin_[u + 1]; ++k) {
        const int id = adj_[k];
        const Arc& a = arcs_[id];
        if (a.cap <= 0) continue;
        const double nd = dist_[u] + a.cost;
        if (nd < dist_[a.to] - kEps) {
          dist_[a.to] = nd;
          in_arc_[a.to] = id;
          if (!in_queue_[a.to]) {
            in_queue_[a.to] = 1;
            queue_[(head + size - 1) % n] = a.to;
            ++size;
          }
        }
      }
    }
    if (in_arc_[t] < 0) break;

    int64_t push = std::numeric_limits<int64_t>::max();
    for (int v = t; v != s; v = arcs_[in_arc_[v] ^ 1].to) {
      push = std::min(push, arcs_[in_arc_[v]].cap);
    }
    for (int v = t; v != s; v = arcs_[in_arc_[v] ^ 1].to) {
      arcs_[in_arc_[v]].cap -= push;
      arcs_[in_arc_[v] ^ 1].cap += push;
    }
  }

  // A pair's flow is its reverse arc's residual capacity; unit left
  // capacities allow at most one matched pair per left.
  left_match_.assign(nl, -1);
  total_weight_ = 0;
  for (int l = 0; l < nl; ++l) {
    for (int r = 0; r < nr; ++r) {
      if (arcs_[PairArc(l, r) ^ 1].cap > 0) {
        left_match_[l] = r;
        total_weight_ += weight[l * nr + r];
        break;
      }
    }
  }
}

void CapacitatedMatcher::ShortestDistancesFrom(int src) {
  const int n = num_nodes_;
  std::fill(dist_.begin(), dist_.end(), kInf);
  dist_[src] = 0;
  // Bellman-Ford: negative residual costs are expected; no negative cycles
  // exist in the residual graph of an optimal min-cost flow.
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (int u = 0; u < n; ++u) {
      if (dist_[u] == kInf) continue;
      for (int k = adj_begin_[u]; k < adj_begin_[u + 1]; ++k) {
        const Arc& a = arcs_[adj_[k]];
        if (a.cap <= 0) continue;
        const double nd = dist_[u] + a.cost;
        if (nd < dist_[a.to] - kEps) {
          dist_[a.to] = nd;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
}

void CapacitatedMatcher::MaxMarginals(std::vector<double>* mu) {
  const int nl = num_left_;
  const int nr = num_right_;
  mu->resize(static_cast<size_t>(nl) * nr);
  const double opt = total_weight_;
  for (int r = 0; r < nr; ++r) {
    // d(r, .) over the residual graph; one Bellman-Ford per right node
    // (Fig. 3) instead of one full matching per (l, r) pair.
    ShortestDistancesFrom(RightNode(r));
    for (int l = 0; l < nl; ++l) {
      const int id = PairArc(l, r);
      double& out = (*mu)[l * nr + r];
      if (arcs_[id ^ 1].cap > 0) {
        // Already matched: forcing the pair changes nothing.
        out = opt;
        continue;
      }
      const double dist = dist_[LeftNode(l)];
      // Forcing (l, r) is infeasible (zero capacity somewhere).
      out = dist == kInf ? -kInf : opt - dist - arcs_[id].cost;
    }
  }
}

}  // namespace wwt
