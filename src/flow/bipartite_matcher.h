// Copyright 2026 The WWT Authors
//
// Capacitated maximum-weight bipartite matching (§4.1/§4.2.1) and the
// all-pairs max-marginal computation of Fig. 3.
//
// The column mapper reduces per-table inference to this problem: left
// nodes are the table's columns, right nodes are the query labels plus
// `na`, edge weights are node potentials (plus the must-match bonus), and
// right capacities encode the mutex / min-match constraints. Every left
// node has capacity 1.
//
// The solver is min-cost max-flow by successive shortest augmenting paths
// (SPFA), the algorithm the paper recaps in §4.2.2, on the reduction of
// §4.2.1 (cost = -weight; a dummy node balances the sides so max flow
// saturates every real capacity).
//
// Tie-breaking contract. Many instances have more than one optimal
// matching, and which one is returned decides the served labels. It is
// fixed by the order in which the search visits the flow graph:
//  * nodes are s, t, the lefts, the rights, then the dummy (if the sides
//    are unbalanced);
//  * arcs are added as s->left, right->t, left x right row-major, then
//    the dummy's arcs (s->dummy, dummy->right when the rights have more
//    capacity; dummy->t, left->dummy when the lefts do), each followed by
//    its reverse residual arc;
//  * each node scans its arcs in insertion order; SPFA's queue is FIFO;
//    a distance improves only when it drops by more than 1e-12;
//  * Fig. 3 runs one Bellman-Ford per right node, relaxing the nodes in
//    id order each round.
// Another algorithm, or another order, can return a different optimum
// and so change served answers; flow_test pins this order.

#ifndef WWT_FLOW_BIPARTITE_MATCHER_H_
#define WWT_FLOW_BIPARTITE_MATCHER_H_

#include <cstdint>
#include <vector>

namespace wwt {

/// Max-weight matching of unit-capacity lefts to capacitated rights. One
/// matcher is meant to be kept and reused: its graph and search scratch
/// are flat arrays that only grow, so a solve allocates nothing once the
/// matcher has seen a problem at least as large.
class CapacitatedMatcher {
 public:
  /// Solves one instance. `weight` is row-major, num_left x
  /// right_cap.size(): weight[l * num_right + r] is the gain of matching
  /// left l to right r. Right r takes at most right_cap[r] lefts. Every
  /// left is matched: to a right, or (when the rights' total capacity is
  /// short) to nothing, even at a loss.
  void Solve(const std::vector<double>& weight,
             const std::vector<int>& right_cap);

  /// Per left node, the matched right node, or -1.
  const std::vector<int>& left_match() const { return left_match_; }

  /// Sum of the matched weights, added in left order.
  double total_weight() const { return total_weight_; }

  /// Fig. 3 for the last solve: (*mu)[l * num_right + r] = the maximum
  /// total weight with the pair (l, r) forced into the matching, or
  /// -infinity when that is infeasible. Computed from the optimal
  /// residual graph with one Bellman-Ford per right node:
  ///   mu(l, r) = Opt - d(r, l) - cost(l, r).
  void MaxMarginals(std::vector<double>* mu);

 private:
  struct Arc {
    int to;
    int64_t cap;  // remaining (residual) capacity
    double cost;
  };

  /// Adds u -> v and its reverse residual arc (at id ^ 1).
  void AddArc(int u, int v, int64_t cap, double cost);
  /// Single-source residual shortest paths (Bellman-Ford) into dist_.
  void ShortestDistancesFrom(int src);
  int LeftNode(int l) const { return 2 + l; }
  int RightNode(int r) const { return 2 + num_left_ + r; }
  /// Forward arc id of the pair (l, r).
  int PairArc(int l, int r) const {
    return 2 * (num_left_ + num_right_ + l * num_right_ + r);
  }

  int num_left_ = 0, num_right_ = 0, num_nodes_ = 0;
  // Arcs in pairs: forward at even id 2k, reverse at 2k + 1.
  std::vector<Arc> arcs_;
  // CSR adjacency: node u's arc ids are adj_[adj_begin_[u] ..
  // adj_begin_[u + 1]), in insertion order.
  std::vector<int> adj_begin_, adj_;
  // Search scratch, sized to the node count.
  std::vector<double> dist_;
  std::vector<int> in_arc_, queue_;
  std::vector<char> in_queue_;

  std::vector<int> left_match_;
  double total_weight_ = 0;
};

}  // namespace wwt

#endif  // WWT_FLOW_BIPARTITE_MATCHER_H_
