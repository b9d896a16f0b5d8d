#include "core/edges.h"

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "flow/bipartite_matcher.h"
#include "util/logging.h"

namespace wwt {

namespace {

/// One content-vector entry of flat column `col`.
struct ContentPosting {
  TermId term = 0;
  int col = 0;
  double weight = 0;
};

/// A column pair at or above sim_floor: column c1 of the table being
/// walked, column c2 of the later table t2.
struct ScoredPair {
  int t2 = 0, c1 = 0, c2 = 0;
  double sim = 0;     // content cosine
  double weight = 0;  // matching weight (content + header)
};

/// Stable LSD radix sort of `postings` by term, 11 bits a pass. A pass
/// whose digit every posting shares would move nothing and is skipped.
void SortByTerm(std::vector<ContentPosting>* postings) {
  constexpr int kDigitBits = 11;
  constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;
  const size_t num = postings->size();
  if (num == 0) return;
  std::vector<uint32_t> count(kDigitMask + 1);
  std::vector<ContentPosting> sorted(num);
  for (int shift = 0; shift < 32; shift += kDigitBits) {
    std::fill(count.begin(), count.end(), 0);
    for (const ContentPosting& p : *postings) {
      ++count[(p.term >> shift) & kDigitMask];
    }
    if (count[(postings->front().term >> shift) & kDigitMask] == num) {
      continue;
    }
    uint32_t start = 0;
    for (uint32_t& c : count) {
      const uint32_t digit_count = c;
      c = start;
      start += digit_count;
    }
    for (const ContentPosting& p : *postings) {
      sorted[count[(p.term >> shift) & kDigitMask]++] = p;
    }
    postings->swap(sorted);
  }
}

}  // namespace

std::vector<CrossEdge> BuildCrossEdges(
    const std::vector<CandidateTable>& tables, const EdgeOptions& options) {
  // A column pair that shares no content term has cosine 0, and a kept
  // pair's matching weight is at least content_weight * sim_floor; both
  // skips below are exact only while these are positive.
  WWT_CHECK(options.sim_floor > 0 && options.sim_floor <= 1)
      << "EdgeOptions.sim_floor must be in (0, 1], got "
      << options.sim_floor;
  WWT_CHECK(options.content_weight > 0 && options.content_weight <= 1)
      << "EdgeOptions.content_weight must be in (0, 1], got "
      << options.content_weight;
  const int n = static_cast<int>(tables.size());

  // Flat column numbering: column c of table t is first_col[t] + c.
  std::vector<int> first_col(n + 1, 0);
  for (int t = 0; t < n; ++t) {
    first_col[t + 1] = first_col[t] + tables[t].num_cols;
  }
  const int num_cols = first_col[n];
  std::vector<int> table_of(num_cols);
  std::vector<double> content_norm(num_cols);
  std::vector<double> header_norm(num_cols);
  // Every content entry, in column order at first: column g's entries are
  // [first_entry[g], first_entry[g + 1]).
  std::vector<ContentPosting> postings;
  std::vector<uint32_t> first_entry(num_cols + 1, 0);
  size_t total_entries = 0;
  for (const CandidateTable& t : tables) {
    for (int c = 0; c < t.num_cols; ++c) {
      total_entries += t.cols[c].content_vec.size();
    }
  }
  postings.reserve(total_entries);
  for (int t = 0; t < n; ++t) {
    for (int c = 0; c < tables[t].num_cols; ++c) {
      const int g = first_col[t] + c;
      const CandidateColumn& col = tables[t].cols[c];
      WWT_CHECK(col.content_vec.compacted())
          << "content vectors are compacted by CandidateTable::Build";
      table_of[g] = t;
      content_norm[g] = col.content_vec.NormSquared();
      header_norm[g] = col.header_vec.NormSquared();
      for (const auto& [term, w] : col.content_vec.entries()) {
        postings.push_back({term, g, w});
      }
      first_entry[g + 1] = static_cast<uint32_t>(postings.size());
    }
  }

  // The postings list: entries ordered by (term, column). They were
  // appended by ascending column, each column's by ascending term, so a
  // stable sort by term alone gives that order. position maps column g's
  // entries, in ascending term order, to their places in it; a term's
  // postings end at run_end of any of its places.
  SortByTerm(&postings);
  const uint32_t num_postings = static_cast<uint32_t>(postings.size());
  std::vector<uint32_t> position(num_postings);
  std::vector<uint32_t> next(first_entry.begin(), first_entry.end() - 1);
  for (uint32_t p = 0; p < num_postings; ++p) {
    position[next[postings[p].col]++] = p;
  }
  std::vector<uint32_t> run_end(num_postings);
  for (uint32_t p = num_postings; p-- > 0;) {
    const bool term_continues =
        p + 1 < num_postings && postings[p + 1].term == postings[p].term;
    run_end[p] = term_continues ? run_end[p + 1] : p + 1;
  }

  std::vector<CrossEdge> edges;
  std::vector<double> dot(num_cols, 0.0);
  std::vector<char> touched_mark(num_cols, 0);
  std::vector<int> touched;
  std::vector<ScoredPair> pairs;
  std::vector<char> right_used;
  CapacitatedMatcher matcher;
  std::vector<double> match_weight;  // row-major a.num_cols x b.num_cols
  std::vector<int> right_cap;
  auto add_edge = [&edges](int i, const ScoredPair& p) {
    edges.push_back({i, p.c1, p.t2, p.c2, p.sim});
  };

  for (int i = 0; i < n; ++i) {
    const CandidateTable& a = tables[i];
    const int later = first_col[i + 1];  // first column of table i + 1
    pairs.clear();
    for (int ca = 0; ca < a.num_cols; ++ca) {
      const int g = first_col[i] + ca;
      // Walking the column's terms in ascending order sums each dot
      // product from the same products, in the same order, as
      // SparseVector::Dot: every cosine is bit-identical to Cosine().
      for (uint32_t k = first_entry[g]; k < first_entry[g + 1]; ++k) {
        const uint32_t p = position[k];
        const double w = postings[p].weight;
        for (uint32_t q = p + 1; q < run_end[p]; ++q) {
          const int g2 = postings[q].col;
          if (g2 < later) continue;  // a column of the same table
          if (!touched_mark[g2]) {
            touched_mark[g2] = 1;
            touched.push_back(g2);
          }
          dot[g2] += w * postings[q].weight;
        }
      }
      // Columns never touched share no term: cosine 0, below the floor.
      for (int g2 : touched) {
        const double cs = SparseVector::Cosine(dot[g2], content_norm[g],
                                               content_norm[g2]);
        dot[g2] = 0;
        touched_mark[g2] = 0;
        if (cs < options.sim_floor) continue;
        const int j = table_of[g2];
        const int cb = g2 - first_col[j];
        const double hs = SparseVector::Cosine(
            a.cols[ca].header_vec.Dot(tables[j].cols[cb].header_vec),
            header_norm[g], header_norm[g2]);
        pairs.push_back({j, ca, cb, cs,
                         options.content_weight * cs +
                             (1.0 - options.content_weight) * hs});
      }
      touched.clear();
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const ScoredPair& x, const ScoredPair& y) {
                return std::tie(x.t2, x.c1, x.c2) < std::tie(y.t2, y.c1, y.c2);
              });

    for (size_t begin = 0; begin < pairs.size();) {
      const int j = pairs[begin].t2;
      size_t end = begin;
      while (end < pairs.size() && pairs[end].t2 == j) ++end;
      const CandidateTable& b = tables[j];

      // Pairs that already form a one-to-one set are the max-weight
      // matching: each weighs at least content_weight * sim_floor > 0 and
      // every other pair weighs 0. Only a shared column needs the matcher.
      bool shared_column = false;
      if (options.max_matching_only) {
        right_used.assign(b.num_cols, 0);
        for (size_t p = begin; p < end && !shared_column; ++p) {
          shared_column = right_used[pairs[p].c2] ||
                          (p > begin && pairs[p].c1 == pairs[p - 1].c1);
          right_used[pairs[p].c2] = 1;
        }
      }
      if (!shared_column) {
        // Also the ablation: every similar pair gets an edge.
        for (size_t p = begin; p < end; ++p) add_edge(i, pairs[p]);
      } else {
        // Max-matching edges: one partner per column in this pair.
        right_cap.assign(b.num_cols, 1);
        match_weight.assign(a.num_cols * b.num_cols, 0.0);
        for (size_t p = begin; p < end; ++p) {
          match_weight[pairs[p].c1 * b.num_cols + pairs[p].c2] =
              pairs[p].weight;
        }
        matcher.Solve(match_weight, right_cap);
        for (int ca = 0; ca < a.num_cols; ++ca) {
          const int cb = matcher.left_match()[ca];
          if (cb < 0) continue;
          // The matcher may pad with zero-weight pairs; they are no edges.
          auto it = std::lower_bound(
              pairs.begin() + begin, pairs.begin() + end,
              std::make_pair(ca, cb),
              [](const ScoredPair& x, const std::pair<int, int>& key) {
                return std::make_pair(x.c1, x.c2) < key;
              });
          if (it != pairs.begin() + end && it->c1 == ca && it->c2 == cb) {
            add_edge(i, *it);
          }
        }
      }
      begin = end;
    }
  }

  // nsim normalization: per column, the sum of similarities to all of its
  // matched neighbors.
  std::vector<double> denom(num_cols, 0.0);
  for (const CrossEdge& e : edges) {
    denom[first_col[e.t1] + e.c1] += e.sim;
    denom[first_col[e.t2] + e.c2] += e.sim;
  }
  for (CrossEdge& e : edges) {
    if (options.normalize) {
      e.nsim_12 =
          e.sim / (options.nsim_lambda + denom[first_col[e.t1] + e.c1]);
      e.nsim_21 =
          e.sim / (options.nsim_lambda + denom[first_col[e.t2] + e.c2]);
    } else {
      e.nsim_12 = e.sim;
      e.nsim_21 = e.sim;
    }
  }
  return edges;
}

}  // namespace wwt
