#include "core/features.h"

#include <algorithm>
#include <cmath>

namespace wwt {

FeatureComputer::FeatureComputer(const CorpusStats* stats,
                                 FeatureOptions options)
    : index_(stats), options_(options) {}

double FeatureComputer::OutSim(const QueryColumn& ql, size_t s_begin,
                               size_t s_end, const CandidateTable& t,
                               int r, int c) const {
  if (s_begin >= s_end) return 0;
  double norm_s = 0;
  for (size_t i = s_begin; i < s_end; ++i) {
    norm_s += ql.term_weight[i] * ql.term_weight[i];
  }
  if (norm_s <= 0) return 0;

  const PartReliability& p = options_.reliability;
  const CandidateColumn& col = t.cols[c];
  double out = 0;
  for (size_t i = s_begin; i < s_end; ++i) {
    const TermId w = ql.terms[i];
    double miss = 1.0;  // product of (1 - p_i) over parts containing w
    if (CandidateTable::Contains(t.title_terms, w)) miss *= 1.0 - p.title;
    if (CandidateTable::Contains(t.context_terms, w)) {
      miss *= 1.0 - p.context;
    }
    // Hc: other header rows of this column.
    for (int r2 = 0; r2 < t.num_header_rows; ++r2) {
      if (r2 == r) continue;
      const auto& terms = col.header_terms[r2];
      if (std::find(terms.begin(), terms.end(), w) != terms.end()) {
        miss *= 1.0 - p.other_header_row;
        break;
      }
    }
    // Hr: headers of other columns in row r.
    for (int c2 = 0; c2 < t.num_cols; ++c2) {
      if (c2 == c) continue;
      const auto& terms = t.cols[c2].header_terms[r];
      if (std::find(terms.begin(), terms.end(), w) != terms.end()) {
        miss *= 1.0 - p.other_header_col;
        break;
      }
    }
    if (CandidateTable::Contains(t.frequent_terms_all, w)) {
      miss *= 1.0 - p.frequent_body;
    }

    const double ti2 = ql.term_weight[i] * ql.term_weight[i];
    out += ti2 / norm_s * (1.0 - miss);
  }
  return out;
}

double FeatureComputer::Segmented(const QueryColumn& ql,
                                  const CandidateTable& t, int c,
                                  bool cover_mode) const {
  const size_t m = ql.terms.size();
  if (m == 0 || ql.norm_squared <= 0) return 0;
  if (t.num_header_rows == 0) return 0;
  const CandidateColumn& col = t.cols[c];

  double best = 0;
  for (int r = 0; r < t.num_header_rows; ++r) {
    const std::vector<TermId>& hrc = col.header_terms[r];
    if (hrc.empty()) continue;
    SparseVector hvec;
    for (TermId w : hrc) hvec.Add(w, index_->idf().Idf(w));
    hvec.Compact();

    // inSim of a query-token index range [b, e) against H_rc.
    auto in_sim = [&](size_t b, size_t e, double* norm_sq,
                      bool* intersects) {
      SparseVector pvec;
      double ns = 0;
      bool hit = false;
      for (size_t i = b; i < e; ++i) {
        pvec.Add(ql.terms[i], ql.term_weight[i]);
        ns += ql.term_weight[i] * ql.term_weight[i];
        if (std::find(hrc.begin(), hrc.end(), ql.terms[i]) != hrc.end()) {
          hit = true;
        }
      }
      pvec.Compact();
      *norm_sq = ns;
      *intersects = hit;
      if (!hit || ns <= 0) return 0.0;
      if (cover_mode) {
        // Weighted fraction of the part's tokens present in H_rc.
        double covered = 0;
        for (size_t i = b; i < e; ++i) {
          if (std::find(hrc.begin(), hrc.end(), ql.terms[i]) !=
              hrc.end()) {
            covered += ql.term_weight[i] * ql.term_weight[i];
          }
        }
        return covered / ns;
      }
      return SparseVector::Cosine(pvec, hvec);
    };

    // Both segment orders (PS = Q_l or SP = Q_l, Eq. 1): the header part
    // may be the prefix or the suffix.
    for (size_t k = 0; k <= m; ++k) {
      // Orientation A: [0, k) pinned to the header, [k, m) outside.
      {
        double norm_p = 0;
        bool hit = false;
        double in = in_sim(0, k, &norm_p, &hit);
        if (hit) {
          double out = OutSim(ql, k, m, t, r, c);
          double norm_s = ql.norm_squared - norm_p;
          double score = norm_p / ql.norm_squared * in +
                         norm_s / ql.norm_squared * out;
          best = std::max(best, score);
        }
      }
      // Orientation B: [k, m) pinned to the header, [0, k) outside.
      {
        double norm_p = 0;
        bool hit = false;
        double in = in_sim(k, m, &norm_p, &hit);
        if (hit) {
          double out = OutSim(ql, 0, k, t, r, c);
          double norm_s = ql.norm_squared - norm_p;
          double score = norm_p / ql.norm_squared * in +
                         norm_s / ql.norm_squared * out;
          best = std::max(best, score);
        }
      }
    }
  }
  return best;
}

double FeatureComputer::SegSim(const QueryColumn& ql,
                               const CandidateTable& t, int c) const {
  if (options_.unsegmented) {
    return SparseVector::Cosine(ql.vec, t.cols[c].header_vec);
  }
  return Segmented(ql, t, c, /*cover_mode=*/false);
}

double FeatureComputer::Cover(const QueryColumn& ql,
                              const CandidateTable& t, int c) const {
  if (options_.unsegmented) {
    // Weighted fraction of query tokens present in the header text.
    if (ql.norm_squared <= 0) return 0;
    double covered = 0;
    for (size_t i = 0; i < ql.terms.size(); ++i) {
      if (t.cols[c].header_vec.Get(ql.terms[i]) > 0) {
        covered += ql.term_weight[i] * ql.term_weight[i];
      }
    }
    return covered / ql.norm_squared;
  }
  return Segmented(ql, t, c, /*cover_mode=*/true);
}

double FeatureComputer::Pmi2(const QueryColumn& ql, const CandidateTable& t,
                             int c) {
  if (ql.terms.empty()) return 0;

  auto h_it = h_cache_.find(ql.raw);
  if (h_it == h_cache_.end()) {
    h_it = h_cache_
               .emplace(ql.raw,
                        index_->MatchAllInHeaderOrContext({ql.raw}))
               .first;
  }
  const std::vector<TableId>& h_docs = h_it->second;
  if (h_docs.empty()) return 0;

  const int rows = std::min<int>(t.table.num_body_rows(),
                                 options_.max_pmi_rows);
  if (rows == 0) return 0;
  double sum = 0;
  for (int r = 0; r < rows; ++r) {
    const std::string& cell = t.table.body[r][c];
    if (cell.empty()) continue;
    auto b_it = b_cache_.find(cell);
    if (b_it == b_cache_.end()) {
      b_it = b_cache_.emplace(cell, index_->MatchAllInContent({cell}))
                 .first;
    }
    const std::vector<TableId>& b_docs = b_it->second;
    if (b_docs.empty()) continue;
    std::vector<TableId> inter;
    std::set_intersection(h_docs.begin(), h_docs.end(), b_docs.begin(),
                          b_docs.end(), std::back_inserter(inter));
    const double overlap = static_cast<double>(inter.size());
    sum += overlap * overlap /
           (static_cast<double>(h_docs.size()) *
            static_cast<double>(b_docs.size()));
  }
  return sum / rows;
}

double FeatureComputer::TableRelevance(const Query& query,
                                       const CandidateTable& t) const {
  double total = 0;
  for (const QueryColumn& ql : query.cols) {
    double best = 0;
    for (int c = 0; c < t.num_cols; ++c) {
      best = std::max(best, Cover(ql, t, c));
    }
    total += best;
  }
  const double threshold = std::min<double>(query.q(), 1.5);
  const double clipped = total < threshold ? 0.0 : total;
  return clipped / query.q();
}

}  // namespace wwt
