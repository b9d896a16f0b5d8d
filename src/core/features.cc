#include "core/features.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace wwt {

FeatureComputer::FeatureComputer(const CorpusStats* stats,
                                 FeatureOptions options)
    : index_(stats), options_(options) {}

void FeatureComputer::PrepareSplits(const QueryColumn& ql,
                                    const CandidateTable& t,
                                    ColumnSplits* s) const {
  const size_t m = ql.terms.size();
  s->order.resize(m);
  for (size_t i = 0; i < m; ++i) s->order[i] = static_cast<int>(i);
  std::sort(s->order.begin(), s->order.end(), [&ql](int a, int b) {
    return std::make_pair(ql.terms[a], ql.term_weight[a]) <
           std::make_pair(ql.terms[b], ql.term_weight[b]);
  });
  s->prefix_sq.assign(m + 1, 0.0);
  s->suffix_sq.assign(m + 1, 0.0);
  for (size_t k = 0; k < m; ++k) {
    s->prefix_sq[k + 1] =
        s->prefix_sq[k] + ql.term_weight[k] * ql.term_weight[k];
    double sum = 0;
    for (size_t i = k; i < m; ++i) sum += ql.term_weight[i] * ql.term_weight[i];
    s->suffix_sq[k] = sum;
  }
  const PartReliability& p = options_.reliability;
  s->title_context_miss.resize(m);
  s->frequent.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const TermId w = ql.terms[i];
    double miss = 1.0;
    if (CandidateTable::Contains(t.title_terms, w)) miss *= 1.0 - p.title;
    if (CandidateTable::Contains(t.context_terms, w)) {
      miss *= 1.0 - p.context;
    }
    s->title_context_miss[i] = miss;
    s->frequent[i] = CandidateTable::Contains(t.frequent_terms_all, w);
  }
}

void FeatureComputer::PrepareHeaderRows(const CandidateTable& t, int c) {
  const IdfDictionary& idf = index_->idf();
  header_entries_.clear();
  header_rows_.clear();
  for (int r = 0; r < t.num_header_rows; ++r) {
    HeaderRow row;
    row.begin = header_entries_.size();
    for (TermId w : t.cols[c].header_terms[r]) {
      header_entries_.emplace_back(w, 0.0);
    }
    std::sort(header_entries_.begin() + row.begin, header_entries_.end());
    // Duplicates merge as SparseVector::Compact merges them: one IDF per
    // occurrence, summed in sequence.
    row.end = row.begin;
    for (size_t i = row.begin; i < header_entries_.size();) {
      const TermId w = header_entries_[i].first;
      const double w_idf = idf.Idf(w);
      double sum = 0;
      for (; i < header_entries_.size() && header_entries_[i].first == w; ++i) {
        sum += w_idf;
      }
      header_entries_[row.end++] = {w, sum};
    }
    header_entries_.resize(row.end);
    for (size_t i = row.begin; i < row.end; ++i) {
      row.norm_sq += header_entries_[i].second * header_entries_[i].second;
    }
    header_rows_.push_back(row);
  }
}

std::pair<double, double> FeatureComputer::Walk(const QueryColumn& ql,
                                                const ColumnSplits& s,
                                                const CandidateTable& t,
                                                int c) {
  const size_t m = ql.terms.size();
  const double nsq = ql.norm_squared;
  if (m == 0 || nsq <= 0) return {0.0, 0.0};
  const PartReliability& p = options_.reliability;
  const std::vector<double>& tw = ql.term_weight;
  in_header_.resize(m);
  gain_.resize(m);
  auto holds = [this](const HeaderRow& row, TermId w) {
    const auto end = header_entries_.begin() + row.end;
    const auto it = std::lower_bound(
        header_entries_.begin() + row.begin, end, w,
        [](const std::pair<TermId, double>& e, TermId x) {
          return e.first < x;
        });
    return it != end && it->first == w;
  };

  double best_seg = 0, best_cover = 0;
  for (int r = 0; r < t.num_header_rows; ++r) {
    const HeaderRow& h = header_rows_[r];
    if (h.begin == h.end) continue;  // H_rc is empty
    bool any = false;
    for (size_t i = 0; i < m; ++i) {
      in_header_[i] = holds(h, ql.terms[i]);
      any |= in_header_[i] != 0;
    }
    if (!any) continue;  // no header part can intersect H_rc

    // outSim's per-token match reliability outside the header part,
    // 1 - prod(1 - p_i) over the parts holding the token (§3.2.1).
    for (size_t i = 0; i < m; ++i) {
      const TermId w = ql.terms[i];
      double miss = s.title_context_miss[i];
      // Hc: other header rows of this column.
      for (int r2 = 0; r2 < t.num_header_rows; ++r2) {
        if (r2 != r && holds(header_rows_[r2], w)) {
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
      if (s.frequent[i]) miss *= 1.0 - p.frequent_body;
      gain_[i] = 1.0 - miss;
    }

    // One split: the header part [b, e) with squared norm norm_p, the
    // rest [ob, oe) with norm_out. Both features share the split, its
    // hit and its outSim; only inSim differs.
    auto score = [&](size_t b, size_t e, double norm_p, size_t ob,
                     size_t oe, double norm_out) {
      bool hit = false;
      double covered = 0;
      for (size_t i = b; i < e; ++i) {
        if (in_header_[i]) {
          hit = true;
          covered += tw[i] * tw[i];
        }
      }
      if (!hit) return;
      double in_seg = 0, in_cover = 0;
      if (norm_p > 0) {
        // Cosine of the part's TF-IDF vector with H_rc's, summed over
        // merged terms in ascending order as SparseVector::Dot and
        // NormSquared sum them.
        double dot = 0, part_sq = 0;
        auto hp = header_entries_.begin() + h.begin;
        const auto he = header_entries_.begin() + h.end;
        for (size_t x = 0; x < m;) {
          const TermId w = ql.terms[s.order[x]];
          double weight = 0;
          bool present = false;
          for (; x < m && ql.terms[s.order[x]] == w; ++x) {
            const size_t i = s.order[x];
            if (i >= b && i < e) {
              weight += tw[i];
              present = true;
            }
          }
          if (!present) continue;
          part_sq += weight * weight;
          while (hp != he && hp->first < w) ++hp;
          if (hp != he && hp->first == w) dot += weight * hp->second;
        }
        in_seg = SparseVector::Cosine(dot, part_sq, h.norm_sq);
        in_cover = covered / norm_p;
      }
      double out = 0;  // outSim
      if (ob < oe && norm_out > 0) {
        for (size_t i = ob; i < oe; ++i) {
          const double ti2 = tw[i] * tw[i];
          out += ti2 / norm_out * gain_[i];
        }
      }
      const double norm_s = nsq - norm_p;
      best_seg = std::max(best_seg, norm_p / nsq * in_seg + norm_s / nsq * out);
      best_cover =
          std::max(best_cover, norm_p / nsq * in_cover + norm_s / nsq * out);
    };
    // Both segment orders (PS = Q_l or SP = Q_l, Eq. 1): the header part
    // is a prefix [0, k) or a suffix [k, m). The whole column (prefix
    // k = m) is the suffix k = 0 too and is scored once; an empty
    // header part never intersects H_rc.
    for (size_t k = 1; k <= m; ++k) {
      score(0, k, s.prefix_sq[k], k, m, s.suffix_sq[k]);
    }
    for (size_t k = 1; k < m; ++k) {
      score(k, m, s.suffix_sq[k], 0, k, s.prefix_sq[k]);
    }
  }
  return {best_seg, best_cover};
}

double FeatureComputer::UnsegmentedCover(const QueryColumn& ql,
                                         const CandidateColumn& col) {
  if (ql.norm_squared <= 0) return 0;
  double covered = 0;
  for (size_t i = 0; i < ql.terms.size(); ++i) {
    if (col.header_vec.Get(ql.terms[i]) > 0) {
      covered += ql.term_weight[i] * ql.term_weight[i];
    }
  }
  return covered / ql.norm_squared;
}

const TableFeatures& FeatureComputer::Compute(const Query& query,
                                              const CandidateTable& t) {
  const int q = query.q();
  const int nt = t.num_cols;
  table_.seg_sim.assign(q * nt, 0.0);
  table_.cover.assign(q * nt, 0.0);
  if (options_.unsegmented) {
    for (int l = 0; l < q; ++l) {
      for (int c = 0; c < nt; ++c) {
        table_.seg_sim[l * nt + c] =
            SparseVector::Cosine(query.cols[l].vec, t.cols[c].header_vec);
        table_.cover[l * nt + c] =
            UnsegmentedCover(query.cols[l], t.cols[c]);
      }
    }
  } else if (t.num_header_rows > 0) {
    if (static_cast<int>(splits_.size()) < q) splits_.resize(q);
    for (int l = 0; l < q; ++l) PrepareSplits(query.cols[l], t, &splits_[l]);
    for (int c = 0; c < nt; ++c) {
      PrepareHeaderRows(t, c);
      for (int l = 0; l < q; ++l) {
        std::tie(table_.seg_sim[l * nt + c], table_.cover[l * nt + c]) =
            Walk(query.cols[l], splits_[l], t, c);
      }
    }
  }

  // R(Q, t) from the Cover values.
  double total = 0;
  for (int l = 0; l < q; ++l) {
    double best = 0;
    for (int c = 0; c < nt; ++c) {
      best = std::max(best, table_.cover[l * nt + c]);
    }
    total += best;
  }
  const double threshold = std::min<double>(q, 1.5);
  const double clipped = total < threshold ? 0.0 : total;
  table_.relevance = clipped / q;
  return table_;
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

}  // namespace wwt
