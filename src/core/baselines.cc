#include "core/baselines.h"

#include <algorithm>
#include <cmath>

#include "flow/bipartite_matcher.h"
#include "table/labels.h"

namespace wwt {

BaselineOptions DefaultBaselineOptions(BaselineKind kind) {
  BaselineOptions options;
  options.kind = kind;
  switch (kind) {
    case BaselineKind::kBasic:
      options.table_threshold = 0.30;
      options.column_threshold = 0.10;
      break;
    case BaselineKind::kNbrText:
      options.table_threshold = 0.30;
      options.column_threshold = 0.20;
      break;
    case BaselineKind::kPmi2:
      options.table_threshold = 0.40;
      options.column_threshold = 0.10;
      options.pmi_weight = 1.0;
      break;
  }
  return options;
}

const char* BaselineKindToString(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kBasic:
      return "Basic";
    case BaselineKind::kNbrText:
      return "NbrText";
    case BaselineKind::kPmi2:
      return "PMI2";
  }
  return "?";
}

BaselineMapper::BaselineMapper(const TableIndex* index,
                               BaselineOptions options)
    : index_(index), options_(std::move(options)) {}

MapResult BaselineMapper::Map(const Query& query,
                              const std::vector<CandidateTable>& tables) {
  const int q = query.q();
  const int n = static_cast<int>(tables.size());

  // Whole-query vector for table relevance.
  SparseVector query_vec;
  for (const QueryColumn& col : query.cols) {
    for (size_t i = 0; i < col.terms.size(); ++i) {
      query_vec.Add(col.terms[i], col.term_weight[i]);
    }
  }
  query_vec.Compact();

  FeatureComputer features(index_, options_.features);

  // NbrText needs the cross-table column similarities.
  std::vector<CrossEdge> edges;
  if (options_.kind == BaselineKind::kNbrText) {
    edges = BuildCrossEdges(tables, options_.edges);
  }

  // Per-column base similarity sim(Q_l, tc) = cosine with header text.
  std::vector<std::vector<std::vector<double>>> sim(n);
  for (int t = 0; t < n; ++t) {
    sim[t].assign(tables[t].num_cols, std::vector<double>(q, 0.0));
    for (int c = 0; c < tables[t].num_cols; ++c) {
      for (int l = 0; l < q; ++l) {
        sim[t][c][l] = SparseVector::Cosine(
            query.cols[l].vec, tables[t].cols[c].header_vec);
      }
    }
  }
  if (options_.kind == BaselineKind::kNbrText) {
    // Import the similarity of overlapping neighbor columns, scaled by
    // the content overlap (§5's NbrText definition).
    auto boosted = sim;
    for (const CrossEdge& e : edges) {
      for (int l = 0; l < q; ++l) {
        boosted[e.t1][e.c1][l] = std::max(
            boosted[e.t1][e.c1][l], e.sim * sim[e.t2][e.c2][l]);
        boosted[e.t2][e.c2][l] = std::max(
            boosted[e.t2][e.c2][l], e.sim * sim[e.t1][e.c1][l]);
      }
    }
    sim = std::move(boosted);
  }

  MapResult result;
  CapacitatedMatcher matcher;
  std::vector<double> weight;  // row-major nt x (q + 1)
  std::vector<int> right_cap;
  for (int t = 0; t < n; ++t) {
    const CandidateTable& table = tables[t];
    const int nt = table.num_cols;

    // Table relevance: cosine of all query keywords against the table's
    // header + context text.
    SparseVector table_vec;
    for (TermId w : table.title_terms) {
      table_vec.Add(w, index_->idf().Idf(w));
    }
    for (TermId w : table.context_terms) {
      table_vec.Add(w, index_->idf().Idf(w));
    }
    for (int c = 0; c < nt; ++c) {
      for (const auto& [w, weight] : table.cols[c].header_vec.entries()) {
        table_vec.Add(w, weight);
      }
    }
    table_vec.Compact();
    double rel_score = SparseVector::Cosine(query_vec, table_vec);

    // PMI2 augmentation.
    std::vector<std::vector<double>> pmi;
    if (options_.kind == BaselineKind::kPmi2) {
      pmi.assign(nt, std::vector<double>(q, 0.0));
      double best_sum = 0;
      for (int l = 0; l < q; ++l) {
        double best = 0;
        for (int c = 0; c < nt; ++c) {
          pmi[c][l] = features.Pmi2(query.cols[l], table, c);
          best = std::max(best, pmi[c][l]);
        }
        best_sum += best;
      }
      rel_score += options_.pmi_weight * best_sum / std::max(q, 1);
    }

    TableMapping mapping;
    mapping.id = table.table.id;
    mapping.relevance_prob =
        1.0 / (1.0 + std::exp(-20.0 * (rel_score -
                                       options_.table_threshold)));
    mapping.labels.assign(nt, kLabelNr);

    if (rel_score >= options_.table_threshold && nt > 0) {
      // Thresholded best matching of query columns to table columns
      // (mutex respected via unit label capacities).
      right_cap.assign(q, 1);
      right_cap.push_back(nt);  // na
      weight.assign(nt * (q + 1), 0.0);
      for (int c = 0; c < nt; ++c) {
        for (int l = 0; l < q; ++l) {
          double s = sim[t][c][l];
          if (options_.kind == BaselineKind::kPmi2) {
            s += options_.pmi_weight * pmi[c][l];
          }
          weight[c * (q + 1) + l] = s - options_.column_threshold;
        }
      }
      matcher.Solve(weight, right_cap);
      const std::vector<int>& match = matcher.left_match();

      int assigned = 0;
      std::vector<int> labels(nt, kLabelNa);
      for (int c = 0; c < nt; ++c) {
        int r = match[c];
        if (r >= 0 && r < q) {
          // Only keep above-threshold assignments.
          double s = sim[t][c][r];
          if (options_.kind == BaselineKind::kPmi2) {
            s += options_.pmi_weight * pmi[c][r];
          }
          if (s > options_.column_threshold) {
            labels[c] = r;
            ++assigned;
          }
        }
      }
      if (assigned > 0) {
        mapping.relevant = true;
        mapping.labels = std::move(labels);
      }
    }
    result.tables.push_back(std::move(mapping));
  }
  return result;
}

}  // namespace wwt
