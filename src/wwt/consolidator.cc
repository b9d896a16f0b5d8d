#include "wwt/consolidator.h"

#include <algorithm>
#include <unordered_map>

#include "util/string_util.h"

namespace wwt {

namespace {

/// Normalized dedup key: lowercase word tokens joined by single spaces.
std::string NormalizeKey(const std::string& cell) {
  std::string lower = ToLower(cell);
  std::vector<std::string> tokens =
      Split(lower, " \t\r\n,.;:!?'\"()[]");
  return Join(tokens, " ");
}

}  // namespace

AnswerTable Consolidate(const Query& query,
                        const std::vector<CandidateTable>& tables,
                        const MapResult& mapping,
                        const ConsolidatorOptions& options) {
  const int q = query.q();
  AnswerTable answer;
  for (const QueryColumn& col : query.cols) {
    answer.column_keywords.push_back(col.raw);
  }

  std::unordered_map<std::string, size_t> key_to_row;

  for (size_t t = 0;
       t < tables.size() && t < mapping.tables.size(); ++t) {
    const TableMapping& tm = mapping.tables[t];
    if (!tm.relevant) continue;
    if (tm.relevance_prob < options.min_relevance_prob) continue;

    // label -> source column.
    std::vector<int> col_of_label(q, -1);
    for (int c = 0; c < static_cast<int>(tm.labels.size()); ++c) {
      if (tm.labels[c] >= 0 && tm.labels[c] < q &&
          col_of_label[tm.labels[c]] < 0) {
        col_of_label[tm.labels[c]] = c;
      }
    }
    if (col_of_label[0] < 0) continue;  // no key column mapped

    for (const auto& body_row : tables[t].table.body) {
      const std::string& key_cell = body_row[col_of_label[0]];
      std::string key = NormalizeKey(key_cell);
      if (key.empty()) continue;

      auto it = key_to_row.find(key);
      if (it == key_to_row.end() && options.fuzzy_keys && key.size() >= 6) {
        // Fuzzy pass (typo tolerance): scans every existing key, skipping
        // those whose length differs by more than one or whose first
        // character differs, and takes the first key within one edit in
        // std::unordered_map iteration order. When several keys are one
        // edit away, the pick follows the standard library's hash order,
        // not the order rows were added.
        for (auto& [existing, idx] : key_to_row) {
          if (existing.size() + 1 < key.size() ||
              key.size() + 1 < existing.size()) {
            continue;
          }
          if (existing[0] != key[0]) continue;
          if (DamerauLevenshtein(existing, key) <= 1) {
            it = key_to_row.find(existing);
            break;
          }
        }
      }

      size_t row_idx;
      if (it == key_to_row.end()) {
        if (answer.rows.size() >=
            static_cast<size_t>(options.max_rows)) {
          continue;
        }
        row_idx = answer.rows.size();
        answer.rows.emplace_back();
        answer.rows.back().cells.assign(q, "");
        key_to_row.emplace(key, row_idx);
      } else {
        row_idx = it->second;
      }

      AnswerRow& row = answer.rows[row_idx];
      for (int l = 0; l < q; ++l) {
        if (col_of_label[l] < 0) continue;
        const std::string& v = body_row[col_of_label[l]];
        if (row.cells[l].empty() && !v.empty()) row.cells[l] = v;
      }
      bool already_counted = false;
      for (TableId src : row.sources) {
        if (src == tm.id) already_counted = true;
      }
      if (!already_counted) {
        row.sources.push_back(tm.id);
        row.support += 1;
        row.score += tm.relevance_prob;
      }
    }
  }

  RankRows(&answer);
  return answer;
}

void RankRows(AnswerTable* answer) {
  std::stable_sort(answer->rows.begin(), answer->rows.end(),
                   [](const AnswerRow& a, const AnswerRow& b) {
                     if (a.support != b.support) {
                       return a.support > b.support;
                     }
                     if (a.score != b.score) return a.score > b.score;
                     return a.cells[0] < b.cells[0];
                   });
}

}  // namespace wwt
