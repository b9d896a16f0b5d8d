#include "core/candidate.h"

#include <optional>

#include "util/logging.h"

namespace wwt {

namespace {

/// Appends the ids of `text`'s tokens that the corpus vocabulary knows,
/// in token order.
void AppendKnownTerms(std::string_view text, const CorpusStats& stats,
                      std::vector<TermId>* out) {
  const Vocabulary& vocab = stats.vocab();
  stats.tokenizer().ForEachToken(text, [&](std::string_view token) {
    if (std::optional<TermId> id = vocab.Find(token)) out->push_back(*id);
  });
}

/// Sorts `terms` and drops duplicates.
void SortDistinct(std::vector<TermId>* terms) {
  std::sort(terms->begin(), terms->end());
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
}

/// Appends `terms` as a term set: a count, then the sorted distinct ids.
void AppendTermSet(std::vector<TermId>* terms, std::vector<uint32_t>* words) {
  SortDistinct(terms);
  words->push_back(static_cast<uint32_t>(terms->size()));
  words->insert(words->end(), terms->begin(), terms->end());
}

/// Bounds-checked cursor over one forward-index entry: no read passes
/// the entry's end.
struct EntryReader {
  const uint32_t* words;
  size_t size;
  size_t pos = 0;

  /// Points `*out` at the next `n` words; false when fewer are left.
  bool Take(size_t n, const uint32_t** out) {
    if (n > size - pos) return false;
    *out = words + pos;
    pos += n;
    return true;
  }

  /// A count, then that many term ids, each below `num_terms` and, for a
  /// term set, strictly ascending.
  bool Terms(size_t num_terms, bool ascending, std::vector<TermId>* out) {
    const uint32_t* n;
    const uint32_t* ids;
    if (!Take(1, &n) || !Take(*n, &ids)) return false;
    for (uint32_t i = 0; i < *n; ++i) {
      if (ids[i] >= num_terms || (ascending && i > 0 && ids[i] <= ids[i - 1])) {
        return false;
      }
    }
    out->assign(ids, ids + *n);
    return true;
  }
};

}  // namespace

void CandidateTable::AppendForwardEntry(const WebTable& table,
                                        const CorpusStats& stats,
                                        std::vector<uint32_t>* words) {
  const int num_header_rows = table.num_header_rows();
  words->push_back(static_cast<uint32_t>(table.num_cols));
  words->push_back(static_cast<uint32_t>(num_header_rows));

  std::vector<TermId> terms;
  for (const std::string& title : table.title_rows) {
    AppendKnownTerms(title, stats, &terms);
  }
  AppendTermSet(&terms, words);
  terms.clear();
  for (const ContextSnippet& snip : table.context) {
    AppendKnownTerms(snip.text, stats, &terms);
  }
  AppendTermSet(&terms, words);

  // Each non-empty cell's distinct terms go into one per-column buffer;
  // sorted, a term's run length is the number of cells holding it.
  std::vector<TermId> cell_terms;
  for (int c = 0; c < table.num_cols; ++c) {
    for (int r = 0; r < num_header_rows; ++r) {
      const size_t count_at = words->size();
      words->push_back(0);
      AppendKnownTerms(table.header_rows[r][c], stats, words);
      (*words)[count_at] = static_cast<uint32_t>(words->size() - count_at - 1);
    }

    terms.clear();
    uint32_t non_empty_cells = 0;
    for (const auto& row : table.body) {
      const std::string& cell = row[c];
      if (cell.empty()) continue;
      ++non_empty_cells;
      cell_terms.clear();
      AppendKnownTerms(cell, stats, &cell_terms);
      SortDistinct(&cell_terms);
      terms.insert(terms.end(), cell_terms.begin(), cell_terms.end());
    }
    std::sort(terms.begin(), terms.end());
    words->push_back(non_empty_cells);
    const size_t count_at = words->size();
    words->push_back(0);
    uint32_t distinct = 0;
    for (size_t i = 0; i < terms.size();) {
      size_t end = i + 1;
      while (end < terms.size() && terms[end] == terms[i]) ++end;
      words->push_back(terms[i]);
      words->push_back(static_cast<uint32_t>(end - i));
      ++distinct;
      i = end;
    }
    (*words)[count_at] = distinct;
  }
}

StatusOr<CandidateTable> CandidateTable::FromForwardEntry(
    WebTable table, ForwardEntry entry, const CorpusStats& stats,
    double frequent_cell_fraction) {
  const IdfDictionary& idf = stats.idf();
  const size_t num_terms = stats.vocab().size();
  EntryReader in{entry.words, entry.size};
  auto corrupt = [&table](const char* what) {
    return Status::Corruption("forward-index entry of table ", table.id, ": ",
                              what);
  };

  const uint32_t* shape;
  if (!in.Take(2, &shape)) return corrupt("truncated");
  if (shape[0] != static_cast<uint32_t>(table.num_cols) ||
      shape[1] != static_cast<uint32_t>(table.num_header_rows())) {
    return corrupt("shape differs from its record");
  }
  CandidateTable cand;
  cand.num_cols = table.num_cols;
  cand.num_header_rows = table.num_header_rows();
  if (!in.Terms(num_terms, true, &cand.title_terms) ||
      !in.Terms(num_terms, true, &cand.context_terms)) {
    return corrupt("bad title or context term set");
  }

  cand.cols.resize(cand.num_cols);
  for (CandidateColumn& col : cand.cols) {
    col.header_terms.resize(cand.num_header_rows);
    for (std::vector<TermId>& header : col.header_terms) {
      if (!in.Terms(num_terms, false, &header)) {
        return corrupt("bad header terms");
      }
      for (TermId t : header) col.header_vec.Add(t, idf.Idf(t));
    }

    // The column's non-empty cell count, then its (term, cells) pairs.
    const uint32_t* counts;
    const uint32_t* pairs;
    if (!in.Take(2, &counts) ||
        counts[0] > static_cast<uint32_t>(table.num_body_rows()) ||
        !in.Take(2 * size_t{counts[1]}, &pairs)) {
      return corrupt("bad content terms");
    }
    const uint32_t non_empty_cells = counts[0];
    for (uint32_t i = 0; i < counts[1]; ++i) {
      const TermId t = pairs[2 * i];
      const uint32_t cells = pairs[2 * i + 1];
      if (t >= num_terms || (i > 0 && t <= pairs[2 * i - 2]) || cells == 0 ||
          cells > non_empty_cells) {
        return corrupt("bad content term");
      }
      // One IDF per cell, summed in sequence as SparseVector::Compact
      // sums one Add() per cell; cells * idf would round differently.
      const double term_idf = idf.Idf(t);
      double weight = 0;
      for (uint32_t k = 0; k < cells; ++k) weight += term_idf;
      col.content_vec.Add(t, weight);
      if (cells >= 2 && cells >= frequent_cell_fraction * non_empty_cells) {
        col.frequent_terms.push_back(t);
        cand.frequent_terms_all.push_back(t);
      }
    }
    // Candidate tables are shared read-only across query threads;
    // compact now so no reader ever sees a dirty vector.
    col.header_vec.Compact();
    col.content_vec.Compact();
  }
  if (in.pos != in.size) return corrupt("trailing words");
  SortDistinct(&cand.frequent_terms_all);

  cand.table = std::move(table);
  return cand;
}

CandidateTable CandidateTable::Build(WebTable table,
                                     const CorpusStats& stats,
                                     double frequent_cell_fraction) {
  std::vector<uint32_t> words;
  AppendForwardEntry(table, stats, &words);
  StatusOr<CandidateTable> cand =
      FromForwardEntry(std::move(table), {words.data(), words.size()}, stats,
                       frequent_cell_fraction);
  WWT_CHECK(cand.ok()) << "fresh forward-index entry does not parse: "
                       << cand.status().ToString();
  return std::move(cand).value();
}

}  // namespace wwt
