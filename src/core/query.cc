#include "core/query.h"

#include <optional>
#include <string_view>

namespace wwt {

Query Query::Parse(const std::vector<std::string>& col_keywords,
                   const CorpusStats& stats) {
  Query query;
  for (const std::string& raw : col_keywords) {
    QueryColumn col;
    col.raw = raw;
    stats.tokenizer().ForEachToken(raw, [&](std::string_view tok) {
      if (Tokenizer::IsStopword(tok)) return;
      std::optional<TermId> id = stats.vocab().Find(tok);
      if (!id) return;  // unseen in corpus: cannot match anything
      col.terms.push_back(*id);
      double w = stats.idf().Idf(*id);
      col.term_weight.push_back(w);
      col.vec.Add(*id, w);
    });
    col.vec.Compact();
    col.norm_squared = col.vec.NormSquared();
    query.cols.push_back(std::move(col));
    query.all_keywords.push_back(raw);
  }
  return query;
}

}  // namespace wwt
