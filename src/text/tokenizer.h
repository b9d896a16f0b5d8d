// Copyright 2026 The WWT Authors
//
// Word tokenizer shared by the indexer, the query parser, and the column
// mapper. Tokenization must be identical on both sides or header/query
// matches silently fail, so every module goes through this class.
//
// ForEachToken is the one tokenizing routine. It hands each normalized
// token to the caller as a view into a buffer it reuses, so the hot
// callers (candidate build, query parsing, indexing) allocate nothing
// per token; Tokenize() collects the same tokens into strings.
// Character classes are ASCII and equal std::isalnum / std::tolower in
// the C locale: bytes >= 0x80 separate words and are never case-folded.

#ifndef WWT_TEXT_TOKENIZER_H_
#define WWT_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wwt {

struct TokenizerOptions {
  /// Lowercase all tokens (ASCII).
  bool lowercase = true;
  /// Strip trailing "'s" possessives ("world's" -> "world").
  bool strip_possessive = true;
  /// Light plural stemming: "...ies" -> "...y", "...ses/xes/ches/shes" ->
  /// drop "es", otherwise drop a single trailing "s" (but never "ss").
  /// This makes "winners" match "winner" the way the paper's workload
  /// requires, without a full stemmer.
  bool stem_plurals = true;
  /// Drop a small closed class of English stopwords ("of", "the", "in"...).
  /// Off by default: column keywords are short, every token is signal for
  /// IDF weighting; the index drops stopwords itself at query time.
  bool drop_stopwords = false;
  /// Tokens shorter than this (after normalization) are dropped.
  size_t min_token_length = 1;
};

/// Splits text into normalized word tokens. Splitting happens on any
/// non-alphanumeric character; digits are kept so "2008" and "m4a1"
/// survive. Thread-safe (stateless after construction).
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {});

  /// Calls `fn(std::string_view token)` for each normalized token of
  /// `text`, in order. The view is valid only during the call: the next
  /// token overwrites the buffer it points into.
  template <typename Fn>
  void ForEachToken(std::string_view text, Fn&& fn) const {
    using F = std::remove_reference_t<Fn>;
    Scan(text, &fn, [](void* f, std::string_view token) {
      (*static_cast<F*>(f))(token);
    });
  }

  /// Tokenizes `text` into normalized tokens, in order.
  std::vector<std::string> Tokenize(std::string_view text) const;

  /// True if `word` is in the built-in stopword list (after lowercasing).
  static bool IsStopword(std::string_view word);

  const TokenizerOptions& options() const { return options_; }

 private:
  /// The tokenizing loop behind ForEachToken: hands each token to
  /// `sink(fn, token)`.
  void Scan(std::string_view text, void* fn,
            void (*sink)(void* fn, std::string_view token)) const;

  TokenizerOptions options_;
};

}  // namespace wwt

#endif  // WWT_TEXT_TOKENIZER_H_
