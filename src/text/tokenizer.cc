#include "text/tokenizer.h"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace wwt {

namespace {

/// Sorted, for binary search.
constexpr std::string_view kStopwords[] = {
    "a",  "an",  "and", "are", "as",   "at",   "be",  "by",  "for",
    "from", "has", "he",  "in", "is",  "it",   "its", "of",  "on",
    "or", "that", "the", "to", "was", "were", "will", "with"};
constexpr size_t kMaxStopwordLength = 4;

constexpr bool StopwordListValid() {
  for (size_t i = 0; i < std::size(kStopwords); ++i) {
    if (kStopwords[i].size() > kMaxStopwordLength) return false;
    if (i > 0 && !(kStopwords[i - 1] < kStopwords[i])) return false;
  }
  return true;
}
static_assert(StopwordListValid(),
              "kStopwords must stay sorted and within kMaxStopwordLength");

bool InStopwordList(std::string_view token) {
  return std::binary_search(std::begin(kStopwords), std::end(kStopwords),
                            token);
}

bool IsAsciiAlnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True if the first `n` bytes of `s` end with the literal `suffix`.
template <size_t N>
bool EndsWith(const char* s, size_t n, const char (&suffix)[N]) {
  return n >= N - 1 && std::memcmp(s + n - (N - 1), suffix, N - 1) == 0;
}

/// Porter-lite stemming of the `n` bytes at `s`, in place; returns the
/// stem's length. Correctness requirement is consistency, not linguistic
/// beauty: the same rules run on page text and on queries, so
/// "explored", "exploring" and "Exploration" all land on "explor" and
/// match each other (the paper's Fig. 1 Table 2 depends on this).
size_t Stem(char* s, size_t n) {
  // Step 1: plurals. "sses" -> "ss"; "ies" -> "i" (cities -> citi,
  // pairs with the y->i rule below); "ses"/"xes"/"zes" and
  // "ches"/"shes" drop "es"; otherwise a plural "s" goes, except in
  // "...ss" (glass) and "...us" (status).
  if (n >= 3) {
    if (EndsWith(s, n, "sses") || (n > 3 && EndsWith(s, n, "ies")) ||
        (n > 4 && (EndsWith(s, n, "ses") || EndsWith(s, n, "xes") ||
                   EndsWith(s, n, "zes"))) ||
        (n > 5 && (EndsWith(s, n, "ches") || EndsWith(s, n, "shes")))) {
      n -= 2;
    } else if (s[n - 1] == 's' && s[n - 2] != 's' && s[n - 2] != 'u') {
      n -= 1;
    }
  }
  // Step 2: derivational/inflectional suffixes (stem must stay >= 4).
  if (n >= 9 && EndsWith(s, n, "ation")) {
    n -= 5;
  } else if (n >= 7 && EndsWith(s, n, "ing")) {
    n -= 3;
  } else if (n >= 6 && EndsWith(s, n, "ed")) {
    n -= 2;
  }
  // Step 3: terminal-letter normalization so singular/derived forms
  // collide ("city"/"citi", "release"/"releas").
  if (n >= 3 && s[n - 1] == 'y') s[n - 1] = 'i';
  if (n >= 4 && s[n - 1] == 'e') --n;
  return n;
}

}  // namespace

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

bool Tokenizer::IsStopword(std::string_view word) {
  if (word.size() > kMaxStopwordLength) return false;
  char lower[kMaxStopwordLength];
  for (size_t i = 0; i < word.size(); ++i) lower[i] = AsciiLower(word[i]);
  return InStopwordList(std::string_view(lower, word.size()));
}

void Tokenizer::Scan(std::string_view text, void* fn,
                     void (*sink)(void* fn, std::string_view token)) const {
  std::string buf;  // the current token, reused
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && !IsAsciiAlnum(text[i])) ++i;
    // A word is a run of alphanumerics; an apostrophe followed by one
    // stays inside it, so possessive stripping can see it.
    const size_t start = i;
    while (i < n &&
           (IsAsciiAlnum(text[i]) ||
            (text[i] == '\'' && i + 1 < n && IsAsciiAlnum(text[i + 1])))) {
      ++i;
    }
    if (i == start) break;

    buf.assign(text.data() + start, i - start);
    char* s = buf.data();
    size_t len = i - start;
    if (options_.lowercase) {
      for (size_t k = 0; k < len; ++k) s[k] = AsciiLower(s[k]);
    }
    if (options_.strip_possessive && len > 2 && EndsWith(s, len, "'s")) {
      len -= 2;
    }
    if (options_.stem_plurals) len = Stem(s, len);
    const std::string_view token(s, len);
    if (!token.empty() && len >= options_.min_token_length &&
        (!options_.drop_stopwords || !InStopwordList(token))) {
      sink(fn, token);
    }
  }
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> out;
  ForEachToken(text,
               [&out](std::string_view token) { out.emplace_back(token); });
  return out;
}

}  // namespace wwt
