// Copyright 2026 The WWT Authors

#include <algorithm>
#include <cctype>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/random.h"
#include "util/string_util.h"

namespace wwt {
namespace {

// ------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, SplitsOnNonAlnum) {
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("Hello, world! 42"),
            (std::vector<std::string>{"hello", "world", "42"}));
}

TEST(TokenizerTest, LowercasesByDefault) {
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("NoRTH AmeRICA"),
            (std::vector<std::string>{"north", "america"}));
}

TEST(TokenizerTest, StemsSimplePlurals) {
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("winners"), (std::vector<std::string>{"winner"}));
  EXPECT_EQ(tok.Tokenize("mountains"),
            (std::vector<std::string>{"mountain"}));
  EXPECT_EQ(tok.Tokenize("boxes"), (std::vector<std::string>{"box"}));
}

TEST(TokenizerTest, SingularAndPluralCollide) {
  // The guarantee that matters: both sides of the corpus/query divide
  // normalize identically.
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("cities"), tok.Tokenize("city"));
  EXPECT_EQ(tok.Tokenize("movies"), tok.Tokenize("movie"));
  EXPECT_EQ(tok.Tokenize("phases"), tok.Tokenize("phase"));
  EXPECT_EQ(tok.Tokenize("sizes"), tok.Tokenize("size"));
  EXPECT_EQ(tok.Tokenize("countries"), tok.Tokenize("country"));
  EXPECT_EQ(tok.Tokenize("currencies"), tok.Tokenize("currency"));
}

TEST(TokenizerTest, DerivedFormsCollide) {
  // Fig. 1 Table 2: the "Exploration" header must match the query
  // keyword "explored".
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("exploration"), tok.Tokenize("explored"));
  EXPECT_EQ(tok.Tokenize("exploring"), tok.Tokenize("explored"));
  EXPECT_EQ(tok.Tokenize("released"), tok.Tokenize("release"));
}

TEST(TokenizerTest, DoesNotStemSsOrUs) {
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("glass"), (std::vector<std::string>{"glass"}));
  EXPECT_EQ(tok.Tokenize("status"), (std::vector<std::string>{"status"}));
}

TEST(TokenizerTest, StripsPossessives) {
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("world's tallest"),
            (std::vector<std::string>{"world", "tallest"}));
}

TEST(TokenizerTest, PluralAndPossessiveMatch) {
  // "mountains" in the query must match "mountain" in a header.
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("Mountains"), tok.Tokenize("mountain"));
}

TEST(TokenizerTest, StopwordDetection) {
  EXPECT_TRUE(Tokenizer::IsStopword("of"));
  EXPECT_TRUE(Tokenizer::IsStopword("THE"));
  EXPECT_FALSE(Tokenizer::IsStopword("mountain"));
}

TEST(TokenizerTest, DropStopwordsOption) {
  TokenizerOptions options;
  options.drop_stopwords = true;
  Tokenizer tok(options);
  EXPECT_EQ(tok.Tokenize("mountains of the north"),
            (std::vector<std::string>{"mountain", "north"}));
}

TEST(TokenizerTest, MinLengthFilters) {
  TokenizerOptions options;
  options.min_token_length = 3;
  Tokenizer tok(options);
  EXPECT_EQ(tok.Tokenize("a bc def"),
            (std::vector<std::string>{"def"}));
}

TEST(TokenizerTest, KeepsDigits) {
  Tokenizer tok;
  EXPECT_EQ(tok.Tokenize("2008 olympics"),
            (std::vector<std::string>{"2008", "olympic"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  Tokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("!!! --- ???").empty());
}

// -------------------------------------------- Tokenizer reference oracle
//
// A straightforward tokenizer: one std::string per token,
// std::isalnum/std::tolower, suffix tests through EndsWith, a hash set
// of stopwords. Kept here as the oracle the single-pass tokenizer must
// match token for token.

const std::unordered_set<std::string>& ReferenceStopwords() {
  static const std::unordered_set<std::string>* kSet =
      new std::unordered_set<std::string>{
          "a",  "an",  "and", "are", "as",   "at",   "be",  "by",  "for",
          "from", "has", "he",  "in", "is",  "it",   "its", "of",  "on",
          "or", "that", "the", "to", "was", "were", "will", "with"};
  return *kSet;
}

bool ReferenceIsStopword(std::string_view word) {
  return ReferenceStopwords().count(ToLower(word)) > 0;
}

std::string ReferenceNormalize(std::string_view raw,
                               const TokenizerOptions& options) {
  std::string tok(raw);
  if (options.lowercase) tok = ToLower(tok);
  if (options.strip_possessive && tok.size() > 2 && EndsWith(tok, "'s")) {
    tok.resize(tok.size() - 2);
  }
  if (!options.stem_plurals) return tok;
  if (tok.size() >= 3) {
    if (EndsWith(tok, "sses")) {
      tok.resize(tok.size() - 2);
    } else if (EndsWith(tok, "ies") && tok.size() > 3) {
      tok.resize(tok.size() - 3);
      tok += 'i';
    } else if (tok.size() > 4 && (EndsWith(tok, "ses") ||
                                  EndsWith(tok, "xes") ||
                                  EndsWith(tok, "zes"))) {
      tok.resize(tok.size() - 2);
    } else if (tok.size() > 5 &&
               (EndsWith(tok, "ches") || EndsWith(tok, "shes"))) {
      tok.resize(tok.size() - 2);
    } else if (tok.back() == 's' && tok[tok.size() - 2] != 's' &&
               tok[tok.size() - 2] != 'u') {
      tok.resize(tok.size() - 1);
    }
  }
  if (EndsWith(tok, "ation") && tok.size() >= 9) {
    tok.resize(tok.size() - 5);
  } else if (EndsWith(tok, "ing") && tok.size() >= 7) {
    tok.resize(tok.size() - 3);
  } else if (EndsWith(tok, "ed") && tok.size() >= 6) {
    tok.resize(tok.size() - 2);
  }
  if (tok.size() >= 3 && tok.back() == 'y') tok.back() = 'i';
  if (tok.size() >= 4 && tok.back() == 'e') tok.pop_back();
  return tok;
}

std::vector<std::string> ReferenceTokenize(std::string_view text,
                                           const TokenizerOptions& options) {
  std::vector<std::string> out;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && !std::isalnum(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                     (text[i] == '\'' && i + 1 < n &&
                      std::isalnum(static_cast<unsigned char>(text[i + 1]))))) {
      ++i;
    }
    if (i > start) {
      std::string tok = ReferenceNormalize(text.substr(start, i - start),
                                           options);
      if (tok.size() >= options.min_token_length &&
          (!options.drop_stopwords || !ReferenceStopwords().count(tok))) {
        if (!tok.empty()) out.push_back(std::move(tok));
      }
    }
  }
  return out;
}

/// A random string of words built to hit every normalization rule: both
/// letter cases, digits, apostrophes (inside and at word ends), every
/// suffix rule's ending, stopwords, punctuation and bytes >= 0x80.
std::string RandomText(Random* rng) {
  static const char* const kEndings[] = {
      "sses", "ies", "ses", "xes", "zes", "ches", "shes", "ss", "us",
      "'s",   "ation", "ing", "ed", "y",   "e",   "s",    "'", ""};
  static const char* const kWords[] = {"the", "Of", "AND", "with", "it's"};
  static const char kSeparators[] = " ,.;:-/()!?'\"\t";
  const std::string alnum =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string text;
  const int words = static_cast<int>(rng->Uniform(8));
  for (int w = 0; w < words; ++w) {
    if (rng->Bernoulli(0.15)) {
      text += kWords[rng->Uniform(std::size(kWords))];
    } else {
      const int stem = static_cast<int>(rng->Uniform(9));
      for (int k = 0; k < stem; ++k) {
        text += rng->Bernoulli(0.1) ? '\''
                                    : alnum[rng->Uniform(alnum.size())];
      }
      std::string ending = kEndings[rng->Uniform(std::size(kEndings))];
      if (rng->Bernoulli(0.2)) {
        for (char& c : ending) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
      }
      text += ending;
    }
    const int gap = static_cast<int>(rng->Uniform(3));
    for (int k = 0; k < gap; ++k) {
      text += rng->Bernoulli(0.2)
                  ? static_cast<char>(0x80 + rng->Uniform(0x80))
                  : kSeparators[rng->Uniform(sizeof(kSeparators) - 1)];
    }
  }
  return text;
}

TEST(TokenizerOracleTest, MatchesReferenceOnRandomText) {
  std::vector<TokenizerOptions> option_sets(8);
  option_sets[1].lowercase = false;
  option_sets[2].strip_possessive = false;
  option_sets[3].stem_plurals = false;
  option_sets[4].drop_stopwords = true;
  option_sets[5].min_token_length = 3;
  option_sets[6].min_token_length = 0;
  option_sets[7].lowercase = false;
  option_sets[7].drop_stopwords = true;
  option_sets[7].stem_plurals = false;
  Random rng(20261020);
  for (int i = 0; i < 20000; ++i) {
    const std::string text = RandomText(&rng);
    for (const TokenizerOptions& options : option_sets) {
      const Tokenizer tokenizer(options);
      const std::vector<std::string> want = ReferenceTokenize(text, options);
      ASSERT_EQ(tokenizer.Tokenize(text), want) << "text '" << text << "'";
      std::vector<std::string> each;
      tokenizer.ForEachToken(
          text, [&each](std::string_view tok) { each.emplace_back(tok); });
      ASSERT_EQ(each, want) << "text '" << text << "'";
    }
  }
}

TEST(TokenizerOracleTest, StopwordsMatchReference) {
  Random rng(7);
  for (const std::string& stop : ReferenceStopwords()) {
    std::string upper = stop;
    for (char& c : upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    EXPECT_TRUE(Tokenizer::IsStopword(stop));
    EXPECT_TRUE(Tokenizer::IsStopword(upper));
    EXPECT_FALSE(Tokenizer::IsStopword(stop + "x"));
  }
  for (int i = 0; i < 20000; ++i) {
    const std::string text = RandomText(&rng);
    for (const std::string& tok : ReferenceTokenize(text, {})) {
      EXPECT_EQ(Tokenizer::IsStopword(tok), ReferenceIsStopword(tok)) << tok;
    }
    EXPECT_EQ(Tokenizer::IsStopword(text), ReferenceIsStopword(text)) << text;
  }
}

// ------------------------------------------------------------ Vocabulary

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary v;
  TermId a = v.Intern("cat");
  TermId b = v.Intern("cat");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), 1u);
}

TEST(VocabularyTest, DistinctTermsGetDistinctIds) {
  Vocabulary v;
  EXPECT_NE(v.Intern("cat"), v.Intern("dog"));
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabularyTest, RoundTrips) {
  Vocabulary v;
  TermId id = v.Intern("mountain");
  EXPECT_EQ(v.Term(id), "mountain");
}

TEST(VocabularyTest, SlotTableGrowsWithTheTerms) {
  // Every term stays findable across the slot table's growth, the load
  // factor stays at or below 1/2, and the table equals the one built by
  // inserting the same ids in order (what a copy holds).
  Vocabulary v;
  std::vector<std::string> terms;
  for (int i = 0; i < 3000; ++i) {
    terms.push_back("t" + std::to_string(i * 7919 % 100003));
    ASSERT_EQ(v.Intern(terms.back()), static_cast<TermId>(i));
    ASSERT_EQ(v.num_slots(), Vocabulary::SlotCountFor(v.size()));
  }
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(v.Find(terms[i]), static_cast<TermId>(i)) << terms[i];
  }
  EXPECT_FALSE(v.Find("").has_value());
  EXPECT_FALSE(v.Find("t").has_value());
  EXPECT_FALSE(v.Find("u1").has_value());
  Vocabulary fresh;
  for (const std::string& t : terms) fresh.Intern(t);
  EXPECT_TRUE(std::equal(v.Slots(), v.Slots() + v.num_slots(),
                         fresh.Slots()));
  EXPECT_EQ(Vocabulary::SlotCountFor(0), 1u);
  EXPECT_EQ(Vocabulary::SlotCountFor(1), 2u);
  EXPECT_EQ(Vocabulary::SlotCountFor(3), 8u);
  EXPECT_EQ(Vocabulary::SlotCountFor(4), 8u);
}

TEST(VocabularyTest, EmptyFindsNothing) {
  Vocabulary v;
  EXPECT_FALSE(v.Find("").has_value());
  EXPECT_FALSE(v.Find("cat").has_value());
}

TEST(VocabularyTest, FindMissing) {
  Vocabulary v;
  v.Intern("cat");
  EXPECT_FALSE(v.Find("dog").has_value());
  EXPECT_TRUE(v.Find("cat").has_value());
}

// ------------------------------------------------------------------ IDF

TEST(IdfTest, RareTermsWeighMore) {
  Vocabulary v;
  TermId common = v.Intern("the");
  TermId rare = v.Intern("zirconium");
  IdfDictionary idf;
  for (int i = 0; i < 100; ++i) {
    std::vector<TermId> doc{common};
    if (i == 0) doc.push_back(rare);
    idf.AddDocument(doc);
  }
  EXPECT_GT(idf.Idf(rare), idf.Idf(common));
  EXPECT_EQ(idf.DocFreq(common), 100u);
  EXPECT_EQ(idf.DocFreq(rare), 1u);
}

TEST(IdfTest, DuplicateTermsCountOncePerDoc) {
  IdfDictionary idf;
  idf.AddDocument({1, 1, 1});
  EXPECT_EQ(idf.DocFreq(1), 1u);
}

TEST(IdfTest, UnknownTermGetsMaxWeight) {
  IdfDictionary idf;
  idf.AddDocument({1});
  EXPECT_GE(idf.Idf(999), idf.Idf(1));
}

// ---------------------------------------------------------- SparseVector

TEST(SparseVectorTest, AddAccumulates) {
  SparseVector v;
  v.Add(3, 1.0);
  v.Add(3, 2.0);
  EXPECT_DOUBLE_EQ(v.Get(3), 3.0);
  EXPECT_DOUBLE_EQ(v.Get(4), 0.0);
}

TEST(SparseVectorTest, DotProduct) {
  SparseVector a, b;
  a.Add(1, 2.0);
  a.Add(2, 1.0);
  b.Add(2, 3.0);
  b.Add(3, 5.0);
  EXPECT_DOUBLE_EQ(a.Dot(b), 3.0);
}

TEST(SparseVectorTest, NormSquared) {
  SparseVector v;
  v.Add(1, 3.0);
  v.Add(2, 4.0);
  EXPECT_DOUBLE_EQ(v.NormSquared(), 25.0);
}

TEST(SparseVectorTest, CosineSelfIsOne) {
  SparseVector v;
  v.Add(1, 2.0);
  v.Add(5, 7.0);
  EXPECT_NEAR(SparseVector::Cosine(v, v), 1.0, 1e-12);
}

TEST(SparseVectorTest, CosineOrthogonalIsZero) {
  SparseVector a, b;
  a.Add(1, 1.0);
  b.Add(2, 1.0);
  EXPECT_DOUBLE_EQ(SparseVector::Cosine(a, b), 0.0);
}

TEST(SparseVectorTest, CosineEmptyIsZero) {
  SparseVector a, b;
  a.Add(1, 1.0);
  EXPECT_DOUBLE_EQ(SparseVector::Cosine(a, b), 0.0);
  EXPECT_DOUBLE_EQ(SparseVector::Cosine(b, b), 0.0);
}

TEST(SparseVectorTest, CosineSymmetricAndBounded) {
  SparseVector a, b;
  a.Add(1, 1.0);
  a.Add(2, 2.0);
  b.Add(2, 1.0);
  b.Add(3, 4.0);
  double ab = SparseVector::Cosine(a, b);
  double ba = SparseVector::Cosine(b, a);
  EXPECT_DOUBLE_EQ(ab, ba);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

// Property sweep: cosine stays in [0, 1] for random vectors.
class CosinePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CosinePropertyTest, CosineInUnitRange) {
  Random rng(GetParam());
  SparseVector a, b;
  for (int i = 0; i < 20; ++i) {
    a.Add(static_cast<TermId>(rng.Uniform(30)), rng.NextDouble() + 0.01);
    b.Add(static_cast<TermId>(rng.Uniform(30)), rng.NextDouble() + 0.01);
  }
  double cos = SparseVector::Cosine(a, b);
  EXPECT_GE(cos, 0.0);
  EXPECT_LE(cos, 1.0 + 1e-12);
  // Cauchy-Schwarz: dot^2 <= |a|^2 |b|^2.
  EXPECT_LE(a.Dot(b) * a.Dot(b),
            a.NormSquared() * b.NormSquared() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CosinePropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace wwt
