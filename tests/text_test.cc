// Copyright 2026 The WWT Authors

#include <gtest/gtest.h>

#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/random.h"

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

TEST(VocabularyTest, FindMissing) {
  Vocabulary v;
  v.Intern("cat");
  EXPECT_FALSE(v.Find("dog").has_value());
  EXPECT_TRUE(v.Find("cat").has_value());
}

TEST(VocabularyTest, FindAllMapsUnknownToInvalid) {
  Vocabulary v;
  v.Intern("a");
  auto ids = v.FindAll({"a", "zzz"});
  EXPECT_EQ(ids[0], *v.Find("a"));
  EXPECT_EQ(ids[1], kInvalidTerm);
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

TEST(IdfTest, UniformIdfIsOne) {
  UniformIdf idf;
  EXPECT_DOUBLE_EQ(idf.Idf(0), 1.0);
  EXPECT_DOUBLE_EQ(idf.Idf(12345), 1.0);
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
