// Copyright 2026 The WWT Authors

#include <cstdio>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "index/table_index.h"
#include "index/table_store.h"

namespace wwt {
namespace {

WebTable MakeTable(TableId id, const std::string& header,
                   const std::string& context,
                   const std::vector<std::vector<std::string>>& body) {
  WebTable t;
  t.id = id;
  t.num_cols = body.empty() ? 1 : static_cast<int>(body[0].size());
  if (!header.empty()) {
    std::vector<std::string> row(t.num_cols);
    row[0] = header;
    t.header_rows.push_back(row);
  }
  if (!context.empty()) t.context.push_back({context, 1.0});
  t.body = body;
  return t;
}

// ----------------------------------------------------------------- index

TEST(TableIndexTest, FindsByHeader) {
  TableIndex index;
  index.Add(MakeTable(0, "explorer nationality", "", {{"Tasman", "Dutch"}}));
  index.Add(MakeTable(1, "currency", "", {{"Euro", "France"}}));
  auto hits = index.Search({"explorer"}, 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc, 0u);
}

TEST(TableIndexTest, HeaderOutranksContentForSameTerm) {
  TableIndex index;
  // Doc 0: "mountain" in content only; doc 1: in header.
  index.Add(MakeTable(0, "name", "", {{"mountain"}, {"hill"}}));
  index.Add(MakeTable(1, "mountain", "", {{"Denali"}, {"Logan"}}));
  auto hits = index.Search({"mountain"}, 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 1u);  // boost 2.0 beats 1.0
}

TEST(TableIndexTest, ContextBoostBetweenHeaderAndContent) {
  TableIndex index;
  index.Add(MakeTable(0, "", "mountain list", {{"a"}, {"b"}}));
  index.Add(MakeTable(1, "", "", {{"mountain"}, {"b"}}));
  auto hits = index.Search({"mountain"}, 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 0u);  // context boost 1.5 > content 1.0
}

TEST(TableIndexTest, TopKLimit) {
  TableIndex index;
  for (TableId i = 0; i < 10; ++i) {
    index.Add(MakeTable(i, "shared term", "", {{"x"}}));
  }
  EXPECT_EQ(index.Search({"shared"}, 3).size(), 3u);
  EXPECT_EQ(index.Search({"shared"}, -1).size(), 10u);
}

TEST(TableIndexTest, StopwordsDroppedFromQueries) {
  TableIndex index;
  index.Add(MakeTable(0, "the of in", "", {{"x"}}));
  index.Add(MakeTable(1, "mountain", "", {{"x"}}));
  // A query of pure stopwords matches nothing even though doc 0 contains
  // them.
  EXPECT_TRUE(index.Search({"the of in"}, 10).empty());
}

TEST(TableIndexTest, UnknownTermsIgnoredInSearch) {
  TableIndex index;
  index.Add(MakeTable(0, "mountain", "", {{"x"}}));
  auto hits = index.Search({"mountain zzyzzx"}, 10);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(TableIndexTest, ConjunctiveHeaderOrContext) {
  TableIndex index;
  index.Add(MakeTable(0, "nobel prize", "", {{"x"}}));
  index.Add(MakeTable(1, "nobel", "prize list", {{"x"}}));
  index.Add(MakeTable(2, "nobel", "", {{"prize"}}));  // prize only in body
  auto docs = index.MatchAllInHeaderOrContext({"nobel prize"});
  EXPECT_EQ(docs, (std::vector<TableId>{0, 1}));
}

TEST(TableIndexTest, ConjunctiveContent) {
  TableIndex index;
  index.Add(MakeTable(0, "", "", {{"black", "metal"}}));
  index.Add(MakeTable(1, "", "", {{"black", "sea"}}));
  auto docs = index.MatchAllInContent({"black metal"});
  EXPECT_EQ(docs, (std::vector<TableId>{0}));
}

TEST(TableIndexTest, ConjunctiveUnknownTermYieldsEmpty) {
  TableIndex index;
  index.Add(MakeTable(0, "alpha beta", "", {{"x"}}));
  EXPECT_TRUE(index.MatchAllInHeaderOrContext({"alpha zzzz"}).empty());
}

TEST(TableIndexTest, IdfTracksCorpus) {
  TableIndex index;
  index.Add(MakeTable(0, "common rare", "", {{"x"}}));
  index.Add(MakeTable(1, "common", "", {{"x"}}));
  index.Add(MakeTable(2, "common", "", {{"x"}}));
  // The vocabulary holds tokens, not raw words ("rare" is stored as
  // "rar"), so look each word up through the index's own tokenizer.
  const Tokenizer& tokenizer = index.tokenizer();
  std::optional<TermId> common =
      index.vocab().Find(tokenizer.Tokenize("common").at(0));
  std::optional<TermId> rare =
      index.vocab().Find(tokenizer.Tokenize("rare").at(0));
  ASSERT_TRUE(common.has_value() && rare.has_value());
  EXPECT_GT(index.idf().Idf(*rare), index.idf().Idf(*common));
  EXPECT_EQ(index.num_docs(), 3u);
}

// The largest TableId cannot be indexed: the per-doc length arrays are
// sized doc + 1, which wraps to 0 in TableId arithmetic.
TEST(TableIndexDeathTest, AddRejectsTheLargestTableId) {
  TableIndex index;
  EXPECT_DEATH(index.Add(MakeTable(std::numeric_limits<TableId>::max(),
                                   "header", "", {{"x"}})),
               "out of range");
}

TEST(TableIndexTest, TitleIndexedAsHeaderField) {
  TableIndex index;
  WebTable t = MakeTable(0, "", "", {{"x"}});
  t.title_rows.push_back("Forest reserves");
  index.Add(t);
  EXPECT_EQ(index.Search({"forest"}, 10).size(), 1u);
}

// ----------------------------------------------------------------- store

TEST(TableStoreTest, PutAssignsSequentialIds) {
  TableStore store;
  EXPECT_EQ(store.Put(MakeTable(99, "a", "", {{"x"}})), 0u);
  EXPECT_EQ(store.Put(MakeTable(99, "b", "", {{"x"}})), 1u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(TableStoreTest, RoundTripsTable) {
  TableStore store;
  WebTable t = MakeTable(0, "explorer", "list of explorers",
                         {{"Tasman", "Dutch"}, {"da Gama", "Portuguese"}});
  t.url = "http://example.com/x";
  t.ordinal = 3;
  t.title_rows.push_back("Explorers");
  TableId id = store.Put(t);
  auto loaded = store.Get(id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->url, "http://example.com/x");
  EXPECT_EQ(loaded->ordinal, 3);
  EXPECT_EQ(loaded->num_cols, 2);
  EXPECT_EQ(loaded->body[1][1], "Portuguese");
  EXPECT_EQ(loaded->title_rows[0], "Explorers");
  ASSERT_EQ(loaded->context.size(), 1u);
  EXPECT_EQ(loaded->context[0].text, "list of explorers");
}

TEST(TableStoreTest, GetOutOfRange) {
  TableStore store;
  EXPECT_TRUE(store.Get(5).status().IsNotFound());
}

TEST(TableStoreTest, SerializationHandlesSpecialChars) {
  TableStore store;
  WebTable t = MakeTable(0, "a\nb", "c:d\ne", {{"x\ny", "z:w"}});
  TableId id = store.Put(t);
  auto loaded = store.Get(id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header_rows[0][0], "a\nb");
  EXPECT_EQ(loaded->body[0][0], "x\ny");
}

TEST(TableStoreTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DeserializeTable("not a table").ok());
  EXPECT_FALSE(DeserializeTable("").ok());
  EXPECT_FALSE(DeserializeTable("4:wwt1\n9999:truncated").ok());
}

}  // namespace
}  // namespace wwt
