// Copyright 2026 The WWT Authors
//
// Failure-injection / robustness sweeps: random byte soup and mutated
// real pages must never crash the HTML parser or the harvester, and the
// engine must behave on degenerate corpora.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/knowledge_base.h"
#include "corpus/page_generator.h"
#include "extract/harvester.h"
#include "html/html_parser.h"
#include "index/table_store.h"
#include "util/random.h"
#include "wwt/engine.h"

namespace wwt {
namespace {

class HtmlFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(HtmlFuzzTest, RandomByteSoupNeverCrashes) {
  Random rng(GetParam() * 7 + 99);
  std::string soup;
  const char alphabet[] = "<>/=\"' abcdtrhp!&#;-";
  size_t len = 200 + rng.Uniform(800);
  for (size_t i = 0; i < len; ++i) {
    soup += alphabet[rng.Uniform(sizeof(alphabet) - 1)];
  }
  Document doc = ParseHtml(soup);
  doc.root()->TextContent();  // walk the whole tree
  auto tables = HarvestPage(soup, "http://fuzz/1");
  for (const WebTable& t : tables) {
    EXPECT_GE(t.num_cols, 0);
    for (const auto& row : t.body) {
      EXPECT_EQ(static_cast<int>(row.size()), t.num_cols);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlFuzzTest, ::testing::Range(0, 25));

class MutatedPageFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MutatedPageFuzzTest, MutatedRealPagesStillHarvest) {
  // Generate a real page, then randomly delete/duplicate chunks —
  // harvesting must stay crash-free and rectangular.
  KnowledgeBase kb(17);
  PageGenerator gen(&kb);
  Random rng(GetParam() * 31 + 7);
  int topic = static_cast<int>(rng.Uniform(kb.num_topics()));
  GeneratedPage page =
      gen.Generate(topic, {0}, {}, PageNoise{}, &rng, "http://fuzz/2");
  std::string html = page.html;
  for (int k = 0; k < 5; ++k) {
    size_t pos = rng.Uniform(html.size());
    size_t span = std::min<size_t>(rng.Uniform(40), html.size() - pos);
    if (rng.Bernoulli(0.5)) {
      html.erase(pos, span);  // drop a chunk (truncated tag, lost close)
    } else {
      html.insert(pos, html.substr(pos, span));  // duplicate a chunk
    }
  }
  auto tables = HarvestPage(html, "http://fuzz/2");
  for (const WebTable& t : tables) {
    EXPECT_EQ(static_cast<int>(t.body.empty() ? t.num_cols
                                              : t.body[0].size()),
              t.num_cols);
    for (const auto& row : t.header_rows) {
      EXPECT_EQ(static_cast<int>(row.size()), t.num_cols);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutatedPageFuzzTest,
                         ::testing::Range(0, 25));

/// Deepest node of the tree below `root` (root at depth 0), walked with
/// an explicit stack so the measurement itself cannot overflow.
size_t MaxDepth(const DomNode* root) {
  size_t deepest = 0;
  std::vector<std::pair<const DomNode*, size_t>> todo = {{root, 0}};
  while (!todo.empty()) {
    auto [node, depth] = todo.back();
    todo.pop_back();
    deepest = std::max(deepest, depth);
    for (const auto& child : node->children()) {
      todo.emplace_back(child.get(), depth + 1);
    }
  }
  return deepest;
}

std::string Repeat(const std::string& piece, size_t times) {
  std::string out;
  out.reserve(piece.size() * times);
  for (size_t i = 0; i < times; ++i) out += piece;
  return out;
}

TEST(DeepNestingTest, MillionNestedDivsStayWithinTheDepthCap) {
  // Every DOM walk recurses once per level; without the parser's cap a
  // page like this overflows the stack in the walks and the destructor.
  const size_t levels = 1000000;
  const std::string html =
      Repeat("<div>", levels) + "deep" + Repeat("</div>", levels);
  {
    Document doc = ParseHtml(html);
    // The open elements, plus the leaves and the text under the last one.
    EXPECT_EQ(MaxDepth(doc.root()), kMaxOpenElements + 1);
    EXPECT_EQ(doc.root()->TextContent(), "deep");
  }
  EXPECT_TRUE(HarvestPage(html, "http://deep/1").empty());
}

TEST(DeepNestingTest, DeeplyNestedCellStillHarvests) {
  const size_t levels = 300000;
  const std::string html =
      "<table><tr><th>name</th><th>value</th></tr><tr><td>" +
      Repeat("<b>", levels) + "x" + Repeat("</b>", levels) +
      "</td><td>1</td></tr><tr><td>y</td><td>2</td></tr></table>";
  EXPECT_LE(MaxDepth(ParseHtml(html).root()), kMaxOpenElements + 1);
  const std::vector<WebTable> tables = HarvestPage(html, "http://deep/2");
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].num_cols, 2);
  ASSERT_EQ(tables[0].body.size(), 2u);
  EXPECT_EQ(tables[0].body[0][0], "x");  // the text under the cap survives
}

TEST(DeepNestingTest, LongRunOfUnclosedTablesStaysWithinTheDepthCap) {
  // Each unclosed table nests the next one inside its cell.
  const std::string html = Repeat("<table><tr><td>", 100000) + "x";
  EXPECT_LE(MaxDepth(ParseHtml(html).root()), kMaxOpenElements + 1);
  for (const WebTable& t : HarvestPage(html, "http://deep/3")) {
    for (const auto& row : t.body) {
      EXPECT_EQ(static_cast<int>(row.size()), t.num_cols);
    }
  }
}

TEST(EngineRobustnessTest, EmptyCorpus) {
  TableStore store;
  TableIndex index;
  WwtEngine engine(&store, &index, {});
  QueryExecution exec = engine.Execute({"anything", "at all"});
  EXPECT_TRUE(exec.retrieval.tables.empty());
  EXPECT_TRUE(exec.answer.rows.empty());
}

TEST(EngineRobustnessTest, EmptyQueryColumns) {
  TableStore store;
  TableIndex index;
  WebTable t;
  t.num_cols = 1;
  t.body = {{"x"}};
  t.id = store.Put(t);
  index.Add(*store.Get(0));
  WwtEngine engine(&store, &index, {});
  QueryExecution exec = engine.Execute({"", ""});
  EXPECT_TRUE(exec.answer.rows.empty());
}

TEST(EngineRobustnessTest, TablesWithEmptyBodies) {
  TableStore store;
  TableIndex index;
  WebTable t;
  t.num_cols = 2;
  t.header_rows = {{"dog breed", "origin"}};
  t.id = store.Put(t);
  index.Add(*store.Get(0));
  WwtEngine engine(&store, &index, {});
  // Headers match but there are no rows: must not crash, answer empty.
  QueryExecution exec = engine.Execute({"dog breed", "origin"});
  EXPECT_TRUE(exec.answer.rows.empty());
}

}  // namespace
}  // namespace wwt
