// Copyright 2026 The WWT Authors

#include <gtest/gtest.h>

#include "html/dom.h"
#include "html/html_parser.h"

namespace wwt {
namespace {

const DomNode* FirstElement(const Document& doc, std::string_view tag) {
  auto found = doc.root()->FindAll(tag);
  return found.empty() ? nullptr : found[0];
}

// ---------------------------------------------------------------- parser

TEST(HtmlParserTest, ParsesSimpleTree) {
  Document doc = ParseHtml("<html><body><p>hello</p></body></html>");
  const DomNode* p = FirstElement(doc, "p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->TextContent(), "hello");
}

TEST(HtmlParserTest, LowercasesTagNames) {
  Document doc = ParseHtml("<DIV><SpAn>x</SpAn></DIV>");
  EXPECT_NE(FirstElement(doc, "div"), nullptr);
  EXPECT_NE(FirstElement(doc, "span"), nullptr);
}

TEST(HtmlParserTest, ParsesAttributes) {
  Document doc = ParseHtml(
      "<table border=\"1\" class='data' width=90></table>");
  const DomNode* t = FirstElement(doc, "table");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->attr("border"), "1");
  EXPECT_EQ(t->attr("class"), "data");
  EXPECT_EQ(t->attr("width"), "90");
  EXPECT_EQ(t->attr("absent"), "");
  EXPECT_TRUE(t->has_attr("class"));
  EXPECT_FALSE(t->has_attr("absent"));
}

TEST(HtmlParserTest, BooleanAttribute) {
  Document doc = ParseHtml("<input disabled>");
  const DomNode* input = FirstElement(doc, "input");
  ASSERT_NE(input, nullptr);
  EXPECT_TRUE(input->has_attr("disabled"));
}

TEST(HtmlParserTest, DecodesEntitiesInText) {
  Document doc = ParseHtml("<p>a &amp; b &lt;c&gt; &quot;d&quot;</p>");
  EXPECT_EQ(FirstElement(doc, "p")->TextContent(), "a & b <c> \"d\"");
}

TEST(HtmlParserTest, NumericEntities) {
  EXPECT_EQ(DecodeEntities("&#65;&#x42;"), "AB");
  EXPECT_EQ(DecodeEntities("&nbsp;"), " ");
  EXPECT_EQ(DecodeEntities("&bogus;"), "&bogus;");
  EXPECT_EQ(DecodeEntities("100% & more"), "100% & more");
}

TEST(HtmlParserTest, EscapeRoundTrip) {
  const std::string raw = "a<b>&\"c\"";
  EXPECT_EQ(DecodeEntities(EscapeHtml(raw)), raw);
}

TEST(HtmlParserTest, SkipsComments) {
  // TextContent joins text nodes with a single space.
  Document doc = ParseHtml("<p>a<!-- hidden <b>bold</b> -->b</p>");
  EXPECT_EQ(FirstElement(doc, "p")->TextContent(), "a b");
  EXPECT_EQ(FirstElement(doc, "b"), nullptr);
}

TEST(HtmlParserTest, VoidTagsDoNotNest) {
  Document doc = ParseHtml("<p>a<br>b<hr>c</p>");
  const DomNode* p = FirstElement(doc, "p");
  EXPECT_EQ(p->TextContent(), "a b c");
  // br/hr must be children of p, not ancestors of subsequent text.
  EXPECT_NE(FirstElement(doc, "br"), nullptr);
  EXPECT_TRUE(FirstElement(doc, "br")->children().empty());
}

TEST(HtmlParserTest, SelfClosingTag) {
  Document doc = ParseHtml("<div><img src=\"x.png\"/>tail</div>");
  EXPECT_EQ(FirstElement(doc, "div")->TextContent(), "tail");
}

TEST(HtmlParserTest, RawTextScriptNotParsed) {
  Document doc =
      ParseHtml("<script>if (a < b) { x = \"<table>\"; }</script><p>t</p>");
  EXPECT_EQ(FirstElement(doc, "table"), nullptr);
  ASSERT_NE(FirstElement(doc, "p"), nullptr);
  EXPECT_EQ(FirstElement(doc, "p")->TextContent(), "t");
}

TEST(HtmlParserTest, ImplicitTrClose) {
  Document doc = ParseHtml(
      "<table><tr><td>a<tr><td>b</table>");
  auto trs = doc.root()->FindAll("tr");
  ASSERT_EQ(trs.size(), 2u);
  EXPECT_EQ(trs[0]->TextContent(), "a");
  EXPECT_EQ(trs[1]->TextContent(), "b");
}

TEST(HtmlParserTest, ImplicitTdClose) {
  Document doc = ParseHtml("<table><tr><td>a<td>b<td>c</tr></table>");
  auto tds = doc.root()->FindAll("td");
  ASSERT_EQ(tds.size(), 3u);
  EXPECT_EQ(tds[1]->TextContent(), "b");
}

TEST(HtmlParserTest, NestedTablesStayNested) {
  Document doc = ParseHtml(
      "<table><tr><td><table><tr><td>inner</td></tr></table>"
      "</td></tr></table>");
  auto tables = doc.root()->FindAll("table");
  ASSERT_EQ(tables.size(), 2u);
  // The inner table is a descendant of the outer one.
  auto outer_inner = tables[0]->FindAll("table");
  ASSERT_EQ(outer_inner.size(), 1u);
  EXPECT_EQ(outer_inner[0]->TextContent(), "inner");
}

TEST(HtmlParserTest, UnmatchedCloseTagIgnored) {
  Document doc = ParseHtml("<div>a</span>b</div>");
  EXPECT_EQ(FirstElement(doc, "div")->TextContent(), "a b");
}

TEST(HtmlParserTest, StrayLessThanIsText) {
  Document doc = ParseHtml("<p>3 < 5 and 5 > 3</p>");
  EXPECT_EQ(FirstElement(doc, "p")->TextContent(), "3 < 5 and 5 > 3");
}

TEST(HtmlParserTest, DoctypeSkipped) {
  Document doc = ParseHtml("<!DOCTYPE html><html><p>x</p></html>");
  EXPECT_EQ(FirstElement(doc, "p")->TextContent(), "x");
}

TEST(HtmlParserTest, EmptyAndGarbageInput) {
  EXPECT_TRUE(ParseHtml("").root()->children().empty());
  Document doc = ParseHtml("<<<>>><x");
  // Must not crash; tree content is unspecified but traversable.
  doc.root()->TextContent();
}

TEST(HtmlParserTest, UnclosedTagsAutoCloseAtEof) {
  Document doc = ParseHtml("<div><p>a<b>bold");
  EXPECT_EQ(FirstElement(doc, "b")->TextContent(), "bold");
}

TEST(HtmlParserTest, TheadTbodyRowsCollected) {
  Document doc = ParseHtml(
      "<table><thead><tr><th>H</th></tr></thead>"
      "<tbody><tr><td>B</td></tr></tbody></table>");
  EXPECT_EQ(doc.root()->FindAll("tr").size(), 2u);
  EXPECT_EQ(doc.root()->FindAll("th").size(), 1u);
}

// ------------------------------------------------------------------- dom

TEST(DomTest, TextContentNormalizesWhitespace) {
  Document doc = ParseHtml("<p>  a\n\n  b\t c  </p>");
  EXPECT_EQ(FirstElement(doc, "p")->TextContent(), "a b c");
}

TEST(DomTest, FindAllDocumentOrder) {
  Document doc = ParseHtml("<div><em>1</em><p><em>2</em></p><em>3</em></div>");
  auto ems = doc.root()->FindAll("em");
  ASSERT_EQ(ems.size(), 3u);
  EXPECT_EQ(ems[0]->TextContent(), "1");
  EXPECT_EQ(ems[1]->TextContent(), "2");
  EXPECT_EQ(ems[2]->TextContent(), "3");
}

TEST(DomTest, FindAllSkipNested) {
  Document doc = ParseHtml(
      "<table id='a'><tr><td><table id='b'></table></td></tr></table>");
  auto top = doc.root()->FindAll("table", /*skip_nested=*/true);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0]->attr("id"), "a");
}

TEST(DomTest, PathToRootAndDepth) {
  Document doc = ParseHtml("<a><b><c>x</c></b></a>");
  const DomNode* c = FirstElement(doc, "c");
  ASSERT_NE(c, nullptr);
  auto path = c->PathToRoot();
  EXPECT_EQ(path.size(), 4u);  // c, b, a, document
  EXPECT_EQ(path.back()->type(), NodeType::kDocument);
}

TEST(DomTest, FormatTagClassification) {
  EXPECT_TRUE(IsFormatTag("b"));
  EXPECT_TRUE(IsFormatTag("strong"));
  EXPECT_TRUE(IsFormatTag("h2"));
  EXPECT_FALSE(IsFormatTag("div"));
  EXPECT_TRUE(IsHeadingTag("h1"));
  EXPECT_TRUE(IsHeadingTag("h6"));
  EXPECT_FALSE(IsHeadingTag("h7"));
  EXPECT_FALSE(IsHeadingTag("hr"));
}

TEST(DomTest, ParentPointers) {
  Document doc = ParseHtml("<div><p>x</p></div>");
  const DomNode* p = FirstElement(doc, "p");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->parent()->IsTag("div"));
}

}  // namespace
}  // namespace wwt
