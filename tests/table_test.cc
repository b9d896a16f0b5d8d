// Copyright 2026 The WWT Authors

#include <gtest/gtest.h>

#include "table/web_table.h"
#include "util/random.h"

namespace wwt {
namespace {

WebTable SampleTable() {
  WebTable t;
  t.id = 7;
  t.url = "http://example.com/page";
  t.ordinal = 2;
  t.num_cols = 3;
  t.title_rows = {"List of explorers"};
  t.header_rows = {{"Name", "Nationality", "Areas"},
                   {"", "", "explored"}};
  t.body = {{"Abel Tasman", "Dutch", "Oceania"},
            {"Vasco da Gama", "Portuguese", "Sea route to India"}};
  t.context = {{"This article lists explorations", 0.8},
               {"WebPedia", 0.3}};
  return t;
}

TEST(WebTableTest, ContextTextJoinsSnippets) {
  WebTable t = SampleTable();
  EXPECT_EQ(t.ContextText(), "This article lists explorations WebPedia");
}

TEST(WebTableTest, ColumnValues) {
  WebTable t = SampleTable();
  EXPECT_EQ(t.ColumnValues(1),
            (std::vector<std::string>{"Dutch", "Portuguese"}));
  // Out-of-range column degrades to empties, not UB.
  EXPECT_EQ(t.ColumnValues(9), (std::vector<std::string>{"", ""}));
}

TEST(WebTableTest, Counts) {
  WebTable t = SampleTable();
  EXPECT_EQ(t.num_body_rows(), 2);
  EXPECT_EQ(t.num_header_rows(), 2);
}

TEST(WebTableTest, SerializationRoundTripsExactly) {
  WebTable t = SampleTable();
  auto restored = DeserializeTable(SerializeTable(t));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->id, t.id);
  EXPECT_EQ(restored->url, t.url);
  EXPECT_EQ(restored->ordinal, t.ordinal);
  EXPECT_EQ(restored->num_cols, t.num_cols);
  EXPECT_EQ(restored->title_rows, t.title_rows);
  EXPECT_EQ(restored->header_rows, t.header_rows);
  EXPECT_EQ(restored->body, t.body);
  ASSERT_EQ(restored->context.size(), t.context.size());
  for (size_t i = 0; i < t.context.size(); ++i) {
    EXPECT_EQ(restored->context[i].text, t.context[i].text);
    EXPECT_DOUBLE_EQ(restored->context[i].score, t.context[i].score);
  }
}

TEST(WebTableTest, SerializationEmptyTable) {
  WebTable t;
  auto restored = DeserializeTable(SerializeTable(t));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_cols, 0);
  EXPECT_TRUE(restored->body.empty());
}

// Property sweep: random tables survive the round trip bit-exactly.
class SerializationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationPropertyTest, RandomRoundTrip) {
  Random rng(GetParam() * 1337 + 11);
  WebTable t;
  t.id = static_cast<TableId>(rng.Uniform(1000));
  t.url = "http://x/" + std::to_string(rng.Uniform(100));
  t.num_cols = 1 + static_cast<int>(rng.Uniform(5));
  auto random_cell = [&] {
    std::string s;
    size_t len = rng.Uniform(12);
    for (size_t i = 0; i < len; ++i) {
      // Include separators and newlines on purpose.
      s += static_cast<char>("ab:\n,7 %"[rng.Uniform(8)]);
    }
    return s;
  };
  int headers = static_cast<int>(rng.Uniform(3));
  for (int r = 0; r < headers; ++r) {
    std::vector<std::string> row(t.num_cols);
    for (auto& c : row) c = random_cell();
    t.header_rows.push_back(row);
  }
  int rows = static_cast<int>(rng.Uniform(8));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row(t.num_cols);
    for (auto& c : row) c = random_cell();
    t.body.push_back(row);
  }
  if (rng.Bernoulli(0.5)) t.context.push_back({random_cell(), 0.5});

  auto restored = DeserializeTable(SerializeTable(t));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->header_rows, t.header_rows);
  EXPECT_EQ(restored->body, t.body);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationPropertyTest,
                         ::testing::Range(0, 20));

// Truncation never crashes and always reports corruption.
class TruncationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TruncationPropertyTest, TruncatedInputRejectedGracefully) {
  std::string full = SerializeTable(SampleTable());
  size_t cut = full.size() * GetParam() / 20;
  if (cut >= full.size()) cut = full.size() - 1;
  auto result = DeserializeTable(full.substr(0, cut));
  EXPECT_FALSE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationPropertyTest,
                         ::testing::Range(0, 19));

}  // namespace
}  // namespace wwt
