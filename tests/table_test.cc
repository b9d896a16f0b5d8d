// Copyright 2026 The WWT Authors

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
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

// ------------------------------------------- the std::stoll/stod parser

Status OracleReadField(std::string_view data, size_t* pos, std::string* out) {
  size_t colon = data.find(':', *pos);
  if (colon == std::string::npos) {
    return Status::Corruption("missing length prefix at offset ", *pos);
  }
  size_t len = 0;
  for (size_t i = *pos; i < colon; ++i) {
    if (data[i] < '0' || data[i] > '9') {
      return Status::Corruption("bad length digit at offset ", i);
    }
    len = len * 10 + static_cast<size_t>(data[i] - '0');
  }
  if (colon + 1 + len > data.size()) {
    return Status::Corruption("field overruns buffer at offset ", *pos);
  }
  out->assign(data.substr(colon + 1, len));
  *pos = colon + 1 + len;
  if (*pos < data.size() && data[*pos] == '\n') ++*pos;
  return Status::OK();
}

Status OracleReadInt(std::string_view data, size_t* pos, int64_t* out) {
  std::string field;
  WWT_RETURN_NOT_OK(OracleReadField(data, pos, &field));
  try {
    *out = std::stoll(field);
  } catch (...) {
    return Status::Corruption("expected integer, got '", field, "'");
  }
  return Status::OK();
}

/// The record parser as it was before it moved to std::from_chars: one
/// std::string per integer field, std::stoll / std::stod in try/catch.
StatusOr<WebTable> OracleDeserialize(std::string_view data) {
  size_t pos = 0;
  std::string version;
  WWT_RETURN_NOT_OK(OracleReadField(data, &pos, &version));
  if (version != "wwt1") return Status::Corruption("unknown table format");
  WebTable t;
  int64_t v = 0;
  WWT_RETURN_NOT_OK(OracleReadInt(data, &pos, &v));
  t.id = static_cast<TableId>(v);
  WWT_RETURN_NOT_OK(OracleReadField(data, &pos, &t.url));
  WWT_RETURN_NOT_OK(OracleReadInt(data, &pos, &v));
  t.ordinal = static_cast<int>(v);
  WWT_RETURN_NOT_OK(OracleReadInt(data, &pos, &v));
  t.num_cols = static_cast<int>(v);
  int64_t n = 0;
  WWT_RETURN_NOT_OK(OracleReadInt(data, &pos, &n));
  for (int64_t i = 0; i < n; ++i) {
    std::string s;
    WWT_RETURN_NOT_OK(OracleReadField(data, &pos, &s));
    t.title_rows.push_back(std::move(s));
  }
  for (auto* rows : {&t.header_rows, &t.body}) {
    WWT_RETURN_NOT_OK(OracleReadInt(data, &pos, &n));
    for (int64_t i = 0; i < n; ++i) {
      std::vector<std::string> row(t.num_cols);
      for (int c = 0; c < t.num_cols; ++c) {
        WWT_RETURN_NOT_OK(OracleReadField(data, &pos, &row[c]));
      }
      rows->push_back(std::move(row));
    }
  }
  WWT_RETURN_NOT_OK(OracleReadInt(data, &pos, &n));
  for (int64_t i = 0; i < n; ++i) {
    ContextSnippet snip;
    WWT_RETURN_NOT_OK(OracleReadField(data, &pos, &snip.text));
    std::string score;
    WWT_RETURN_NOT_OK(OracleReadField(data, &pos, &score));
    try {
      snip.score = std::stod(score);
    } catch (...) {
      return Status::Corruption("bad snippet score '", score, "'");
    }
    t.context.push_back(std::move(snip));
  }
  return t;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(WebTableParseTest, EveryStoreRecordMatchesTheStollParser) {
  CorpusOptions options;
  options.seed = 42;
  options.scale = 0.25;
  const Corpus corpus = GenerateCorpus(options);
  ASSERT_GT(corpus.store.size(), 0u);
  size_t snippets = 0;
  for (TableId id = corpus.store.first_id(); id < corpus.store.end_id();
       ++id) {
    // The stored record's bytes: Put wrote SerializeTable of the table,
    // and a record re-serializes to itself (checked below).
    StatusOr<WebTable> stored = corpus.store.Get(id);
    ASSERT_TRUE(stored.ok()) << stored.status();
    const std::string record = SerializeTable(*stored);
    ASSERT_EQ(record.size(), corpus.store.RecordSize(id));
    StatusOr<WebTable> got = DeserializeTable(record);
    StatusOr<WebTable> want = OracleDeserialize(record);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_EQ(SerializeTable(*got), record);
    ASSERT_EQ(got->id, want->id);
    ASSERT_EQ(got->url, want->url);
    ASSERT_EQ(got->ordinal, want->ordinal);
    ASSERT_EQ(got->num_cols, want->num_cols);
    ASSERT_EQ(got->title_rows, want->title_rows);
    ASSERT_EQ(got->header_rows, want->header_rows);
    ASSERT_EQ(got->body, want->body);
    ASSERT_EQ(got->context.size(), want->context.size());
    for (size_t i = 0; i < got->context.size(); ++i) {
      ASSERT_EQ(got->context[i].text, want->context[i].text);
      ASSERT_EQ(Bits(got->context[i].score), Bits(want->context[i].score))
          << "table " << id << " snippet " << i;
    }
    snippets += got->context.size();
  }
  EXPECT_GT(snippets, 0u);
}

/// SampleTable's record with the field after the one holding `field`
/// replaced by `value` (lengths rewritten).
std::string WithField(const std::string& field, const std::string& value) {
  const std::string record = SerializeTable(SampleTable());
  const std::string from = std::to_string(field.size()) + ":" + field + "\n";
  const size_t at = record.find(from);
  EXPECT_NE(at, std::string::npos) << field;
  return record.substr(0, at) + std::to_string(value.size()) + ":" + value +
         "\n" + record.substr(at + from.size());
}

TEST(WebTableParseTest, MalformedFieldsAreCorruption) {
  // The ordinal (2), then the score of the first snippet (0.8).
  const std::string score = "0.80000000000000004";
  ASSERT_NE(SerializeTable(SampleTable()).find(score), std::string::npos);
  const std::pair<std::string, std::string> cases[] = {
      {"2", "x2"},                    // a non-digit
      {"2", "2abc"},                  // trailing bytes (stoll took "2")
      {"2", " 2"},                    // a leading space
      {"2", "+2"},                    // a leading '+' (never written)
      {"2", ""},                      // empty
      {"2", "99999999999999999999"},  // out of int64 range
      {score, "1e999"},               // an out-of-range score
      {score, "0.5x"},                // a score with trailing bytes
      {score, "zero"},                // not a number
  };
  for (const auto& [field, value] : cases) {
    StatusOr<WebTable> parsed = DeserializeTable(WithField(field, value));
    ASSERT_FALSE(parsed.ok()) << field << " -> '" << value << "'";
    EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status();
  }
  // Negative integers are what SerializeTable writes for them.
  WebTable negative = SampleTable();
  negative.ordinal = -3;
  StatusOr<WebTable> parsed = DeserializeTable(SerializeTable(negative));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ordinal, -3);
}

TEST(WebTableParseTest, ImplausibleRowCountsAreCorruption) {
  // A body count far past what the record's bytes can hold is rejected
  // before any row is reserved.
  const std::string record = WithField("2", "2");
  const std::string body = "1:2\n11:Abel Tasman";
  const size_t at = record.find(body);
  ASSERT_NE(at, std::string::npos);
  const std::string huge = "16:1000000000000000" + record.substr(at + 3);
  StatusOr<WebTable> parsed = DeserializeTable(record.substr(0, at) + huge);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status();
}

}  // namespace
}  // namespace wwt
