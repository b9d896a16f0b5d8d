// Copyright 2026 The WWT Authors
//
// The --mutations grammar (src/fresh/mutation_line.h) against a real
// DeltaShard: every op lands as the mutation it names, blank and '#'
// lines apply nothing, and every malformed form — unknown op, missing
// fields, a sign, a non-digit, an id above the 32-bit range — is an
// InvalidArgument that leaves the delta exactly as it was. The range
// cases matter because TableId is 32 bits: a parse that narrowed
// without a check would read "tombstone | 4294967296" as table 0.

#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
#include "fresh/delta_shard.h"
#include "fresh/mutation_line.h"
#include "index/corpus_set.h"

namespace wwt {
namespace fresh {
namespace {

class MutationLineTest : public ::testing::Test {
 protected:
  static std::shared_ptr<const CorpusSet> Base() {
    static std::shared_ptr<const CorpusSet>* base = [] {
      CorpusOptions options;
      options.seed = 7;
      options.scale = 0.05;
      options.noise_pages = 10;
      return new std::shared_ptr<const CorpusSet>(CorpusSet::FromHandle(
          CorpusHandle::Own(GenerateCorpus(options), 0xFEED)));
    }();
    return *base;
  }

  void SetUp() override {
    StatusOr<std::unique_ptr<DeltaShard>> opened = DeltaShard::Open(Base());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    delta_ = std::move(opened).value();
  }

  /// The first frozen table with a header row and at least two columns
  /// and two body rows: a valid target for every cell edit below.
  static TableId EditableId() {
    const TableId end = BaseEndId(*Base());
    for (TableId id = 0; id < end; ++id) {
      StatusOr<WebTable> t = ReadFrozenTable(*Base(), id);
      if (t.ok() && !t->header_rows.empty() && t->num_cols >= 2 &&
          t->body.size() >= 2 && t->header_rows[0].size() >= 2 &&
          t->body[1].size() >= 2) {
        return id;
      }
    }
    ADD_FAILURE() << "no editable frozen table";
    return 0;
  }

  WebTable Served(TableId id) {
    StatusOr<WebTable> t = delta_->view()->Read(id);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? std::move(t).value() : WebTable();
  }

  /// Applies `line` and expects it to apply exactly one mutation.
  void Apply(const std::string& line) {
    StatusOr<bool> applied = ApplyMutationLine(delta_.get(), line);
    ASSERT_TRUE(applied.ok()) << line << ": " << applied.status().ToString();
    EXPECT_TRUE(*applied) << line;
  }

  std::unique_ptr<DeltaShard> delta_;
};

TEST_F(MutationLineTest, BlankAndCommentLinesApplyNothing) {
  for (const char* line : {"", "   ", "\t\r", "# a comment",
                           "  # tombstone | 0", "#add | t | h | b"}) {
    StatusOr<bool> applied = ApplyMutationLine(delta_.get(), line);
    ASSERT_TRUE(applied.ok()) << "'" << line << "'";
    EXPECT_FALSE(*applied) << "'" << line << "'";
  }
  EXPECT_TRUE(delta_->view()->empty());
}

TEST_F(MutationLineTest, AddBuildsTheTableFromItsFields) {
  const TableId id = BaseEndId(*Base());
  Apply("add | quokka census | quokka name , island population | "
        "speedy , 1200 ; zoomy , 800 | marsupial census tables");
  const WebTable t = Served(id);
  EXPECT_EQ(t.title_rows, (std::vector<std::string>{"quokka census"}));
  ASSERT_EQ(t.header_rows.size(), 1u);
  EXPECT_EQ(t.header_rows[0],
            (std::vector<std::string>{"quokka name", "island population"}));
  EXPECT_EQ(t.num_cols, 2);
  EXPECT_EQ(t.body, (std::vector<std::vector<std::string>>{
                        {"speedy", "1200"}, {"zoomy", "800"}}));
  ASSERT_EQ(t.context.size(), 1u);
  EXPECT_EQ(t.context[0].text, "marsupial census tables");
  EXPECT_EQ(t.url, "fresh://mutation/quokka census");

  // No CONTEXT field, and empty cells are kept, not collapsed.
  Apply("add | sparse | h1 , , h3 | a , , c");
  const WebTable sparse = Served(id + 1);
  EXPECT_EQ(sparse.header_rows[0],
            (std::vector<std::string>{"h1", "", "h3"}));
  EXPECT_EQ(sparse.body,
            (std::vector<std::vector<std::string>>{{"a", "", "c"}}));
  EXPECT_TRUE(sparse.context.empty());
  EXPECT_EQ(delta_->view()->num_tables(), 2u);
}

TEST_F(MutationLineTest, UpdateReplacesAFrozenTable) {
  Apply("update | 1 | renamed | a , b | x , y ; z , w | new context");
  const WebTable t = Served(1);
  EXPECT_EQ(t.id, 1u);
  EXPECT_EQ(t.title_rows, (std::vector<std::string>{"renamed"}));
  EXPECT_EQ(t.body, (std::vector<std::vector<std::string>>{{"x", "y"},
                                                            {"z", "w"}}));
  ASSERT_EQ(t.context.size(), 1u);
  EXPECT_EQ(t.context[0].text, "new context");
}

TEST_F(MutationLineTest, OverridesPatchTheServedTable) {
  const TableId id = EditableId();
  const std::string sid = std::to_string(id);
  Apply("override-title | " + sid + " | patched title");
  Apply("override-context | " + sid + " | patched context");
  Apply("override-header | " + sid + " | 0 | 1 | patched header");
  Apply("override-cell | " + sid + " | 1 | 0 | patched cell");
  const WebTable t = Served(id);
  EXPECT_EQ(t.title_rows, (std::vector<std::string>{"patched title"}));
  ASSERT_EQ(t.context.size(), 1u);
  EXPECT_EQ(t.context[0].text, "patched context");
  EXPECT_EQ(t.header_rows[0][1], "patched header");
  EXPECT_EQ(t.body[1][0], "patched cell");
  EXPECT_EQ(delta_->view()->num_overrides(), 4u);
}

TEST_F(MutationLineTest, TombstoneRetiresTheNamedId) {
  Apply("tombstone | 2");
  // Surrounding whitespace is trimmed; leading zeros are still digits.
  Apply("  tombstone |   003  ");
  EXPECT_EQ(delta_->view()->tombstoned(), (std::set<TableId>{2, 3}));
}

TEST_F(MutationLineTest, MalformedLinesAreInvalidArgumentAndChangeNothing) {
  Apply("tombstone | 5");  // a non-empty delta, so "unchanged" means more
  const std::shared_ptr<const DeltaView> before = delta_->view();
  const std::string cell = std::to_string(EditableId());
  const std::vector<std::string> malformed = {
      // Unknown or missing op.
      "frobnicate | 3",
      "| 3",
      "Tombstone | 3",
      // Missing fields, one case per op.
      "add",
      "add | title | header",
      "update | 1 | title | header",
      "override-title | 1",
      "override-context | 1",
      "override-header | 1 | 0 | 0",
      "override-cell | 1 | 0",
      "tombstone",
      // Ids that are not plain digits.
      "tombstone | ",
      "tombstone | abc",
      "tombstone | 7x",
      "tombstone | 1 2",
      "tombstone | 0x10",
      "tombstone | 1.0",
      // A sign, either way.
      "tombstone | -1",
      "tombstone | +1",
      "tombstone | -4294967295",
      "update | -0 | t | h | b",
      // Above 4294967295: narrowed, these would wrap onto ids 0 and 1.
      "tombstone | 4294967296",
      "tombstone | 4294967297",
      "tombstone | 18446744073709551616",
      "override-title | 4294967296 | t",
      // Bad ROW/COL.
      "override-cell | " + cell + " | 4294967296 | 0 | x",
      "override-cell | " + cell + " | 0 | -1 | x",
      "override-header | " + cell + " | x | 0 | y",
  };
  for (const std::string& line : malformed) {
    StatusOr<bool> applied = ApplyMutationLine(delta_.get(), line);
    EXPECT_TRUE(applied.status().IsInvalidArgument())
        << "'" << line << "' -> " << applied.status().ToString();
    // Nothing was published: the very same view is still current.
    EXPECT_EQ(delta_->view().get(), before.get()) << "'" << line << "'";
  }
  EXPECT_EQ(delta_->view()->tombstoned(), (std::set<TableId>{5}));
}

TEST_F(MutationLineTest, TheTopOfTheIdRangeParsesAndDeltaErrorsPassThrough) {
  // 4294967295 is a valid id that names no table: the shard's NotFound,
  // not a parse error.
  StatusOr<bool> top =
      ApplyMutationLine(delta_.get(), "tombstone | 4294967295");
  EXPECT_TRUE(top.status().IsNotFound()) << top.status().ToString();
  Apply("tombstone | 4");
  StatusOr<bool> again = ApplyMutationLine(delta_.get(), "tombstone | 4");
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition)
      << again.status().ToString();
  EXPECT_EQ(delta_->view()->generation(), 1u);
}

TEST_F(MutationLineTest, RandomLinesNeverCrashAndErrorsChangeNothing) {
  // Hostile input: real ops and junk with random fields of separators,
  // digits, signs and letters. Every line must end in a Status; a
  // rejected line must leave the published view as it was.
  const char* const ops[] = {"add",           "update",
                             "override-title", "override-context",
                             "override-header", "override-cell",
                             "tombstone",      "bogus",
                             "",               "#"};
  const std::string alphabet = "0123456789|,; -+xA\t";
  std::mt19937 rng(1234);
  for (int i = 0; i < 300; ++i) {
    std::string line = ops[rng() % std::size(ops)];
    const int fields = static_cast<int>(rng() % 7);
    for (int f = 0; f < fields; ++f) {
      line += " | ";
      const int len = static_cast<int>(rng() % 6);
      for (int c = 0; c < len; ++c) line += alphabet[rng() % alphabet.size()];
    }
    const std::shared_ptr<const DeltaView> before = delta_->view();
    StatusOr<bool> applied = ApplyMutationLine(delta_.get(), line);
    if (!applied.ok()) {
      EXPECT_EQ(delta_->view().get(), before.get()) << "'" << line << "'";
    }
  }
}

}  // namespace
}  // namespace fresh
}  // namespace wwt
