// Copyright 2026 The WWT Authors
//
// Column-mapper behavior tests: the Fig. 1 scenario, the table-level
// constraints, cross-table edge construction, and the collective-rescue
// mechanism (a headerless table labeled through content overlap with
// confident tables — §3.3/§4.2's central claim).

#include <cmath>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/column_mapper.h"
#include "core/edges.h"
#include "table/labels.h"

namespace wwt {
namespace {

class MapperTest : public ::testing::Test {
 protected:
  WebTable MakeTable(const std::vector<std::string>& context,
                     const std::vector<std::vector<std::string>>& headers,
                     const std::vector<std::vector<std::string>>& body) {
    WebTable t;
    t.id = next_id_++;
    t.num_cols = body.empty() ? 0 : static_cast<int>(body[0].size());
    if (!headers.empty()) {
      t.num_cols = static_cast<int>(headers[0].size());
    }
    for (const auto& c : context) t.context.push_back({c, 1.0});
    t.header_rows = headers;
    t.body = body;
    return t;
  }

  /// Indexes a table (so vocabulary/IDF know its terms) and returns the
  /// preprocessed candidate.
  CandidateTable AddCandidate(
      const std::vector<std::string>& context,
      const std::vector<std::vector<std::string>>& headers,
      const std::vector<std::vector<std::string>>& body) {
    WebTable t = MakeTable(context, headers, body);
    index_.Add(t);
    pending_.push_back(t);
    return CandidateTable();  // placeholder; real build happens later
  }

  /// Builds candidates after all tables were indexed (so IDF is final).
  std::vector<CandidateTable> BuildCandidates() {
    std::vector<CandidateTable> out;
    for (const WebTable& t : pending_) {
      out.push_back(CandidateTable::Build(t, index_));
    }
    return out;
  }

  TableIndex index_;
  std::vector<WebTable> pending_;
  TableId next_id_ = 0;
};

// The Fig. 1 scenario: three web tables, one query.
class Fig1MapperTest : public MapperTest {
 protected:
  void SetUp() override {
    // Web Table 1: all three columns, headers match directly.
    AddCandidate(
        {"List of explorers"},
        {{"Name of Explorers", "Nationality", "Areas Explored"}},
        {{"Vasco da Gama", "Portuguese", "Sea route to India"},
         {"Abel Tasman", "Dutch", "Oceania"},
         {"Christopher Columbus", "Italian", "Caribbean"}});
    // Web Table 2: columns reversed, second header row is an annotation.
    AddCandidate(
        {"This article lists the explorations in history"},
        {{"Exploration", "Who (explorer)"}, {"Chronological order", ""}},
        {{"Sea route to India", "Vasco da Gama"},
         {"Caribbean", "Christopher Columbus"},
         {"Oceania", "Abel Tasman"}});
    // Web Table 3: forest reserves — irrelevant despite "areas ...
    // exploration" in its context.
    AddCandidate(
        {"Forest Reserves under the Forestry Act",
         "All areas will be available for mineral exploration and mining"},
        {{"ID", "Name", "Area"}},
        {{"7", "Shakespeare Hills", "2236"},
         {"9", "Plains Creek", "880"},
         {"13", "Welcome Swamp", "168"}});
    query_ = Query::Parse(
        {"name of explorers", "nationality", "areas explored"}, index_);
  }

  Query query_;
};

TEST_F(Fig1MapperTest, IndependentInferenceMapsFig1) {
  auto tables = BuildCandidates();
  MapperOptions options;
  options.mode = InferenceMode::kIndependent;
  ColumnMapper mapper(&index_, options);
  MapResult result = mapper.Map(query_, tables);

  ASSERT_EQ(result.tables.size(), 3u);
  // Table 1: consecutive mapping.
  EXPECT_TRUE(result.tables[0].relevant);
  EXPECT_EQ(result.tables[0].labels, (std::vector<int>{0, 1, 2}));
  // Table 2 has weak headers ("Exploration", "Who (explorer)") and its
  // query evidence is split between header and context; per-table
  // inference alone cannot justify relevance — exactly the case §3.3's
  // collective inference exists for (see AllInferenceModesAgreeOnFig1,
  // where every collective mode maps it {2, 0}).
  EXPECT_FALSE(result.tables[1].relevant);
  // Table 3: irrelevant despite "areas ... exploration" in its context.
  EXPECT_FALSE(result.tables[2].relevant);
  EXPECT_EQ(result.tables[2].labels,
            (std::vector<int>{kLabelNr, kLabelNr, kLabelNr}));
}

TEST_F(Fig1MapperTest, AllInferenceModesAgreeOnFig1) {
  auto tables = BuildCandidates();
  for (InferenceMode mode :
       {InferenceMode::kTableCentric, InferenceMode::kAlphaExpansion,
        InferenceMode::kBeliefPropagation, InferenceMode::kTrws}) {
    MapperOptions options;
    options.mode = mode;
    ColumnMapper mapper(&index_, options);
    MapResult result = mapper.Map(query_, tables);
    EXPECT_EQ(result.tables[0].labels, (std::vector<int>{0, 1, 2}))
        << InferenceModeToString(mode);
    EXPECT_EQ(result.tables[1].labels, (std::vector<int>{2, 0}))
        << InferenceModeToString(mode);
    EXPECT_FALSE(result.tables[2].relevant)
        << InferenceModeToString(mode);
  }
}

TEST_F(Fig1MapperTest, RelevanceProbsCalibrated) {
  auto tables = BuildCandidates();
  ColumnMapper mapper(&index_, {});
  MapResult result = mapper.Map(query_, tables);
  EXPECT_GT(result.tables[0].relevance_prob, 0.8);
  EXPECT_LT(result.tables[2].relevance_prob, 0.5);
}

TEST_F(Fig1MapperTest, ObjectiveIsFiniteAndConsistent) {
  auto tables = BuildCandidates();
  ColumnMapper mapper(&index_, {});
  MapResult result = mapper.Map(query_, tables);
  EXPECT_TRUE(std::isfinite(result.objective));
  EXPECT_GT(result.objective, 0.0);
}

// ----------------------------------------------------------- constraints

TEST_F(MapperTest, MutexPreventsDuplicateLabels) {
  // Two columns that both look like "year": only one may take the label.
  AddCandidate({}, {{"Champion", "Year", "Year"}},
               {{"Alice", "2001", "2002"}, {"Bob", "2003", "2004"}});
  Query q = Query::Parse({"champion", "year"}, index_);
  auto tables = BuildCandidates();
  ColumnMapper mapper(&index_, {});
  MapResult result = mapper.Map(q, tables);
  int year_labels = 0;
  for (int l : result.tables[0].labels) year_labels += (l == 1);
  EXPECT_LE(year_labels, 1);
}

TEST_F(MapperTest, MustMatchRejectsTablesWithoutKeyColumn) {
  // Header matches "year" but nothing matches the first query column:
  // the must-match constraint forces all-nr.
  AddCandidate({}, {{"Price", "Year"}},
               {{"$4", "2001"}, {"$5", "2002"}});
  Query q = Query::Parse({"wimbledon champions", "year"}, index_);
  auto tables = BuildCandidates();
  ColumnMapper mapper(&index_, {});
  MapResult result = mapper.Map(q, tables);
  EXPECT_FALSE(result.tables[0].relevant);
}

TEST_F(MapperTest, SingleColumnQueryOnSingleColumnTable) {
  AddCandidate({}, {{"Dog breed"}}, {{"Beagle"}, {"Poodle"}});
  Query q = Query::Parse({"dog breed"}, index_);
  auto tables = BuildCandidates();
  ColumnMapper mapper(&index_, {});
  MapResult result = mapper.Map(q, tables);
  EXPECT_TRUE(result.tables[0].relevant);
  EXPECT_EQ(result.tables[0].labels, (std::vector<int>{0}));
}

TEST_F(MapperTest, EmptyCandidateListIsFine) {
  Query q = Query::Parse({"anything"}, index_);
  ColumnMapper mapper(&index_, {});
  MapResult result = mapper.Map(q, {});
  EXPECT_TRUE(result.tables.empty());
}

// -------------------------------------------------------- edge building

TEST_F(MapperTest, CrossEdgesConnectOverlappingColumns) {
  AddCandidate({}, {{"Country", "Currency"}},
               {{"France", "Euro"}, {"Japan", "Yen"}, {"India", "Rupee"}});
  AddCandidate({}, {{"Nation", "Money"}},
               {{"France", "Euro"}, {"Japan", "Yen"}, {"Chile", "Peso"}});
  auto tables = BuildCandidates();
  auto edges = BuildCrossEdges(tables);
  ASSERT_FALSE(edges.empty());
  // The country columns pair up, the currency columns pair up; never
  // country-currency.
  for (const CrossEdge& e : edges) {
    EXPECT_EQ(e.c1, e.c2);
    EXPECT_GT(e.sim, 0.3);
    EXPECT_GT(e.nsim_12, 0.0);
    EXPECT_LE(e.nsim_12, 1.0);
  }
}

TEST_F(MapperTest, MaxMatchingYieldsOneEdgePerColumnPair) {
  AddCandidate({}, {{"A", "B"}},
               {{"x1", "x2"}, {"y1", "y2"}, {"z1", "z2"}});
  AddCandidate({}, {{"C", "D"}},
               {{"x1", "x2"}, {"y1", "y2"}, {"w1", "w2"}});
  auto tables = BuildCandidates();
  auto edges = BuildCrossEdges(tables);
  // At most min(2,2) = 2 edges between this pair of tables.
  EXPECT_LE(edges.size(), 2u);
}

TEST_F(MapperTest, NsimNormalizationBoundsNeighborMass) {
  // One column similar to many others: its outgoing nsim sums to < 1.
  for (int i = 0; i < 5; ++i) {
    AddCandidate({}, {{"Col"}}, {{"v1"}, {"v2"}, {"v3"}});
  }
  auto tables = BuildCandidates();
  auto edges = BuildCrossEdges(tables);
  double sum_from_first = 0;
  for (const CrossEdge& e : edges) {
    if (e.t1 == 0) sum_from_first += e.nsim_12;
    if (e.t2 == 0) sum_from_first += e.nsim_21;
  }
  EXPECT_LE(sum_from_first, 1.0 + 1e-9);
  EXPECT_GT(sum_from_first, 0.5);
}

TEST_F(MapperTest, NsimDenominatorsOfWideTablesDoNotCollide) {
  // Column 1000 of a 1,001-column table holds the same cells as two
  // 1-column tables. Each of the three columns then has two neighbours
  // with sim 1, so every nsim is 1 / (0.3 + 2). A denominator keyed
  // t * 1000 + c would merge column 1000 of table 0 with column 0 of
  // table 1 and give those two 1 / 4.3.
  const std::vector<std::string> values = {"oak", "elm", "ash", "yew"};
  std::vector<std::vector<std::string>> wide(values.size(),
                                             std::vector<std::string>(1001));
  std::vector<std::vector<std::string>> narrow;
  for (size_t r = 0; r < values.size(); ++r) {
    wide[r][1000] = values[r];
    narrow.push_back({values[r]});
  }
  AddCandidate({}, {}, wide);
  AddCandidate({}, {}, narrow);
  AddCandidate({}, {}, narrow);
  auto tables = BuildCandidates();
  ASSERT_EQ(tables[0].num_cols, 1001);
  auto edges = BuildCrossEdges(tables);
  ASSERT_EQ(edges.size(), 3u);
  for (const CrossEdge& e : edges) {
    EXPECT_EQ(e.c1, e.t1 == 0 ? 1000 : 0);
    EXPECT_EQ(e.c2, 0);
    EXPECT_NEAR(e.sim, 1.0, 1e-12);
    EXPECT_NEAR(e.nsim_12, 1.0 / 2.3, 1e-9);
    EXPECT_NEAR(e.nsim_21, 1.0 / 2.3, 1e-9);
  }
}

// --------------------------------------------- collective rescue (§4.2)

class RescueTest : public MapperTest {
 protected:
  void SetUp() override {
    // Two confident tables with clean headers...
    AddCandidate({"fifa world cup winners"},
                 {{"Winner", "Year"}},
                 {{"Brazil", "2002"}, {"Italy", "2006"}, {"Spain", "2010"},
                  {"France", "1998"}, {"Germany", "1990"}});
    AddCandidate({"world cup winners by year"},
                 {{"Winner", "Year"}},
                 {{"Brazil", "1994"}, {"Italy", "1982"}, {"Spain", "2010"},
                  {"France", "1998"}, {"Argentina", "1986"}});
    // ...and one headerless table with heavy content overlap.
    AddCandidate({}, {},
                 {{"Brazil", "2002"}, {"Italy", "2006"}, {"France", "1998"},
                  {"Germany", "1990"}, {"Spain", "2010"}});
    query_ = Query::Parse({"fifa world cup winners", "year"}, index_);
  }

  Query query_;
};

TEST_F(RescueTest, IndependentInferenceMissesHeaderlessTable) {
  auto tables = BuildCandidates();
  MapperOptions options;
  options.mode = InferenceMode::kIndependent;
  ColumnMapper mapper(&index_, options);
  MapResult result = mapper.Map(query_, tables);
  EXPECT_TRUE(result.tables[0].relevant);
  EXPECT_TRUE(result.tables[1].relevant);
  EXPECT_FALSE(result.tables[2].relevant);  // nothing to match on
}

TEST_F(RescueTest, TableCentricRescuesHeaderlessTable) {
  auto tables = BuildCandidates();
  MapperOptions options;
  options.mode = InferenceMode::kTableCentric;
  ColumnMapper mapper(&index_, options);
  MapResult result = mapper.Map(query_, tables);
  EXPECT_TRUE(result.tables[2].relevant)
      << "content overlap with confident tables must rescue the "
         "headerless table";
  EXPECT_EQ(result.tables[2].labels, (std::vector<int>{0, 1}));
}

TEST_F(RescueTest, AlphaExpansionAlsoRescues) {
  auto tables = BuildCandidates();
  MapperOptions options;
  options.mode = InferenceMode::kAlphaExpansion;
  ColumnMapper mapper(&index_, options);
  MapResult result = mapper.Map(query_, tables);
  EXPECT_TRUE(result.tables[2].relevant);
  EXPECT_EQ(result.tables[2].labels, (std::vector<int>{0, 1}));
}

TEST_F(RescueTest, NoRescueWithoutConfidentNeighbors) {
  // Drop the two confident tables: the headerless one has no neighbors
  // and must stay irrelevant.
  pending_.erase(pending_.begin(), pending_.begin() + 2);
  auto tables = BuildCandidates();
  ColumnMapper mapper(&index_, {});
  MapResult result = mapper.Map(query_, tables);
  EXPECT_FALSE(result.tables[0].relevant);
}

// -------------------------------------------------------------- baselines

TEST_F(Fig1MapperTest, BasicBaselineMapsCleanHeaders) {
  auto tables = BuildCandidates();
  BaselineMapper basic(&index_, DefaultBaselineOptions(BaselineKind::kBasic));
  MapResult result = basic.Map(query_, tables);
  ASSERT_EQ(result.tables.size(), 3u);
  EXPECT_TRUE(result.tables[0].relevant);
  EXPECT_EQ(result.tables[0].labels[0], 0);
  EXPECT_EQ(result.tables[0].labels[1], 1);
}

TEST_F(MapperTest, BaselineThresholdRejects) {
  AddCandidate({"totally unrelated page"}, {{"Alpha", "Beta"}},
               {{"1", "2"}});
  Query q = Query::Parse({"dog breed", "origin"}, index_);
  auto tables = BuildCandidates();
  BaselineMapper basic(&index_, DefaultBaselineOptions(BaselineKind::kBasic));
  MapResult result = basic.Map(q, tables);
  EXPECT_FALSE(result.tables[0].relevant);
}

TEST_F(MapperTest, BaselineKindNames) {
  EXPECT_STREQ(BaselineKindToString(BaselineKind::kBasic), "Basic");
  EXPECT_STREQ(BaselineKindToString(BaselineKind::kNbrText), "NbrText");
  EXPECT_STREQ(BaselineKindToString(BaselineKind::kPmi2), "PMI2");
}

TEST_F(MapperTest, InferenceModeNames) {
  EXPECT_STREQ(InferenceModeToString(InferenceMode::kTableCentric),
               "table-centric");
  EXPECT_STREQ(InferenceModeToString(InferenceMode::kIndependent),
               "independent");
}

}  // namespace
}  // namespace wwt
