// Copyright 2026 The WWT Authors
//
// End-to-end engine and consolidator tests on a small generated corpus.

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
#include "table/labels.h"
#include "wwt/engine.h"

namespace wwt {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static const Corpus& GetCorpus() {
    static Corpus* corpus = [] {
      CorpusOptions options;
      options.seed = 3;
      options.scale = 0.25;
      return new Corpus(GenerateCorpus(options));
    }();
    return *corpus;
  }
};

TEST(StageTimerTest, AccumulatesPerStage) {
  StageTimer timer;
  timer.Add(kStage1stIndex, 1.0);
  timer.Add(kStage1stIndex, 0.5);
  timer.Add(kStageColumnMap, 2.0);
  EXPECT_DOUBLE_EQ(timer.Get(kStage1stIndex), 1.5);
  EXPECT_DOUBLE_EQ(timer.Get(kStageColumnMap), 2.0);
  EXPECT_DOUBLE_EQ(timer.Get(kStage2ndIndex), 0.0);
  EXPECT_TRUE(timer.ran(kStage1stIndex));
  EXPECT_FALSE(timer.ran(kStage2ndIndex));
  EXPECT_DOUBLE_EQ(timer.Total(), 3.5);
  timer.Clear();
  EXPECT_FALSE(timer.ran(kStage1stIndex));
  EXPECT_DOUBLE_EQ(timer.Total(), 0.0);
}

TEST(StageTimerTest, ScopedTimerMarksItsStage) {
  StageTimer timer;
  {
    ScopedStageTimer scoped(&timer, kStageConsolidate);
  }
  EXPECT_GE(timer.Get(kStageConsolidate), 0.0);
  EXPECT_TRUE(timer.ran(kStageConsolidate));
  EXPECT_FALSE(timer.ran(kStageColumnMap));
}

TEST_F(EngineTest, ExplorersQueryEndToEnd) {
  const Corpus& c = GetCorpus();
  WwtEngine engine(&c.store, c.index.get(), {});
  QueryExecution exec = engine.Execute(
      {"name of explorers", "nationality", "areas explored"});

  EXPECT_FALSE(exec.retrieval.tables.empty());
  int relevant = 0;
  for (const TableMapping& tm : exec.mapping.tables) {
    relevant += tm.relevant;
  }
  EXPECT_GT(relevant, 0);
  ASSERT_FALSE(exec.answer.rows.empty());
  // A known explorer from the seed list appears in the answer key column.
  bool found = false;
  for (const AnswerRow& row : exec.answer.rows) {
    found |= row.cells[0].find("Tasman") != std::string::npos ||
             row.cells[0].find("Gama") != std::string::npos ||
             row.cells[0].find("Columbus") != std::string::npos;
  }
  EXPECT_TRUE(found);
  // Timings recorded for all mandatory stages.
  EXPECT_GT(exec.timing.Get(kStage1stIndex), 0.0);
  EXPECT_GT(exec.timing.Get(kStageColumnMap), 0.0);
}

TEST_F(EngineTest, SecondProbeAddsTables) {
  const Corpus& c = GetCorpus();
  WwtEngine engine(&c.store, c.index.get(), {});
  int used = 0, total_new = 0;
  for (const char* key : {"country", "dog breed", "movies"}) {
    Query q = Query::Parse({key}, *c.index);
    RetrievalResult r = engine.Retrieve(q, nullptr);
    used += r.used_second_probe;
    total_new += r.new_from_second_probe;
  }
  EXPECT_GT(used, 0);
  EXPECT_GE(total_new, 0);
}

TEST_F(EngineTest, UnknownKeywordsYieldEmptyAnswer) {
  const Corpus& c = GetCorpus();
  WwtEngine engine(&c.store, c.index.get(), {});
  QueryExecution exec = engine.Execute({"qqqxyzzy", "wwwzzz"});
  EXPECT_TRUE(exec.retrieval.tables.empty());
  EXPECT_TRUE(exec.answer.rows.empty());
}

TEST_F(EngineTest, MaxCandidatesRespected) {
  const Corpus& c = GetCorpus();
  EngineOptions options;
  options.max_candidates = 5;
  WwtEngine engine(&c.store, c.index.get(), options);
  Query q = Query::Parse({"country", "population"}, *c.index);
  RetrievalResult r = engine.Retrieve(q, nullptr);
  EXPECT_LE(r.tables.size(), 5u);
}

// ------------------------------------------------------------ consolidator

class ConsolidatorTest : public ::testing::Test {
 protected:
  CandidateTable MakeCandidate(
      TableId id, const std::vector<std::vector<std::string>>& body) {
    WebTable t;
    t.id = id;
    t.num_cols = static_cast<int>(body[0].size());
    t.body = body;
    return CandidateTable::Build(std::move(t), index_);
  }

  TableMapping MakeMapping(TableId id, std::vector<int> labels,
                           double prob = 1.0) {
    TableMapping tm;
    tm.id = id;
    tm.labels = std::move(labels);
    tm.relevant = true;
    tm.relevance_prob = prob;
    return tm;
  }

  TableIndex index_;
};

TEST_F(ConsolidatorTest, MergesDuplicateRowsAcrossTables) {
  std::vector<CandidateTable> tables;
  tables.push_back(MakeCandidate(0, {{"Tasman", "Dutch"},
                                     {"Cook", "British"}}));
  tables.push_back(MakeCandidate(1, {{"Tasman", "Dutch"},
                                     {"Polo", "Italian"}}));
  MapResult mapping;
  mapping.tables.push_back(MakeMapping(0, {0, 1}));
  mapping.tables.push_back(MakeMapping(1, {0, 1}));

  TableIndex idx;
  Query q;
  q.cols.resize(2);
  AnswerTable answer = Consolidate(q, tables, mapping);
  ASSERT_EQ(answer.rows.size(), 3u);
  // Tasman merged from both tables => support 2, ranked first.
  EXPECT_EQ(answer.rows[0].cells[0], "Tasman");
  EXPECT_EQ(answer.rows[0].support, 2);
  EXPECT_EQ(answer.rows[1].support, 1);
}

TEST_F(ConsolidatorTest, ReversedColumnsAlignViaLabels) {
  std::vector<CandidateTable> tables;
  tables.push_back(MakeCandidate(0, {{"Oceania", "Tasman"}}));
  MapResult mapping;
  mapping.tables.push_back(MakeMapping(0, {1, 0}));  // col0=label1
  Query q;
  q.cols.resize(2);
  AnswerTable answer = Consolidate(q, tables, mapping);
  ASSERT_EQ(answer.rows.size(), 1u);
  EXPECT_EQ(answer.rows[0].cells[0], "Tasman");
  EXPECT_EQ(answer.rows[0].cells[1], "Oceania");
}

TEST_F(ConsolidatorTest, IrrelevantTablesIgnored) {
  std::vector<CandidateTable> tables;
  tables.push_back(MakeCandidate(0, {{"junk", "row"}}));
  MapResult mapping;
  TableMapping tm;
  tm.id = 0;
  tm.labels = {kLabelNr, kLabelNr};
  tm.relevant = false;
  mapping.tables.push_back(tm);
  Query q;
  q.cols.resize(2);
  EXPECT_TRUE(Consolidate(q, tables, mapping).rows.empty());
}

TEST_F(ConsolidatorTest, FuzzyKeysMergeTypos) {
  std::vector<CandidateTable> tables;
  tables.push_back(MakeCandidate(0, {{"Alexander Mackenzie", "British"}}));
  tables.push_back(MakeCandidate(1, {{"Alexander Mackenzei", "British"}}));
  MapResult mapping;
  mapping.tables.push_back(MakeMapping(0, {0, 1}));
  mapping.tables.push_back(MakeMapping(1, {0, 1}));
  Query q;
  q.cols.resize(2);
  AnswerTable answer = Consolidate(q, tables, mapping);
  EXPECT_EQ(answer.rows.size(), 1u);
  EXPECT_EQ(answer.rows[0].support, 2);
}

TEST_F(ConsolidatorTest, FillsMissingCellsFromOtherTables) {
  std::vector<CandidateTable> tables;
  tables.push_back(MakeCandidate(0, {{"Tasman", ""}}));
  tables.push_back(MakeCandidate(1, {{"Tasman", "Dutch"}}));
  MapResult mapping;
  mapping.tables.push_back(MakeMapping(0, {0, 1}));
  mapping.tables.push_back(MakeMapping(1, {0, 1}));
  Query q;
  q.cols.resize(2);
  AnswerTable answer = Consolidate(q, tables, mapping);
  ASSERT_EQ(answer.rows.size(), 1u);
  EXPECT_EQ(answer.rows[0].cells[1], "Dutch");
}

TEST_F(ConsolidatorTest, RankerOrdersBySupportThenScore) {
  AnswerTable answer;
  AnswerRow low;
  low.cells = {"b"};
  low.support = 1;
  low.score = 0.5;
  AnswerRow high;
  high.cells = {"a"};
  high.support = 3;
  high.score = 0.2;
  AnswerRow mid;
  mid.cells = {"c"};
  mid.support = 1;
  mid.score = 0.9;
  answer.rows = {low, high, mid};
  RankRows(&answer);
  EXPECT_EQ(answer.rows[0].cells[0], "a");
  EXPECT_EQ(answer.rows[1].cells[0], "c");
  EXPECT_EQ(answer.rows[2].cells[0], "b");
}

}  // namespace
}  // namespace wwt
