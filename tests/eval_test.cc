// Copyright 2026 The WWT Authors

#include <gtest/gtest.h>

#include "eval/groups.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "table/labels.h"

namespace wwt {
namespace {

// --------------------------------------------------------------- F1Error

TEST(MetricsTest, PerfectPredictionIsZeroError) {
  std::vector<std::vector<int>> labels = {{0, 1, kLabelNa},
                                          {kLabelNr, kLabelNr}};
  EXPECT_DOUBLE_EQ(F1Error(labels, labels), 0.0);
}

TEST(MetricsTest, EmptyPredictionAgainstEmptyTruthIsZero) {
  std::vector<std::vector<int>> nr = {{kLabelNr}, {kLabelNr, kLabelNr}};
  EXPECT_DOUBLE_EQ(F1Error(nr, nr), 0.0);
}

TEST(MetricsTest, MissingEverythingIsFullError) {
  std::vector<std::vector<int>> truth = {{0, 1}};
  std::vector<std::vector<int>> pred = {{kLabelNr, kLabelNr}};
  EXPECT_DOUBLE_EQ(F1Error(pred, truth), 100.0);
}

TEST(MetricsTest, HalfCorrectMatchesFormula) {
  // pred maps one of two truth columns: correct=1, pred=1, truth=2
  // error = 100 * (1 - 2*1/(1+2)) = 33.33.
  std::vector<std::vector<int>> truth = {{0, 1}};
  std::vector<std::vector<int>> pred = {{0, kLabelNa}};
  EXPECT_NEAR(F1Error(pred, truth), 100.0 * (1.0 - 2.0 / 3.0), 1e-9);
}

TEST(MetricsTest, WrongLabelCountsAgainstBothSides) {
  std::vector<std::vector<int>> truth = {{0}};
  std::vector<std::vector<int>> pred = {{1}};
  EXPECT_DOUBLE_EQ(F1Error(pred, truth), 100.0);
}

TEST(MetricsTest, SpuriousPredictionPenalized) {
  // Nothing relevant; method maps one column anyway.
  std::vector<std::vector<int>> truth = {{kLabelNr, kLabelNr}};
  std::vector<std::vector<int>> pred = {{0, kLabelNa}};
  EXPECT_DOUBLE_EQ(F1Error(pred, truth), 100.0);
}

// ------------------------------------------------------------ RowSetError

TEST(MetricsTest, RowSetErrorZeroForIdenticalKeys) {
  AnswerTable a, b;
  AnswerRow r1;
  r1.cells = {"Tasman", "Dutch"};
  AnswerRow r2;
  r2.cells = {"Cook", "British"};
  a.rows = {r1, r2};
  b.rows = {r2, r1};  // order must not matter
  EXPECT_DOUBLE_EQ(RowSetError(a, b), 0.0);
}

TEST(MetricsTest, RowSetErrorNormalizesKeys) {
  AnswerTable a, b;
  AnswerRow r1;
  r1.cells = {"Abel  Tasman"};
  AnswerRow r2;
  r2.cells = {"abel tasman"};
  a.rows = {r1};
  b.rows = {r2};
  EXPECT_DOUBLE_EQ(RowSetError(a, b), 0.0);
}

TEST(MetricsTest, RowSetErrorFullForDisjoint) {
  AnswerTable a, b;
  AnswerRow r1;
  r1.cells = {"x"};
  AnswerRow r2;
  r2.cells = {"y"};
  a.rows = {r1};
  b.rows = {r2};
  EXPECT_DOUBLE_EQ(RowSetError(a, b), 100.0);
}

TEST(MetricsTest, RowSetErrorBothEmptyIsZero) {
  AnswerTable a, b;
  EXPECT_DOUBLE_EQ(RowSetError(a, b), 0.0);
}

// ---------------------------------------------------------------- groups

TEST(GroupsTest, EasyQueriesSeparated) {
  // Query 0: all methods equal -> easy. Query 1..3: spread -> hard.
  std::vector<double> basic = {10, 80, 50, 20};
  std::vector<double> other = {10.2, 60, 40, 10};
  QueryGroups g = GroupQueries(basic, {basic, other}, 2);
  ASSERT_EQ(g.easy.size(), 1u);
  EXPECT_EQ(g.easy[0], 0);
  size_t hard_total = 0;
  for (const auto& grp : g.hard) hard_total += grp.size();
  EXPECT_EQ(hard_total, 3u);
}

TEST(GroupsTest, HardGroupsDescendByBasicError) {
  std::vector<double> basic = {90, 10, 50, 70, 30};
  std::vector<double> other = {0, 0, 0, 0, 0};
  QueryGroups g = GroupQueries(basic, {basic, other}, 2);
  ASSERT_EQ(g.hard.size(), 2u);
  // First group holds the highest-error queries.
  double first_mean = MeanOver(g.hard[0], basic);
  double second_mean = MeanOver(g.hard[1], basic);
  EXPECT_GT(first_mean, second_mean);
}

TEST(GroupsTest, MeanOverEmptyIsZero) {
  EXPECT_DOUBLE_EQ(MeanOver({}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(MeanOver({0, 2}, {1, 2, 3}), 2.0);
}

TEST(GroupsTest, FewerHardQueriesThanGroups) {
  std::vector<double> basic = {90, 10};
  std::vector<double> other = {0, 9.8};
  QueryGroups g = GroupQueries(basic, {basic, other}, 7);
  size_t hard_total = 0;
  for (const auto& grp : g.hard) hard_total += grp.size();
  EXPECT_EQ(hard_total, 1u);  // query 1 is easy (spread 0.2)
}

// ----------------------------------------------------------- EvalHarness

TEST(EvalHarnessTest, BuildCasesMatchSerialRetrieve) {
  // Every method is evaluated on these candidate sets, so they must be
  // exactly serial WwtEngine::Retrieve's, at any thread count.
  CorpusOptions options;
  options.seed = 3;
  options.scale = 0.25;
  const Corpus corpus = GenerateCorpus(options);
  ASSERT_FALSE(corpus.queries.empty());

  WwtEngine engine(&corpus.store, corpus.index.get(), {});
  std::vector<RetrievalResult> serial;
  for (const ResolvedQuery& rq : corpus.queries) {
    std::vector<std::string> columns;
    for (const QueryColumnSpec& col : rq.spec.columns) {
      columns.push_back(col.keywords);
    }
    serial.push_back(
        engine.Retrieve(Query::Parse(columns, *corpus.index), nullptr));
  }

  for (int threads : {1, 4}) {
    const std::vector<EvalCase> cases =
        EvalHarness(&corpus, {}, threads).BuildCases();
    ASSERT_EQ(cases.size(), serial.size());
    for (size_t i = 0; i < cases.size(); ++i) {
      const RetrievalResult& got = cases[i].retrieval;
      const RetrievalResult& want = serial[i];
      EXPECT_EQ(cases[i].resolved.spec.name, corpus.queries[i].spec.name);
      ASSERT_EQ(got.tables.size(), want.tables.size())
          << threads << " threads, query #" << i;
      for (size_t t = 0; t < want.tables.size(); ++t) {
        EXPECT_EQ(got.tables[t].table.id, want.tables[t].table.id)
            << threads << " threads, query #" << i << " candidate " << t;
      }
      EXPECT_EQ(got.from_first_probe, want.from_first_probe);
      EXPECT_EQ(got.new_from_second_probe, want.new_from_second_probe);
      EXPECT_EQ(got.used_second_probe, want.used_second_probe);
      EXPECT_EQ(cases[i].truth.size(), want.tables.size());
    }
  }
}

}  // namespace
}  // namespace wwt
