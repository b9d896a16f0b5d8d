// Copyright 2026 The WWT Authors
//
// End-to-end engine and consolidator tests on a small generated corpus.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
#include "fresh/delta_shard.h"
#include "index/corpus_set.h"
#include "table/labels.h"
#include "wwt/engine.h"

namespace wwt {
namespace {

CorpusOptions EngineCorpusOptions() {
  CorpusOptions options;
  options.seed = 3;
  options.scale = 0.25;
  return options;
}

class EngineTest : public ::testing::Test {
 protected:
  static const Corpus& GetCorpus() {
    static Corpus* corpus =
        new Corpus(GenerateCorpus(EngineCorpusOptions()));
    return *corpus;
  }
};

/// Every workload query's columns.
std::vector<std::vector<std::string>> WorkloadColumns(const Corpus& c) {
  std::vector<std::vector<std::string>> out;
  for (const ResolvedQuery& rq : c.queries) {
    std::vector<std::string> columns;
    for (const QueryColumnSpec& col : rq.spec.columns) {
      columns.push_back(col.keywords);
    }
    out.push_back(std::move(columns));
  }
  return out;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Execute hands the quick pass's solves to Map. Its retrieval must be
/// `retrieval` (Retrieve's, which no inference mode changes) and its
/// mapping a from-scratch Map of its own candidates, field by field,
/// doubles by their bits.
void ExpectHandOffExact(WwtEngine& engine,
                        const std::vector<std::string>& columns,
                        const RetrievalResult& retrieval,
                        const std::string& where) {
  const QueryExecution exec = engine.Execute(columns);
  EXPECT_TRUE(exec.retrieval.shard_status.ok()) << where;
  EXPECT_EQ(exec.retrieval.from_first_probe, retrieval.from_first_probe)
      << where;
  EXPECT_EQ(exec.retrieval.used_second_probe, retrieval.used_second_probe)
      << where;
  EXPECT_EQ(exec.retrieval.tables.size(), retrieval.tables.size()) << where;
  for (size_t t = 0; t < retrieval.tables.size() &&
                     t < exec.retrieval.tables.size();
       ++t) {
    EXPECT_EQ(exec.retrieval.tables[t].table.id,
              retrieval.tables[t].table.id)
        << where << " candidate " << t;
  }

  ColumnMapper mapper(&engine.stats(), engine.options().mapper);
  const MapResult want = mapper.Map(exec.query, exec.retrieval.tables);
  EXPECT_TRUE(SameBits(exec.mapping.objective, want.objective))
      << where << ": objective " << exec.mapping.objective << " vs "
      << want.objective;
  EXPECT_EQ(exec.mapping.tables.size(), want.tables.size()) << where;
  for (size_t t = 0;
       t < want.tables.size() && t < exec.mapping.tables.size(); ++t) {
    const TableMapping& got = exec.mapping.tables[t];
    const TableMapping& expected = want.tables[t];
    EXPECT_EQ(got.id, expected.id) << where << " table " << t;
    EXPECT_EQ(got.relevant, expected.relevant) << where << " table " << t;
    EXPECT_EQ(got.labels, expected.labels) << where << " table " << t;
    EXPECT_TRUE(SameBits(got.relevance_prob, expected.relevance_prob))
        << where << " table " << t;
  }
}

TEST_F(EngineTest, ExecuteMapsLikeAFreshMapInEveryMode) {
  const Corpus& c = GetCorpus();
  const std::vector<std::vector<std::string>> queries = WorkloadColumns(c);
  ASSERT_FALSE(queries.empty());
  // Every mode at the default cap; then a cap below the first probe's
  // table count, which truncates the handed-on solves.
  for (int max_candidates : {150, 20}) {
    std::vector<InferenceMode> modes = {InferenceMode::kTableCentric};
    if (max_candidates == 150) {
      modes.insert(modes.end(), {InferenceMode::kIndependent,
                                 InferenceMode::kAlphaExpansion,
                                 InferenceMode::kBeliefPropagation,
                                 InferenceMode::kTrws});
    }
    std::vector<WwtEngine> engines;
    for (InferenceMode mode : modes) {
      EngineOptions options;
      options.mapper.mode = mode;
      options.max_candidates = max_candidates;
      engines.emplace_back(&c.store, c.index.get(), options);
    }
    int truncated = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const RetrievalResult retrieval = engines[0].Retrieve(
          Query::Parse(queries[i], *c.index), nullptr);
      truncated += static_cast<int>(retrieval.tables.size()) <
                   retrieval.from_first_probe;
      for (size_t m = 0; m < modes.size(); ++m) {
        // Message passing is the slow inference (Table 2); every third
        // query covers how it consumes the solves.
        const bool message_passing =
            modes[m] == InferenceMode::kBeliefPropagation ||
            modes[m] == InferenceMode::kTrws;
        if (message_passing && i % 3 != 0) continue;
        ExpectHandOffExact(engines[m], queries[i], retrieval,
                           std::string(InferenceModeToString(modes[m])) +
                               " cap " + std::to_string(max_candidates) +
                               " query #" + std::to_string(i));
        if (HasFailure()) return;
      }
    }
    if (max_candidates < EngineOptions().probe1_k) {
      EXPECT_GT(truncated, 0);
    }
  }
}

TEST(EngineHandOffTest, ExactOverAFreshnessOverlay) {
  Corpus corpus = GenerateCorpus(EngineCorpusOptions());
  const std::vector<std::vector<std::string>> queries =
      WorkloadColumns(corpus);
  std::shared_ptr<const CorpusSet> set =
      CorpusSet::FromHandle(CorpusHandle::Own(std::move(corpus), 0xFEED));
  std::unique_ptr<fresh::DeltaShard> delta =
      fresh::DeltaShard::Open(set).value();
  auto table = [](const std::string& title,
                  const std::vector<std::string>& header,
                  const std::vector<std::vector<std::string>>& body) {
    WebTable t;
    t.title_rows.push_back(title);
    t.header_rows.push_back(header);
    t.body = body;
    t.num_cols = static_cast<int>(header.size());
    t.context.push_back({"fresh table about " + title, 1.0});
    return t;
  };
  ASSERT_TRUE(delta
                  ->AddTable(table("countries and capitals",
                                   {"country", "capital", "population"},
                                   {{"Atlantis", "Poseidonia", "1200"},
                                    {"Elbonia", "Mudville", "800"}}))
                  .ok());
  WebTable updated = table("dog breeds", {"dog breed", "origin"},
                           {{"Beagle", "England"}, {"Akita", "Japan"}});
  updated.id = 0;
  ASSERT_TRUE(delta->UpdateTable(updated).ok());
  fresh::SummaryOverride patch;
  patch.title = "country population list";
  ASSERT_TRUE(delta->OverrideSummary(3, patch).ok());
  ASSERT_TRUE(delta->TombstoneTable(4).ok());
  std::shared_ptr<const fresh::DeltaView> view = delta->view();

  WwtEngine engine(set->shard_refs(), &view->stats(), {}, nullptr,
                   view.get());
  int delta_candidates = 0;
  std::vector<std::vector<std::string>> all = queries;
  all.push_back({"country", "capital"});
  for (size_t i = 0; i < all.size(); ++i) {
    const RetrievalResult r =
        engine.Retrieve(Query::Parse(all[i], engine.stats()), nullptr);
    ExpectHandOffExact(engine, all[i], r,
                       "overlay query #" + std::to_string(i));
    if (::testing::Test::HasFailure()) return;
    for (int t = 0; t < r.from_first_probe; ++t) {
      delta_candidates += view->Contains(r.tables[t].table.id);
    }
  }
  // Delta tables were among the first-probe tables whose solves Execute
  // handed on.
  EXPECT_GT(delta_candidates, 0);
}

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
