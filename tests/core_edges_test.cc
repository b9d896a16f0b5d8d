// Copyright 2026 The WWT Authors
//
// BuildCrossEdges against a dense reference: the straightforward
// all-column-pairs loop with one bipartite matching per table pair,
// kept here as the oracle. Every CrossEdge field must match bit for bit
// (memcmp on the doubles), in order, on hand-built tie and matcher
// cases and on the real candidate sets of the workload queries.

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/edges.h"
#include "corpus/corpus_generator.h"
#include "flow/bipartite_matcher.h"
#include "wwt/engine.h"

namespace wwt {
namespace {

/// The dense cross-edge construction: a cosine for every column pair of
/// every table pair and a matching for every table pair with a pair at
/// or above the floor. `matcher_runs` counts the matchings whose input
/// was not already one-to-one.
std::vector<CrossEdge> ReferenceCrossEdges(
    const std::vector<CandidateTable>& tables, const EdgeOptions& options,
    int* matcher_runs = nullptr) {
  const int n = static_cast<int>(tables.size());
  std::vector<CrossEdge> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const CandidateTable& a = tables[i];
      const CandidateTable& b = tables[j];
      if (a.num_cols == 0 || b.num_cols == 0) continue;
      std::vector<std::vector<double>> content(
          a.num_cols, std::vector<double>(b.num_cols, 0));
      std::vector<std::vector<double>> match_w = content;
      bool any = false;
      std::vector<int> left_deg(a.num_cols, 0), right_deg(b.num_cols, 0);
      for (int ca = 0; ca < a.num_cols; ++ca) {
        for (int cb = 0; cb < b.num_cols; ++cb) {
          double cs = SparseVector::Cosine(a.cols[ca].content_vec,
                                           b.cols[cb].content_vec);
          if (cs < options.sim_floor) continue;
          double hs = SparseVector::Cosine(a.cols[ca].header_vec,
                                           b.cols[cb].header_vec);
          content[ca][cb] = cs;
          match_w[ca][cb] = options.content_weight * cs +
                            (1.0 - options.content_weight) * hs;
          any = true;
          ++left_deg[ca];
          ++right_deg[cb];
        }
      }
      if (!any) continue;
      auto add_edge = [&](int ca, int cb) {
        CrossEdge e;
        e.t1 = i;
        e.c1 = ca;
        e.t2 = j;
        e.c2 = cb;
        e.sim = content[ca][cb];
        edges.push_back(e);
      };
      if (options.max_matching_only) {
        bool one_to_one = true;
        for (int d : left_deg) one_to_one &= d <= 1;
        for (int d : right_deg) one_to_one &= d <= 1;
        if (!one_to_one && matcher_runs != nullptr) ++*matcher_runs;
        std::vector<double> weight;
        for (const std::vector<double>& row : match_w) {
          weight.insert(weight.end(), row.begin(), row.end());
        }
        CapacitatedMatcher matcher;
        matcher.Solve(weight, std::vector<int>(b.num_cols, 1));
        for (int ca = 0; ca < a.num_cols; ++ca) {
          const int cb = matcher.left_match()[ca];
          if (cb >= 0 && content[ca][cb] >= options.sim_floor) {
            add_edge(ca, cb);
          }
        }
      } else {
        for (int ca = 0; ca < a.num_cols; ++ca) {
          for (int cb = 0; cb < b.num_cols; ++cb) {
            if (content[ca][cb] >= options.sim_floor) add_edge(ca, cb);
          }
        }
      }
    }
  }
  std::map<std::pair<int, int>, double> denom;
  for (const CrossEdge& e : edges) {
    denom[{e.t1, e.c1}] += e.sim;
    denom[{e.t2, e.c2}] += e.sim;
  }
  for (CrossEdge& e : edges) {
    if (options.normalize) {
      e.nsim_12 = e.sim / (options.nsim_lambda + denom[{e.t1, e.c1}]);
      e.nsim_21 = e.sim / (options.nsim_lambda + denom[{e.t2, e.c2}]);
    } else {
      e.nsim_12 = e.sim;
      e.nsim_21 = e.sim;
    }
  }
  return edges;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Compares the edge lists field by field; doubles by their bits.
void ExpectBitIdentical(const std::vector<CrossEdge>& actual,
                        const std::vector<CrossEdge>& expected,
                        const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (size_t k = 0; k < expected.size(); ++k) {
    const CrossEdge& x = actual[k];
    const CrossEdge& y = expected[k];
    EXPECT_TRUE(x.t1 == y.t1 && x.c1 == y.c1 && x.t2 == y.t2 &&
                x.c2 == y.c2)
        << where << " edge " << k << ": (" << x.t1 << "," << x.c1 << ")-("
        << x.t2 << "," << x.c2 << ") vs (" << y.t1 << "," << y.c1 << ")-("
        << y.t2 << "," << y.c2 << ")";
    EXPECT_TRUE(SameBits(x.sim, y.sim)) << where << " edge " << k;
    EXPECT_TRUE(SameBits(x.nsim_12, y.nsim_12)) << where << " edge " << k;
    EXPECT_TRUE(SameBits(x.nsim_21, y.nsim_21)) << where << " edge " << k;
  }
}

/// max_matching_only x normalize, plus a low and a high floor with
/// other content weights.
std::vector<std::pair<std::string, EdgeOptions>> OptionGrid() {
  std::vector<std::pair<std::string, EdgeOptions>> grid;
  for (bool matching : {true, false}) {
    for (bool normalize : {true, false}) {
      EdgeOptions o;
      o.max_matching_only = matching;
      o.normalize = normalize;
      grid.emplace_back(std::string(matching ? "matching" : "all-pairs") +
                            (normalize ? "/nsim" : "/raw"),
                        o);
    }
  }
  EdgeOptions low;
  low.sim_floor = 0.01;
  low.content_weight = 1.0;
  grid.emplace_back("floor=0.01/cw=1", low);
  EdgeOptions high;
  high.sim_floor = 0.6;
  high.content_weight = 0.3;
  grid.emplace_back("floor=0.6/cw=0.3", high);
  return grid;
}

/// Checks every option set; returns the reference's matcher runs.
int CheckAgainstReference(const std::vector<CandidateTable>& tables,
                          const std::string& where) {
  int matcher_runs = 0;
  for (const auto& [name, options] : OptionGrid()) {
    ExpectBitIdentical(BuildCrossEdges(tables, options),
                       ReferenceCrossEdges(tables, options, &matcher_runs),
                       where + " [" + name + "]");
  }
  return matcher_runs;
}

// ------------------------------------------------------ hand-built sets

class HandBuiltEdgesTest : public ::testing::Test {
 protected:
  void Add(const std::vector<std::string>& header,
           const std::vector<std::vector<std::string>>& body) {
    WebTable t;
    t.id = static_cast<TableId>(pending_.size());
    t.num_cols = static_cast<int>(
        !header.empty() ? header.size() : body.empty() ? 0 : body[0].size());
    if (!header.empty()) t.header_rows.push_back(header);
    t.body = body;
    index_.Add(t);
    pending_.push_back(std::move(t));
  }

  /// Builds the candidates once every table is indexed (final IDF).
  std::vector<CandidateTable> Build() {
    std::vector<CandidateTable> out;
    for (const WebTable& t : pending_) {
      out.push_back(CandidateTable::Build(t, index_));
    }
    return out;
  }

  TableIndex index_;
  std::vector<WebTable> pending_;
};

TEST_F(HandBuiltEdgesTest, DuplicateTablesTieExactly) {
  // Three copies of one table, and a fourth with the columns swapped:
  // matching column pairs across copies tie at cosine 1. The two
  // headerless tables have twin columns, so all four of their column
  // pairs tie and the matcher breaks the tie.
  for (int copy = 0; copy < 3; ++copy) {
    Add({"Country", "Capital"},
        {{"France", "Paris"}, {"Japan", "Tokyo"}, {"Peru", "Lima"}});
  }
  Add({"Capital", "Country"},
      {{"Paris", "France"}, {"Tokyo", "Japan"}, {"Lima", "Peru"}});
  for (int copy = 0; copy < 2; ++copy) {
    Add({}, {{"Oslo", "Oslo"}, {"Rome", "Rome"}, {"Bern", "Bern"}});
  }
  auto tables = Build();
  EXPECT_GT(CheckAgainstReference(tables, "duplicates"), 0);
  EXPECT_FALSE(BuildCrossEdges(tables).empty());
}

TEST_F(HandBuiltEdgesTest, ColumnOverlappingTwoNeighbourColumnsRunsMatcher) {
  // Column 1 of the first table holds the cells of both columns of the
  // next two tables, so both of its pairs with each clear the floor and
  // share a left column; the last table's one column does the same from
  // the right. The matcher pads with zero-weight pairs that sort before
  // the kept ones.
  Add({"Other", "Mixed"},
      {{"q1", "alpha beta"}, {"q2", "gamma delta"}, {"q3", "eps zeta"}});
  Add({"Left", "Right"},
      {{"alpha", "beta"}, {"gamma", "delta"}, {"eps", "zeta"}});
  Add({"Right", "Left"},
      {{"beta", "alpha"}, {"delta", "gamma"}, {"zeta", "eps"}});
  Add({"Merged"}, {{"alpha beta"}, {"gamma delta"}, {"eps zeta"}});
  auto tables = Build();
  EXPECT_GT(CheckAgainstReference(tables, "overlap"), 0);
}

TEST_F(HandBuiltEdgesTest, ZeroColumnAndEmptyBodyColumns) {
  Add({}, {});  // zero columns
  Add({"Name", "Blank", "City"},
      {{"ann", "", "rome"}, {"bob", "", "oslo"}, {"cyd", "", "kyiv"}});
  Add({"Who", "Where", "Nothing"},
      {{"ann", "rome", ""}, {"bob", "oslo", ""}, {"dee", "bern", ""}});
  Add({"Empty"}, {{""}, {""}});
  auto tables = Build();
  ASSERT_EQ(tables[0].num_cols, 0);
  CheckAgainstReference(tables, "zero/empty");
  EXPECT_EQ(BuildCrossEdges(tables).size(), 2u);
}

TEST(RadixEdgesTest, TermIdsInEveryDigitGroupMatchReference) {
  // The postings are sorted by term 11 bits at a time. These content
  // terms differ in each of the three digit groups, up to 0xFFFFFFFE,
  // so a pass that is skipped or ordered wrongly breaks the term runs.
  const std::vector<TermId> ids = {
      0,          1,          2047,       2048,       4095,
      1u << 21,   (1u << 22) - 1, 1u << 22, (1u << 22) + 1,
      (1u << 22) + 2048,      0x7FFFFFFF, 0x80000000, 0xFFFFF7FF,
      0xFFFFF800, 0xFFFFFFFD, 0xFFFFFFFE};
  uint32_t state = 12345;
  auto next = [&state] {
    state = state * 1103515245u + 12345u;
    return state >> 16;
  };
  std::vector<CandidateTable> tables(7);
  for (size_t t = 0; t < tables.size(); ++t) {
    CandidateTable& table = tables[t];
    table.table.id = static_cast<TableId>(t);
    table.num_cols = 2 + static_cast<int>(t % 2);
    table.cols.resize(table.num_cols);
    for (CandidateColumn& col : table.cols) {
      for (TermId id : ids) {
        if (next() % 3 == 0) continue;
        col.content_vec.Add(id, 1.0 + 0.25 * (next() % 5));
        if (next() % 4 == 0) col.header_vec.Add(id, 1.0);
      }
      col.content_vec.Compact();
      col.header_vec.Compact();
    }
  }
  CheckAgainstReference(tables, "digit groups");
  EXPECT_FALSE(BuildCrossEdges(tables).empty());
}

// ------------------------------------------------ workload candidate sets

TEST(WorkloadEdgesTest, EveryQueryCandidateSetMatchesReference) {
  CorpusOptions corpus_options;
  corpus_options.seed = 42;
  corpus_options.scale = 0.25;
  const Corpus corpus = GenerateCorpus(corpus_options);
  ASSERT_FALSE(corpus.queries.empty());
  WwtEngine engine(&corpus.store, corpus.index.get(), {});
  int matcher_runs = 0;
  size_t edges = 0;
  for (size_t i = 0; i < corpus.queries.size(); ++i) {
    std::vector<std::string> columns;
    for (const QueryColumnSpec& col : corpus.queries[i].spec.columns) {
      columns.push_back(col.keywords);
    }
    const RetrievalResult retrieval =
        engine.Retrieve(Query::Parse(columns, *corpus.index), nullptr);
    matcher_runs += CheckAgainstReference(
        retrieval.tables, "query #" + std::to_string(i) + " " +
                              corpus.queries[i].spec.name);
    edges += BuildCrossEdges(retrieval.tables).size();
    if (HasFailure()) return;
  }
  // Both halves of the construction are exercised: one-to-one table
  // pairs and pairs that need the matcher.
  EXPECT_GT(matcher_runs, 0);
  EXPECT_GT(edges, 0u);
}

}  // namespace
}  // namespace wwt
