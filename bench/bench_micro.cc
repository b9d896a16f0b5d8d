// Copyright 2026 The WWT Authors
//
// google-benchmark micro benchmarks for the substrates: HTML parsing,
// table extraction, index probes, bipartite matching + max-marginals,
// and the constrained cut. These bound the per-query costs of Fig. 7.

#include <benchmark/benchmark.h>

#include "corpus/knowledge_base.h"
#include "corpus/page_generator.h"
#include "extract/harvester.h"
#include "flow/bipartite_matcher.h"
#include "flow/constrained_cut.h"
#include "html/html_parser.h"
#include "index/table_index.h"
#include "util/random.h"

namespace wwt {
namespace {

std::string SamplePageHtml() {
  static const std::string* kHtml = [] {
    KnowledgeBase* kb = new KnowledgeBase(123);
    PageGenerator gen(kb);
    Random rng(5);
    return new std::string(
        gen.Generate(kb->FindTopic("countries"), {0, 1, 2, 3}, {"country"},
                     PageNoise{}, &rng, "http://bench/1")
            .html);
  }();
  return *kHtml;
}

void BM_HtmlParse(benchmark::State& state) {
  std::string html = SamplePageHtml();
  for (auto _ : state) {
    Document doc = ParseHtml(html);
    benchmark::DoNotOptimize(doc.root());
  }
  state.SetBytesProcessed(state.iterations() * html.size());
}
BENCHMARK(BM_HtmlParse);

void BM_HarvestPage(benchmark::State& state) {
  std::string html = SamplePageHtml();
  for (auto _ : state) {
    auto tables = HarvestPage(html, "http://bench/1");
    benchmark::DoNotOptimize(tables.data());
  }
  state.SetBytesProcessed(state.iterations() * html.size());
}
BENCHMARK(BM_HarvestPage);

class IndexFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (index) return;
    index = std::make_unique<TableIndex>();
    KnowledgeBase kb(9);
    PageGenerator gen(&kb);
    Random rng(1);
    TableId id = 0;
    for (int p = 0; p < 300; ++p) {
      int topic = static_cast<int>(rng.Uniform(kb.num_topics()));
      auto page = gen.Generate(topic, {0}, {}, PageNoise{}, &rng,
                               "http://bench/" + std::to_string(p));
      for (WebTable& t : HarvestPage(page.html, page.url)) {
        t.id = id++;
        index->Add(t);
      }
    }
  }
  std::unique_ptr<TableIndex> index;
};

BENCHMARK_F(IndexFixture, DisjunctiveSearch)(benchmark::State& state) {
  for (auto _ : state) {
    auto hits = index->Search({"country", "currency", "population"}, 60);
    benchmark::DoNotOptimize(hits.data());
  }
}

BENCHMARK_F(IndexFixture, ConjunctiveProbe)(benchmark::State& state) {
  for (auto _ : state) {
    auto docs = index->MatchAllInHeaderOrContext({"country currency"});
    benchmark::DoNotOptimize(docs.data());
  }
}

/// A column-mapper-shaped instance: `cols` table columns against
/// `labels` unit query labels plus an na that takes every column.
void MatcherInstance(int cols, int labels, std::vector<double>* weight,
                     std::vector<int>* right_cap) {
  Random rng(7);
  right_cap->assign(labels, 1);
  right_cap->push_back(cols);  // na
  weight->resize(cols * (labels + 1));
  for (double& w : *weight) w = rng.NextDouble();
}

/// The workload's shapes (2-6 columns x up to 6 labels) and two larger
/// ones; the matcher is reused across iterations, as its callers do.
void MatcherShapes(benchmark::internal::Benchmark* b) {
  for (int cols : {2, 4, 6}) {
    for (int labels : {2, 4, 6}) b->Args({cols, labels});
  }
  b->Args({8, 8})->Args({16, 16});
}

void BM_BipartiteMatching(benchmark::State& state) {
  std::vector<double> weight;
  std::vector<int> right_cap;
  MatcherInstance(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)), &weight, &right_cap);
  CapacitatedMatcher matcher;
  for (auto _ : state) {
    matcher.Solve(weight, right_cap);
    benchmark::DoNotOptimize(matcher.total_weight());
  }
}
BENCHMARK(BM_BipartiteMatching)->Apply(MatcherShapes);

void BM_MaxMarginals(benchmark::State& state) {
  std::vector<double> weight, mu;
  std::vector<int> right_cap;
  MatcherInstance(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)), &weight, &right_cap);
  CapacitatedMatcher matcher;
  for (auto _ : state) {
    matcher.Solve(weight, right_cap);
    matcher.MaxMarginals(&mu);
    benchmark::DoNotOptimize(mu.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaxMarginals)->Apply(MatcherShapes);

void BM_ConstrainedCut(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Random rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    ConstrainedMinCut cut(n);
    for (int v = 0; v < n; ++v) {
      cut.AddTerminalCaps(v, rng.NextDouble() * 10, rng.NextDouble() * 10);
    }
    for (int k = 0; k < 2 * n; ++k) {
      int u = static_cast<int>(rng.Uniform(n));
      int v = static_cast<int>(rng.Uniform(n));
      if (u != v) cut.AddPairwise(u, v, rng.NextDouble(), 0);
    }
    for (int g = 0; g + 3 <= n; g += 3) cut.AddGroup({g, g + 1, g + 2});
    state.ResumeTiming();
    benchmark::DoNotOptimize(cut.Solve().cut_value);
  }
}
BENCHMARK(BM_ConstrainedCut)->Arg(9)->Arg(30);

}  // namespace
}  // namespace wwt

BENCHMARK_MAIN();
