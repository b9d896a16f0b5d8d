// Copyright 2026 The WWT Authors
//
// Snapshot round-trip fidelity at serving granularity: WwtService over
// a loaded snapshot must produce byte-identical results — candidate
// sets, column mappings, and consolidated AnswerTables — to serial
// WwtEngine::Execute over the freshly built corpus, for the full Table 1
// eval workload. Also checks the headline economics: loading the
// artifact is faster than regenerating the corpus. Labeled "slow" in
// CTest (a full-workload corpus build); CI runs it on pushes to main.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/harness.h"
#include "index/snapshot.h"
#include "util/logging.h"
#include "util/timer.h"
#include "wwt/engine.h"
#include "wwt/service.h"

namespace wwt {
namespace {

CorpusOptions FullWorkloadOptions() {
  CorpusOptions options;
  options.seed = 3;
  options.scale = 0.25;
  return options;
}

class SnapshotRoundTripTest : public ::testing::Test {
 protected:
  struct Shared {
    Corpus fresh;
    Corpus loaded;
    double build_seconds = 0;
    double load_seconds = 0;
  };

  static const Shared& GetShared() {
    static Shared* shared = [] {
      auto* s = new Shared;
      const std::string path =
          ::testing::TempDir() + "wwt_roundtrip_full.wwtsnap";
      WallTimer build_timer;
      s->fresh = GenerateCorpus(FullWorkloadOptions());
      s->build_seconds = build_timer.ElapsedSeconds();
      WWT_CHECK_OK(SaveSnapshot(s->fresh, FullWorkloadOptions(), path));
      WallTimer load_timer;
      StatusOr<Corpus> loaded = LoadSnapshot(path);
      WWT_CHECK(loaded.ok()) << loaded.status().ToString();
      s->load_seconds = load_timer.ElapsedSeconds();
      s->loaded = std::move(loaded).value();
      std::remove(path.c_str());
      return s;
    }();
    return *shared;
  }

  static std::vector<std::vector<std::string>> WorkloadQueries(
      const Corpus& corpus) {
    std::vector<std::vector<std::string>> queries;
    for (const ResolvedQuery& rq : corpus.queries) {
      std::vector<std::string> cols;
      for (const QueryColumnSpec& col : rq.spec.columns) {
        cols.push_back(col.keywords);
      }
      queries.push_back(std::move(cols));
    }
    return queries;
  }
};

// Snapshot fidelity and API equivalence in one check: the service over
// the loaded snapshot against the simplest oracle, one engine executing
// the workload serially over the built corpus.
TEST_F(SnapshotRoundTripTest, ServiceOverLoadedMatchesSerialEngineOnBuilt) {
  const Shared& s = GetShared();
  const auto queries = WorkloadQueries(s.fresh);
  ASSERT_FALSE(queries.empty());
  ASSERT_EQ(WorkloadQueries(s.loaded), queries);

  WwtEngine engine(&s.fresh.store, s.fresh.index.get(), {});
  std::vector<std::string> serial;
  for (const auto& q : queries) {
    serial.push_back(ResultDigest(engine.Execute(q)));
  }

  ServiceOptions service_options;
  service_options.num_threads = 2;
  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::Create(service_options);
  ASSERT_TRUE(service.ok()) << service.status();
  (*service)->SwapCorpus(CorpusHandle::Borrow(&s.loaded));
  BatchResponse batch = (*service)->RunBatch(queries);

  ASSERT_EQ(batch.responses.size(), queries.size());
  EXPECT_EQ(batch.stats.num_queries, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch.responses[i].ok()) << batch.responses[i].status;
    EXPECT_EQ(ResultDigest(batch.responses[i]), serial[i])
        << "query " << i << " (" << s.fresh.queries[i].spec.name << ")";
  }
}

TEST_F(SnapshotRoundTripTest, EvalCasesMatchIncludingTruthLabels) {
  const Shared& s = GetShared();
  EvalHarness fresh_harness(&s.fresh, {}, /*num_threads=*/2);
  EvalHarness loaded_harness(&s.loaded, {}, /*num_threads=*/2);
  std::vector<EvalCase> fresh_cases = fresh_harness.BuildCases();
  std::vector<EvalCase> loaded_cases = loaded_harness.BuildCases();
  ASSERT_EQ(fresh_cases.size(), loaded_cases.size());
  for (size_t i = 0; i < fresh_cases.size(); ++i) {
    ASSERT_EQ(fresh_cases[i].retrieval.tables.size(),
              loaded_cases[i].retrieval.tables.size())
        << "case " << i;
    for (size_t t = 0; t < fresh_cases[i].retrieval.tables.size(); ++t) {
      EXPECT_EQ(fresh_cases[i].retrieval.tables[t].table.id,
                loaded_cases[i].retrieval.tables[t].table.id);
    }
    // Ground truth survived the snapshot: identical labels everywhere.
    EXPECT_EQ(fresh_cases[i].truth, loaded_cases[i].truth) << "case " << i;
  }
}

TEST_F(SnapshotRoundTripTest, LoadIsFasterThanRebuild) {
  const Shared& s = GetShared();
  std::printf("[roundtrip] build %.3f s vs load %.3f s (%.1fx)\n",
              s.build_seconds, s.load_seconds,
              s.load_seconds > 0 ? s.build_seconds / s.load_seconds : 0.0);
  // The headline acceptance number (>=10x) is measured at WWT_SCALE=1 by
  // bench_throughput; at this scale we assert the direction with margin
  // so the test is immune to timer noise.
  EXPECT_LT(s.load_seconds * 2, s.build_seconds);
}

}  // namespace
}  // namespace wwt
