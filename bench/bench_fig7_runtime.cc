// Copyright 2026 The WWT Authors
//
// Figure 7: per-query running time broken into the six pipeline stages
// (1st index probe, 1st table read, 2nd index probe, 2nd table read,
// column map, consolidate), queries ordered by increasing total time.
// In the paper, on a disk-backed corpus, table reads and consolidation
// dominate and column mapping is a small fraction. Here the corpus is in
// memory, so column mapping is not small: 37-39% of a 7.5-9.4 ms query
// at seed 42, scale 1, one thread (4-core x86 VM), second to the first
// table read (candidate building included) at about 48%. CI gates the
// ratio of the two (bench_compare, bench/baseline/BENCH_runtime.json).
//
// Queries are served through a WwtService batch; WWT_THREADS (default
// 1 for undistorted per-stage timing) sets the batch concurrency.
// WWT_SNAPSHOT routes corpus construction through the snapshot artifact;
// WWT_BENCH_JSON writes the machine-readable summary CI archives.

#include "bench/bench_common.h"
#include "util/logging.h"
#include "wwt/service.h"

using namespace wwt;
using namespace wwt::bench;

int main() {
  Experiment e = BuildExperiment();

  ServiceOptions service_options;
  service_options.num_threads = EnvThreads();
  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::Create(service_options);
  WWT_CHECK(service.ok()) << service.status();
  (*service)->SwapCorpus(CorpusHandle::Borrow(&e.corpus));

  std::vector<QueryRequest> requests;
  for (const EvalCase& c : e.cases) {
    QueryRequest request;
    for (const auto& col : c.resolved.spec.columns) {
      request.columns.push_back(col.keywords);
    }
    request.tag = c.resolved.spec.name;
    requests.push_back(std::move(request));
  }
  BatchResponse batch = (*service)->RunBatch(std::move(requests));

  struct Row {
    std::string name;
    StageTimer timing;
    double total;
  };
  std::vector<Row> rows;
  for (const QueryResponse& r : batch.responses) {
    WWT_CHECK(r.ok()) << r.status;
    rows.push_back({r.tag, r.timing, r.timing.Total()});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.total < b.total; });

  std::printf("=== Figure 7: running time breakdown (ms), queries by "
              "increasing total ===\n");
  std::printf("%-4s%10s%10s%10s%10s%10s%10s%10s\n", "#", "1stIdx",
              "1stRead", "2ndIdx", "2ndRead", "ColMap", "Consol",
              "Total");
  double stage_sum[kNumStages] = {0};
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-4zu", i + 1);
    for (int s = 0; s < kNumStages; ++s) {
      double ms = rows[i].timing.Get(static_cast<Stage>(s)) * 1e3;
      stage_sum[s] += ms;
      std::printf("%10.2f", ms);
    }
    std::printf("%10.2f\n", rows[i].total * 1e3);
  }
  double total_all = 0;
  for (double s : stage_sum) total_all += s;
  std::printf("\nStage shares: ");
  for (int s = 0; s < kNumStages; ++s) {
    std::printf("%s %.0f%%  ", kStageNames[s],
                total_all > 0 ? 100.0 * stage_sum[s] / total_all : 0.0);
  }
  std::printf("\nMean total: %.1f ms/query (paper: 6.7 s on a disk-backed "
              "25M-table corpus; shapes, not absolutes, transfer).\n",
              total_all / rows.size());
  std::printf("Batch serving: %d thread(s), %.1f QPS, stage p95 (ms): ",
              batch.stats.concurrency, batch.stats.qps);
  for (int s = 0; s < kNumStages; ++s) {
    std::printf("%s %.2f  ", kStageNames[s],
                batch.stats.stage_latency[s].p95 * 1e3);
  }
  std::printf("\n");

  // Machine-readable summary for the CI perf trajectory.
  if (FILE* json = OpenBenchJson()) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"fig7_runtime\",\n"
                 "  \"scale\": %.4f,\n"
                 "  \"seed\": %llu,\n"
                 "  \"tables\": %zu,\n"
                 "  \"queries\": %zu,\n"
                 "  \"threads\": %d,\n"
                 "  \"qps\": %.2f,\n"
                 "  \"mean_total_ms\": %.4f,\n"
                 "  \"corpus_seconds\": %.4f,\n"
                 "  \"corpus_from_snapshot\": %s,\n",
                 EnvScale(), static_cast<unsigned long long>(EnvSeed()),
                 e.corpus.store.size(), rows.size(),
                 batch.stats.concurrency, batch.stats.qps,
                 total_all / rows.size(), e.corpus_seconds,
                 e.loaded_from_snapshot ? "true" : "false");
    std::fprintf(json, "  \"stage_total_ms\": {");
    for (int s = 0; s < kNumStages; ++s) {
      std::fprintf(json, "\"%s\": %.4f%s", kStageNames[s], stage_sum[s],
                   s + 1 < kNumStages ? ", " : "");
    }
    std::fprintf(json, "},\n  \"stage_p95_ms\": {");
    for (int s = 0; s < kNumStages; ++s) {
      std::fprintf(json, "\"%s\": %.4f%s", kStageNames[s],
                   batch.stats.stage_latency[s].p95 * 1e3,
                   s + 1 < kNumStages ? ", " : "");
    }
    std::fprintf(json, "}\n}\n");
    std::fclose(json);
  }
  return 0;
}
