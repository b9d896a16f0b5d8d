// Copyright 2026 The WWT Authors
//
// Batch query serving through WwtService: build a corpus once (or
// cold-start it from a WWT_SNAPSHOT artifact), install it as the
// service's corpus snapshot, then answer the whole Table 1 workload in
// one RunBatch and print the aggregate serving stats — the programmatic
// face of the request/response serving layer.
//
// Usage: batch_serving [scale] [threads]
// Env:   WWT_SNAPSHOT=path.wwtsnap — build-or-load the corpus through a
//        snapshot file instead of regenerating it every run.

#include <cstdio>
#include <cstdlib>

#include "corpus/corpus_generator.h"
#include "index/snapshot.h"
#include "wwt/service.h"

int main(int argc, char** argv) {
  wwt::CorpusOptions corpus_options;
  corpus_options.scale = argc > 1 ? std::atof(argv[1]) : 0.5;

  const std::string snapshot = wwt::SnapshotPathFromEnv();
  std::printf(snapshot.empty()
                  ? "Building corpus (scale %.2f)...\n"
                  : "Build-or-load via WWT_SNAPSHOT (scale %.2f)...\n",
              corpus_options.scale);
  wwt::BuildOrLoadResult result =
      wwt::BuildOrLoadCorpus(corpus_options, snapshot);
  std::printf("%s in %.2f s\n",
              result.loaded ? "Loaded snapshot" : "Built",
              result.seconds);

  // One service for the process: a thread pool over an immutable corpus
  // snapshot (content-hashed when it came from a .wwtsnap artifact).
  wwt::ServiceOptions service_options;
  service_options.num_threads =
      argc > 2 ? std::atoi(argv[2]) : wwt::ThreadPool::DefaultNumThreads();
  auto service = wwt::WwtService::Create(service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "batch_serving: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  (*service)->SwapCorpus(wwt::CorpusHandle::Own(
      std::move(result.corpus), result.info.content_hash, snapshot));
  const std::shared_ptr<const wwt::CorpusSet> corpus =
      (*service)->corpus();
  std::printf("%llu tables ready, serving with %d thread(s).\n\n",
              static_cast<unsigned long long>(corpus->num_tables()),
              (*service)->num_threads());

  // The whole workload as one batch of tagged requests.
  std::vector<wwt::QueryRequest> requests;
  for (const wwt::ResolvedQuery& rq : corpus->queries()) {
    wwt::QueryRequest request;
    for (const wwt::QueryColumnSpec& col : rq.spec.columns) {
      request.columns.push_back(col.keywords);
    }
    request.tag = rq.spec.name;
    requests.push_back(std::move(request));
  }
  wwt::BatchResponse batch = (*service)->RunBatch(std::move(requests));

  for (const wwt::QueryResponse& r : batch.responses) {
    if (!r.ok()) {
      std::printf("%-32.32s ERROR %s\n", r.tag.c_str(),
                  r.status.ToString().c_str());
      continue;
    }
    std::printf("%-32.32s %4zu rows  %6.1f ms  fp %016llx\n",
                r.tag.c_str(), r.answer.rows.size(),
                r.timing.Total() * 1e3,
                static_cast<unsigned long long>(r.fingerprint));
  }

  const wwt::BatchStats& s = batch.stats;
  std::printf("\n%zu queries in %.2f s — %.1f QPS at concurrency %d\n",
              s.num_queries, s.wall_seconds, s.qps, s.concurrency);
  std::printf("latency ms: mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f\n",
              s.latency.mean * 1e3, s.latency.p50 * 1e3,
              s.latency.p95 * 1e3, s.latency.p99 * 1e3);
  std::printf("stage totals (s):\n");
  for (int st = 0; st < wwt::kNumStages; ++st) {
    const wwt::Stage stage = static_cast<wwt::Stage>(st);
    if (!s.total_stage_time.ran(stage)) continue;
    std::printf("  %-16s %8.3f\n", wwt::kStageNames[st],
                s.total_stage_time.Get(stage));
  }
  return batch.all_ok() ? 0 : 1;
}
