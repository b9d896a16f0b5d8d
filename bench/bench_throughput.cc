// Copyright 2026 The WWT Authors
//
// Batch-serving throughput: the Table 1 workload replicated into a batch
// and pushed through WwtService at increasing thread counts. Reports
// QPS, speedup over 1 thread, and p50/p95/p99 latency per sweep point,
// verifies that every concurrent result is byte-identical to serial
// WwtEngine::Execute, and measures the Submit-path overhead — the
// request/response service wrapper (validation, fingerprinting, futures)
// vs direct engine execution — which must stay within noise.
//
// A second sweep measures the fingerprint-keyed response cache on a
// repeated workload: the same unique queries twice through a cached
// service — pass 1 cold (every query executes the pipeline, the miss
// path), pass 2 warm (every query an LRU hit). Both passes are verified
// byte-identical to the serial reference; miss/hit QPS and their ratio
// land in BENCH_throughput.json (`response_cache`). The hit QPS is the
// median of further warm passes, the cache's steady state.
//
// A third sweep partitions the same corpus into N ∈ {1, 2, 4, 8}
// shards behind one service (the wwt_indexer --shards serving shape):
// every point is byte-verified against the serial reference — global
// IDF makes the scatter-gathered merge order-independent — and QPS
// relative to the unsharded engine lands in `shard_fanout`.
//
// When WWT_SNAPSHOT is set the corpus is build-or-loaded through the
// snapshot file and the bench additionally measures the cold-start
// ratio: snapshot load vs corpus rebuild + index build (the paper's
// build-once / serve-frozen split, §2.1).
//
// Extra knobs (on top of bench_common's WWT_SCALE / WWT_SEED /
// WWT_SNAPSHOT / WWT_BENCH_JSON):
//   WWT_BATCH_MULT        — workload replication factor (default 4)
//   WWT_MAX_THREADS       — top of the thread sweep (default: max(4, hw))
//   WWT_MEASURE_COLD_START — when 1 and the snapshot loaded warm, also
//                            time a fresh rebuild for the load-vs-build
//                            ratio (default 0: warm runs stay cheap; CI's
//                            bench job sets it)

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/query.h"
#include "index/snapshot.h"
#include "util/logging.h"
#include "wwt/service.h"

using namespace wwt;
using namespace wwt::bench;

namespace {

struct SweepPoint {
  int threads = 0;
  double qps = 0;
  double speedup = 0;
  double wall_seconds = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

}  // namespace

int main() {
  CorpusOptions corpus_options;
  corpus_options.seed = EnvSeed();
  corpus_options.scale = EnvScale();

  // Obtain the corpus; with a snapshot path, measure both sides of the
  // cold-start split so the artifact's payoff is a reported number.
  const std::string snapshot_path = SnapshotPathFromEnv();
  BuildOrLoadResult result =
      BuildOrLoadCorpus(corpus_options, snapshot_path);
  Corpus corpus = std::move(result.corpus);
  // format_version stays 0 when the save failed — no artifact on disk.
  const bool snapshot_used =
      !snapshot_path.empty() && result.info.format_version != 0;
  const bool snapshot_loaded = result.loaded;
  double build_seconds = 0, load_seconds = 0;
  if (snapshot_loaded) {
    load_seconds = result.seconds;
    // Re-measuring the rebuild would pay the exact cost the snapshot
    // exists to avoid, so it is opt-in (CI's bench job opts in).
    if (EnvInt("WWT_MEASURE_COLD_START", 0, 0) == 1) {
      std::fprintf(stderr,
                   "[bench] loaded snapshot in %.3f s; timing a fresh "
                   "rebuild for the cold-start ratio\n",
                   load_seconds);
      WallTimer build_timer;
      Corpus rebuilt = GenerateCorpus(corpus_options);
      build_seconds = build_timer.ElapsedSeconds();
    } else {
      std::fprintf(stderr,
                   "[bench] loaded snapshot in %.3f s (set "
                   "WWT_MEASURE_COLD_START=1 to time the rebuild)\n",
                   load_seconds);
    }
  } else {
    // generate + index only — excluding the snapshot save, so the
    // ratio matches what a warm-run rebuild measurement would report.
    build_seconds = result.generate_seconds;
    if (snapshot_used) {
      std::fprintf(stderr,
                   "[bench] built snapshot in %.3f s; timing the load "
                   "path for the cold-start ratio\n",
                   build_seconds);
      WallTimer load_timer;
      StatusOr<Corpus> loaded = LoadSnapshot(snapshot_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "[bench] load-back failed: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      load_seconds = load_timer.ElapsedSeconds();
      // Serve from the loaded corpus: the production path under test.
      corpus = std::move(loaded).value();
    } else {
      std::fprintf(stderr,
                   "[bench] generated corpus in %.3f s (scale=%.2f "
                   "seed=%llu)\n",
                   build_seconds, corpus_options.scale,
                   static_cast<unsigned long long>(corpus_options.seed));
    }
  }

  // The serving snapshot every sweep point runs against.
  std::shared_ptr<const CorpusHandle> handle = CorpusHandle::Own(
      std::move(corpus), result.info.content_hash, snapshot_path);
  const Corpus& served = handle->corpus();

  // The batch: the whole workload, replicated.
  const int mult = EnvInt("WWT_BATCH_MULT", 4);
  std::vector<std::vector<std::string>> queries;
  for (int m = 0; m < mult; ++m) {
    for (const ResolvedQuery& rq : served.queries) {
      std::vector<std::string> cols;
      for (const QueryColumnSpec& col : rq.spec.columns) {
        cols.push_back(col.keywords);
      }
      queries.push_back(std::move(cols));
    }
  }
  std::fprintf(stderr, "[bench] %zu tables, %zu queries in batch\n",
               served.store.size(), queries.size());

  // Serial reference (also warms any OS-level caches): the direct-engine
  // baseline the Submit path is compared against.
  WwtEngine engine(&served.store, served.index.get(), {});
  std::vector<std::string> serial_fp;
  serial_fp.reserve(queries.size());
  WallTimer serial_timer;
  for (const auto& q : queries) {
    serial_fp.push_back(ResultDigest(engine.Execute(q)));
  }
  const double serial_seconds = serial_timer.ElapsedSeconds();
  const double serial_qps = queries.size() / serial_seconds;

  const int hw = ThreadPool::DefaultNumThreads();
  const int max_threads = EnvInt("WWT_MAX_THREADS", std::max(4, hw));
  std::printf("=== Batch serving throughput (hardware threads: %d) ===\n",
              hw);
  if (snapshot_used && build_seconds > 0) {
    std::printf(
        "cold start: snapshot load %.3f s vs corpus rebuild %.3f s — "
        "%.1fx speedup\n",
        load_seconds, build_seconds,
        load_seconds > 0 ? build_seconds / load_seconds : 0.0);
  } else if (snapshot_used) {
    std::printf("cold start: snapshot load %.3f s (rebuild not timed)\n",
                load_seconds);
  }
  std::printf("serial reference: %.2f s for %zu queries (%.1f QPS)\n\n",
              serial_seconds, queries.size(), serial_qps);
  std::printf("%8s%10s%10s%12s%10s%10s%10s\n", "threads", "QPS",
              "speedup", "batch(s)", "p50(ms)", "p95(ms)", "p99(ms)");

  double qps1 = 0;
  bool all_identical = true;
  std::vector<SweepPoint> sweep;
  for (int t = 1; t <= max_threads; t *= 2) {
    ServiceOptions options;
    options.num_threads = t;
    StatusOr<std::unique_ptr<WwtService>> service =
        WwtService::Create(options);
    WWT_CHECK(service.ok()) << service.status();
    (*service)->SwapCorpus(handle);
    BatchResponse batch = (*service)->RunBatch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      WWT_CHECK(batch.responses[i].ok()) << batch.responses[i].status;
      if (ResultDigest(batch.responses[i]) != serial_fp[i]) {
        all_identical = false;
        std::fprintf(stderr,
                     "[bench] MISMATCH vs serial at query %zu (%d threads)\n",
                     i, t);
      }
    }
    const BatchStats& s = batch.stats;
    if (t == 1) qps1 = s.qps;
    SweepPoint point;
    point.threads = t;
    point.qps = s.qps;
    point.speedup = qps1 > 0 ? s.qps / qps1 : 0.0;
    point.wall_seconds = s.wall_seconds;
    point.p50_ms = s.latency.p50 * 1e3;
    point.p95_ms = s.latency.p95 * 1e3;
    point.p99_ms = s.latency.p99 * 1e3;
    sweep.push_back(point);
    std::printf("%8d%10.1f%9.2fx%12.2f%10.2f%10.2f%10.2f\n", t, s.qps,
                point.speedup, s.wall_seconds, point.p50_ms, point.p95_ms,
                point.p99_ms);
  }

  // ---- Response-cache sweep: the same unique workload served twice by
  // one cached service. Pass 1 is the miss path (every query runs the
  // pipeline and is inserted), pass 2 the hit path (every query served
  // from the LRU). The headline number is hit-path QPS over miss-path
  // QPS on identical queries — what a repeated head-query workload
  // gains from the cache. One hit pass lasts a few milliseconds and the
  // first one follows the misses, so the hit side is the median of
  // kHitPasses passes after pass 2.
  constexpr int kHitPasses = 20;
  const size_t unique_count = served.queries.size();
  const std::vector<std::vector<std::string>> unique_queries(
      queries.begin(), queries.begin() + unique_count);
  ServiceOptions cached_options;
  cached_options.num_threads = max_threads;
  cached_options.cache.capacity_bytes = 256ull << 20;
  StatusOr<std::unique_ptr<WwtService>> cached_service =
      WwtService::Create(cached_options);
  WWT_CHECK(cached_service.ok()) << cached_service.status();
  (*cached_service)->SwapCorpus(handle);

  BatchResponse cold = (*cached_service)->RunBatch(unique_queries);
  BatchResponse warm = (*cached_service)->RunBatch(unique_queries);
  bool cache_identical = true;
  size_t warm_hits = 0;
  for (size_t i = 0; i < unique_count; ++i) {
    WWT_CHECK(cold.responses[i].ok()) << cold.responses[i].status;
    WWT_CHECK(warm.responses[i].ok()) << warm.responses[i].status;
    warm_hits += warm.responses[i].served_from_cache;
    if (ResultDigest(cold.responses[i]) != serial_fp[i] ||
        ResultDigest(warm.responses[i]) != serial_fp[i]) {
      cache_identical = false;
      std::fprintf(stderr,
                   "[bench] CACHE MISMATCH vs serial at query %zu\n", i);
    }
  }
  all_identical = all_identical && cache_identical;
  if (warm_hits != unique_count) {
    // Every warm query must be served from cache; anything else means
    // the hit path was not actually measured.
    std::fprintf(stderr, "[bench] warm pass: only %zu/%zu cache hits\n",
                 warm_hits, unique_count);
    all_identical = false;
  }
  std::vector<double> hit_pass_qps;
  size_t steady_hits = 0;
  for (int pass = 0; pass < kHitPasses; ++pass) {
    BatchResponse hits = (*cached_service)->RunBatch(unique_queries);
    for (const QueryResponse& r : hits.responses) {
      steady_hits += r.ok() && r.served_from_cache;
    }
    hit_pass_qps.push_back(hits.stats.qps);
  }
  if (steady_hits != kHitPasses * unique_count) {
    std::fprintf(stderr, "[bench] steady hit passes: only %zu/%zu cache hits\n",
                 steady_hits, kHitPasses * unique_count);
    all_identical = false;
  }
  std::sort(hit_pass_qps.begin(), hit_pass_qps.end());
  const double miss_qps = cold.stats.qps;
  const double hit_qps =
      (hit_pass_qps[(kHitPasses - 1) / 2] + hit_pass_qps[kHitPasses / 2]) / 2;
  const double hit_over_miss = miss_qps > 0 ? hit_qps / miss_qps : 0.0;
  std::printf(
      "\nresponse cache (repeated workload, %zu unique queries): miss "
      "path %.1f QPS, hit path %.1f QPS — %.1fx\n",
      unique_count, miss_qps, hit_qps, hit_over_miss);

  // ---- Shard fan-out sweep: the same corpus partitioned N ways behind
  // one service (the wwt_indexer --shards serving shape). Global IDF
  // makes the scatter-gathered answers order-independent, so every
  // point is byte-verified against the same serial reference; the
  // interesting number is how much the fan-out machinery costs (or
  // buys, on multicore) relative to the unsharded engine.
  struct ShardPoint {
    int shards = 0;
    double qps = 0;
    double vs_unsharded = 0;
    bool identical = true;
  };
  std::vector<ShardPoint> shard_sweep;
  {
    double qps_n1 = 0;
    for (int n : {1, 2, 4, 8}) {
      std::vector<Corpus> parts = PartitionCorpus(served, n);
      std::vector<std::shared_ptr<const CorpusHandle>> shards;
      shards.reserve(parts.size());
      for (Corpus& part : parts) {
        shards.push_back(CorpusHandle::Own(std::move(part)));
      }
      ServiceOptions options;
      options.num_threads = max_threads;
      StatusOr<std::unique_ptr<WwtService>> service =
          WwtService::Create(options);
      WWT_CHECK(service.ok()) << service.status();
      (*service)->SwapCorpus(CorpusSet::Of(std::move(shards)));

      BatchResponse batch = (*service)->RunBatch(queries);
      ShardPoint point;
      point.shards = n;
      point.qps = batch.stats.qps;
      for (size_t i = 0; i < queries.size(); ++i) {
        WWT_CHECK(batch.responses[i].ok()) << batch.responses[i].status;
        if (ResultDigest(batch.responses[i]) != serial_fp[i]) {
          point.identical = false;
          all_identical = false;
          std::fprintf(stderr,
                       "[bench] SHARD MISMATCH vs serial at query %zu "
                       "(%d shards)\n",
                       i, n);
        }
      }
      if (n == 1) qps_n1 = point.qps;
      point.vs_unsharded = qps_n1 > 0 ? point.qps / qps_n1 : 0.0;
      shard_sweep.push_back(point);
    }
  }
  std::printf("\nshard fan-out (at %d threads): ", max_threads);
  for (size_t i = 0; i < shard_sweep.size(); ++i) {
    std::printf("%sN=%d %.1f QPS (%.2fx)", i > 0 ? ", " : "",
                shard_sweep[i].shards, shard_sweep[i].qps,
                shard_sweep[i].vs_unsharded);
  }
  std::printf("\n");

  // ---- Probe-stage sweep (the ISSUE 6 tentpole's acceptance number):
  // raw TableIndex::Search throughput, block-max WAND vs the exhaustive
  // reference, at k ∈ {10, 50} on the unsharded corpus and on a 4-way
  // partition (per-shard probes + the engine's (score desc, id asc)
  // merge). Every (query, point) pair is verified identical — same doc
  // ids AND bit-identical scores — before its timing counts.
  struct ProbePoint {
    int shards = 0;
    int k = 0;
    double wand_qps = 0;
    double exhaustive_qps = 0;
    double speedup = 0;
    bool identical = true;
  };
  std::vector<ProbePoint> probe_sweep;
  {
    // The probe workload: each query's all-column keyword union, exactly
    // what WwtEngine::Probe feeds Search() for the first probe.
    std::vector<std::vector<std::string>> probe_keywords;
    probe_keywords.reserve(served.queries.size());
    for (const auto& cols : unique_queries) {
      probe_keywords.push_back(
          Query::Parse(cols, *served.index).all_keywords);
    }
    std::vector<Corpus> parts4 = PartitionCorpus(served, 4);

    // One probe of every workload query against `indexes`, merged under
    // the engine's total order when sharded.
    auto probe_all = [&](const std::vector<const TableIndex*>& indexes,
                         int k, ProbeScorer scorer,
                         std::vector<std::vector<ScoredDoc>>* out) {
      if (out != nullptr) out->clear();
      for (const auto& kw : probe_keywords) {
        std::vector<ScoredDoc> merged;
        for (const TableIndex* index : indexes) {
          std::vector<ScoredDoc> hits = index->Search(kw, k, scorer);
          merged.insert(merged.end(), hits.begin(), hits.end());
        }
        if (indexes.size() > 1) {
          std::sort(merged.begin(), merged.end(),
                    [](const ScoredDoc& a, const ScoredDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
          if (static_cast<int>(merged.size()) > k) merged.resize(k);
        }
        if (out != nullptr) out->push_back(std::move(merged));
      }
    };

    for (int n : {1, 4}) {
      std::vector<const TableIndex*> indexes;
      if (n == 1) {
        indexes.push_back(served.index.get());
      } else {
        for (const Corpus& part : parts4) {
          indexes.push_back(part.index.get());
        }
      }
      for (int k : {10, 50}) {
        ProbePoint point;
        point.shards = n;
        point.k = k;

        // Equivalence first: WAND's whole claim is that pruning changes
        // nothing. Compare doc ids and raw score bits per query.
        std::vector<std::vector<ScoredDoc>> wand_hits, ex_hits;
        probe_all(indexes, k, ProbeScorer::kWand, &wand_hits);
        probe_all(indexes, k, ProbeScorer::kExhaustive, &ex_hits);
        for (size_t q = 0; q < probe_keywords.size(); ++q) {
          bool same = wand_hits[q].size() == ex_hits[q].size();
          for (size_t i = 0; same && i < wand_hits[q].size(); ++i) {
            same = wand_hits[q][i].doc == ex_hits[q][i].doc &&
                   wand_hits[q][i].score == ex_hits[q][i].score;
          }
          if (!same) {
            point.identical = false;
            all_identical = false;
            std::fprintf(stderr,
                         "[bench] PROBE MISMATCH wand vs exhaustive at "
                         "query %zu (shards=%d k=%d)\n",
                         q, n, k);
          }
        }

        // Timing: calibrate repetitions on the exhaustive side to a
        // measurable wall slice, then run both scorers the same number
        // of passes.
        WallTimer calibrate;
        probe_all(indexes, k, ProbeScorer::kExhaustive, nullptr);
        const double one_pass = calibrate.ElapsedSeconds();
        const int reps = std::max(
            1, std::min(200, static_cast<int>(0.4 / std::max(one_pass,
                                                             1e-6))));
        WallTimer ex_timer;
        for (int r = 0; r < reps; ++r) {
          probe_all(indexes, k, ProbeScorer::kExhaustive, nullptr);
        }
        const double ex_seconds = ex_timer.ElapsedSeconds();
        WallTimer wand_timer;
        for (int r = 0; r < reps; ++r) {
          probe_all(indexes, k, ProbeScorer::kWand, nullptr);
        }
        const double wand_seconds = wand_timer.ElapsedSeconds();
        const double probes = static_cast<double>(reps) *
                              probe_keywords.size();
        point.exhaustive_qps = ex_seconds > 0 ? probes / ex_seconds : 0.0;
        point.wand_qps = wand_seconds > 0 ? probes / wand_seconds : 0.0;
        point.speedup = point.exhaustive_qps > 0
                            ? point.wand_qps / point.exhaustive_qps
                            : 0.0;
        probe_sweep.push_back(point);
      }
    }
  }
  std::printf("\nprobe stage (wand vs exhaustive, %zu queries):\n",
              unique_count);
  std::printf("%8s%6s%14s%14s%10s%12s\n", "shards", "k", "wand QPS",
              "exhaust QPS", "speedup", "identical");
  for (const ProbePoint& p : probe_sweep) {
    std::printf("%8d%6d%14.1f%14.1f%9.2fx%12s\n", p.shards, p.k,
                p.wand_qps, p.exhaustive_qps, p.speedup,
                p.identical ? "yes" : "NO (bug!)");
  }

  // End-to-end under the exhaustive scorer: the full pipeline must
  // produce byte-identical answers to the (WAND-scored) serial
  // reference, not just identical probe hits.
  {
    EngineOptions exhaustive_options;
    exhaustive_options.scorer = ProbeScorer::kExhaustive;
    WwtEngine exhaustive_engine(&served.store, served.index.get(),
                                exhaustive_options);
    bool digests_equal = true;
    for (size_t i = 0; i < unique_count; ++i) {
      if (ResultDigest(exhaustive_engine.Execute(queries[i])) !=
          serial_fp[i]) {
        digests_equal = false;
        all_identical = false;
        std::fprintf(stderr,
                     "[bench] PIPELINE DIGEST MISMATCH exhaustive vs "
                     "wand at query %zu\n",
                     i);
      }
    }
    std::printf("pipeline digests, exhaustive vs wand: %s\n",
                digests_equal ? "IDENTICAL" : "MISMATCH (bug!)");
  }

  // Submit-path overhead: the 1-thread service sweep point vs the
  // direct-engine serial loop over the identical batch. The service adds
  // validation + fingerprinting + a future per query; it must stay
  // within noise of direct execution.
  const double submit_overhead_fraction =
      qps1 > 0 ? serial_qps / qps1 - 1.0 : 0.0;
  std::printf(
      "\nsubmit-path overhead: serial %.1f QPS vs service@1 %.1f QPS "
      "(%+.1f%%)\n",
      serial_qps, qps1, submit_overhead_fraction * 100.0);

  std::printf("results vs serial execution: %s\n",
              all_identical ? "IDENTICAL" : "MISMATCH (bug!)");
  if (hw == 1) {
    std::printf("note: single hardware thread — speedup is bounded by "
                "1.0x here; scaling shows on multicore hosts.\n");
  }

  // Machine-readable summary for the CI perf trajectory.
  if (FILE* json = OpenBenchJson()) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"throughput\",\n"
                 "  \"scale\": %.4f,\n"
                 "  \"seed\": %llu,\n"
                 "  \"tables\": %zu,\n"
                 "  \"batch_queries\": %zu,\n"
                 "  \"hardware_threads\": %d,\n"
                 "  \"scorer\": \"%s\",\n"
                 "  \"identical_to_serial\": %s,\n"
                 "  \"serial_qps\": %.2f,\n",
                 corpus_options.scale,
                 static_cast<unsigned long long>(corpus_options.seed),
                 served.store.size(), queries.size(), hw,
                 ProbeScorerName(EngineOptions().scorer),
                 all_identical ? "true" : "false", serial_qps);
    std::fprintf(json,
                 "  \"submit_overhead\": {\"serial_qps\": %.2f, "
                 "\"service_qps_1thread\": %.2f, \"overhead_fraction\": "
                 "%.4f},\n",
                 serial_qps, qps1, submit_overhead_fraction);
    std::fprintf(json,
                 "  \"response_cache\": {\"unique_queries\": %zu, "
                 "\"miss_qps\": %.2f, \"hit_qps\": %.2f, "
                 "\"hit_over_miss\": %.2f, \"warm_hits\": %zu, "
                 "\"identical_to_serial\": %s},\n",
                 unique_count, miss_qps, hit_qps, hit_over_miss,
                 warm_hits, cache_identical ? "true" : "false");
    std::fprintf(json, "  \"shard_fanout\": [\n");
    for (size_t i = 0; i < shard_sweep.size(); ++i) {
      const ShardPoint& p = shard_sweep[i];
      std::fprintf(json,
                   "    {\"shards\": %d, \"qps\": %.2f, "
                   "\"vs_unsharded\": %.3f, \"identical_to_serial\": "
                   "%s}%s\n",
                   p.shards, p.qps, p.vs_unsharded,
                   p.identical ? "true" : "false",
                   i + 1 < shard_sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"probe_sweep\": [\n");
    for (size_t i = 0; i < probe_sweep.size(); ++i) {
      const ProbePoint& p = probe_sweep[i];
      std::fprintf(json,
                   "    {\"shards\": %d, \"k\": %d, \"wand_qps\": %.2f, "
                   "\"exhaustive_qps\": %.2f, \"speedup\": %.3f, "
                   "\"identical\": %s}%s\n",
                   p.shards, p.k, p.wand_qps, p.exhaustive_qps, p.speedup,
                   p.identical ? "true" : "false",
                   i + 1 < probe_sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"snapshot\": {\"used\": %s, \"loaded\": %s, "
                 "\"load_seconds\": %.6f, \"build_seconds\": %.6f, "
                 "\"speedup\": %.2f},\n",
                 snapshot_used ? "true" : "false",
                 snapshot_loaded ? "true" : "false", load_seconds,
                 build_seconds,
                 snapshot_used && load_seconds > 0
                     ? build_seconds / load_seconds
                     : 0.0);
    std::fprintf(json, "  \"sweep\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      std::fprintf(json,
                   "    {\"threads\": %d, \"qps\": %.2f, \"speedup\": "
                   "%.3f, \"batch_seconds\": %.4f, \"p50_ms\": %.3f, "
                   "\"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                   p.threads, p.qps, p.speedup, p.wall_seconds, p.p50_ms,
                   p.p95_ms, p.p99_ms,
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
  }
  return all_identical ? 0 : 1;
}
