// Copyright 2026 The WWT Authors
//
// The serving benchmark: one workload of the public serving API per
// run, every answer checked, one JSON result line last on stdout.
//
//   perfbench --workload cold_serve|hot_repeat|fresh_mixed --seed N
//             --seconds S --trace 0|1 [--corpus-seed N] [--workdir DIR]
//
// --seed drives the traffic: the pass shuffles, the Zipf draws and the
// mutation mix. The corpus is generated at --corpus-seed (default 42,
// scale 1: 2,055 tables), so the answers, and with them the quality
// metrics, are the same for every traffic seed; pass another corpus
// seed to re-check a result on an unseen corpus.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload and adds the traced per-layer passes, and prints the
// per-layer metrics. perfbench/README.md describes the workloads and
// which layer metric should move which end-to-end metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "report.h"
#include "setup.h"
#include "trace.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Timed set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 15;
/// Traced and untraced passes over the queries in a --trace 1 run.
constexpr int kTracePasses = 3;
/// fresh_mixed: reads per round (two shuffled passes over the queries).
constexpr int kFreshReadsPerRound = 118;
/// Share of --seconds given to the write-only rounds, on every workload;
/// the workload's reads get the rest.
constexpr double kWriteShare = 0.2;
constexpr int kMutationsPerWriteRound = 40;
/// The reads and the write-only rounds alternate in this many slices, so
/// each is sampled across the whole run: a few slow seconds on a shared
/// machine then hit some windows of each rather than all windows of one.
constexpr int kSlices = 6;
/// Byte budget that holds every response of the workload.
constexpr size_t kCacheBytes = size_t{512} << 20;

/// Read rate and read p50 are taken over windows of two passes over the
/// queries (cold_serve; one fresh_mixed round), ten times that for the
/// much faster hot_repeat. The read tail is taken over windows of 20
/// passes, where p99 has 11 samples beyond it. Mutation latencies are
/// taken over windows of 200 mutations (five write rounds), where p95
/// has 10 beyond.
constexpr size_t kRateWindow = 118;
constexpr size_t kHotRateWindow = 1180;
constexpr size_t kTailWindow = 1180;
constexpr size_t kMutationWindow = 200;

const std::vector<double> kReadTailLadder = {90, 95, 99};
const std::vector<double> kWriteTailLadder = {90, 95};

struct Args {
  std::string workload;
  uint64_t seed = 42;
  uint64_t corpus_seed = 42;
  double seconds = 12;
  bool trace = false;
  std::string workdir = ".perfbench";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--corpus-seed") {
      args->corpus_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->workload == "cold_serve" || args->workload == "hot_repeat" ||
          args->workload == "fresh_mixed");
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ms(double seconds) { return seconds * 1e3; }

/// The windowed figures below take a quartile over windows rather than
/// the median: interference from other processes on the machine only
/// ever slows a window down, so the better quartile tracks the program
/// and not the neighbours, while a change that slows every window still
/// moves it in full.
double BetterQuartile(std::vector<double> values, bool higher_is_better) {
  std::sort(values.begin(), values.end());
  return Percentile(values, higher_is_better ? 75 : 25);
}

/// Reads per second: the upper quartile over consecutive windows of
/// `window` reads (completion times ascending, in loop time). Falls back
/// to the whole run when it holds no full window.
double WindowedRate(const ReadStats& reads, size_t window) {
  const std::vector<double>& done = reads.done_s;
  std::vector<double> rates;
  double begin = 0;
  for (size_t end = window; end <= done.size(); end += window) {
    const double span = done[end - 1] - begin;
    if (span > 0) rates.push_back(static_cast<double>(window) / span);
    begin = done[end - 1];
  }
  if (rates.empty()) {
    return reads.wall_s > 0 ? static_cast<double>(reads.served) / reads.wall_s
                            : 0.0;
  }
  return BetterQuartile(std::move(rates), /*higher_is_better=*/true);
}

/// A latency summary: per window of `window` consecutive samples, the
/// median and the highest `ladder` percentile with ten samples beyond
/// it; the results are the lower quartiles over the windows (one window
/// of every sample when there are fewer).
struct WindowedLatency {
  double p50 = 0;
  Tail tail;
};
WindowedLatency Windowed(const std::vector<double>& samples, size_t window,
                         const std::vector<double>& ladder) {
  window = std::max<size_t>(1, std::min(window, samples.size()));
  std::vector<double> p50s, tails;
  WindowedLatency out;
  for (size_t end = window; end <= samples.size(); end += window) {
    std::vector<double> part(samples.begin() + (end - window),
                             samples.begin() + end);
    out.tail = TailOf(part, ladder);
    tails.push_back(out.tail.value);
    p50s.push_back(Median(std::move(part)));
  }
  out.p50 = BetterQuartile(std::move(p50s), /*higher_is_better=*/false);
  out.tail.value = BetterQuartile(std::move(tails), /*higher_is_better=*/false);
  out.tail.samples = samples.size();
  return out;
}

/// The traced passes: the re-composed pipeline with spans, against the
/// same queries through an untraced serial WwtEngine::Execute.
void TraceLayers(const ServingSetup& setup, const Reference& ref,
                 const std::string& span_path, Phase* phase,
                 Report* report) {
  const wwt::CorpusSet& corpus = *setup.corpus;
  wwt::WwtEngine engine(corpus.shard_refs(), &corpus.stats());
  SpanRecorder recorder;
  TracedPipeline pipeline(&corpus, wwt::EngineOptions{}, &recorder);
  TraceCounts sum;
  int second_used = 0;
  uint32_t request = 0;
  double untraced_s = 0;
  // Each query runs untraced and then traced, so machine drift hits
  // both sides of the overhead comparison alike.
  for (int pass = 0; pass < kTracePasses; ++pass) {
    for (size_t q = 0; q < ref.queries.size(); ++q) {
      wwt::WallTimer untraced;
      wwt::QueryExecution exec = engine.Execute(ref.queries[q]);
      untraced_s += untraced.ElapsedSeconds();
      phase->Count(wwt::ResultDigest(exec) == ref.digests[q]);

      TraceCounts c;
      const std::string digest = pipeline.Execute(ref.queries[q], ++request, &c);
      phase->Count(digest == ref.digests[q]);
      sum.first_hits += c.first_hits;
      sum.second_hits += c.second_hits;
      second_used += c.used_second_probe ? 1 : 0;
      sum.candidates += c.candidates;
      sum.second_probe_new += c.second_probe_new;
      sum.map_passes += c.map_passes;
      sum.pairs_scored += c.pairs_scored;
      sum.edges_kept += c.edges_kept;
      sum.answer_rows += c.answer_rows;
    }
  }

  const double executions =
      static_cast<double>(kTracePasses * ref.queries.size());
  const double untraced_ms = Ms(untraced_s) / executions;

  // Per-query totals of each span name.
  std::map<std::string, double> total_ms;
  for (const Span& span : recorder.spans()) total_ms[span.name] += span.ms();
  auto per_query = [&](const char* name) {
    return total_ms[name] / executions;
  };
  const double traced_ms = per_query("query") - per_query("potentials") -
                           per_query("edges");
  report->AddLayer("query.parse_ms", per_query("query.parse"), "ms");
  report->AddLayer("probe.first_ms", per_query("probe.first"), "ms");
  report->AddLayer("probe.second_ms", per_query("probe.second"), "ms");
  report->AddLayer("probe.second_rate", second_used / executions, "ratio");
  report->AddLayer("probe.hits",
                   (sum.first_hits + sum.second_hits) / executions, "count");
  report->AddLayer("store.get_ms", per_query("store.get"), "ms");
  report->AddLayer("candidate.build_ms", per_query("candidate.build"), "ms");
  report->AddLayer("candidate.per_query", sum.candidates / executions,
                   "count");
  report->AddLayer("candidate.second_probe_new",
                   sum.second_probe_new / executions, "count");
  report->AddLayer("colmap.quick_ms", per_query("colmap.quick"), "ms");
  report->AddLayer("potentials.ms", per_query("potentials"), "ms");
  report->AddLayer("potentials.passes", sum.map_passes / executions, "count");
  report->AddLayer("edges.ms", per_query("edges"), "ms");
  report->AddLayer("edges.pairs_scored", sum.pairs_scored / executions,
                   "count");
  report->AddLayer("edges.kept", sum.edges_kept / executions, "count");
  report->AddLayer("edges.yield",
                   sum.pairs_scored > 0
                       ? static_cast<double>(sum.edges_kept) / sum.pairs_scored
                       : 0.0,
                   "ratio");
  report->AddLayer("inference.ms",
                   per_query("colmap.map") - per_query("potentials") -
                       per_query("edges"),
                   "ms");
  report->AddLayer("consolidate.ms", per_query("consolidate"), "ms");
  report->AddLayer("consolidate.rows", sum.answer_rows / executions, "count");
  report->AddLayer("trace.query_ms", traced_ms, "ms");
  report->AddLayer("trace.untraced_ms", untraced_ms, "ms");
  report->AddLayer("trace.overhead_pct", 100.0 * (traced_ms / untraced_ms - 1),
                   "%");
  report->AddNote("trace.spans", static_cast<double>(recorder.spans().size()));
  report->AddNote("trace.file", span_path);

  wwt::Status written = recorder.WriteJsonLines(span_path);
  if (!written.ok()) WWT_LOG(Warning) << written.ToString();
}

int Run(const Args& args) {
  namespace fs = std::filesystem;
  const std::string rundir =
      args.workdir + "/run-" + std::to_string(static_cast<long>(getpid()));
  fs::remove_all(rundir);
  fs::create_directories(rundir);

  wwt::ServiceOptions options;
  options.num_threads = 2;
  options.cache.capacity_bytes = kCacheBytes;
  if (args.workload == "cold_serve") {
    options.num_threads = 1;
    options.cache.capacity_bytes = 0;
  } else if (args.workload == "fresh_mixed") {
    // One read outstanding beside the driver's writes: with two, the
    // read latencies followed the machine's load more than the program.
    options.num_threads = 1;
  }

  Report report;
  report.AddNote("workload", args.workload);
  report.AddNote("seed", static_cast<double>(args.seed));
  report.AddNote("corpus_seed", static_cast<double>(args.corpus_seed));
  report.AddNote("seconds", args.seconds);

  ServingSetup setup =
      BuildServing(args.corpus_seed, rundir, options, kSetupRepeats);
  const Reference ref = BuildReference(*setup.corpus);

  // Served answers of every query: checked, scored, and (hot_repeat)
  // the cache warm-up.
  const Quality quality =
      ServeAndScore(setup.service.get(), ref, report.phase("verify"));

  ReadStats reads;
  // mutation_* come from write-only rounds on an idle service, on every
  // workload: fresh_mixed's writes beside reads swing by a quarter with
  // the machine's load, more than any bound could absorb. Those writes
  // give fresh_mixed's per-layer delta.* figures instead.
  WriteStats idle_writes;
  WriteStats mixed_writes;
  Phase* reads_phase = report.phase("reads");
  Phase* writes_phase = report.phase("mutations");
  const double read_slice = args.seconds * (1 - kWriteShare) / kSlices;
  const double write_slice = args.seconds * kWriteShare / kSlices;
  // Each kind of round journals in its own directory: the last read round's
  // service outlives the write rounds, for the merge check.
  const std::string read_dir = rundir + "/reads";
  const std::string write_dir = rundir + "/writes";
  fs::create_directories(read_dir);
  fs::create_directories(write_dir);
  std::unique_ptr<wwt::WwtService> last_fresh;
  std::unique_ptr<wwt::WwtService> last_idle;
  for (int slice = 0; slice < kSlices; ++slice) {
    const uint64_t seed =
        args.seed ^ (static_cast<uint64_t>(slice) * 0x9E3779B97F4A7C15ULL);
    if (args.workload == "fresh_mixed") {
      wwt::WallTimer timer;
      last_fresh = RunFreshRounds(
          setup, ref, options, read_dir, kFreshReadsPerRound, 0, seed,
          [&] { return timer.ElapsedSeconds() < read_slice; }, reads_phase,
          writes_phase, &reads, &mixed_writes);
    } else if (args.workload == "cold_serve") {
      RunColdServe(setup.service.get(), ref, seed, read_slice, reads_phase,
                   &reads);
    } else {
      RunHotRepeat(setup.service.get(), ref, seed, read_slice, reads_phase,
                   &reads);
    }
    ReadStats unused;
    wwt::WallTimer timer;
    last_idle = RunFreshRounds(
        setup, ref, options, write_dir, 0, kMutationsPerWriteRound, seed,
        [&] { return timer.ElapsedSeconds() < write_slice; }, reads_phase,
        writes_phase, &unused, &idle_writes);
  }
  if (last_fresh != nullptr) {
    MergeCheck(last_fresh.get(), ref, read_dir, report.phase("merge_check"),
               &mixed_writes);
  } else if (args.trace) {
    MergeCheck(last_idle.get(), ref, write_dir, report.phase("merge_check"),
               &idle_writes);
  }
  last_fresh.reset();
  last_idle.reset();
  const WriteStats& writes =
      args.workload == "fresh_mixed" ? mixed_writes : idle_writes;

  std::vector<double> setup_total, setup_build, setup_save, setup_open;
  for (const SetupTiming& t : setup.timings) {
    setup_total.push_back(t.total_s);
    setup_build.push_back(t.build_s);
    setup_save.push_back(t.save_s);
    setup_open.push_back(t.open_s);
  }
  std::string setup_list;
  for (double t : setup_total) setup_list += JsonNumber(t) + " ";
  report.AddNote("setup.total_s", setup_list);
  const Tail read_tail =
      Windowed(reads.latency_s, kTailWindow, kReadTailLadder).tail;
  const WindowedLatency write =
      Windowed(idle_writes.latency_s, kMutationWindow, kWriteTailLadder);
  const Tail& write_tail = write.tail;
  report.AddNote("latency_tail.percentile", read_tail.percentile);
  report.AddNote("latency_tail.samples", static_cast<double>(read_tail.samples));
  report.AddNote("mutation_tail.percentile", write_tail.percentile);
  report.AddNote("mutation_tail.samples",
                 static_cast<double>(write_tail.samples));
  report.AddNote("reads.wall_s", reads.wall_s);
  report.AddNote("reads.check_ms_per_read",
                 reads.served > 0 ? Ms(reads.check_s) / reads.served : 0.0);

  if (args.trace) {
    TraceLayers(setup, ref, args.workdir + "/trace-" + args.workload + ".jsonl",
                report.phase("trace"), &report);
    report.AddLayer("service.queue_wait_ms", Ms(Mean(reads.queue_s)), "ms");
    report.AddLayer(
        "cache.hit_rate",
        reads.served > 0
            ? static_cast<double>(reads.hit_exec_s.size()) / reads.served
            : 0.0,
        "ratio");
    report.AddLayer("cache.hit_ms", Ms(Median(reads.hit_exec_s)), "ms");
    report.AddLayer("cache.evictions",
                    static_cast<double>(reads.cache_evictions), "count");
    report.AddLayer("cache.bytes", static_cast<double>(reads.cache_bytes),
                    "bytes");
    for (int kind = 0; kind < 4; ++kind) {
      report.AddLayer(std::string("delta.") + kMutationNames[kind] + "_ms",
                      Ms(Median(writes.by_kind_s[kind])), "ms");
    }
    report.AddLayer("delta.entries", Mean(writes.entries), "count");
    report.AddLayer("delta.journal_bytes", Mean(writes.journal_bytes),
                    "bytes");
    report.AddLayer("delta.merge_s", writes.merge_s, "s");
    report.AddLayer("corpus.build_s", Median(setup_build), "s");
    report.AddLayer("snapshot.save_s", Median(setup_save), "s");
    report.AddLayer("snapshot.open_s", Median(setup_open), "s");
    report.AddLayer("snapshot.mb", setup.snapshot_bytes / 1048576.0, "MB");
    report.AddLayer("corpus.mapped_mb",
                    setup.corpus->mapped_bytes() / 1048576.0, "MB");
    report.AddLayer("corpus.heap_mb", setup.corpus->heap_bytes() / 1048576.0,
                    "MB");
  }

  const double success =
      report.attempted() > 0
          ? 1.0 - static_cast<double>(report.failed()) / report.attempted()
          : 0.0;
  report.AddNote("error_rate", 1.0 - success);
  const size_t window =
      args.workload == "hot_repeat" ? kHotRateWindow : kRateWindow;
  report.AddEndToEnd("qps", WindowedRate(reads, window), "1/s");
  report.AddEndToEnd(
      "latency_p50_ms",
      Ms(Windowed(reads.latency_s, window, kReadTailLadder).p50), "ms");
  report.AddEndToEnd("latency_tail_ms", Ms(read_tail.value), "ms");
  report.AddEndToEnd("success_rate", success, "ratio");
  report.AddEndToEnd("setup_s", Median(setup_total), "s");
  report.AddEndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report.AddEndToEnd("answer_error_pct", quality.answer_error_pct, "%");
  report.AddEndToEnd("colmap_error_pct", quality.colmap_error_pct, "%");
  report.AddEndToEnd("mutation_p50_ms", Ms(write.p50), "ms");
  report.AddEndToEnd("mutation_tail_ms", Ms(write_tail.value), "ms");

  setup.service.reset();
  setup.corpus.reset();
  fs::remove_all(rundir);

  const bool correct = report.failed() == 0 && reads.served > 0;
  std::printf("%s\n", report.DetailJson().c_str());
  std::printf("%s\n", report.ResultJson(correct, args.trace).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold_serve|hot_repeat|"
                 "fresh_mixed --seed N --seconds S --trace 0|1 "
                 "[--corpus-seed N] [--workdir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
