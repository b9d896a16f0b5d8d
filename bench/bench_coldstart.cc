// Copyright 2026 The WWT Authors
//
// Cold-start bench: the offline/online split, measured. Builds one
// corpus (timed — the rebuild a cold start would otherwise pay), serves
// the stored workload from it, saves it as a v4 (mmap-native) snapshot,
// drops it, then times LoadSnapshot of the file. The load is an mmap +
// O(nterms) structural validation, so it should beat the rebuild by
// orders of magnitude. Answers served from the load are verified
// byte-identical to those served from the built corpus before any
// number is reported; the post-load RSS delta shows how much of the
// corpus is resident vs paged.
//
// Knobs (on top of bench_common's WWT_SCALE / WWT_SEED /
// WWT_BENCH_JSON):
//   WWT_COLDSTART_REPS — load repetitions; the minimum is reported
//                        (default 3)
//
// JSON summary (WWT_BENCH_JSON), gated by bench_compare:
//   {"bench": "coldstart", "scale": ..., "seed": ..., "reps": ...,
//    "generate_seconds": ..., "file_bytes": ..., "load_seconds": ...,
//    "speedup": ..., "rss_kb": ..., "identical": true}

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "index/corpus_set.h"
#include "index/snapshot.h"
#include "util/logging.h"
#include "util/timer.h"
#include "wwt/service.h"

using namespace wwt;
using namespace wwt::bench;

namespace {

// Resident set size in kB from /proc/self/status; 0 where the proc
// interface is unavailable (the RSS numbers are reported, never gated).
long ResidentKb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

uint64_t FileBytes(const std::string& path) {
  StatusOr<serde::InputFile> file = serde::InputFile::Open(path);
  return file.ok() ? file->size() : 0;
}

// Minimum LoadSnapshot wall time over `reps` runs; the last load (and
// its SnapshotInfo) is kept so the caller can serve from it.
double TimeLoads(const std::string& path, int reps,
                 std::optional<Corpus>* out, SnapshotInfo* info) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    out->reset();
    WallTimer timer;
    StatusOr<Corpus> loaded = LoadSnapshot(path, info);
    const double seconds = timer.ElapsedSeconds();
    WWT_CHECK_OK(loaded.status());
    out->emplace(std::move(*loaded));
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

std::vector<std::vector<std::string>> WorkloadQueries(const Corpus& corpus) {
  std::vector<std::vector<std::string>> out;
  for (const ResolvedQuery& rq : corpus.queries) {
    std::vector<std::string> cols;
    for (const QueryColumnSpec& col : rq.spec.columns) {
      cols.push_back(col.keywords);
    }
    out.push_back(std::move(cols));
  }
  return out;
}

std::vector<std::string> ServeDigests(const Corpus& corpus,
                                      uint64_t content_hash) {
  StatusOr<std::unique_ptr<WwtService>> service = WwtService::Create();
  WWT_CHECK_OK(service.status());
  (*service)->SwapCorpus(CorpusHandle::Borrow(&corpus, content_hash));
  std::vector<std::string> digests;
  for (const auto& cols : WorkloadQueries(corpus)) {
    QueryResponse response = (*service)->Run(QueryRequest::Of(cols));
    WWT_CHECK_OK(response.status);
    digests.push_back(ResultDigest(response));
  }
  return digests;
}

std::string TempSnapshotPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  return std::string(dir) + "/wwt_coldstart_" + name + ".wwtsnap";
}

}  // namespace

int main() {
  const double scale = EnvScale();
  const uint64_t seed = EnvSeed();
  const int reps = EnvInt("WWT_COLDSTART_REPS", 3);

  CorpusOptions options;
  options.seed = seed;
  options.scale = scale;

  const std::string path = TempSnapshotPath("v4");

  double generate_seconds = 0;
  std::vector<std::string> built_digests;
  {
    // Build once, serve the reference answers, save, then drop the
    // builder corpus so the load below is measured against a quiet heap.
    WallTimer timer;
    Corpus corpus = GenerateCorpus(options);
    generate_seconds = timer.ElapsedSeconds();
    built_digests = ServeDigests(corpus, /*content_hash=*/0);
    WWT_CHECK_OK(SaveSnapshot(corpus, options, path));
  }
  const uint64_t file_bytes = FileBytes(path);
  std::fprintf(stderr,
               "[bench] corpus scale=%.2f seed=%llu built in %.2f s "
               "(snapshot %llu bytes)\n",
               scale, static_cast<unsigned long long>(seed),
               generate_seconds, static_cast<unsigned long long>(file_bytes));

  std::optional<Corpus> loaded;
  SnapshotInfo info;
  const long rss_before = ResidentKb();
  const double load_seconds = TimeLoads(path, reps, &loaded, &info);
  const long rss_kb = ResidentKb() - rss_before;

  const double speedup = load_seconds > 0 ? generate_seconds / load_seconds : 0;
  std::printf("cold start: rebuild %.4f s, load %.4f s  (%.1fx, min of %d)\n",
              generate_seconds, load_seconds, speedup, reps);
  std::printf("rss delta:  %+ld kB\n", rss_kb);

  // Correctness gate: the load must answer the stored workload with
  // digests byte-identical to the built corpus's. No number above
  // matters if this is false.
  const std::vector<std::string> loaded_digests =
      ServeDigests(*loaded, info.content_hash);
  const bool identical =
      loaded_digests == built_digests && !built_digests.empty();
  std::printf("answers:    %zu workload queries, %s\n", built_digests.size(),
              identical ? "byte-identical to the built corpus" : "DIVERGED");

  if (FILE* json = OpenBenchJson()) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"coldstart\",\n"
                 "  \"scale\": %.4f,\n"
                 "  \"seed\": %llu,\n"
                 "  \"reps\": %d,\n"
                 "  \"generate_seconds\": %.4f,\n"
                 "  \"file_bytes\": %llu,\n"
                 "  \"load_seconds\": %.6f,\n"
                 "  \"speedup\": %.2f,\n"
                 "  \"rss_kb\": %ld,\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 scale, static_cast<unsigned long long>(seed), reps,
                 generate_seconds, static_cast<unsigned long long>(file_bytes),
                 load_seconds, speedup, rss_kb,
                 identical ? "true" : "false");
    std::fclose(json);
  }

  std::remove(path.c_str());
  return identical ? 0 : 1;
}
