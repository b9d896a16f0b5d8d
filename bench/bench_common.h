// Copyright 2026 The WWT Authors
//
// Shared scaffolding for the experiment benches: corpus + cases
// construction and the mapping functions of every compared method.
// Environment knobs (so `for b in build/bench/*; do $b; done` stays fast
// but scale is adjustable):
//   WWT_SCALE      — corpus scale factor in (0, 1000] (default 0.5)
//   WWT_SEED       — corpus seed (default 42)
//   WWT_SNAPSHOT   — when set, BuildExperiment build-or-loads the corpus
//                    through the snapshot at this path (CI caches it)
//   WWT_BENCH_JSON — when set, benches that support it write a JSON
//                    summary to this path (the CI perf trajectory)
// An unset or empty knob means its default; a malformed or out-of-range
// one exits 1 with one "bench: WWT_X wants ..., got '...'" line.

#ifndef WWT_BENCH_BENCH_COMMON_H_
#define WWT_BENCH_BENCH_COMMON_H_

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "eval/groups.h"
#include "eval/harness.h"
#include "eval/trainer.h"
#include "index/snapshot.h"
#include "util/string_util.h"

namespace wwt::bench {

/// Prints "bench: NAME wants WANTS, got 'VALUE'" and exits 1.
[[noreturn]] inline void BadEnv(const char* name, const std::string& wants,
                                const char* value) {
  std::fprintf(stderr, "bench: %s wants %s, got '%s'\n", name,
               wants.c_str(), value);
  std::exit(1);
}

/// The value of knob `name`; nullptr when it is unset or empty.
inline const char* EnvValue(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? s : nullptr;
}

/// Integer knob in [min, max]: unset or empty means `fallback`; any
/// other value that is not a whole number in range exits 1.
inline uint64_t EnvUint(const char* name, uint64_t fallback, uint64_t min,
                        uint64_t max) {
  const char* s = EnvValue(name);
  uint64_t v = fallback;
  if (s != nullptr && !ParseUint(s, min, max, &v)) {
    BadEnv(name,
           "an integer in [" + std::to_string(min) + ", " +
               std::to_string(max) + "]",
           s);
  }
  return v;
}

/// Corpus scale in (0, 1000], as `wwt_indexer --scale` takes it.
inline double EnvScale() {
  const char* s = EnvValue("WWT_SCALE");
  double scale = 0.5;
  if (s != nullptr && !ParseDouble(s, kMinPositive, 1000, &scale)) {
    BadEnv("WWT_SCALE", "a corpus scale in (0, 1000]", s);
  }
  return scale;
}

inline uint64_t EnvSeed() { return EnvUint("WWT_SEED", 42, 0, UINT64_MAX); }

/// Integer knob in [min, INT_MAX].
inline int EnvInt(const char* name, int fallback, int min = 1) {
  return static_cast<int>(EnvUint(name, fallback, min, INT_MAX));
}

/// WWT_THREADS — batch concurrency of the runtime benches (default 1
/// for undistorted per-query stage timing).
inline int EnvThreads() { return EnvInt("WWT_THREADS", 1); }

/// Everything the experiment benches share.
struct Experiment {
  Corpus corpus;
  std::unique_ptr<EvalHarness> harness;
  std::vector<EvalCase> cases;
  /// True when the corpus came out of the WWT_SNAPSHOT artifact instead
  /// of a fresh generate+index build.
  bool loaded_from_snapshot = false;
  /// Seconds spent obtaining the corpus (load, or generate+save).
  double corpus_seconds = 0;
};

/// Obtains the corpus for a bench run: a fresh build, or — when
/// WWT_SNAPSHOT is set — a build-or-load through the snapshot file, so
/// warm runs cold-start from the artifact like the serving path does.
inline Experiment BuildExperiment(double scale = EnvScale(),
                                  uint64_t seed = EnvSeed()) {
  Experiment e;
  CorpusOptions options;
  options.seed = seed;
  options.scale = scale;
  // BuildOrLoadCorpus with an empty path is a plain generate, so the
  // WWT_SNAPSHOT dispatch lives in one place.
  const std::string snapshot = SnapshotPathFromEnv();
  BuildOrLoadResult result = BuildOrLoadCorpus(options, snapshot);
  e.corpus = std::move(result.corpus);
  e.loaded_from_snapshot = result.loaded;
  e.corpus_seconds = result.seconds;
  if (snapshot.empty()) {
    std::fprintf(stderr,
                 "[bench] generated corpus (scale=%.2f seed=%llu, %.2f s)\n",
                 scale, static_cast<unsigned long long>(seed),
                 result.seconds);
  } else {
    std::fprintf(stderr, "[bench] %s corpus via snapshot %s (%.2f s)\n",
                 result.loaded ? "loaded" : "built", snapshot.c_str(),
                 result.seconds);
  }
  e.harness = std::make_unique<EvalHarness>(&e.corpus);
  e.cases = e.harness->BuildCases();
  std::fprintf(stderr, "[bench] %zu tables, %zu queries\n",
               e.corpus.store.size(), e.cases.size());
  return e;
}

/// Opens the WWT_BENCH_JSON output, or nullptr when the knob is unset.
/// Callers own the FILE and close it with std::fclose.
inline FILE* OpenBenchJson() {
  const char* path = std::getenv("WWT_BENCH_JSON");
  if (path == nullptr || *path == '\0') return nullptr;
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write WWT_BENCH_JSON=%s\n", path);
  }
  return f;
}

/// Mapping function for a WWT configuration.
inline MappingFn WwtFn(const TableIndex* index, MapperOptions options) {
  return [index, options](const Query& q,
                          const std::vector<CandidateTable>& tables) {
    ColumnMapper mapper(index, options);
    return mapper.Map(q, tables);
  };
}

/// Mapping function for a baseline configuration.
inline MappingFn BaselineFn(const TableIndex* index,
                            BaselineOptions options) {
  return [index, options](const Query& q,
                          const std::vector<CandidateTable>& tables) {
    BaselineMapper mapper(index, options);
    return mapper.Map(q, tables);
  };
}

/// Prints one "Grp | method columns..." style table like the paper's.
inline void PrintGroupTable(
    const QueryGroups& groups,
    const std::vector<std::pair<std::string, std::vector<double>>>&
        methods) {
  std::printf("%-8s", "Group");
  for (const auto& [name, _] : methods) std::printf("%12s", name.c_str());
  std::printf("%8s\n", "#q");
  for (size_t g = 0; g < groups.hard.size(); ++g) {
    std::printf("%-8zu", g + 1);
    for (const auto& [_, err] : methods) {
      std::printf("%12.1f", MeanOver(groups.hard[g], err));
    }
    std::printf("%8zu\n", groups.hard[g].size());
  }
  std::printf("%-8s", "Overall");
  std::vector<int> all;
  for (const auto& g : groups.hard) all.insert(all.end(), g.begin(), g.end());
  for (const auto& [_, err] : methods) {
    std::printf("%12.1f", MeanOver(all, err));
  }
  std::printf("%8zu\n", all.size());
}

}  // namespace wwt::bench

#endif  // WWT_BENCH_BENCH_COMMON_H_
