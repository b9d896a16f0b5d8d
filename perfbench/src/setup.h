// Copyright 2026 The WWT Authors
//
// Benchmark set-up: the serving corpus (generate + index, save the v4
// snapshot, OpenCorpus, create the service — timed, several times), and
// the benchmark's own reference work, which is not timed as set-up: the
// serial WwtEngine digests every served answer must match, and the
// ground-truth cases the quality metrics are scored against.

#ifndef WWT_PERFBENCH_SETUP_H_
#define WWT_PERFBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "index/corpus_set.h"
#include "wwt/service.h"

namespace perfbench {

/// Wall seconds of one set-up and of its parts.
struct SetupTiming {
  double total_s = 0;
  double build_s = 0;  // GenerateCorpus: generate pages, harvest, index
  double save_s = 0;   // SaveSnapshot (v4)
  double open_s = 0;   // OpenCorpus on the saved file
};

/// The serving state every workload starts from.
struct ServingSetup {
  std::string snapshot_path;
  uint64_t snapshot_bytes = 0;
  std::shared_ptr<const wwt::CorpusSet> corpus;
  /// Created with the workload's ServiceOptions, corpus installed.
  std::unique_ptr<wwt::WwtService> service;
  /// One entry per repetition; the last one's objects are kept.
  std::vector<SetupTiming> timings;
};

/// Runs the timed set-up `repeats` times for the corpus generated at
/// `corpus_seed` (scale 1, the Table 1 workload) and keeps the last
/// result. Aborts on failure.
ServingSetup BuildServing(uint64_t corpus_seed, const std::string& workdir,
                          const wwt::ServiceOptions& options, int repeats);

/// The workload's 59 queries and what a correct server answers.
struct Reference {
  std::vector<std::vector<std::string>> queries;
  /// ResultDigest of a serial WwtEngine::Execute per query.
  std::vector<std::string> digests;
  /// Ground truth per query (candidates + truth labels), for the
  /// Fig. 5 / Fig. 6 error metrics.
  std::vector<wwt::EvalCase> cases;
  std::unique_ptr<wwt::EvalHarness> harness;
  /// Distinct ids of every table the queries retrieve, ascending — the
  /// mutation targets of the freshness workloads.
  std::vector<wwt::TableId> retrieved;
};

/// Computes the reference over `corpus` (which must outlive it).
Reference BuildReference(const wwt::CorpusSet& corpus);

/// The request for query `q`.
wwt::QueryRequest RequestFor(const Reference& ref, size_t q);

}  // namespace perfbench

#endif  // WWT_PERFBENCH_SETUP_H_
