// Copyright 2026 The WWT Authors
//
// The public serving API: structured requests and responses for the
// column-keyword table-search service. A QueryRequest carries the
// column keywords, a deadline and a caller tag; every request is served
// with its service's one set of EngineOptions (ServiceOptions::engine).
// A QueryResponse carries a Status — never a crash — plus the answer,
// retrieval/mapping diagnostics, per-stage timing, and a fingerprint
// (canonicalized columns + engine options + corpus content hash) that
// keys the response cache.
//
// Error contract (checked in this order by WwtService::Submit):
//   InvalidArgument    — empty/over-long keyword lists, or an empty or
//                        whitespace-only column.
//   DeadlineExceeded   — the deadline passed before execution started
//                        (at submit, or while queued). Deadlines gate
//                        admission and dequeue; pipeline stages are not
//                        preempted mid-flight.
//   FailedPrecondition — no corpus loaded (SwapCorpus never called).

#ifndef WWT_WWT_API_H_
#define WWT_WWT_API_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/timer.h"
#include "wwt/engine.h"

namespace wwt {

/// One column-keyword query submitted to the service.
struct QueryRequest {
  /// Column keyword sets, e.g. {"name of explorers", "nationality"}.
  std::vector<std::string> columns;
  /// Opaque caller label, echoed back in the response (not part of the
  /// fingerprint).
  std::string tag;
  /// Absolute deadline; max() = none. Checked at submit and again when a
  /// worker dequeues the request (not mid-pipeline).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }

  static QueryRequest Of(std::vector<std::string> columns) {
    QueryRequest r;
    r.columns = std::move(columns);
    return r;
  }
  QueryRequest& WithTag(std::string t) {
    tag = std::move(t);
    return *this;
  }
  QueryRequest& WithTimeout(double seconds) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds));
    return *this;
  }
};

/// Everything the service returns for one request. When `status` is not
/// OK the payload fields (retrieval/mapping/answer) are empty;
/// tag, fingerprint (0 for invalid requests), timing and the queue/
/// execute accounting are always filled as far as the request got.
struct QueryResponse {
  Status status;
  /// Echo of QueryRequest::tag.
  std::string tag;
  /// Cache key: canonicalized columns + the service's engine options +
  /// corpus content hash. 0 when the request never reached a corpus.
  uint64_t fingerprint = 0;
  /// content_hash of the corpus snapshot that served the request.
  uint64_t corpus_hash = 0;

  RetrievalResult retrieval;
  MapResult mapping;
  AnswerTable answer;
  /// Per-stage wall clock (kStage1stIndex ... kStageConsolidate).
  StageTimer timing;
  /// Seconds between Submit() and a worker picking the request up.
  double queue_seconds = 0;
  /// Seconds of pipeline execution (the per-query latency sample). For a
  /// cache hit this is the lookup + payload copy (near zero); for a
  /// coalesced request, the wait for the leader's execution.
  double execute_seconds = 0;
  /// True when the payload came from the response cache — an LRU hit or
  /// a coalesced join onto another request's in-flight execution — and
  /// not from this request's own pipeline run.
  bool served_from_cache = false;
  /// True when a remote shard failed under ShardFailurePolicy::kPartial
  /// and its hits were dropped: the answer is explicitly degraded
  /// (retrieval.failed_shards says how much) and was not cached.
  bool partial = false;

  bool ok() const { return status.ok(); }
};

/// Latency distribution over a batch, in seconds.
struct LatencySummary {
  size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Nearest-rank percentile summary of `seconds` (not required sorted).
LatencySummary Summarize(std::vector<double> seconds);

/// Aggregate accounting for one RunBatch call. Latency/QPS aggregate
/// only the successful responses (failed requests never executed);
/// num_queries counts everything.
struct BatchStats {
  size_t num_queries = 0;
  /// Worker shards actually used for the batch.
  int concurrency = 0;
  /// Wall clock of the whole batch, and successfully served queries per
  /// second derived of it.
  double wall_seconds = 0;
  double qps = 0;
  /// End-to-end per-query latency (one sample per served query).
  LatencySummary latency;
  /// Per pipeline stage latency, indexed by Stage, over the queries
  /// that ran the stage (count 0 when none did).
  std::array<LatencySummary, kNumStages> stage_latency;
  /// Every query's StageTimer merged (total seconds per stage).
  StageTimer total_stage_time;
  /// Successful responses served from the response cache (LRU hits +
  /// coalesced joins), and that count over all served responses.
  size_t cache_hits = 0;
  double cache_hit_rate = 0;
};

/// A served batch: responses in input order + the aggregate stats.
struct BatchResponse {
  std::vector<QueryResponse> responses;
  BatchStats stats;

  /// True iff every response succeeded.
  bool all_ok() const {
    for (const QueryResponse& r : responses) {
      if (!r.ok()) return false;
    }
    return true;
  }
};

/// Aggregates BatchStats from finished responses (execute_seconds is the
/// per-query latency sample).
BatchStats BuildBatchStats(const std::vector<QueryResponse>& responses,
                           int concurrency, double wall_seconds);

/// Hard cap on QueryRequest::columns (the paper's queries have 2-3; the
/// engine's cost is superlinear in q, so an unbounded list is a DoS
/// vector, not a use case).
inline constexpr size_t kMaxQueryColumns = 16;

/// Rejects out-of-range engine options (negative probe1_k, zero
/// max_candidates, out-of-range score_floor_fraction, ...) with an
/// InvalidArgument naming the field. OK options are safe to serve with.
[[nodiscard]] Status ValidateEngineOptions(const EngineOptions& options);

/// Rejects an empty column list, empty/whitespace-only columns (the
/// std::isspace set, as CanonicalQueryKey reads it) and more than
/// kMaxQueryColumns columns.
[[nodiscard]] Status ValidateQueryRequest(const QueryRequest& request);

/// Canonical form of a column keyword list: per column, lowercased with
/// whitespace runs collapsed, length-prefixed (so no column content can
/// alias a column boundary). Two requests with equal canonical keys
/// retrieve identical results from the same corpus with the same
/// options.
std::string CanonicalQueryKey(const std::vector<std::string>& columns);

/// Stable hash of every result-affecting EngineOptions field (probes,
/// floors, caps, mapper weights/mode, consolidator knobs).
uint64_t EngineOptionsFingerprint(const EngineOptions& options);

/// QueryResponse::fingerprint == 0 is the API's "request never got a
/// cache key" sentinel (rejected at validation / no corpus). A valid
/// request whose hash legitimately lands on 0 is remapped to this
/// reserved non-zero value by FinalizeFingerprint, so a real cache key
/// can never collide with the sentinel.
inline constexpr uint64_t kZeroFingerprintRemap = 0x9e3779b97f4a7c15ULL;

/// The final step of every fingerprint computation: maps the one
/// colliding hash value (0) onto the reserved constant, identity for
/// everything else.
constexpr uint64_t FinalizeFingerprint(uint64_t h) {
  return h == 0 ? kZeroFingerprintRemap : h;
}

/// The response-cache key: canonicalized columns + the serving
/// options' EngineOptionsFingerprint + the serving corpus's content
/// hash, finalized so it is never 0 (the invalid-request sentinel). A
/// request's tag and deadline do not affect the answer and are not
/// inputs.
uint64_t RequestFingerprint(const std::vector<std::string>& columns,
                            uint64_t options_fingerprint,
                            uint64_t corpus_content_hash);

/// Serializes everything observable about a served result — candidate
/// table ids, per-table mapping (id, relevant, labels), the mapping
/// objective, and the answer rows (support, score, cells). The one
/// canonical digest the byte-equivalence tests and benches compare, so
/// every equivalence gate checks the same definition of "identical".
std::string ResultDigest(const RetrievalResult& retrieval,
                         const MapResult& mapping,
                         const AnswerTable& answer);

/// Convenience for QueryExecution and QueryResponse alike (same field
/// names).
template <typename E>
std::string ResultDigest(const E& e) {
  return ResultDigest(e.retrieval, e.mapping, e.answer);
}

}  // namespace wwt

#endif  // WWT_WWT_API_H_
