// Copyright 2026 The WWT Authors
//
// WwtEngine: the end-to-end query pipeline of Fig. 2 — two-phase index
// probe (§2.2.1), column mapping (§3-4), consolidation and ranking
// (§2.2.3) — with per-stage wall-clock accounting for the Fig. 7
// runtime-breakdown experiment.
//
// The engine serves one corpus or a sharded one through the same
// pipeline skeleton: each index probe scatters over the shards (in
// parallel on a probe pool when one is provided), the per-shard top-k
// hits merge under the index's total order (score desc, id asc), and
// mapping + consolidation run once on the merged candidate pool under
// the corpus-wide statistics. Because every shard of a CorpusSet
// carries the GLOBAL vocabulary/IDF, a document's score is bit-identical
// wherever it lives, so the merged top-k equals the unsharded top-k and
// sharded answers are byte-identical to the single-index engine — the
// single-corpus constructor is literally the 1-shard case.

#ifndef WWT_WWT_ENGINE_H_
#define WWT_WWT_ENGINE_H_

#include <array>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/column_mapper.h"
#include "index/corpus_set.h"
#include "index/table_store.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "wwt/consolidator.h"

namespace wwt {

/// The pipeline stages recorded in QueryExecution::timing (Fig. 7's
/// series), in pipeline order. They index StageTimer and
/// BatchStats::stage_latency.
enum Stage : int {
  kStage1stIndex,
  kStage1stRead,
  kStage2ndIndex,
  kStage2ndRead,
  kStageColumnMap,
  kStageConsolidate,
  kNumStages,
};

/// Display names by Stage ("1st Index" ... "Consolidate"): Fig. 7's
/// column heads and the keys of bench_fig7_runtime's JSON.
inline constexpr const char* kStageNames[kNumStages] = {
    "1st Index",      "1st Table Read", "2nd Index",
    "2nd Table Read", "Column Map",     "Consolidate"};

/// Per-stage wall-clock seconds of one query, or their sum over a batch:
/// a fixed array indexed by Stage, so recording a stage allocates
/// nothing. ran() separates a stage that never ran (the second probe is
/// skipped when no table is confident) from one that took 0 s.
class StageTimer {
 public:
  /// Adds `seconds` to `stage` and marks it as run.
  void Add(Stage stage, double seconds) {
    seconds_[stage] += seconds;
    ran_ |= 1u << stage;
  }

  /// Seconds recorded against `stage` (0 if it never ran).
  double Get(Stage stage) const { return seconds_[stage]; }
  bool ran(Stage stage) const { return (ran_ >> stage) & 1u; }

  /// Sum over all stages.
  double Total() const {
    double t = 0;
    for (double v : seconds_) t += v;
    return t;
  }

  void Clear() { *this = StageTimer(); }

 private:
  std::array<double, kNumStages> seconds_{};
  unsigned ran_ = 0;
};

/// RAII helper: adds the scope's duration to a StageTimer on destruction.
class ScopedStageTimer {
 public:
  ScopedStageTimer(StageTimer* sink, Stage stage)
      : sink_(sink), stage_(stage) {}
  ~ScopedStageTimer() { sink_->Add(stage_, timer_.ElapsedSeconds()); }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  StageTimer* sink_;
  Stage stage_;
  WallTimer timer_;
};

/// What the scatter-gather does when a shard probe fails (only remote
/// probes can fail — a local TableIndex::Search cannot). Either way a
/// failure where NO shard answered is a hard error: "partial" degrades
/// gracefully, it does not invent empty answers out of a dead cluster.
enum class ShardFailurePolicy : int {
  /// The whole query fails with the shard's Status (the default: never
  /// serve a silently incomplete answer).
  kFail = 0,
  /// Drop the dead shard's hits and serve the rest, with
  /// RetrievalResult::partial set so the response is explicitly marked
  /// (and never cached).
  kPartial = 1,
};

struct EngineOptions {
  /// Top-k of the first / second index probe.
  int probe1_k = 60;
  int probe2_k = 60;
  /// Top-k algorithm for the index probes. Both scorers return identical
  /// results (see docs/RETRIEVAL.md); kExhaustive exists as the
  /// reference for equivalence tests and perf comparisons.
  ProbeScorer scorer = ProbeScorer::kWand;
  /// Hits scoring below this fraction of the top hit are dropped (keeps
  /// single-stopword-grade matches out of the candidate set).
  double score_floor_fraction = 0.05;
  /// Rows sampled from the top-2 confident tables for the second probe.
  int sample_rows = 10;
  /// Relevance probability a table needs to seed the second probe.
  double confident_prob = 0.8;
  /// Hard cap on the candidate set after both probes.
  int max_candidates = 150;
  /// Degradation policy when a remote shard probe fails. Result-affecting
  /// (a partial answer differs from a full one), so it is part of the
  /// options fingerprint.
  ShardFailurePolicy shard_failure = ShardFailurePolicy::kFail;
  MapperOptions mapper;
  ConsolidatorOptions consolidator;
};

/// Candidate retrieval outcome (§2.2.1 statistics).
struct RetrievalResult {
  std::vector<CandidateTable> tables;
  int from_first_probe = 0;
  int new_from_second_probe = 0;
  bool used_second_probe = false;
  /// Scatter-gather outcome: non-OK when a shard probe failed and the
  /// policy was kFail (or no shard answered at all) — the pipeline stops
  /// after retrieval and the service surfaces this status.
  Status shard_status;
  /// Failed per-shard probe calls across both probes (kPartial only).
  int failed_shards = 0;
  /// True when hits from at least one failed shard were dropped — the
  /// answer is explicitly degraded, is marked on the response and is
  /// never cached.
  bool partial = false;
};

/// Everything one query produces.
struct QueryExecution {
  Query query;
  RetrievalResult retrieval;
  MapResult mapping;
  AnswerTable answer;
  StageTimer timing;
};

/// The search engine over a built corpus — one shard or many (all
/// borrowed; they must outlive the engine).
class WwtEngine {
 public:
  /// Single-corpus engine (the 1-shard case; `index` is also the stats
  /// surface).
  WwtEngine(const TableStore* store, const TableIndex* index,
            EngineOptions options = {});

  /// Scatter-gather engine over `shards` (non-empty, disjoint id
  /// ranges). `stats` must expose the corpus-WIDE vocabulary/IDF (every
  /// shard of a CorpusSet carries them; CorpusSet::stats() unions the
  /// PMI^2 doc sets). When `probe_pool` is non-null and there is more
  /// than one shard, per-shard probes run as parallel pool tasks —
  /// shard 0's probe always runs on the calling thread, so progress
  /// never depends on a free pool worker.
  ///
  /// `overlay` (borrowed, may be null) layers a freshness delta over
  /// the frozen shards (docs/FRESHNESS.md): its index is probed next to
  /// them (on the calling thread — it is in-memory and tiny), frozen
  /// hits it Hides() are dropped (each probe over-fetches by
  /// hidden_count() so the merged top-k stays exact), and table reads
  /// for ids it Contains() are served from it instead of the stores.
  /// When non-null, `stats` must be the overlay's combined surface (so
  /// fresh-only terms resolve and doc-set probes see delta tables).
  WwtEngine(std::vector<CorpusShardRef> shards, const CorpusStats* stats,
            EngineOptions options = {}, ThreadPool* probe_pool = nullptr,
            const CorpusOverlay* overlay = nullptr);

  /// Full pipeline for one query.
  QueryExecution Execute(const std::vector<std::string>& column_keywords);

  /// Retrieval only (used by the evaluation harness so every method maps
  /// the same candidate set). Timing lands in `timer` when non-null.
  /// Const and free of shared writes, so one engine may serve
  /// concurrent callers.
  RetrievalResult Retrieve(const Query& query, StageTimer* timer) const;

  const EngineOptions& options() const { return options_; }
  size_t num_shards() const { return shards_.size(); }
  /// The corpus-wide statistics surface queries parse and map against.
  const CorpusStats& stats() const { return *stats_; }

  /// Absolute deadline propagated to remote shard probes (max() = none;
  /// remote clients convert it to a relative budget on the wire). Local
  /// probes are not preempted — the PR-3 contract, where deadlines gate
  /// admission and dequeue, extends to remote calls only because those
  /// can actually be bounded.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }

 private:
  /// One index probe, scattered over the shards and merged back to the
  /// global top-k under (score desc, id asc) — byte-identical to a
  /// single-index Search because global IDF makes per-document scores
  /// shard-independent. Shard failures resolve per
  /// options_.shard_failure, with partial accounting recorded on
  /// `result`.
  StatusOr<std::vector<ScoredDoc>> Probe(
      const std::vector<std::string>& keywords, int k,
      RetrievalResult* result) const;

  /// One shard's probe: the remote ShardProbe when the ref carries one,
  /// the local index otherwise (which cannot fail).
  StatusOr<std::vector<ScoredDoc>> ShardSearch(
      size_t s, const std::vector<std::string>& keywords, int k) const;

  /// The shard holding `doc` (by id range), or nullptr.
  const TableStore* StoreOf(TableId doc) const;

  /// Reads and preprocesses the given docs, skipping ids in `have`.
  std::vector<CandidateTable> ReadTables(
      const std::vector<ScoredDoc>& docs,
      const std::vector<CandidateTable>* have) const;

  std::vector<CorpusShardRef> shards_;
  /// Per shard: its [first_id, end_id) range, for routing table reads.
  std::vector<std::pair<TableId, TableId>> shard_ranges_;
  const CorpusStats* stats_;
  ThreadPool* probe_pool_ = nullptr;
  const CorpusOverlay* overlay_ = nullptr;
  EngineOptions options_;
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
};

}  // namespace wwt

#endif  // WWT_WWT_ENGINE_H_
