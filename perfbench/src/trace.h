// Copyright 2026 The WWT Authors
//
// The benchmark's per-layer trace. Spans are recorded from outside the
// library, around calls into each layer's public functions: the traced
// pipeline re-composes WwtEngine::Execute step by step (parse, index
// probes, table reads, candidate builds, the quick confidence map, the
// column mapper, consolidation) and must give the ResultDigest-identical
// answer, which shows the re-composition is the served pipeline.
//
// The column mapper is one call, ColumnMapper::Map. Its potentials and
// edges are measured by replicas run next to it — one
// ComputeNodePotentials pass over all candidates and one BuildCrossEdges
// call — and inference is what Map takes beyond them.

#ifndef WWT_PERFBENCH_TRACE_H_
#define WWT_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "index/corpus_set.h"
#include "util/status.h"
#include "wwt/engine.h"

namespace perfbench {

/// One timed layer call.
struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;   // since the recorder was created
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans; -1 for a root
  uint32_t request = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Keeps every span in memory; written out once, when the run ends.
/// Single-threaded: spans nest by call order on one thread.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Spans begun from now on carry `request`.
  void set_request(uint32_t request) { request_ = request; }

  /// Opens a span whose parent is the innermost open span.
  int Begin(const char* name);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the durations of its direct children.
  std::vector<double> SelfMs() const;

  /// One JSON object per span and line.
  [[nodiscard]] wwt::Status WriteJsonLines(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Work counts of one traced query, counted from outside.
struct TraceCounts {
  int first_hits = 0;   // after the score floor
  int second_hits = 0;  // after the stricter floor; 0 when unused
  bool used_second_probe = false;
  int candidates = 0;  // final candidate set
  int second_probe_new = 0;
  int map_passes = 0;  // ColumnMapper::Map calls, each a potentials pass
  int64_t pairs_scored = 0;  // sum over table pairs of c_i * c_j
  int edges_kept = 0;
  int answer_rows = 0;
};

/// Execute, step by step, with a span around every layer call.
class TracedPipeline {
 public:
  /// `corpus` must have one shard; it and `recorder` must outlive this.
  TracedPipeline(const wwt::CorpusSet* corpus, wwt::EngineOptions options,
                 SpanRecorder* recorder);

  /// Serves `columns` as request `request`; returns the answer's
  /// ResultDigest (computed outside the spans).
  std::string Execute(const std::vector<std::string>& columns,
                      uint32_t request, TraceCounts* counts);

 private:
  std::vector<wwt::CandidateTable> ReadTables(
      const std::vector<wwt::ScoredDoc>& docs,
      const std::vector<wwt::CandidateTable>& have);

  const wwt::CorpusSet* corpus_;
  wwt::EngineOptions options_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // WWT_PERFBENCH_TRACE_H_
