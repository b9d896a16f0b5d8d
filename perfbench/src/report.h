// Copyright 2026 The WWT Authors
//
// Result bookkeeping for the serving benchmark: named metrics with
// units, per-phase attempted/succeeded/failed counters, latency
// percentiles, and the JSON lines the benchmark prints.

#ifndef WWT_PERFBENCH_REPORT_H_
#define WWT_PERFBENCH_REPORT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0-100] of ascending `sorted` (0 when
/// empty) — the same rule as wwt::Summarize.
double Percentile(const std::vector<double>& sorted, double p);

/// Median of `values` (not required sorted; 0 when empty).
double Median(std::vector<double> values);

/// Mean of `values` (0 when empty).
double Mean(const std::vector<double>& values);

/// A tail latency: the highest percentile of a ladder with at least ten
/// samples beyond it, its value, and the sample count it came from.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};

/// Picks the tail of `samples` from `ladder` (ascending percentiles).
/// The ladder tops out below what a fast run could reach, so the
/// percentile a workload reports does not move when throughput does.
Tail TailOf(std::vector<double> samples, const std::vector<double>& ladder);

/// Operations of one benchmark phase.
struct Phase {
  std::string name;
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;

  void Count(bool ok) {
    ++attempted;
    (ok ? succeeded : failed) += 1;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports. Metrics are kept in insertion order.
class Report {
 public:
  /// The phase named `name`, created on first use. The pointer stays
  /// valid for the report's lifetime.
  Phase* phase(const std::string& name);

  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit);
  void AddLayer(const std::string& name, double value,
                const std::string& unit);
  /// Free-form context for the report line (percentile choices, sample
  /// counts, seed, ...).
  void AddNote(const std::string& key, double value);
  void AddNote(const std::string& key, const std::string& value);

  uint64_t attempted() const;
  uint64_t failed() const;

  /// Every metric, phase and note as one JSON object on one line.
  std::string DetailJson() const;
  /// The result line: correct/attempted/failed and either the
  /// end-to-end or the per-layer metrics.
  std::string ResultJson(bool correct, bool per_layer) const;

 private:
  std::deque<Phase> phases_;  // deque: phase() pointers stay valid
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, std::string>> notes_;  // JSON values
};

/// Quotes and escapes `s` as a JSON string.
std::string JsonString(const std::string& s);

/// Formats `v` with every significant digit (JSON has no NaN/inf: those
/// print as 0).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // WWT_PERFBENCH_REPORT_H_
