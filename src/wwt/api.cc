#include "wwt/api.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/hash.h"
#include "util/string_util.h"

namespace wwt {

LatencySummary Summarize(std::vector<double> seconds) {
  LatencySummary s;
  s.count = seconds.size();
  if (seconds.empty()) return s;
  std::sort(seconds.begin(), seconds.end());
  double sum = 0;
  for (double v : seconds) sum += v;
  s.mean = sum / seconds.size();
  // Nearest-rank: percentile p is the ceil(p/100 * n)-th smallest.
  auto rank = [&](double p) {
    size_t r = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(seconds.size())));
    return seconds[std::min(seconds.size() - 1, std::max<size_t>(r, 1) - 1)];
  };
  s.p50 = rank(50);
  s.p95 = rank(95);
  s.p99 = rank(99);
  s.max = seconds.back();
  return s;
}

BatchStats BuildBatchStats(const std::vector<QueryResponse>& responses,
                           int concurrency, double wall_seconds) {
  BatchStats stats;
  stats.num_queries = responses.size();
  stats.concurrency = concurrency;
  stats.wall_seconds = wall_seconds;

  // Failed responses never executed: a 0-second "latency" from a
  // rejected or expired request would drag p50/mean down and a
  // QPS counting unserved queries would inflate throughput, so only
  // successful responses feed the aggregates (num_queries still counts
  // everything; failures are visible via the responses themselves).
  std::vector<double> latency;
  latency.reserve(responses.size());
  size_t served = 0;
  std::array<std::vector<double>, kNumStages> per_stage;
  for (const QueryResponse& r : responses) {
    if (!r.ok()) continue;
    ++served;
    if (r.served_from_cache) ++stats.cache_hits;
    latency.push_back(r.execute_seconds);
    for (int s = 0; s < kNumStages; ++s) {
      const Stage stage = static_cast<Stage>(s);
      if (!r.timing.ran(stage)) continue;
      stats.total_stage_time.Add(stage, r.timing.Get(stage));
      per_stage[s].push_back(r.timing.Get(stage));
    }
  }
  stats.qps = wall_seconds > 0 ? served / wall_seconds : 0;
  stats.cache_hit_rate =
      served > 0 ? static_cast<double>(stats.cache_hits) / served : 0;
  stats.latency = Summarize(std::move(latency));
  for (int s = 0; s < kNumStages; ++s) {
    stats.stage_latency[s] = Summarize(std::move(per_stage[s]));
  }
  return stats;
}

namespace {

Status BadField(const char* field, const char* constraint) {
  return Status::InvalidArgument("EngineOptions.", field, " ", constraint);
}

bool InUnitRange(double v) { return v >= 0.0 && v <= 1.0; }

}  // namespace

Status ValidateEngineOptions(const EngineOptions& o) {
  if (o.probe1_k < 1) return BadField("probe1_k", "must be >= 1");
  if (o.probe2_k < 1) return BadField("probe2_k", "must be >= 1");
  if (o.scorer != ProbeScorer::kWand &&
      o.scorer != ProbeScorer::kExhaustive) {
    return BadField("scorer", "must be wand or exhaustive");
  }
  if (o.shard_failure != ShardFailurePolicy::kFail &&
      o.shard_failure != ShardFailurePolicy::kPartial) {
    return BadField("shard_failure", "must be fail or partial");
  }
  if (!InUnitRange(o.score_floor_fraction)) {
    return BadField("score_floor_fraction", "must be in [0, 1]");
  }
  if (o.sample_rows < 0) return BadField("sample_rows", "must be >= 0");
  if (!InUnitRange(o.confident_prob)) {
    return BadField("confident_prob", "must be in [0, 1]");
  }
  if (o.max_candidates < 1) return BadField("max_candidates", "must be >= 1");
  if (!InUnitRange(o.mapper.confidence_threshold)) {
    return BadField("mapper.confidence_threshold", "must be in [0, 1]");
  }
  if (!(o.mapper.prob_temperature > 0)) {
    return BadField("mapper.prob_temperature", "must be > 0");
  }
  // BuildCrossEdges WWT_CHECKs the first two: its term-sharing skip and
  // matching shortcut are exact only for a positive floor and weight.
  if (!(o.mapper.edges.sim_floor > 0 && o.mapper.edges.sim_floor <= 1)) {
    return BadField("mapper.edges.sim_floor", "must be in (0, 1]");
  }
  if (!(o.mapper.edges.content_weight > 0 &&
        o.mapper.edges.content_weight <= 1)) {
    return BadField("mapper.edges.content_weight", "must be in (0, 1]");
  }
  if (!(std::isfinite(o.mapper.edges.nsim_lambda) &&
        o.mapper.edges.nsim_lambda >= 0)) {
    return BadField("mapper.edges.nsim_lambda", "must be finite and >= 0");
  }
  if (o.consolidator.max_rows < 1) {
    return BadField("consolidator.max_rows", "must be >= 1");
  }
  if (!InUnitRange(o.consolidator.min_relevance_prob)) {
    return BadField("consolidator.min_relevance_prob", "must be in [0, 1]");
  }
  return Status::OK();
}

Status ValidateQueryRequest(const QueryRequest& request) {
  if (request.columns.empty()) {
    return Status::InvalidArgument("query has no columns");
  }
  if (request.columns.size() > kMaxQueryColumns) {
    return Status::InvalidArgument("query has ", request.columns.size(),
                                   " columns; the limit is ",
                                   kMaxQueryColumns);
  }
  for (size_t i = 0; i < request.columns.size(); ++i) {
    if (StripWhitespace(request.columns[i]).empty()) {
      return Status::InvalidArgument("column ", i + 1,
                                     " is empty or whitespace-only");
    }
  }
  return Status::OK();
}

std::string CanonicalQueryKey(const std::vector<std::string>& columns) {
  std::string key;
  for (const std::string& column : columns) {
    std::string canonical;
    bool pending_space = false;
    bool emitted = false;
    for (char ch : column) {
      if (std::isspace(static_cast<unsigned char>(ch))) {
        pending_space = emitted;  // drop leading runs, collapse inner ones
        continue;
      }
      if (pending_space) {
        canonical += ' ';
        pending_space = false;
      }
      canonical += static_cast<char>(
          std::tolower(static_cast<unsigned char>(ch)));
      emitted = true;
    }
    // Length-prefixed framing: no column content (separators, control
    // bytes) can make two different column lists collide on one key.
    key += std::to_string(canonical.size());
    key += ':';
    key += canonical;
  }
  return key;
}

namespace {

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  return HashCombine(h, bits);
}

uint64_t MixInt(uint64_t h, uint64_t v) { return HashCombine(h, v); }

}  // namespace

uint64_t EngineOptionsFingerprint(const EngineOptions& o) {
  uint64_t h = Fnv1a("EngineOptions/v2");
  h = MixInt(h, static_cast<uint64_t>(o.probe1_k));
  h = MixInt(h, static_cast<uint64_t>(o.probe2_k));
  // The scorer does not change results (the equivalence guarantee), but
  // it is an execution knob a cache key must separate: a response served
  // under one scorer must never masquerade as a measurement of the
  // other.
  h = MixInt(h, static_cast<uint64_t>(o.scorer));
  h = MixDouble(h, o.score_floor_fraction);
  h = MixInt(h, static_cast<uint64_t>(o.sample_rows));
  h = MixDouble(h, o.confident_prob);
  h = MixInt(h, static_cast<uint64_t>(o.max_candidates));
  // Degradation policy changes what a shard failure turns into (error
  // vs marked-partial answer), so it separates cache keys.
  h = MixInt(h, static_cast<uint64_t>(o.shard_failure));
  // Mapper: weights, inference mode and the calibration knobs all change
  // labels and therefore answers.
  h = MixDouble(h, o.mapper.weights.w1);
  h = MixDouble(h, o.mapper.weights.w2);
  h = MixDouble(h, o.mapper.weights.w3);
  h = MixDouble(h, o.mapper.weights.w4);
  h = MixDouble(h, o.mapper.weights.w5);
  h = MixDouble(h, o.mapper.weights.we);
  h = MixInt(h, static_cast<uint64_t>(o.mapper.mode));
  h = MixInt(h, o.mapper.use_pmi2 ? 1 : 0);
  h = MixDouble(h, o.mapper.features.reliability.title);
  h = MixDouble(h, o.mapper.features.reliability.context);
  h = MixDouble(h, o.mapper.features.reliability.other_header_row);
  h = MixDouble(h, o.mapper.features.reliability.other_header_col);
  h = MixDouble(h, o.mapper.features.reliability.frequent_body);
  h = MixInt(h, static_cast<uint64_t>(o.mapper.features.max_pmi_rows));
  h = MixInt(h, o.mapper.features.unsegmented ? 1 : 0);
  h = MixDouble(h, o.mapper.edges.nsim_lambda);
  h = MixDouble(h, o.mapper.edges.sim_floor);
  h = MixDouble(h, o.mapper.edges.content_weight);
  h = MixInt(h, o.mapper.edges.max_matching_only ? 1 : 0);
  h = MixInt(h, o.mapper.edges.normalize ? 1 : 0);
  h = MixDouble(h, o.mapper.confidence_threshold);
  h = MixDouble(h, o.mapper.prob_temperature);
  // Consolidator: shapes the final answer rows.
  h = MixInt(h, o.consolidator.fuzzy_keys ? 1 : 0);
  h = MixInt(h, static_cast<uint64_t>(o.consolidator.max_rows));
  h = MixDouble(h, o.consolidator.min_relevance_prob);
  return h;
}

std::string ResultDigest(const RetrievalResult& retrieval,
                         const MapResult& mapping,
                         const AnswerTable& answer) {
  std::ostringstream out;
  out << "retrieved:";
  for (const CandidateTable& t : retrieval.tables) {
    out << ' ' << t.table.id;
  }
  out << "\nmapping:";
  for (const TableMapping& tm : mapping.tables) {
    out << " [" << tm.id << ':' << tm.relevant;
    for (int l : tm.labels) out << ',' << l;
    out << ']';
  }
  out << "\nobjective: " << mapping.objective << "\nanswer:\n";
  for (const AnswerRow& row : answer.rows) {
    out << row.support << '|' << row.score;
    for (const std::string& cell : row.cells) out << '|' << cell;
    out << '\n';
  }
  return out.str();
}

uint64_t RequestFingerprint(const std::vector<std::string>& columns,
                            uint64_t options_fingerprint,
                            uint64_t corpus_content_hash) {
  uint64_t h = Fnv1a(CanonicalQueryKey(columns));
  h = HashCombine(h, options_fingerprint);
  h = HashCombine(h, corpus_content_hash);
  return FinalizeFingerprint(h);
}

}  // namespace wwt
