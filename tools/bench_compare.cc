// Copyright 2026 The WWT Authors
//
// bench_compare — the CI perf-regression gate. Diffs a freshly written
// bench JSON (WWT_BENCH_JSON) against the committed baseline under
// bench/baseline/ and fails when a tracked metric regresses beyond its
// tolerance, or when any correctness flag in the current run is false.
// The JSON's "bench" field picks the metrics: bench_throughput (the
// default), bench_coldstart or bench_fig7_runtime. Refreshing a baseline
// is an explicit committed change, never something CI does silently.
//
//   bench_compare --baseline FILE --current FILE [--warn-only]
//
// Tracked metrics and tolerances:
//   * absolute throughput (serial_qps, probe wand_qps): regression when
//     current < baseline * (1 - 0.5). CI runners vary wildly between
//     runs, so only a halving is actionable signal.
//   * machine-normalized ratios (probe speedup, response_cache
//     hit_over_miss, shard_fanout vs_unsharded): regression when
//     current < baseline * (1 - 0.3). Same-machine ratios are far more
//     stable than raw QPS.
//   * fig7's column-map cost, the ratio of its "Column Map" to its
//     "1st Table Read" stage time (lower is better): regression when
//     current > baseline * (1 + 0.3).
//   * correctness flags (identical_to_serial, probe_sweep identical):
//     must be true in the current run. A false flag fails the gate even
//     under --warn-only — it means answers changed, not that the runner
//     was slow.
//
// Exit codes: 0 ok (or perf regressions under --warn-only), 1 gate
// failure, 2 usage or parse error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// ------------------------------------------------------------- JSON
// Minimal recursive-descent parser for the bench JSON dialect (objects,
// arrays, strings without exotic escapes, numbers, booleans, null).
// Self-contained so the gate needs no third-party dependency.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

  std::string error() const {
    return "JSON parse error near offset " + std::to_string(pos_);
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = e; break;  // \" \\ \/ and anything else verbatim
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (Literal("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    char* end = nullptr;
    out->number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    out->kind = JsonValue::Kind::kNumber;
    pos_ = static_cast<size_t>(end - text_.c_str());
    return true;
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------- gate

std::optional<double> NumberOf(const JsonValue* value) {
  if (value == nullptr || value->kind != JsonValue::Kind::kNumber) {
    return std::nullopt;
  }
  return value->number;
}

// CI runners vary wildly run to run, so only a halving of an absolute
// throughput number is actionable; same-machine ratios are much more
// stable and get a tighter band.
constexpr double kQpsTolerance = 0.5;
constexpr double kRatioTolerance = 0.3;

struct Gate {
  bool warn_only = false;
  int regressions = 0;
  int hard_failures = 0;
  int compared = 0;

  // One tracked numeric metric: regression when current falls below
  // baseline * (1 - tolerance). Missing on either side is reported but
  // only missing-in-current counts as a regression (the gate must not
  // silently pass when a metric disappears).
  void Numeric(const std::string& name, const JsonValue* baseline,
               const JsonValue* current, double tolerance) {
    Compare(name, NumberOf(baseline), NumberOf(current), tolerance);
  }

  // Numeric() on values already in hand. With `lower_is_better` the
  // regression is current rising above baseline * (1 + tolerance).
  void Compare(const std::string& name, std::optional<double> baseline,
               std::optional<double> current, double tolerance,
               bool lower_is_better = false) {
    if (!baseline) {
      std::printf("  %-44s (not in baseline; skipped)\n", name.c_str());
      return;
    }
    if (!current) {
      std::printf("  %-44s MISSING in current run\n", name.c_str());
      ++regressions;
      return;
    }
    ++compared;
    bool regressed = *current < *baseline * (1.0 - tolerance);
    if (lower_is_better) regressed = *current > *baseline * (1.0 + tolerance);
    std::printf("  %-44s %12.2f -> %12.2f  %s\n", name.c_str(), *baseline,
                *current, regressed ? "REGRESSED" : "ok");
    if (regressed) ++regressions;
  }

  // The summary line and the exit code for the tallies so far.
  int Finish() const {
    std::printf("bench_compare: %d metrics compared, %d regressed, "
                "%d correctness failures\n",
                compared, regressions, hard_failures);
    if (hard_failures > 0) return 1;
    if (regressions > 0) {
      if (warn_only) {
        std::printf("bench_compare: regressions tolerated (--warn-only)\n");
        return 0;
      }
      return 1;
    }
    std::printf("bench_compare: gate passed\n");
    return 0;
  }

  // A correctness flag must be true in the current run; the baseline
  // value is irrelevant. False answers are a hard failure even under
  // --warn-only.
  void MustBeTrue(const std::string& name, const JsonValue* current) {
    if (current == nullptr || current->kind != JsonValue::Kind::kBool ||
        !current->boolean) {
      std::printf("  %-44s correctness flag is %s\n", name.c_str(),
                  current == nullptr ? "MISSING" : "FALSE");
      ++hard_failures;
      return;
    }
    ++compared;
  }
};

// Finds the entry of an array-of-objects whose integer fields match
// `keys` (e.g. shards=4, k=50). Returns nullptr when absent.
const JsonValue* MatchEntry(
    const JsonValue* array,
    const std::vector<std::pair<const char*, double>>& keys) {
  if (array == nullptr || array->kind != JsonValue::Kind::kArray) {
    return nullptr;
  }
  for (const JsonValue& entry : array->array) {
    bool all = true;
    for (const auto& [key, want] : keys) {
      const JsonValue* v = entry.Find(key);
      if (v == nullptr || v->kind != JsonValue::Kind::kNumber ||
          v->number != want) {
        all = false;
        break;
      }
    }
    if (all) return &entry;
  }
  return nullptr;
}

const JsonValue* Field(const JsonValue* object, const char* key) {
  return object == nullptr ? nullptr : object->Find(key);
}

// fig7's column-map ms over its first-table-read ms; none when either is
// missing or the read took no time.
std::optional<double> ColumnMapOverRead(const JsonValue& run) {
  const JsonValue* stages = run.Find("stage_total_ms");
  const std::optional<double> map = NumberOf(Field(stages, "Column Map"));
  const std::optional<double> read = NumberOf(Field(stages, "1st Table Read"));
  if (!map || !read || !(*read > 0)) return std::nullopt;
  return *map / *read;
}

bool LoadJson(const char* path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  JsonParser parser(text);
  if (!parser.Parse(out)) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path,
                 parser.error().c_str());
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_compare --baseline FILE --current FILE "
               "[--warn-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  bool warn_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--current" && i + 1 < argc) {
      current_path = argv[++i];
    } else if (arg == "--warn-only") {
      warn_only = true;
    } else {
      return Usage();
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) return Usage();

  JsonValue baseline, current;
  if (!LoadJson(baseline_path, &baseline) ||
      !LoadJson(current_path, &current)) {
    return 2;
  }

  Gate gate;
  gate.warn_only = warn_only;
  std::printf("bench_compare: %s vs baseline %s\n", current_path,
              baseline_path);

  // Dispatch on the bench kind: bench_coldstart writes {"bench":
  // "coldstart", ...}, bench_fig7_runtime {"bench": "fig7_runtime", ...};
  // everything else is the bench_throughput shape.
  const JsonValue* kind = current.Find("bench");
  std::string bench;
  if (kind != nullptr && kind->kind == JsonValue::Kind::kString) {
    bench = kind->str;
  }
  if (bench == "fig7_runtime") {
    // Column map against the first table read of the same run: both
    // scale with the machine, so the ratio tracks the mapper's own cost.
    gate.Compare("column_map_over_table_read", ColumnMapOverRead(baseline),
                 ColumnMapOverRead(current), kRatioTolerance,
                 /*lower_is_better=*/true);
    return gate.Finish();
  }
  if (bench == "coldstart") {
    // Answers served from the zero-copy load must match the built
    // corpus byte for byte — a false flag is a hard failure.
    gate.MustBeTrue("identical", current.Find("identical"));
    // The headline ratio (rebuild seconds / load seconds) is a
    // same-machine ratio, but load times are tiny at small scales, so
    // the band is wide: regression only when the current speedup falls
    // below 20% of the recorded baseline.
    gate.Numeric("speedup", baseline.Find("speedup"),
                 current.Find("speedup"), 0.8);
    // RSS is reported for the trajectory, never gated: page-cache
    // behaviour on shared CI runners is not a stable signal.
    const JsonValue* rss_base = baseline.Find("rss_kb");
    const JsonValue* rss = current.Find("rss_kb");
    if (rss_base != nullptr && rss != nullptr) {
      std::printf("  %-44s %12.0f -> %12.0f  (reported only)\n", "rss_kb",
                  rss_base->number, rss->number);
    }
    return gate.Finish();
  }

  // Correctness first: if the current run's answers diverged from the
  // serial reference the numbers below are meaningless.
  gate.MustBeTrue("identical_to_serial",
                  current.Find("identical_to_serial"));
  gate.MustBeTrue("response_cache.identical_to_serial",
                  Field(current.Find("response_cache"),
                        "identical_to_serial"));
  if (const JsonValue* sweep = current.Find("probe_sweep")) {
    for (const JsonValue& entry : sweep->array) {
      gate.MustBeTrue("probe_sweep.identical", entry.Find("identical"));
    }
  }

  gate.Numeric("serial_qps", baseline.Find("serial_qps"),
               current.Find("serial_qps"), kQpsTolerance);
  gate.Numeric("response_cache.hit_over_miss",
               Field(baseline.Find("response_cache"), "hit_over_miss"),
               Field(current.Find("response_cache"), "hit_over_miss"),
               kRatioTolerance);
  for (double shards : {2.0, 4.0, 8.0}) {
    const char* name[] = {"shard_fanout[2].vs_unsharded",
                          "shard_fanout[4].vs_unsharded",
                          "shard_fanout[8].vs_unsharded"};
    const int idx = shards == 2.0 ? 0 : shards == 4.0 ? 1 : 2;
    gate.Numeric(name[idx],
                 Field(MatchEntry(baseline.Find("shard_fanout"),
                                  {{"shards", shards}}),
                       "vs_unsharded"),
                 Field(MatchEntry(current.Find("shard_fanout"),
                                  {{"shards", shards}}),
                       "vs_unsharded"),
                 kRatioTolerance);
  }
  for (double shards : {1.0, 4.0}) {
    for (double k : {10.0, 50.0}) {
      const std::string tag = "probe_sweep[shards=" +
                              std::to_string(static_cast<int>(shards)) +
                              ",k=" +
                              std::to_string(static_cast<int>(k)) + "]";
      const JsonValue* b = MatchEntry(baseline.Find("probe_sweep"),
                                      {{"shards", shards}, {"k", k}});
      const JsonValue* c = MatchEntry(current.Find("probe_sweep"),
                                      {{"shards", shards}, {"k", k}});
      gate.Numeric(tag + ".wand_qps", Field(b, "wand_qps"),
                   Field(c, "wand_qps"), kQpsTolerance);
      gate.Numeric(tag + ".speedup", Field(b, "speedup"),
                   Field(c, "speedup"), kRatioTolerance);
    }
  }

  return gate.Finish();
}
