#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::min(sorted.size(), std::max<size_t>(rank, 1));
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail TailOf(std::vector<double> samples, const std::vector<double>& ladder) {
  std::sort(samples.begin(), samples.end());
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = 50;
  for (double p : ladder) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    if (samples.size() >= rank + 10) tail.percentile = p;
  }
  tail.value = Percentile(samples, tail.percentile);
  return tail;
}

Phase* Report::phase(const std::string& name) {
  for (Phase& p : phases_) {
    if (p.name == name) return &p;
  }
  phases_.push_back(Phase{name});
  return &phases_.back();
}

void Report::AddEndToEnd(const std::string& name, double value,
                         const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::AddLayer(const std::string& name, double value,
                      const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Report::AddNote(const std::string& key, double value) {
  notes_.emplace_back(key, JsonNumber(value));
}

void Report::AddNote(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, JsonString(value));
}

uint64_t Report::attempted() const {
  uint64_t n = 0;
  for (const Phase& p : phases_) n += p.attempted;
  return n;
}

uint64_t Report::failed() const {
  uint64_t n = 0;
  for (const Phase& p : phases_) n += p.failed;
  return n;
}

namespace {

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string Report::DetailJson() const {
  std::string out = "{\"phases\": {";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const Phase& p = phases_[i];
    if (i > 0) out += ", ";
    out += JsonString(p.name) + ": {\"attempted\": " +
           std::to_string(p.attempted) +
           ", \"succeeded\": " + std::to_string(p.succeeded) +
           ", \"failed\": " + std::to_string(p.failed) + "}";
  }
  out += "}, \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(notes_[i].first) + ": " + notes_[i].second;
  }
  out += "}, \"end_to_end\": " + MetricsJson(end_to_end_) +
         ", \"per_layer\": " + MetricsJson(layers_) + "}";
  return out;
}

std::string Report::ResultJson(bool correct, bool per_layer) const {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted()) +
         ", \"failed\": " + std::to_string(failed()) + ", \"metrics\": " +
         MetricsJson(per_layer ? layers_ : end_to_end_) + "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
