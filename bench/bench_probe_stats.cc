// Copyright 2026 The WWT Authors
//
// §2.2.1 statistics of the two-phase index probe: how many queries used
// the second probe, what fraction of relevant source tables came from
// it, and the relevant fraction per stage. Paper: 2nd probe used on 65%
// of queries; for those, ~50% of relevant tables came from stage 2;
// stage-1 relevant fraction 52% vs 70% in stage 2.

#include "table/labels.h"

#include "bench/bench_common.h"

using namespace wwt;
using namespace wwt::bench;

int main() {
  Experiment e = BuildExperiment();

  int used_second = 0, with_candidates = 0;
  int64_t stage1_total = 0, stage1_rel = 0;
  int64_t stage2_total = 0, stage2_rel = 0;
  double second_stage_rel_share_sum = 0;
  int second_stage_share_n = 0;

  for (const EvalCase& c : e.cases) {
    const size_t n = c.retrieval.tables.size();
    if (n == 0) continue;
    ++with_candidates;
    used_second += c.retrieval.used_second_probe;

    const size_t first_n = static_cast<size_t>(c.retrieval.from_first_probe);
    int64_t rel1 = 0, rel2 = 0;
    for (size_t t = 0; t < n; ++t) {
      bool relevant = false;
      for (int l : c.truth[t]) {
        if (l != kLabelNr) relevant = true;
      }
      if (t < first_n) {
        ++stage1_total;
        rel1 += relevant;
      } else {
        ++stage2_total;
        rel2 += relevant;
      }
    }
    stage1_rel += rel1;
    stage2_rel += rel2;
    if (c.retrieval.used_second_probe && rel1 + rel2 > 0) {
      second_stage_rel_share_sum +=
          static_cast<double>(rel2) / static_cast<double>(rel1 + rel2);
      ++second_stage_share_n;
    }
  }

  std::printf("=== §2.2.1: two-phase index probe statistics ===\n");
  std::printf("Queries with candidates: %d; used second probe: %d "
              "(%.0f%%; paper 65%%)\n",
              with_candidates, used_second,
              100.0 * used_second / std::max(with_candidates, 1));
  std::printf("Stage-1 relevant fraction: %.0f%% (paper 52%%)\n",
              100.0 * stage1_rel / std::max<int64_t>(stage1_total, 1));
  std::printf("Stage-2 relevant fraction: %.0f%% (paper 70%%)\n",
              100.0 * stage2_rel / std::max<int64_t>(stage2_total, 1));
  std::printf("Mean share of relevant tables from stage 2 (queries using "
              "it): %.0f%% (paper ~50%%)\n",
              second_stage_share_n > 0
                  ? 100.0 * second_stage_rel_share_sum /
                        second_stage_share_n
                  : 0.0);

  // Machine-readable summary (WWT_BENCH_JSON).
  if (FILE* json = OpenBenchJson()) {
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"probe_stats\",\n"
        "  \"scale\": %.4f,\n"
        "  \"seed\": %llu,\n"
        "  \"queries_with_candidates\": %d,\n"
        "  \"used_second_probe\": %d,\n"
        "  \"stage1_relevant_fraction\": %.4f,\n"
        "  \"stage2_relevant_fraction\": %.4f,\n"
        "  \"stage2_relevant_share\": %.4f\n"
        "}\n",
        EnvScale(), static_cast<unsigned long long>(EnvSeed()),
        with_candidates, used_second,
        static_cast<double>(stage1_rel) /
            std::max<int64_t>(stage1_total, 1),
        static_cast<double>(stage2_rel) /
            std::max<int64_t>(stage2_total, 1),
        second_stage_share_n > 0
            ? second_stage_rel_share_sum / second_stage_share_n
            : 0.0);
    std::fclose(json);
  }
  return 0;
}
