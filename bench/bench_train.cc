// Copyright 2026 The WWT Authors
//
// Training (§3.4): exhaustive grid enumeration of the six objective
// weights (and the baselines' thresholds) on a training corpus with a
// different seed than the evaluation corpus. The printed winners are the
// library defaults in core/potentials.h and core/baselines.h.
//
// Env: WWT_TRAIN_SEED (default 7), WWT_SCALE, WWT_TRAIN_QUERIES (cap).

#include "bench/bench_common.h"

using namespace wwt;
using namespace wwt::bench;

int main() {
  const uint64_t seed = EnvUint("WWT_TRAIN_SEED", 7, 0, UINT64_MAX);
  const size_t cap = EnvUint("WWT_TRAIN_QUERIES", 24, 0, SIZE_MAX);
  Experiment e = BuildExperiment(EnvScale(), seed);
  const TableIndex* index = e.corpus.index.get();

  std::vector<EvalCase> cases = std::move(e.cases);
  // Default to a 24-query training budget so the full bench sweep stays
  // fast; set WWT_TRAIN_QUERIES to widen (e.g. 59 for the full workload).
  if (cases.size() > cap) cases.resize(cap);

  std::printf("=== Training on seed %llu, %zu queries ===\n",
              static_cast<unsigned long long>(seed), cases.size());

  for (BaselineKind kind : {BaselineKind::kBasic, BaselineKind::kNbrText,
                            BaselineKind::kPmi2}) {
    BaselineOptions base;
    base.kind = kind;
    BaselineTrainResult r = TrainBaseline(index, cases, base);
    std::printf("%-8s: table_threshold=%.3f column_threshold=%.3f "
                "pmi_weight=%.1f  (err %.1f%%, %d configs)\n",
                BaselineKindToString(kind), r.options.table_threshold,
                r.options.column_threshold, r.options.pmi_weight,
                r.mean_error, r.configs_tried);
  }

  MapperOptions base;
  WwtTrainResult r = TrainWwtWeights(index, cases, base);
  std::printf("WWT     : w1=%.2f w2=%.2f w3=%.2f w4=%.2f w5=%.2f we=%.2f "
              "(err %.1f%%, %d configs)\n",
              r.weights.w1, r.weights.w2, r.weights.w3, r.weights.w4,
              r.weights.w5, r.weights.we, r.mean_error, r.configs_tried);
  return 0;
}
