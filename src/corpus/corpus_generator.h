// Copyright 2026 The WWT Authors
//
// Builds the full synthetic corpus: for every Table 1 query it emits the
// paper-calibrated number of relevant and keyword-confusable pages, adds
// global noise pages, pushes everything through the real HTML extraction
// pipeline into a TableStore + TableIndex, and registers ground truth by
// fingerprint-matching harvested tables back to their generating specs.

#ifndef WWT_CORPUS_CORPUS_GENERATOR_H_
#define WWT_CORPUS_CORPUS_GENERATOR_H_

#include <memory>
#include <vector>

#include "corpus/ground_truth.h"
#include "corpus/knowledge_base.h"
#include "corpus/page_generator.h"
#include "corpus/workload.h"
#include "extract/harvester.h"
#include "index/table_index.h"
#include "index/table_store.h"
#include "util/serde.h"

namespace wwt {

struct CorpusOptions {
  uint64_t seed = 42;
  /// Multiplies every query's Table 1 page targets (0.5 = half corpus).
  double scale = 1.0;
  /// Unrelated pages (distractor topics, no query keywords).
  int noise_pages = 150;
  /// Queries to generate pages for; empty = whole Table 1 workload.
  std::vector<QuerySpec> workload;
};

/// A fully built corpus. Movable, not copyable (owns the store/index).
struct Corpus {
  std::unique_ptr<KnowledgeBase> kb;
  TableStore store;
  std::unique_ptr<TableIndex> index;
  TruthMap truth;
  std::vector<ResolvedQuery> queries;
  HarvestStats harvest_stats;
  /// Pins the snapshot mapping a loaded corpus reads from; null for
  /// generated corpora. Shared so responses in flight can outlive a
  /// SwapCorpus that drops the corpus itself.
  std::shared_ptr<const serde::InputFile> mapping;

  /// Truth for a table; nullptr for noise tables.
  const TableTruth* TruthFor(TableId id) const {
    auto it = truth.find(id);
    return it == truth.end() ? nullptr : &it->second;
  }
};

/// Generates pages, harvests, indexes and registers ground truth.
Corpus GenerateCorpus(const CorpusOptions& options = {});

}  // namespace wwt

#endif  // WWT_CORPUS_CORPUS_GENERATOR_H_
