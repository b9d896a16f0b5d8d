// Copyright 2026 The WWT Authors
//
// Quickstart: build a small synthetic web-table corpus, stand up a
// WwtService over it, run one column-keyword query through the full WWT
// pipeline (two-phase probe, column mapping, consolidation), and print
// the answer table.
//
// Usage: quickstart [scale]   (scale defaults to 0.5)

#include <cstdio>
#include <cstdlib>

#include "corpus/corpus_generator.h"
#include "wwt/service.h"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.5;

  // 1. Build the corpus: synthetic web pages -> HTML parsing -> table
  //    extraction -> header/context detection -> inverted index.
  wwt::CorpusOptions corpus_options;
  corpus_options.seed = 42;
  corpus_options.scale = scale;
  std::printf("Generating corpus (scale %.2f)...\n", scale);
  wwt::Corpus corpus = wwt::GenerateCorpus(corpus_options);
  std::printf("  %zu tables extracted from %d table tags "
              "(%d rejected as non-data)\n",
              corpus.store.size(), corpus.harvest_stats.table_tags,
              corpus.harvest_stats.table_tags -
                  corpus.harvest_stats.data_tables);

  // 2. Stand the service up over the corpus and ask for a three-column
  //    table, Fig. 1's running example.
  auto service = wwt::WwtService::Create();
  if (!service.ok()) {
    std::fprintf(stderr, "quickstart: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  (*service)->SwapCorpus(wwt::CorpusHandle::Own(std::move(corpus)));

  wwt::QueryRequest request = wwt::QueryRequest::Of(
      {"name of explorers", "nationality", "areas explored"});
  std::printf("\nQuery: \"%s | %s | %s\"\n", request.columns[0].c_str(),
              request.columns[1].c_str(), request.columns[2].c_str());

  wwt::QueryResponse response = (*service)->Run(std::move(request));
  if (!response.ok()) {
    std::fprintf(stderr, "quickstart: %s\n",
                 response.status.ToString().c_str());
    return 1;
  }

  int relevant = 0;
  for (const auto& tm : response.mapping.tables) relevant += tm.relevant;
  std::printf("Candidates: %zu (probe 1: %d, new from probe 2: %d), "
              "relevant: %d\n",
              response.retrieval.tables.size(),
              response.retrieval.from_first_probe,
              response.retrieval.new_from_second_probe, relevant);

  // 3. Print the consolidated answer.
  std::printf("\n%-28s %-14s %-28s support\n", "Name", "Nationality",
              "Areas explored");
  int shown = 0;
  for (const wwt::AnswerRow& row : response.answer.rows) {
    std::printf("%-28s %-14s %-28s %d\n", row.cells[0].c_str(),
                row.cells[1].c_str(), row.cells[2].c_str(), row.support);
    if (++shown >= 15) break;
  }
  std::printf("(%zu rows total)\n", response.answer.rows.size());

  std::printf("\nStage timings (seconds):\n");
  for (int s = 0; s < wwt::kNumStages; ++s) {
    const wwt::Stage stage = static_cast<wwt::Stage>(s);
    if (!response.timing.ran(stage)) continue;
    std::printf("  %-16s %.4f\n", wwt::kStageNames[s],
                response.timing.Get(stage));
  }
  return 0;
}
