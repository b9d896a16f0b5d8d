#include "setup.h"

#include <algorithm>
#include <cstdio>

#include "index/snapshot.h"
#include "util/logging.h"
#include "util/timer.h"
#include "wwt/engine.h"

namespace perfbench {

ServingSetup BuildServing(uint64_t corpus_seed, const std::string& workdir,
                          const wwt::ServiceOptions& options, int repeats) {
  ServingSetup setup;
  wwt::CorpusOptions corpus_options;
  corpus_options.seed = corpus_seed;
  corpus_options.scale = 1.0;
  for (int i = 0; i < repeats; ++i) {
    // Drop the previous repetition first, so every repetition starts
    // from the same empty process state. Each one saves to a new file
    // name: renaming over the previous snapshot made the save about 20x
    // slower and far noisier than writing a fresh file.
    setup.service.reset();
    setup.corpus.reset();
    if (!setup.snapshot_path.empty()) std::remove(setup.snapshot_path.c_str());
    setup.snapshot_path = workdir + "/corpus-" + std::to_string(i) + ".wwtsnap";

    SetupTiming timing;
    wwt::WallTimer total;
    {
      wwt::WallTimer step;
      wwt::Corpus corpus = wwt::GenerateCorpus(corpus_options);
      timing.build_s = step.ElapsedSeconds();
      step.Restart();
      wwt::Status saved =
          wwt::SaveSnapshot(corpus, corpus_options, setup.snapshot_path);
      WWT_CHECK(saved.ok()) << saved;
      timing.save_s = step.ElapsedSeconds();
    }
    wwt::WallTimer step;
    wwt::StatusOr<wwt::OpenCorpusResult> opened =
        wwt::OpenCorpus(setup.snapshot_path);
    WWT_CHECK(opened.ok()) << opened.status();
    timing.open_s = step.ElapsedSeconds();
    setup.corpus = std::move(opened->corpus);
    setup.snapshot_bytes = opened->info.file_bytes;

    wwt::StatusOr<std::unique_ptr<wwt::WwtService>> service =
        wwt::WwtService::Create(options);
    WWT_CHECK(service.ok()) << service.status();
    setup.service = std::move(service).value();
    setup.service->SwapCorpus(setup.corpus);
    timing.total_s = total.ElapsedSeconds();
    setup.timings.push_back(timing);
  }
  return setup;
}

Reference BuildReference(const wwt::CorpusSet& corpus) {
  WWT_CHECK(corpus.num_shards() == 1) << "the benchmark serves one shard";
  Reference ref;
  for (const wwt::ResolvedQuery& rq : corpus.queries()) {
    std::vector<std::string> columns;
    for (const wwt::QueryColumnSpec& col : rq.spec.columns) {
      columns.push_back(col.keywords);
    }
    ref.queries.push_back(std::move(columns));
  }

  wwt::WwtEngine engine(corpus.shard_refs(), &corpus.stats());
  for (const std::vector<std::string>& columns : ref.queries) {
    wwt::QueryExecution exec = engine.Execute(columns);
    ref.digests.push_back(wwt::ResultDigest(exec));
    for (const wwt::CandidateTable& t : exec.retrieval.tables) {
      ref.retrieved.push_back(t.table.id);
    }
  }
  std::sort(ref.retrieved.begin(), ref.retrieved.end());
  ref.retrieved.erase(std::unique(ref.retrieved.begin(), ref.retrieved.end()),
                      ref.retrieved.end());

  // One serial retrieval pass attaches the truth labels; its candidate
  // lists are the served ones (same pipeline, same options).
  ref.harness = std::make_unique<wwt::EvalHarness>(
      &corpus.shard(0).corpus(), wwt::EngineOptions{}, /*num_threads=*/1);
  ref.cases = ref.harness->BuildCases();
  WWT_CHECK(ref.cases.size() == ref.queries.size());
  return ref;
}

wwt::QueryRequest RequestFor(const Reference& ref, size_t q) {
  return wwt::QueryRequest::Of(ref.queries[q]);
}

}  // namespace perfbench
