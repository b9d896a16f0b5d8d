#include "eval/harness.h"

#include "table/labels.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "wwt/api.h"

namespace wwt {

int EvalCase::num_relevant_truth() const {
  int n = 0;
  for (const auto& labels : truth) {
    bool relevant = false;
    for (int l : labels) {
      if (l != kLabelNr) relevant = true;
    }
    n += relevant;
  }
  return n;
}

EvalHarness::EvalHarness(const Corpus* corpus, EngineOptions engine_options,
                         int num_threads)
    : corpus_(corpus),
      engine_options_(std::move(engine_options)),
      num_threads_(num_threads) {}

std::vector<EvalCase> EvalHarness::BuildCases() {
  const Status valid = ValidateEngineOptions(engine_options_);
  WWT_CHECK(valid.ok()) << valid;
  WWT_CHECK(num_threads_ >= 0) << "num_threads must be >= 0";

  // Retrieve reads the shared corpus and only writes to its own result,
  // so every worker probes through the one engine.
  const WwtEngine engine(&corpus_->store, corpus_->index.get(),
                         engine_options_);
  const std::vector<ResolvedQuery>& queries = corpus_->queries;
  std::vector<EvalCase> cases(queries.size());
  ThreadPool pool(num_threads_ > 0 ? num_threads_
                                   : ThreadPool::DefaultNumThreads());
  ParallelFor(&pool, queries.size(), /*concurrency=*/0, [&](size_t i) {
    const ResolvedQuery& rq = queries[i];
    std::vector<std::string> columns;
    for (const QueryColumnSpec& col : rq.spec.columns) {
      columns.push_back(col.keywords);
    }
    EvalCase& c = cases[i];
    c.resolved = rq;
    c.query = Query::Parse(columns, engine.stats());
    c.retrieval = engine.Retrieve(c.query, nullptr);
    for (const CandidateTable& table : c.retrieval.tables) {
      c.truth.push_back(TruthLabels(rq, corpus_->TruthFor(table.table.id),
                                    table.num_cols));
    }
  });
  return cases;
}

std::vector<std::vector<int>> EvalHarness::PredictedLabels(
    const MapResult& result) {
  std::vector<std::vector<int>> labels;
  labels.reserve(result.tables.size());
  for (const TableMapping& tm : result.tables) {
    labels.push_back(tm.labels);
  }
  return labels;
}

std::vector<double> EvalHarness::Evaluate(
    const std::vector<EvalCase>& cases, const MappingFn& method) const {
  std::vector<double> errors;
  errors.reserve(cases.size());
  for (const EvalCase& c : cases) {
    MapResult result = method(c.query, c.retrieval.tables);
    errors.push_back(F1Error(PredictedLabels(result), c.truth));
  }
  return errors;
}

MapResult EvalHarness::TruthMapping(const EvalCase& eval_case) const {
  MapResult result;
  for (size_t t = 0; t < eval_case.retrieval.tables.size(); ++t) {
    TableMapping tm;
    tm.id = eval_case.retrieval.tables[t].table.id;
    tm.labels = eval_case.truth[t];
    tm.relevant = false;
    for (int l : tm.labels) {
      if (l != kLabelNr) tm.relevant = true;
    }
    tm.relevance_prob = tm.relevant ? 1.0 : 0.0;
    result.tables.push_back(std::move(tm));
  }
  return result;
}

double EvalHarness::AnswerError(const EvalCase& eval_case,
                                const MapResult& mapping) const {
  AnswerTable predicted =
      Consolidate(eval_case.query, eval_case.retrieval.tables, mapping,
                  engine_options_.consolidator);
  AnswerTable truth =
      Consolidate(eval_case.query, eval_case.retrieval.tables,
                  TruthMapping(eval_case), engine_options_.consolidator);
  return RowSetError(predicted, truth);
}

}  // namespace wwt
