#include "eval/harness.h"

#include "table/labels.h"
#include "util/logging.h"

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
  std::vector<QueryRequest> requests;
  requests.reserve(corpus_->queries.size());
  for (const ResolvedQuery& rq : corpus_->queries) {
    QueryRequest request;
    for (const QueryColumnSpec& col : rq.spec.columns) {
      request.columns.push_back(col.keywords);
    }
    request.tag = rq.spec.name;
    request.retrieval_only = true;
    requests.push_back(std::move(request));
  }

  ServiceOptions service_options;
  service_options.engine = engine_options_;
  service_options.num_threads = num_threads_;
  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::Create(std::move(service_options));
  WWT_CHECK(service.ok()) << service.status();
  (*service)->SwapCorpus(CorpusHandle::Borrow(corpus_));
  BatchResponse batch = (*service)->RunBatch(std::move(requests));

  std::vector<EvalCase> cases;
  cases.reserve(batch.responses.size());
  for (size_t i = 0; i < batch.responses.size(); ++i) {
    QueryResponse& response = batch.responses[i];
    WWT_CHECK(response.ok()) << response.status;
    const ResolvedQuery& rq = corpus_->queries[i];
    EvalCase c;
    c.resolved = rq;
    c.query = std::move(response.query);
    c.retrieval = std::move(response.retrieval);
    for (const CandidateTable& table : c.retrieval.tables) {
      c.truth.push_back(TruthLabels(rq, corpus_->TruthFor(table.table.id),
                                    table.num_cols));
    }
    cases.push_back(std::move(c));
  }
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
