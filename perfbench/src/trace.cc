#include "trace.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <unordered_set>
#include <utility>

#include "core/edges.h"
#include "core/potentials.h"
#include "report.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"
#include "wwt/api.h"

namespace perfbench {

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = Now();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int span) {
  spans_[span].end_ns = Now();
  WWT_CHECK(!open_.empty() && open_.back() == span) << "spans must nest";
  open_.pop_back();
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.ms();
  }
  return self;
}

wwt::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  const std::vector<double> self = SelfMs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"request\": " << s.request
        << ", \"name\": " << JsonString(s.name)
        << ", \"start_us\": " << s.start_ns / 1000
        << ", \"end_us\": " << s.end_ns / 1000 << ", \"parent\": " << s.parent
        << ", \"self_ms\": " << JsonNumber(self[i]) << "}\n";
  }
  out.flush();
  if (!out) return wwt::Status::IOError("cannot write spans to ", path);
  return wwt::Status::OK();
}

namespace {

/// WwtEngine's score floor: drop hits below `fraction` of the top one.
void ApplyScoreFloor(std::vector<wwt::ScoredDoc>* hits, double fraction) {
  if (hits->empty()) return;
  const double floor = (*hits)[0].score * fraction;
  while (!hits->empty() && hits->back().score < floor) hits->pop_back();
}

}  // namespace

TracedPipeline::TracedPipeline(const wwt::CorpusSet* corpus,
                               wwt::EngineOptions options,
                               SpanRecorder* recorder)
    : corpus_(corpus), options_(std::move(options)), recorder_(recorder) {
  WWT_CHECK(corpus_->num_shards() == 1) << "traced pipeline needs one shard";
  WWT_CHECK(options_.mapper.mode != wwt::InferenceMode::kIndependent)
      << "the edges replica assumes a collective inference mode";
}

std::vector<wwt::CandidateTable> TracedPipeline::ReadTables(
    const std::vector<wwt::ScoredDoc>& docs,
    const std::vector<wwt::CandidateTable>& have) {
  const wwt::TableStore& store = corpus_->shard(0).store();
  std::unordered_set<wwt::TableId> skip;
  for (const wwt::CandidateTable& t : have) skip.insert(t.table.id);
  std::vector<wwt::CandidateTable> out;
  for (const wwt::ScoredDoc& doc : docs) {
    if (skip.count(doc.doc) != 0) continue;
    wwt::StatusOr<wwt::WebTable> table = [&] {
      ScopedSpan span(recorder_, "store.get");
      return store.Get(doc.doc);
    }();
    if (!table.ok()) continue;  // the engine skips unreadable tables too
    ScopedSpan span(recorder_, "candidate.build");
    out.push_back(
        wwt::CandidateTable::Build(std::move(table).value(), corpus_->stats()));
  }
  return out;
}

std::string TracedPipeline::Execute(const std::vector<std::string>& columns,
                                    uint32_t request, TraceCounts* counts) {
  const wwt::CorpusStats& stats = corpus_->stats();
  const wwt::TableIndex& index = corpus_->shard(0).index();
  recorder_->set_request(request);
  *counts = TraceCounts{};

  wwt::RetrievalResult retrieval;
  wwt::MapResult mapping;
  wwt::AnswerTable answer;
  {
    ScopedSpan root(recorder_, "query");
    wwt::Query query;
    {
      ScopedSpan span(recorder_, "query.parse");
      query = wwt::Query::Parse(columns, stats);
    }

    std::vector<wwt::ScoredDoc> hits1;
    {
      ScopedSpan span(recorder_, "probe.first");
      hits1 = index.Search(query.all_keywords, options_.probe1_k,
                           options_.scorer);
      ApplyScoreFloor(&hits1, options_.score_floor_fraction);
    }
    counts->first_hits = static_cast<int>(hits1.size());
    {
      ScopedSpan span(recorder_, "read.first");
      retrieval.tables = ReadTables(hits1, {});
    }

    // The quick confidence pass that picks the second probe's seeds.
    std::vector<std::pair<double, int>> confident;
    {
      ScopedSpan span(recorder_, "colmap.quick");
      wwt::MapperOptions quick = options_.mapper;
      quick.mode = wwt::InferenceMode::kIndependent;
      wwt::ColumnMapper mapper(&stats, quick);
      wwt::MapResult quick_map = mapper.Map(query, retrieval.tables);
      for (size_t t = 0; t < quick_map.tables.size(); ++t) {
        const wwt::TableMapping& tm = quick_map.tables[t];
        if (tm.relevant && tm.relevance_prob >= options_.confident_prob) {
          confident.emplace_back(tm.relevance_prob, static_cast<int>(t));
        }
      }
      std::sort(confident.begin(), confident.end(),
                std::greater<std::pair<double, int>>());
      if (confident.size() > 2) confident.resize(2);
    }
    ++counts->map_passes;

    if (!confident.empty()) {
      counts->used_second_probe = true;
      // Row sampling exactly as WwtEngine::Retrieve seeds it.
      std::vector<std::string> keywords = query.all_keywords;
      uint64_t seed = 0xC0FFEE;
      for (const std::string& kw : query.all_keywords) {
        seed = seed * 1099511628211ULL + wwt::Fnv1a(kw);
      }
      wwt::Random rng(seed);
      for (const auto& [prob, t] : confident) {
        const wwt::WebTable& table = retrieval.tables[t].table;
        const int rows = table.num_body_rows();
        if (rows == 0) continue;
        const int want =
            options_.sample_rows / static_cast<int>(confident.size());
        for (size_t r : rng.SampleWithoutReplacement(rows, std::max(want, 1))) {
          std::string row_text;
          for (const std::string& cell : table.body[r]) {
            row_text += cell;
            row_text += ' ';
          }
          keywords.push_back(std::move(row_text));
        }
      }
      std::vector<wwt::ScoredDoc> hits2;
      {
        ScopedSpan span(recorder_, "probe.second");
        hits2 = index.Search(keywords, options_.probe2_k, options_.scorer);
        ApplyScoreFloor(&hits2, std::max(options_.score_floor_fraction, 0.25));
      }
      counts->second_hits = static_cast<int>(hits2.size());
      std::vector<wwt::CandidateTable> extra;
      {
        ScopedSpan span(recorder_, "read.second");
        extra = ReadTables(hits2, retrieval.tables);
      }
      counts->second_probe_new = static_cast<int>(extra.size());
      for (wwt::CandidateTable& t : extra) {
        retrieval.tables.push_back(std::move(t));
      }
    }
    if (static_cast<int>(retrieval.tables.size()) > options_.max_candidates) {
      retrieval.tables.resize(options_.max_candidates);
    }
    const std::vector<wwt::CandidateTable>& tables = retrieval.tables;
    counts->candidates = static_cast<int>(tables.size());
    for (size_t i = 0; i < tables.size(); ++i) {
      for (size_t j = i + 1; j < tables.size(); ++j) {
        counts->pairs_scored +=
            static_cast<int64_t>(tables[i].num_cols) * tables[j].num_cols;
      }
    }

    {
      ScopedSpan span(recorder_, "colmap");
      {
        ScopedSpan replica(recorder_, "potentials");
        wwt::FeatureComputer features(&stats, options_.mapper.features);
        for (const wwt::CandidateTable& t : tables) {
          std::vector<std::vector<double>> theta = wwt::ComputeNodePotentials(
              query, t, &features, options_.mapper.weights,
              options_.mapper.use_pmi2);
          WWT_CHECK(static_cast<int>(theta.size()) == t.num_cols);
        }
      }
      {
        ScopedSpan replica(recorder_, "edges");
        counts->edges_kept = static_cast<int>(
            wwt::BuildCrossEdges(tables, options_.mapper.edges).size());
      }
      ScopedSpan map(recorder_, "colmap.map");
      wwt::ColumnMapper mapper(&stats, options_.mapper);
      mapping = mapper.Map(query, tables);
    }
    ++counts->map_passes;

    ScopedSpan span(recorder_, "consolidate");
    answer = wwt::Consolidate(query, tables, mapping, options_.consolidator);
  }
  counts->answer_rows = static_cast<int>(answer.rows.size());
  return wwt::ResultDigest(retrieval, mapping, answer);
}

}  // namespace perfbench
