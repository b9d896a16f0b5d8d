#include "wwt/engine.h"

#include <algorithm>
#include <future>
#include <unordered_set>

#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"

namespace wwt {

WwtEngine::WwtEngine(const TableStore* store, const TableIndex* index,
                     EngineOptions options)
    : WwtEngine({{store, index}}, index, std::move(options)) {}

WwtEngine::WwtEngine(std::vector<CorpusShardRef> shards,
                     const CorpusStats* stats, EngineOptions options,
                     ThreadPool* probe_pool, const CorpusOverlay* overlay)
    : shards_(std::move(shards)),
      stats_(stats),
      probe_pool_(probe_pool),
      overlay_(overlay),
      options_(std::move(options)) {
  WWT_CHECK(!shards_.empty()) << "engine needs at least one shard";
  WWT_CHECK(stats_ != nullptr) << "engine needs a corpus stats surface";
  shard_ranges_.reserve(shards_.size());
  for (const CorpusShardRef& shard : shards_) {
    WWT_CHECK(shard.store != nullptr && shard.index != nullptr);
    shard_ranges_.emplace_back(shard.store->first_id(),
                               shard.store->end_id());
  }
}

const TableStore* WwtEngine::StoreOf(TableId doc) const {
  // Shard counts are small (the service caps fan-out well under the
  // table count); a linear scan beats binary search at this size.
  for (size_t s = 0; s < shard_ranges_.size(); ++s) {
    if (doc >= shard_ranges_[s].first && doc < shard_ranges_[s].second) {
      return shards_[s].store;
    }
  }
  return nullptr;
}

StatusOr<std::vector<ScoredDoc>> WwtEngine::ShardSearch(
    size_t s, const std::vector<std::string>& keywords, int k) const {
  if (shards_[s].probe != nullptr) {
    return shards_[s].probe->Search(keywords, k, options_.scorer, deadline_);
  }
  return shards_[s].index->Search(keywords, k, options_.scorer);
}

StatusOr<std::vector<ScoredDoc>> WwtEngine::Probe(
    const std::vector<std::string>& keywords, int k,
    RetrievalResult* result) const {
  // Scatter: each shard's top-k under the global IDF. Any document in
  // the global top-k is by definition in its own shard's top-k, so the
  // union contains the global answer. A shard's probe may be remote
  // (shards_[s].probe), so every per-shard call carries a Status.
  //
  // With a freshness overlay the frozen probes over-fetch by the number
  // of superseded/tombstoned ids: up to hidden_count() frozen hits are
  // dropped below, and fetching k + hidden_count() guarantees the
  // survivors still contain the frozen top-k.
  const int frozen_k =
      (k >= 0 && overlay_ != nullptr)
          ? k + static_cast<int>(overlay_->hidden_count())
          : k;
  std::vector<std::vector<ScoredDoc>> per_shard(shards_.size());
  std::vector<Status> shard_status(shards_.size());
  auto run_shard = [&](size_t s) {
    StatusOr<std::vector<ScoredDoc>> hits =
        ShardSearch(s, keywords, frozen_k);
    if (hits.ok()) {
      per_shard[s] = std::move(hits).value();
    } else {
      shard_status[s] = hits.status();
    }
  };

  if (shards_.size() == 1) {
    run_shard(0);
  } else if (probe_pool_ != nullptr) {
    // Shard 0 runs on the calling thread: the probe makes progress even
    // when every pool worker is busy, and the waits below always
    // terminate because probe tasks never block past their own deadline.
    // The scatter itself sits inside the try so that even a throwing
    // Submit leaves every already-scattered future drained before the
    // rethrow — no task can outlive per_shard/keywords.
    std::vector<std::future<void>> pending;
    pending.reserve(shards_.size() - 1);
    std::exception_ptr first_error;
    try {
      for (size_t s = 1; s < shards_.size(); ++s) {
        pending.push_back(probe_pool_->Submit([&run_shard, s] {
          run_shard(s);
        }));
      }
      run_shard(0);
    } catch (...) {
      first_error = std::current_exception();
    }
    for (std::future<void>& f : pending) {
      try {
        f.get();
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error);
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) run_shard(s);
  }

  // Degradation: kFail surfaces the first failed shard; kPartial drops
  // its hits and marks the result — unless NO shard answered, which is
  // a hard error under either policy (serving an empty answer off a
  // fully dead cluster is not "degraded", it is wrong).
  size_t ok_shards = 0;
  Status first_failure;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_status[s].ok()) {
      ++ok_shards;
      continue;
    }
    if (first_failure.ok()) {
      first_failure = Status(shard_status[s].code(),
                             "shard " + std::to_string(s) +
                                 " probe failed: " +
                                 shard_status[s].message());
    }
  }
  if (!first_failure.ok()) {
    if (options_.shard_failure == ShardFailurePolicy::kFail ||
        ok_shards == 0) {
      return first_failure;
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!shard_status[s].ok()) ++result->failed_shards;
    }
    result->partial = true;
  }

  // The overlay's in-memory index is probed on the calling thread at
  // plain k (no over-fetch: delta hits are never hidden). Its scores
  // are exact peers of the frozen ones — same pinned vocabulary/IDF,
  // same scorer — so the merge below needs no special casing.
  std::vector<ScoredDoc> delta_hits;
  if (overlay_ != nullptr && overlay_->index() != nullptr) {
    delta_hits = overlay_->index()->Search(keywords, k, options_.scorer);
  }

  // Gather: merge under Search's exact total order (score desc, id asc;
  // ids are unique across shards, and hidden frozen ids — the ones the
  // overlay supersedes or tombstones — are dropped here) and
  // re-truncate to k.
  size_t total = delta_hits.size();
  for (const auto& hits : per_shard) total += hits.size();
  std::vector<ScoredDoc> merged;
  merged.reserve(total);
  for (auto& hits : per_shard) {
    if (overlay_ != nullptr) {
      for (const ScoredDoc& hit : hits) {
        if (!overlay_->Hides(hit.doc)) merged.push_back(hit);
      }
    } else {
      merged.insert(merged.end(), hits.begin(), hits.end());
    }
  }
  merged.insert(merged.end(), delta_hits.begin(), delta_hits.end());
  if (shards_.size() > 1 || overlay_ != nullptr) {
    std::sort(merged.begin(), merged.end(),
              [](const ScoredDoc& a, const ScoredDoc& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (k >= 0 && static_cast<int>(merged.size()) > k) merged.resize(k);
  }
  return merged;
}

std::vector<CandidateTable> WwtEngine::ReadTables(
    const std::vector<ScoredDoc>& docs,
    const std::vector<CandidateTable>* have) const {
  std::unordered_set<TableId> skip;
  if (have != nullptr) {
    for (const CandidateTable& t : *have) skip.insert(t.table.id);
  }
  std::vector<CandidateTable> out;
  for (const ScoredDoc& doc : docs) {
    if (skip.count(doc.doc)) continue;
    // Overlay tables (fresh, updated or patched) are read from the
    // delta; a frozen id the overlay supersedes never reaches here (its
    // hits are dropped in Probe).
    if (overlay_ != nullptr && overlay_->Contains(doc.doc)) {
      StatusOr<WebTable> table = overlay_->Read(doc.doc);
      if (!table.ok()) {
        WWT_LOG(Warning) << "skipping unreadable delta table " << doc.doc
                         << ": " << table.status().ToString();
        continue;
      }
      out.push_back(
          CandidateTable::Build(std::move(table).value(), *stats_));
      continue;
    }
    const TableStore* store = StoreOf(doc.doc);
    if (store == nullptr) {
      WWT_LOG(Warning) << "skipping table " << doc.doc
                       << ": no shard holds its id";
      continue;
    }
    StatusOr<WebTable> table = store->Get(doc.doc);
    if (!table.ok()) {
      WWT_LOG(Warning) << "skipping unreadable table " << doc.doc << ": "
                       << table.status().ToString();
      continue;
    }
    out.push_back(CandidateTable::Build(std::move(table).value(), *stats_));
  }
  return out;
}

RetrievalResult WwtEngine::Retrieve(const Query& query,
                                    StageTimer* timer) const {
  StageTimer local;
  if (timer == nullptr) timer = &local;
  RetrievalResult result;

  auto apply_score_floor = [](std::vector<ScoredDoc>* hits,
                              double fraction) {
    if (hits->empty()) return;
    const double floor = (*hits)[0].score * fraction;
    while (!hits->empty() && hits->back().score < floor) {
      hits->pop_back();
    }
  };

  // ----- First probe: union of all query keywords.
  std::vector<ScoredDoc> hits1;
  {
    ScopedStageTimer st(timer, kStage1stIndex);
    StatusOr<std::vector<ScoredDoc>> probed =
        Probe(query.all_keywords, options_.probe1_k, &result);
    if (!probed.ok()) {
      result.shard_status = probed.status();
      return result;
    }
    hits1 = std::move(probed).value();
    apply_score_floor(&hits1, options_.score_floor_fraction);
  }
  {
    ScopedStageTimer st(timer, kStage1stRead);
    result.tables = ReadTables(hits1, nullptr);
  }
  result.from_first_probe = static_cast<int>(result.tables.size());

  // ----- Find the top-2 very confident tables (quick mapping pass).
  std::vector<std::pair<double, int>> confident;
  {
    ScopedStageTimer st(timer, kStageColumnMap);
    MapperOptions quick = options_.mapper;
    quick.mode = InferenceMode::kIndependent;  // cheap confidence pass
    ColumnMapper mapper(stats_, quick);
    MapResult quick_map = mapper.Map(query, result.tables);
    for (size_t t = 0; t < quick_map.tables.size(); ++t) {
      const TableMapping& tm = quick_map.tables[t];
      if (tm.relevant && tm.relevance_prob >= options_.confident_prob) {
        confident.emplace_back(tm.relevance_prob, static_cast<int>(t));
      }
    }
    std::sort(confident.begin(), confident.end(),
              std::greater<std::pair<double, int>>());
    if (confident.size() > 2) confident.resize(2);
  }

  // ----- Second probe: Q plus rows sampled from the confident tables.
  if (!confident.empty()) {
    result.used_second_probe = true;
    std::vector<std::string> probe2_keywords = query.all_keywords;
    uint64_t seed = 0xC0FFEE;
    for (const std::string& kw : query.all_keywords) {
      seed = seed * 1099511628211ULL + Fnv1a(kw);
    }
    Random rng(seed);
    for (const auto& [prob, t] : confident) {
      const WebTable& table = result.tables[t].table;
      const int rows = table.num_body_rows();
      if (rows == 0) continue;
      int want = options_.sample_rows / static_cast<int>(confident.size());
      for (size_t r : rng.SampleWithoutReplacement(
               rows, std::max(want, 1))) {
        std::string row_text;
        for (const std::string& cell : table.body[r]) {
          row_text += cell;
          row_text += ' ';
        }
        probe2_keywords.push_back(std::move(row_text));
      }
    }

    std::vector<ScoredDoc> hits2;
    {
      ScopedStageTimer st(timer, kStage2ndIndex);
      StatusOr<std::vector<ScoredDoc>> probed =
          Probe(probe2_keywords, options_.probe2_k, &result);
      if (!probed.ok()) {
        result.shard_status = probed.status();
        return result;
      }
      hits2 = std::move(probed).value();
      // The second probe exists to pull in content-overlapping tables;
      // a stricter floor keeps tables that merely share a few common
      // tokens with the sampled rows (years, small numbers) out.
      apply_score_floor(
          &hits2, std::max(options_.score_floor_fraction, 0.25));
    }
    {
      ScopedStageTimer st(timer, kStage2ndRead);
      std::vector<CandidateTable> extra =
          ReadTables(hits2, &result.tables);
      result.new_from_second_probe = static_cast<int>(extra.size());
      for (CandidateTable& t : extra) {
        result.tables.push_back(std::move(t));
      }
    }
  }

  if (static_cast<int>(result.tables.size()) > options_.max_candidates) {
    result.tables.resize(options_.max_candidates);
  }
  return result;
}

QueryExecution WwtEngine::Execute(
    const std::vector<std::string>& column_keywords) {
  QueryExecution exec;
  exec.query = Query::Parse(column_keywords, *stats_);
  exec.retrieval = Retrieve(exec.query, &exec.timing);
  // A failed scatter-gather (shard down under the kFail policy) stops
  // the pipeline: mapping a knowingly incomplete candidate set would
  // produce a confidently wrong answer, not a degraded one.
  if (!exec.retrieval.shard_status.ok()) return exec;

  {
    ScopedStageTimer st(&exec.timing, kStageColumnMap);
    ColumnMapper mapper(stats_, options_.mapper);
    exec.mapping = mapper.Map(exec.query, exec.retrieval.tables);
  }
  {
    ScopedStageTimer st(&exec.timing, kStageConsolidate);
    exec.answer = Consolidate(exec.query, exec.retrieval.tables,
                              exec.mapping, options_.consolidator);
  }
  return exec;
}

}  // namespace wwt
