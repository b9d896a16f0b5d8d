#include "wwt/service.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "fresh/merge.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/timer.h"

namespace wwt {

namespace {

/// A future that is already resolved (validation and precondition
/// failures never touch the pool).
std::future<QueryResponse> Ready(QueryResponse response) {
  std::promise<QueryResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

bool DeadlinePassed(const QueryRequest& request) {
  return request.has_deadline() &&
         std::chrono::steady_clock::now() >= request.deadline;
}

}  // namespace

// ------------------------------------------------------------- WwtService

Status ValidateServiceOptions(const ServiceOptions& options) {
  WWT_RETURN_NOT_OK(ValidateEngineOptions(options.engine));
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::num_threads must be >= 0, got ", options.num_threads);
  }
  return ValidateResponseCacheOptions(options.cache);
}

WwtService::WwtService(ServiceOptions options)
    : options_(std::move(options)),
      options_fingerprint_(EngineOptionsFingerprint(options_.engine)),
      cache_(options_.cache.capacity_bytes > 0
                 ? std::make_unique<ResponseCache>(options_.cache)
                 : nullptr),
      pool_(options_.num_threads > 0 ? options_.num_threads
                                     : ThreadPool::DefaultNumThreads()) {}

WwtService::~WwtService() = default;

StatusOr<std::unique_ptr<WwtService>> WwtService::Create(
    ServiceOptions options) {
  WWT_RETURN_NOT_OK(ValidateServiceOptions(options));
  return std::unique_ptr<WwtService>(new WwtService(std::move(options)));
}

StatusOr<std::unique_ptr<WwtService>> WwtService::FromSnapshot(
    const std::string& snapshot_path, ServiceOptions options,
    SnapshotInfo* info) {
  WWT_ASSIGN_OR_RETURN(std::unique_ptr<WwtService> service,
                       Create(std::move(options)));
  WWT_ASSIGN_OR_RETURN(OpenCorpusResult opened, OpenCorpus(snapshot_path));
  if (info != nullptr) *info = opened.info;
  service->SwapCorpus(std::move(opened.corpus));
  return service;
}

void WwtService::InstallCorpusLocked(
    std::shared_ptr<const CorpusSet> corpus) {
  if (corpus != nullptr && corpus->num_shards() > 1 &&
      shard_pool_ == nullptr) {
    // First multi-shard set: start the fan-out pool. Created once and
    // shared into every request that captures it, so a later swap back
    // to one shard (or teardown) can never yank it from under a probe.
    shard_pool_ = std::make_shared<ThreadPool>(ThreadPool::DefaultNumThreads());
  }
  corpus_ = std::move(corpus);
  // Remote probes are bound to one corpus's shards: a swap detaches
  // them (the router re-attaches after verifying the new set's hashes).
  remote_probes_.reset();
  // The previous set's refcount drops here; in-flight requests that
  // captured it keep the old shards alive until they finish.
}

void WwtService::SwapCorpus(std::shared_ptr<const CorpusSet> corpus) {
  MutexLock lock(corpus_mu_);
  InstallCorpusLocked(std::move(corpus));
  if (delta_ == nullptr) return;
  if (corpus_ == nullptr) {
    // Unloading drops the delta with it — it is bound to a base.
    WWT_LOG(Warning) << "unloading the corpus discards the freshness delta";
    delta_.reset();
    return;
  }
  // An operator reload with freshness live: keep every pending
  // mutation, re-anchored on the new set (entries that no longer apply
  // are dropped with warnings; the journal is rewritten against the
  // new base hash).
  Status rebased = delta_->Rebase(corpus_, /*merged_generation=*/0);
  if (!rebased.ok()) {
    WWT_LOG(Error) << "freshness rebase after SwapCorpus failed: "
                   << rebased.ToString();
  }
}

Status WwtService::AttachRemoteProbes(
    std::vector<std::shared_ptr<const ShardProbe>> probes) {
  MutexLock lock(corpus_mu_);
  if (corpus_ == nullptr) {
    return Status::FailedPrecondition(
        "no corpus loaded to attach remote probes to");
  }
  if (probes.size() != corpus_->num_shards()) {
    return Status::InvalidArgument("remote probe count ", probes.size(),
                                   " != corpus shard count ",
                                   corpus_->num_shards());
  }
  for (const std::shared_ptr<const ShardProbe>& probe : probes) {
    if (probe == nullptr) {
      return Status::InvalidArgument("null remote probe");
    }
  }
  remote_probes_ = std::make_shared<
      const std::vector<std::shared_ptr<const ShardProbe>>>(
      std::move(probes));
  return Status::OK();
}

void WwtService::DetachRemoteProbes() {
  MutexLock lock(corpus_mu_);
  remote_probes_.reset();
}

void WwtService::SwapCorpus(std::shared_ptr<const CorpusHandle> corpus) {
  SwapCorpus(corpus != nullptr ? CorpusSet::FromHandle(std::move(corpus))
                               : std::shared_ptr<const CorpusSet>());
}

std::shared_ptr<const CorpusSet> WwtService::corpus() const {
  MutexLock lock(corpus_mu_);
  return corpus_;
}

WwtService::Serving WwtService::CurrentServing() const {
  // Lock order: corpus_mu_ then the delta's internal mutex (view()).
  // Rebase callers hold corpus_mu_ for the same pair, so the (set,
  // delta view) capture is atomically consistent — a merge can never be
  // observed half-applied.
  MutexLock lock(corpus_mu_);
  return {corpus_, shard_pool_, remote_probes_,
          delta_ != nullptr ? delta_->view() : nullptr};
}

uint64_t WwtService::EffectiveHash(const Serving& serving) {
  uint64_t hash = serving.corpus != nullptr
                      ? serving.corpus->content_hash()
                      : 0;
  if (serving.delta != nullptr && !serving.delta->empty()) {
    hash = HashCombine(hash, serving.delta->freshness_hash());
  }
  return hash;
}

std::future<QueryResponse> WwtService::Submit(QueryRequest request) {
  return SubmitOn(CurrentServing(), std::move(request));
}

std::future<QueryResponse> WwtService::SubmitOn(Serving serving,
                                                QueryRequest request) {
  // Error contract, in order: InvalidArgument, DeadlineExceeded,
  // FailedPrecondition (see api.h). An expired request never touches
  // serving state, so the deadline outranks the corpus check.
  QueryResponse head;
  head.tag = request.tag;
  Status valid = ValidateQueryRequest(request);
  if (!valid.ok()) {
    head.status = std::move(valid);
    return Ready(std::move(head));
  }
  // The cache key, computed once: every path below (expired here or in
  // the queue, threw, hit, coalesced, led or uncached) starts from this
  // head, so where a request ends never changes how it is keyed. Keyed
  // by the EFFECTIVE hash: with a non-empty delta captured, the
  // freshness hash is folded in, so no cached response outlives a
  // mutation or crosses a merge boundary. No corpus, no key.
  if (serving.corpus != nullptr) {
    head.corpus_hash = EffectiveHash(serving);
    head.fingerprint = RequestFingerprint(
        request.columns, options_fingerprint_, head.corpus_hash);
  }
  if (DeadlinePassed(request)) {
    head.status =
        Status::DeadlineExceeded("deadline already expired at submit");
    return Ready(std::move(head));
  }
  if (serving.corpus == nullptr) {
    head.status = Status::FailedPrecondition(
        "no corpus loaded; call SwapCorpus with a snapshot first");
    return Ready(std::move(head));
  }

  WallTimer queued;
  return pool_.Submit([this, serving = std::move(serving),
                       request = std::move(request), head = std::move(head),
                       queued]() mutable -> QueryResponse {
    head.queue_seconds = queued.ElapsedSeconds();
    QueryResponse response;
    if (DeadlinePassed(request)) {
      response = std::move(head);
      response.status = Status::DeadlineExceeded(
          "deadline expired after ", response.queue_seconds, " s in queue");
    } else {
      try {
        response = ServeOn(serving, request, head);
      } catch (const std::exception& e) {
        response = std::move(head);
        response.status =
            Status::Internal("query execution threw: ", e.what());
      }
    }
    // Release the set before the future resolves: once a caller sees
    // the response, the request provably no longer pins the (possibly
    // swapped-out) shards.
    serving.corpus.reset();
    serving.shard_pool.reset();
    serving.remote.reset();
    serving.delta.reset();
    return response;
  });
}

QueryResponse WwtService::ServeOn(const Serving& serving,
                                  const QueryRequest& request,
                                  const QueryResponse& head) const {
  if (cache_ == nullptr) return ExecuteOn(serving, request, head);
  const uint64_t key = head.fingerprint;

  WallTimer timer;  // covers lookup + copy (hit) or the leader wait
  ResponseCache::Ticket ticket = cache_->Acquire(key);
  if (ticket.cached != nullptr) {
    return FromCachePayload(*ticket.cached, head, timer);
  }
  if (!ticket.leader) {
    // Coalesced: another request with this fingerprint is mid-pipeline;
    // wait for its result instead of recomputing. The leader never
    // waits on a flight itself, so this wait always terminates.
    ResponseCache::Payload payload = ResponseCache::Wait(ticket.flight);
    if (payload != nullptr) {
      return FromCachePayload(*payload, head, timer);
    }
    // The leader failed; compute for ourselves (uncached — if this
    // fails too, the caller sees its own error, not the leader's).
    return ExecuteOn(serving, request, head);
  }

  // Leader: compute once for the cache and every coalesced follower.
  // Resolve must run on every exit path, or followers block forever.
  QueryResponse response;
  try {
    response = ExecuteOn(serving, request, head);
  } catch (...) {
    cache_->Resolve(key, nullptr);
    throw;  // Submit's worker wrapper turns this into Status::Internal
  }
  ResponseCache::Payload payload;
  // Partial responses (degraded by a dead shard) are never cached: the
  // failure is transient, and a cache hit must never replay a degraded
  // answer after the cluster has recovered.
  if (response.ok() && !response.partial) {
    // The canonical payload is caller-agnostic: no tag, no queue time,
    // and no stage timing (a hit does no stage work — copying the
    // leader's StageTimer would feed phantom pipeline seconds into
    // BatchStats stage aggregation). The answer keeps the leader's raw
    // keyword text: every key-equal request is canonically equal to
    // it, so a hit may echo a whitespace/case variant of its input.
    QueryResponse canonical = response;
    canonical.tag.clear();
    canonical.queue_seconds = 0;
    canonical.timing.Clear();
    payload = std::make_shared<const QueryResponse>(std::move(canonical));
  }
  cache_->Resolve(key, std::move(payload));
  return response;
}

QueryResponse WwtService::FromCachePayload(const QueryResponse& payload,
                                           const QueryResponse& head,
                                           const WallTimer& timer) const {
  QueryResponse response = payload;  // deep copy: the caller owns it
  response.tag = head.tag;
  response.queue_seconds = head.queue_seconds;
  response.served_from_cache = true;
  response.execute_seconds = timer.ElapsedSeconds();
  return response;
}

QueryResponse WwtService::ExecuteOn(const Serving& serving,
                                    const QueryRequest& request,
                                    const QueryResponse& head) const {
  const CorpusSet& corpus = *serving.corpus;
  QueryResponse response = head;
  if (options_.pipeline_hook) options_.pipeline_hook(response.fingerprint);

  // With a non-empty freshness delta captured, the engine probes its
  // overlay next to the frozen shards and queries parse against the
  // combined statistics surface; an empty (or absent) delta serves the
  // frozen-only path, byte-identical to a service without freshness.
  const fresh::DeltaView* overlay =
      serving.delta != nullptr && !serving.delta->empty()
          ? serving.delta.get()
          : nullptr;
  const CorpusStats& stats =
      overlay != nullptr ? overlay->stats() : corpus.stats();

  // Engines are cheap to construct and stateless; building one per
  // request binds it to the set the request captured, which is what
  // makes SwapCorpus race-free. Per-shard probes fan out on the shard
  // pool the same capture pinned — through the captured remote probes
  // when a router attached them.
  WallTimer execute_timer;
  std::vector<CorpusShardRef> refs = corpus.shard_refs();
  if (serving.remote != nullptr) {
    for (size_t s = 0; s < refs.size(); ++s) {
      refs[s].probe = (*serving.remote)[s].get();
    }
  }
  WwtEngine engine(std::move(refs), &stats, options_.engine,
                   serving.shard_pool.get(), overlay);
  // Remote probes bound their RPCs by the request deadline (max() =
  // none); local probes are not preempted (the PR-3 contract).
  engine.set_deadline(request.deadline);
  QueryExecution execution = engine.Execute(request.columns);
  response.retrieval = std::move(execution.retrieval);
  response.mapping = std::move(execution.mapping);
  response.answer = std::move(execution.answer);
  response.timing = std::move(execution.timing);
  if (!response.retrieval.shard_status.ok()) {
    // A failed scatter-gather (kFail policy or a fully dead cluster):
    // the error contract says a non-OK response carries no payload.
    response.status = response.retrieval.shard_status;
    response.retrieval = RetrievalResult{};
    response.mapping = MapResult{};
    response.answer = AnswerTable{};
  } else {
    response.partial = response.retrieval.partial;
  }
  response.execute_seconds = execute_timer.ElapsedSeconds();
  return response;
}

BatchResponse WwtService::RunBatch(std::vector<QueryRequest> requests) {
  const size_t n = requests.size();
  // One serving set for the whole batch: a SwapCorpus racing the batch
  // affects only later batches/submissions, never mixes corpora here.
  Serving snapshot = CurrentServing();

  BatchResponse out;
  out.responses.resize(n);
  std::vector<std::future<QueryResponse>> futures(n);

  // Everything is submitted at once: the pool itself caps what runs.
  WallTimer wall;
  for (size_t i = 0; i < n; ++i) {
    futures[i] = SubmitOn(snapshot, std::move(requests[i]));
  }
  for (size_t i = 0; i < n; ++i) out.responses[i] = futures[i].get();
  const double wall_seconds = wall.ElapsedSeconds();

  // Report the workers actually used (never more than queries).
  const int used = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(pool_.num_threads()), n));
  out.stats = BuildBatchStats(out.responses, used, wall_seconds);
  return out;
}

BatchResponse WwtService::RunBatch(
    const std::vector<std::vector<std::string>>& queries) {
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (const std::vector<std::string>& columns : queries) {
    requests.push_back(QueryRequest::Of(columns));
  }
  return RunBatch(std::move(requests));
}

QueryResponse WwtService::Run(QueryRequest request) {
  return Submit(std::move(request)).get();
}

ServiceStats WwtService::Stats() const {
  ServiceStats stats;
  Serving serving = CurrentServing();
  if (serving.corpus != nullptr) {
    stats.corpus_source = serving.corpus->source();
    stats.corpus_hash = serving.corpus->content_hash();
    stats.corpus_shards = serving.corpus->num_shards();
    stats.corpus_tables = serving.corpus->num_tables();
    stats.corpus_format = serving.corpus->format_version();
    stats.mapped_bytes = serving.corpus->mapped_bytes();
    stats.heap_bytes = serving.corpus->heap_bytes();
  }
  stats.num_threads = pool_.num_threads();
  stats.shard_threads = serving.shard_pool != nullptr
                            ? serving.shard_pool->num_threads()
                            : 0;
  stats.remote_shards =
      serving.remote != nullptr ? serving.remote->size() : 0;
  stats.cache_enabled = cache_ != nullptr;
  stats.cache = cache_stats();
  if (serving.delta != nullptr) {
    stats.freshness_enabled = true;
    stats.delta_entries = serving.delta->num_entries();
    stats.delta_tables = serving.delta->num_tables();
    stats.delta_overrides = serving.delta->num_overrides();
    stats.delta_tombstones = serving.delta->num_tombstones();
    stats.delta_generation = serving.delta->generation();
    stats.freshness_hash = serving.delta->freshness_hash();
  }
  return stats;
}

ResponseCache::Stats WwtService::cache_stats() const {
  return cache_ != nullptr ? cache_->GetStats() : ResponseCache::Stats{};
}

size_t WwtService::PurgeStaleCacheEntries() {
  if (cache_ == nullptr) return 0;
  Serving serving = CurrentServing();
  // With no corpus loaded nothing can be served, so no entry is live.
  // With freshness, "live" means the current effective hash — entries
  // from before the latest mutation or merge are unreachable.
  return cache_->PurgeStale(serving.corpus != nullptr
                                ? EffectiveHash(serving)
                                : 0);
}

// ----------------------------------------------------------- Freshness

Status WwtService::EnableFreshness(const std::string& journal_path) {
  MutexLock lock(corpus_mu_);
  if (corpus_ == nullptr) {
    return Status::FailedPrecondition(
        "no corpus loaded; freshness layers over a serving set");
  }
  if (delta_ != nullptr) {
    return Status::AlreadyExists("freshness is already enabled");
  }
  WWT_ASSIGN_OR_RETURN(std::unique_ptr<fresh::DeltaShard> delta,
                       fresh::DeltaShard::Open(corpus_, {journal_path}));
  delta_ = std::move(delta);
  return Status::OK();
}

bool WwtService::freshness_enabled() const {
  MutexLock lock(corpus_mu_);
  return delta_ != nullptr;
}

namespace {

/// Grabbing the shard once (instead of holding corpus_mu_ through a
/// mutation) keeps the lock order one-way: corpus_mu_ -> delta mutex.
Status NoFreshness() {
  return Status::FailedPrecondition(
      "freshness is not enabled; call EnableFreshness first");
}

}  // namespace

StatusOr<TableId> WwtService::AddTable(WebTable table) {
  std::shared_ptr<fresh::DeltaShard> delta = delta_shard();
  if (delta == nullptr) return NoFreshness();
  return delta->AddTable(std::move(table));
}

Status WwtService::UpdateTable(WebTable table) {
  std::shared_ptr<fresh::DeltaShard> delta = delta_shard();
  if (delta == nullptr) return NoFreshness();
  return delta->UpdateTable(std::move(table));
}

Status WwtService::OverrideSummary(TableId id,
                                   const fresh::SummaryOverride& patch) {
  std::shared_ptr<fresh::DeltaShard> delta = delta_shard();
  if (delta == nullptr) return NoFreshness();
  return delta->OverrideSummary(id, patch);
}

Status WwtService::TombstoneTable(TableId id) {
  std::shared_ptr<fresh::DeltaShard> delta = delta_shard();
  if (delta == nullptr) return NoFreshness();
  return delta->TombstoneTable(id);
}

std::shared_ptr<const fresh::DeltaView> WwtService::delta_view() const {
  MutexLock lock(corpus_mu_);
  return delta_ != nullptr ? delta_->view() : nullptr;
}

std::shared_ptr<fresh::DeltaShard> WwtService::delta_shard() const {
  MutexLock lock(corpus_mu_);
  return delta_;
}

Status WwtService::MergeDeltaToSet(const std::string& out_path,
                                   int num_shards,
                                   const CorpusOptions& meta) {
  std::shared_ptr<fresh::DeltaShard> delta = delta_shard();
  if (delta == nullptr) return NoFreshness();

  // Fold against a pinned view. Mutations racing past this point are
  // NOT folded — Rebase keeps them (their seq exceeds the folded
  // generation) and they serve over the new base.
  std::shared_ptr<const fresh::DeltaView> view = delta->view();
  if (view->empty()) return Status::OK();
  const uint64_t generation = view->generation();

  WWT_ASSIGN_OR_RETURN(Corpus folded, fresh::FoldDelta(*view));
  const int shards = num_shards > 0
                         ? num_shards
                         : static_cast<int>(view->base()->num_shards());
  // Generation-tagged shard filenames: a crashed merge leaves only
  // never-referenced .gN files behind; the manifest write (atomic
  // rename, after every shard) is the commit point.
  WWT_RETURN_NOT_OK(SaveShardedSnapshot(folded, meta, out_path, shards,
                                        /*manifest=*/nullptr,
                                        /*file_tag=*/generation));
  WWT_ASSIGN_OR_RETURN(std::shared_ptr<const CorpusSet> merged,
                       CorpusSet::Load(out_path));

  Status rebased;
  {
    // Install + rebase under one corpus_mu_ hold: any CurrentServing
    // sees either (old set, pre-merge delta) or (merged set, rebased
    // delta) — never a mix. That pairing is the mid-merge byte-equality
    // guarantee.
    MutexLock lock(corpus_mu_);
    InstallCorpusLocked(merged);
    rebased = delta_ != nullptr
                  ? delta_->Rebase(std::move(merged), generation)
                  : Status::OK();
  }
  PurgeStaleCacheEntries();
  return rebased;
}

}  // namespace wwt
