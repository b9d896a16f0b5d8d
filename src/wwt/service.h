// Copyright 2026 The WWT Authors
//
// WwtService: the serving facade. Owns a thread pool and the current
// corpus as a shared immutable CorpusSet — 1..N shard snapshots served
// as one atomically-swappable unit — answers QueryRequests
// asynchronously (Submit() returns a std::future, internally
// scatter-gathering the index probes over the shards), and supports
// hot-swapping the whole set (SwapCorpus) while batches are in flight:
// every request captures the set at submission, so in-flight work
// finishes on the old snapshots and new submissions see the new ones.
// This is the paper's structured *search service* framing (§2.1 serves
// queries against a frozen index that is rebuilt and swapped offline),
// scaled the way the open-domain web-table serving line scales —
// partition the table corpus, merge per-partition retrieval under
// global statistics.
//
//   auto service = WwtService::FromSnapshot("corpus.wwtset").value();
//   auto future = service->Submit(
//       QueryRequest::Of({"name of explorers", "nationality"})
//           .WithTimeout(0.5));
//   QueryResponse response = future.get();
//   if (response.ok()) { /* response.answer, response.fingerprint */ }
//
// FromSnapshot accepts either a plain `.wwtsnap` snapshot (served as a
// 1-shard set, byte- and fingerprint-identical to the pre-sharding
// service) or a `.wwtset` manifest written by `wwt_indexer --shards`.

#ifndef WWT_WWT_SERVICE_H_
#define WWT_WWT_SERVICE_H_

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus_generator.h"
#include "fresh/delta_shard.h"
#include "index/corpus_set.h"
#include "index/snapshot.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "wwt/api.h"
#include "wwt/response_cache.h"

namespace wwt {

struct ServiceOptions {
  /// The engine options every request is served with; validated once,
  /// by WwtService::Create.
  EngineOptions engine;
  /// Worker threads; 0 = ThreadPool::DefaultNumThreads().
  int num_threads = 0;
  /// Fingerprint-keyed response cache; cache.capacity_bytes == 0 (the
  /// default) disables it. Because the corpus content hash is part of
  /// every key, SwapCorpus implicitly invalidates the whole cache —
  /// PurgeStaleCacheEntries reclaims the unreachable bytes eagerly.
  ResponseCacheOptions cache;
  /// Test instrumentation: when set, invoked (from worker threads) with
  /// the request fingerprint every time the pipeline actually executes.
  /// Cache hits and coalesced requests never fire it — the single-flight
  /// tests count executions through this hook.
  std::function<void(uint64_t fingerprint)> pipeline_hook;
};

/// Rejects out-of-range ServiceOptions (engine fields via
/// ValidateEngineOptions, a negative num_threads, cache fields via
/// ValidateResponseCacheOptions) with InvalidArgument.
Status ValidateServiceOptions(const ServiceOptions& options);

/// A live snapshot of what the service is serving with — the operator
/// surface behind `wwt_serve`'s stats block.
struct ServiceStats {
  /// Source path of the serving set ("" for in-memory corpora), its
  /// set-level hash, shard count and total tables; all zero/"" when no
  /// corpus is loaded.
  std::string corpus_source;
  uint64_t corpus_hash = 0;
  size_t corpus_shards = 0;
  uint64_t corpus_tables = 0;
  /// Snapshot format version of the serving set (the max across shards;
  /// 0 for in-memory corpora or when no corpus is loaded).
  uint32_t corpus_format = 0;
  /// The zero-copy split: bytes served straight from pinned file
  /// mappings vs heap bytes of the store/index structures. A loaded set
  /// is all mapped_bytes; an in-memory one is all heap_bytes.
  uint64_t mapped_bytes = 0;
  uint64_t heap_bytes = 0;
  /// Request pool width, and the shard fan-out pool's (0 until a
  /// multi-shard set first started it).
  int num_threads = 0;
  int shard_threads = 0;
  /// Shards served through attached remote probes (0 = all in-process).
  size_t remote_shards = 0;
  bool cache_enabled = false;
  /// All-zero when the cache is disabled.
  ResponseCache::Stats cache;

  /// Freshness (docs/FRESHNESS.md): all zero/false until
  /// EnableFreshness. `freshness_hash` is what the effective corpus
  /// hash folds in (0 when the delta is empty — fingerprints then equal
  /// the frozen-only ones byte for byte).
  bool freshness_enabled = false;
  size_t delta_entries = 0;
  size_t delta_tables = 0;
  size_t delta_overrides = 0;
  size_t delta_tombstones = 0;
  uint64_t delta_generation = 0;
  uint64_t freshness_hash = 0;
};

class WwtService {
 public:
  /// Validates `options` (InvalidArgument on any out-of-range field) and
  /// builds a service with no corpus loaded — Submit returns
  /// FailedPrecondition until SwapCorpus installs one.
  static StatusOr<std::unique_ptr<WwtService>> Create(
      ServiceOptions options = {});

  /// Create + load + SwapCorpus in one step. `snapshot_path` may be a
  /// plain `.wwtsnap` snapshot (served as a 1-shard set) or a `.wwtset`
  /// manifest (sniffed by magic, not extension). For a manifest, `info`
  /// is synthesized from it: content_hash = the set hash, num_tables =
  /// the total, num_terms = the global vocabulary.
  static StatusOr<std::unique_ptr<WwtService>> FromSnapshot(
      const std::string& snapshot_path, ServiceOptions options = {},
      SnapshotInfo* info = nullptr);

  ~WwtService();

  /// Atomically installs `corpus` as the serving set (an empty pointer
  /// unloads) — all shards swap as one unit, there is never a mixed set.
  /// In-flight requests keep the set they captured at submission;
  /// subsequent submissions see `corpus`. Never blocks on in-flight
  /// work. The response cache invalidates implicitly: the set hash is
  /// part of every key (PurgeStaleCacheEntries reclaims the dead bytes
  /// eagerly).
  void SwapCorpus(std::shared_ptr<const CorpusSet> corpus)
      WWT_EXCLUDES(corpus_mu_);

  /// Single-snapshot convenience: wraps `corpus` as a 1-shard set.
  void SwapCorpus(std::shared_ptr<const CorpusHandle> corpus);

  /// The current serving set (nullptr when none is loaded).
  std::shared_ptr<const CorpusSet> corpus() const WWT_EXCLUDES(corpus_mu_);

  /// Routes per-shard index probes through `probes` — probes[i] serves
  /// shard i of the CURRENT corpus (the scatter-gather router mode;
  /// table reads and corpus statistics stay local). InvalidArgument on
  /// a count mismatch or null entry, FailedPrecondition with no corpus.
  /// Swap-consistent exactly like the corpus itself: requests capture
  /// the probe set together with the shards at submission, and
  /// SwapCorpus detaches it (a new set has new shards — re-attach after
  /// swapping).
  [[nodiscard]] Status AttachRemoteProbes(
      std::vector<std::shared_ptr<const ShardProbe>> probes)
      WWT_EXCLUDES(corpus_mu_);

  /// Back to in-process probes (no-op when none are attached).
  void DetachRemoteProbes() WWT_EXCLUDES(corpus_mu_);

  /// The async primitive: validates, captures the current corpus
  /// handle, computes the request's cache key once (every path it takes
  /// reports that key), and enqueues. The future always yields a
  /// QueryResponse (never throws): InvalidArgument / DeadlineExceeded /
  /// FailedPrecondition travel in QueryResponse::status.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Synchronous convenience: Submit + get.
  QueryResponse Run(QueryRequest request);

  /// Serves every request on the pool (its width caps what runs at
  /// once), all on the corpus snapshot current at the call — a
  /// SwapCorpus racing the batch never mixes corpora inside it.
  /// Responses are in input order.
  BatchResponse RunBatch(std::vector<QueryRequest> requests);

  /// Keyword-list convenience: one default request per column list.
  BatchResponse RunBatch(const std::vector<std::vector<std::string>>& queries);

  int num_threads() const { return pool_.num_threads(); }
  const EngineOptions& engine_options() const { return options_.engine; }

  /// One consistent picture of the serving state: corpus source/hash/
  /// shard count, pool widths, cache counters.
  ServiceStats Stats() const;

  /// True when ServiceOptions::cache enabled a response cache.
  bool cache_enabled() const { return cache_ != nullptr; }
  /// Cache counters + occupancy; all-zero when the cache is disabled.
  ResponseCache::Stats cache_stats() const;
  /// Eagerly reclaims cache entries not computed against the current
  /// corpus (they are already unreachable — the content hash is in every
  /// key — this frees their bytes instead of waiting for LRU pressure).
  /// With freshness enabled "current" means the current EFFECTIVE hash
  /// (set hash + freshness hash), so every mutation and every merge
  /// strands the earlier entries and purge reclaims them. With no
  /// corpus loaded, every entry is stale. Returns entries removed; 0
  /// when the cache is disabled.
  size_t PurgeStaleCacheEntries();

  // --------------------------------------------------------- Freshness
  //
  // The live-corpus mutation surface (docs/FRESHNESS.md): a mutable
  // DeltaShard layered over the frozen serving set. Mutations serve
  // immediately — the next submission captures the new DeltaView — and
  // requests in flight keep the view they captured, exactly like
  // SwapCorpus. Everything below is thread-safe.

  /// Layers a freshness delta over the current corpus (which must be
  /// loaded — FailedPrecondition otherwise; AlreadyExists when called
  /// twice). `journal_path` "" = memory-only; otherwise an existing
  /// journal is replayed (its base hash must match the serving set) and
  /// new mutations are journaled write-ahead.
  [[nodiscard]] Status EnableFreshness(const std::string& journal_path)
      WWT_EXCLUDES(corpus_mu_);
  bool freshness_enabled() const WWT_EXCLUDES(corpus_mu_);

  /// Mutations; FailedPrecondition until EnableFreshness. See
  /// fresh::DeltaShard for per-call semantics.
  [[nodiscard]] StatusOr<TableId> AddTable(WebTable table);
  [[nodiscard]] Status UpdateTable(WebTable table);
  [[nodiscard]] Status OverrideSummary(TableId id,
                                       const fresh::SummaryOverride& patch);
  [[nodiscard]] Status TombstoneTable(TableId id);

  /// The current delta view (null until EnableFreshness).
  std::shared_ptr<const fresh::DeltaView> delta_view() const
      WWT_EXCLUDES(corpus_mu_);

  /// The freshness writer itself (null until EnableFreshness) — what a
  /// fresh::MergeDaemon watches for pending-count/age triggers. Shared
  /// ownership: hold the pointer for as long as a daemon borrows it.
  std::shared_ptr<fresh::DeltaShard> delta_shard() const
      WWT_EXCLUDES(corpus_mu_);

  /// The background-merge primitive: folds (frozen + delta) into a
  /// fresh sharded `.wwtset` at `out_path` (shard filenames carry the
  /// folded generation as a tag, so a crashed merge never clobbers live
  /// artifacts — the manifest rename is the commit point), atomically
  /// installs it as the serving set, rebases the delta (dropping the
  /// folded entries, keeping ones that raced in), and purges stale
  /// cache entries. `num_shards` <= 0 keeps the current shard count.
  /// `meta` stamps the manifest (seed/scale/workload provenance). OK
  /// no-op when the delta is empty. Safe to call from a pool worker or
  /// the MergeDaemon; one merge at a time is the caller's job (the
  /// daemon serializes itself).
  [[nodiscard]] Status MergeDeltaToSet(const std::string& out_path,
                                       int num_shards = 0,
                                       const CorpusOptions& meta = {})
      WWT_EXCLUDES(corpus_mu_);

 private:
  explicit WwtService(ServiceOptions options);

  /// What a request captures atomically at submission: the serving set
  /// and the fan-out pool its probes run on (both shared, so a swap or
  /// service teardown mid-request can never pull them out from under a
  /// worker).
  struct Serving {
    std::shared_ptr<const CorpusSet> corpus;
    std::shared_ptr<ThreadPool> shard_pool;
    /// Per-shard remote probes (null = in-process). Captured with the
    /// corpus so a detach/re-attach mid-request never mixes.
    std::shared_ptr<const std::vector<std::shared_ptr<const ShardProbe>>>
        remote;
    /// Freshness overlay (null until EnableFreshness; may be empty()).
    /// Captured with the corpus, so a mutation or merge mid-request
    /// never mixes delta states inside one response.
    std::shared_ptr<const fresh::DeltaView> delta;
  };
  Serving CurrentServing() const WWT_EXCLUDES(corpus_mu_);

  /// The hash responses are keyed by: the set hash, folded with the
  /// freshness hash when unmerged mutations exist. An empty delta
  /// contributes nothing, keeping frozen-only fingerprints stable
  /// across enabling freshness.
  static uint64_t EffectiveHash(const Serving& serving);

  /// Shared tail of SwapCorpus/MergeDeltaToSet: installs `corpus` as
  /// the serving set (starting the fan-out pool when first needed) and
  /// detaches remote probes.
  void InstallCorpusLocked(std::shared_ptr<const CorpusSet> corpus)
      WWT_REQUIRES(corpus_mu_);

  /// Submit bound to an explicit serving set (RunBatch pins one for the
  /// whole batch).
  std::future<QueryResponse> SubmitOn(Serving serving,
                                      QueryRequest request);

  /// The cache-aware serving path, executed on a pool worker: LRU hit,
  /// coalesced join onto an in-flight leader, or a led ExecuteOn whose
  /// result is published to the cache and every follower. Falls through
  /// to plain ExecuteOn when the cache is disabled. `head` is the
  /// response as SubmitOn left it: tag, queue time, corpus_hash and
  /// fingerprint, the cache key.
  QueryResponse ServeOn(const Serving& serving,
                        const QueryRequest& request,
                        const QueryResponse& head) const;

  /// Runs the pipeline on `serving.corpus` (non-null) for an
  /// already-validated request, scatter-gathering over its shards, and
  /// fills in the rest of `head`. Executed on a pool worker.
  QueryResponse ExecuteOn(const Serving& serving,
                          const QueryRequest& request,
                          const QueryResponse& head) const;

  /// Materializes a caller-facing response from a cached payload: deep
  /// copy + this request's tag/queue accounting from `head`, stamped
  /// served_from_cache. `timer` has run since the cache was consulted,
  /// so its elapsed time (lookup + copy for a hit, leader wait for a
  /// coalesced request) becomes execute_seconds.
  QueryResponse FromCachePayload(const QueryResponse& payload,
                                 const QueryResponse& head,
                                 const WallTimer& timer) const;

  ServiceOptions options_;
  /// EngineOptionsFingerprint(options_.engine), the options part of
  /// every request fingerprint.
  const uint64_t options_fingerprint_;
  /// Guards the swap state — the only mutable serving state the
  /// service owns. Everything a request touches after submission is the
  /// immutable Serving capture, so corpus_mu_ is held only for the
  /// pointer handoff, never across pipeline work.
  mutable Mutex corpus_mu_;
  std::shared_ptr<const CorpusSet> corpus_ WWT_GUARDED_BY(corpus_mu_);
  /// The shard fan-out pool, ThreadPool::DefaultNumThreads() wide, which
  /// runs the per-shard index probes of a multi-shard set. Created under
  /// corpus_mu_ by the first multi-shard SwapCorpus (a service that only
  /// ever serves one shard never pays for it), then never replaced.
  /// Requests capture it together with the set, so it outlives every
  /// probe that uses it. It is a pool of its own, not the request pool,
  /// so a request blocked on its probes can never deadlock against
  /// other requests doing the same.
  std::shared_ptr<ThreadPool> shard_pool_ WWT_GUARDED_BY(corpus_mu_);
  /// Attached remote shard probes; null = in-process. Reset on every
  /// SwapCorpus (probes are bound to one corpus's shards).
  std::shared_ptr<const std::vector<std::shared_ptr<const ShardProbe>>>
      remote_probes_ WWT_GUARDED_BY(corpus_mu_);
  /// The freshness writer (null until EnableFreshness). The pointer is
  /// guarded; the DeltaShard itself is internally synchronized, so
  /// mutations never hold corpus_mu_. SwapCorpus/MergeDeltaToSet rebase
  /// it under corpus_mu_, which is what makes the (set, delta view)
  /// pair a request captures atomically consistent.
  std::shared_ptr<fresh::DeltaShard> delta_ WWT_GUARDED_BY(corpus_mu_);
  /// Internally synchronized; null when options_.cache disables it.
  std::unique_ptr<ResponseCache> cache_;
  /// Last member: torn down first, so no worker outlives the fields the
  /// in-flight closures reference.
  ThreadPool pool_;
};

}  // namespace wwt

#endif  // WWT_WWT_SERVICE_H_
