// Copyright 2026 The WWT Authors
//
// The corpus-artifact layer between snapshots and serving: immutable,
// shareable handles over loaded corpora (CorpusHandle), sets of 1..N
// shard handles served as one atomically-swappable unit (CorpusSet),
// and the OpenCorpus facade that turns any artifact path — a plain
// `.wwtsnap` snapshot or a `.wwtset` manifest, sniffed by magic, never
// by extension — into a ready-to-serve CorpusSet with exactly one open
// + parse per file. WwtService, the tools and the benches all load
// through here; LoadSnapshot/LoadSetManifest stay available as the
// low-level single-artifact primitives.

#ifndef WWT_INDEX_CORPUS_SET_H_
#define WWT_INDEX_CORPUS_SET_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus_generator.h"
#include "index/snapshot.h"
#include "index/table_index.h"
#include "index/table_store.h"
#include "util/statusor.h"

namespace wwt {

/// The remote-probe seam: one shard's index probe behind an interface,
/// so the engine's scatter-gather can route a shard's Search to a
/// worker process instead of the local TableIndex. Implementations must
/// return hits in Search's exact total order (score desc, id asc) with
/// bit-identical scores — the engine merges remote and local hits under
/// one contract (docs/DISTRIBUTED.md). Thread-safe: the engine probes
/// shards concurrently.
class ShardProbe {
 public:
  virtual ~ShardProbe() = default;

  /// The remote form of TableIndex::Search. `deadline` (max() = none)
  /// bounds the whole call including retries/hedges; errors are clean
  /// Statuses (DeadlineExceeded, IOError, Corruption, ...), never UB.
  [[nodiscard]] virtual StatusOr<std::vector<ScoredDoc>> Search(
      const std::vector<std::string>& keywords, int k, ProbeScorer scorer,
      std::chrono::steady_clock::time_point deadline) const = 0;
};

/// One shard of a serving corpus: the store/index pair the per-shard
/// probes run against. A single corpus is the 1-shard case. When
/// `probe` is set (borrowed, must outlive the engine), index probes for
/// this shard go through it instead of `index` — table reads and the
/// corpus statistics stay local either way.
struct CorpusShardRef {
  const TableStore* store = nullptr;
  const TableIndex* index = nullptr;
  const ShardProbe* probe = nullptr;
};

/// The freshness seam: a mutable-corpus view layered over the frozen
/// shards (implemented by fresh::DeltaView, see docs/FRESHNESS.md).
/// When the engine is given an overlay it (1) probes `index()` alongside
/// the frozen shards and merges under the usual (score desc, id asc)
/// contract, (2) drops frozen hits the overlay `Hides()` — superseded or
/// tombstoned table ids — after over-fetching `hidden_count()` extra
/// frozen hits so the merged top-k is exact, and (3) reads tables the
/// overlay `Contains()` from the overlay instead of the shard stores.
/// Implementations are immutable snapshots: every method is a pure read,
/// safe from any number of probe threads, and the overlay must outlive
/// the engine (a serving captures it shared_ptr-style like the set).
class CorpusOverlay {
 public:
  virtual ~CorpusOverlay() = default;

  /// The overlay's own index over its live tables (null when empty).
  /// Seeded/pinned against the base corpus so scores and term ids agree
  /// with a from-scratch rebuild (TableIndex::SeedVocabulary /
  /// InstallGlobalStats).
  virtual const TableIndex* index() const = 0;

  /// True when `id` is served by the overlay (added, updated or
  /// patched): reads must come from Read(), not the shard stores.
  virtual bool Contains(TableId id) const = 0;

  /// The overlay's copy of a table it Contains().
  [[nodiscard]] virtual StatusOr<WebTable> Read(TableId id) const = 0;

  /// True when a frozen hit for `id` must be dropped: the id was
  /// superseded (its live version is in the overlay) or tombstoned.
  virtual bool Hides(TableId id) const = 0;

  /// Number of ids Hides() is true for — the frozen over-fetch margin.
  virtual size_t hidden_count() const = 0;
};

/// One immutable, shareable corpus snapshot: store + index + vocab/idf
/// (inside Corpus), plus the content hash identifying the artifact it
/// came from. Handles are passed around as shared_ptr<const CorpusHandle>
/// so an atomic swap can retire a snapshot while in-flight requests
/// still hold it — and, for a loaded corpus, the handle keeps the file
/// mapping pinned (Corpus::mapping) for exactly as long.
class CorpusHandle {
 public:
  /// Takes ownership of a built corpus. `content_hash` is the snapshot
  /// artifact's hash (SnapshotInfo::content_hash); 0 = unversioned
  /// in-memory build, which gets a process-unique synthetic hash so two
  /// distinct corpora never share a fingerprint/cache key.
  static std::shared_ptr<const CorpusHandle> Own(Corpus corpus,
                                                 uint64_t content_hash = 0,
                                                 std::string source = "");

  /// Borrows a caller-owned corpus, which must outlive every service
  /// (and every in-flight request) holding the handle. Exactly like
  /// Own, `content_hash` 0 means an unversioned corpus and is remapped
  /// to a process-unique synthetic hash — two distinct borrowed corpora
  /// can never collide on a fingerprint/cache key.
  static std::shared_ptr<const CorpusHandle> Borrow(const Corpus* corpus,
                                                    uint64_t content_hash = 0);

  /// Loads a .wwtsnap artifact into an owning handle; the snapshot's
  /// content hash becomes the handle's. Clean Status on a missing or
  /// corrupt file.
  [[nodiscard]] static StatusOr<std::shared_ptr<const CorpusHandle>> Load(
      const std::string& path, SnapshotInfo* info = nullptr);

  /// Load from an already-open file — the single-open path: callers
  /// that sniffed the artifact themselves (OpenCorpus) hand the mapping
  /// over instead of paying a second open + header parse. `path` is
  /// recorded as the handle's source and used in error messages.
  [[nodiscard]] static StatusOr<std::shared_ptr<const CorpusHandle>> Load(
      serde::InputFile file, const std::string& path,
      SnapshotInfo* info = nullptr);

  const TableStore& store() const { return corpus_->store; }
  const TableIndex& index() const { return *corpus_->index; }
  const Corpus& corpus() const { return *corpus_; }
  uint64_t content_hash() const { return content_hash_; }
  /// The .wwtsnap path the handle was loaded from ("" otherwise).
  const std::string& source() const { return source_; }
  /// Snapshot format version the handle was loaded from; 0 for Own/
  /// Borrow of in-memory corpora.
  uint32_t format_version() const { return format_version_; }
  /// Bytes served straight from the pinned file mapping (the whole
  /// artifact for a loaded corpus; 0 for in-memory ones).
  uint64_t mapped_bytes() const;
  /// Heap bytes of the store + index (postings, scoring layout, vocab,
  /// df — near zero for a zero-copy corpus).
  uint64_t heap_bytes() const;

 private:
  CorpusHandle() = default;

  /// Set for Own/Load; Borrow leaves it empty and points corpus_ at the
  /// caller's object.
  std::unique_ptr<Corpus> owned_;
  const Corpus* corpus_ = nullptr;
  uint64_t content_hash_ = 0;
  std::string source_;
  uint32_t format_version_ = 0;
};

/// An immutable set of 1..N shard handles served as one corpus: the unit
/// SwapCorpus installs and a request captures at submission.
///
/// Thread safety: a built CorpusSet is deeply immutable — every member
/// is set once in Build/Load and only ever read afterwards — so it
/// carries no mutex and no WWT_GUARDED_BY annotations: concurrent reads
/// from any number of probe threads need no capability (the analysis
/// layer's equivalent of "const and means it"). The only write anywhere
/// near this class is the process-unique synthetic-hash counter in
/// corpus_set.cc, a std::atomic. Lifetime (not access) is what swap
/// safety is about, and that is the shared_ptr capture in WwtService. Shards
/// cover disjoint (sorted ascending) table-id ranges; every shard's
/// index carries the GLOBAL vocabulary/IDF computed before partitioning,
/// which is what makes the scatter-gathered answers byte-identical to a
/// single-index engine. content_hash() is the set-level hash — the
/// corpus component of every fingerprint/cache key — and for a 1-shard
/// set it equals the shard's own hash, so wrapping a plain snapshot
/// changes nothing about fingerprints or cached entries.
class CorpusSet {
 public:
  /// Wraps one handle as a 1-shard set (the plain-snapshot serving
  /// path). Set hash == handle hash, set source == handle source.
  static std::shared_ptr<const CorpusSet> FromHandle(
      std::shared_ptr<const CorpusHandle> shard);

  /// Builds a set over `shards` (non-empty, all non-null, disjoint store
  /// id ranges — WWT_CHECKed; shards are sorted by first id). The set
  /// hash is SetContentHash over the shard hashes in that order.
  static std::shared_ptr<const CorpusSet> Of(
      std::vector<std::shared_ptr<const CorpusHandle>> shards);

  /// Loads every shard of a `.wwtset` manifest (paths resolved relative
  /// to the manifest's directory). Each loaded shard's content hash must
  /// match the manifest entry — a rebuilt or swapped shard file is a
  /// clean Corruption error, never a silently mixed set. On success
  /// `manifest` (when non-null) receives the parsed manifest.
  [[nodiscard]] static StatusOr<std::shared_ptr<const CorpusSet>> Load(
      const std::string& manifest_path, SetManifest* manifest = nullptr);

  size_t num_shards() const { return shards_.size(); }
  const CorpusHandle& shard(size_t i) const { return *shards_[i]; }
  const std::shared_ptr<const CorpusHandle>& shard_handle(size_t i) const {
    return shards_[i];
  }
  /// The set-level content hash (for one shard, that shard's hash).
  uint64_t content_hash() const { return content_hash_; }
  /// The `.wwtset` path the set was loaded from, the wrapped handle's
  /// source for FromHandle, "" for Of.
  const std::string& source() const { return source_; }
  /// Total tables across all shards.
  uint64_t num_tables() const;
  /// The highest shard format_version (they match in any set written by
  /// wwt_indexer); 0 when the set serves in-memory corpora.
  uint32_t format_version() const;
  /// Mapped/heap byte totals across the shards — the operator-visible
  /// split between zero-copy and materialized serving state.
  uint64_t mapped_bytes() const;
  uint64_t heap_bytes() const;

  /// The corpus-wide statistics surface (global vocabulary/IDF; PMI^2
  /// doc-set probes union over the shards). For a 1-shard set this is
  /// the shard's TableIndex itself.
  const CorpusStats& stats() const;
  /// Borrowed store/index pairs in shard order — what a WwtEngine
  /// serves from. Valid while the set lives.
  const std::vector<CorpusShardRef>& shard_refs() const {
    return shard_refs_;
  }
  /// The resolved workload frozen into the corpus (every shard carries
  /// the full workload; shard 0's copy is returned).
  const std::vector<ResolvedQuery>& queries() const;

  ~CorpusSet();

 private:
  /// CorpusStats over >1 shards: global statistics from shard 0 (every
  /// shard's copy is identical), conjunctive doc sets unioned across
  /// shards — ranges are disjoint and ascending, so concatenation in
  /// shard order is already sorted.
  class ShardedStats;

  CorpusSet() = default;

  /// Shared core of Of/Load: validates, sorts and assembles the set.
  static std::shared_ptr<CorpusSet> Build(
      std::vector<std::shared_ptr<const CorpusHandle>> shards);

  std::vector<std::shared_ptr<const CorpusHandle>> shards_;
  std::vector<CorpusShardRef> shard_refs_;
  uint64_t content_hash_ = 0;
  std::string source_;
  /// Null for a 1-shard set (stats() forwards to the shard's index).
  std::unique_ptr<const ShardedStats> sharded_stats_;
};

/// What OpenCorpus resolved a path into.
struct OpenCorpusResult {
  /// The ready-to-serve set (1 shard for a plain snapshot).
  std::shared_ptr<const CorpusSet> corpus;
  /// For a snapshot: its SnapshotInfo. For a manifest: synthesized —
  /// format_version/content_hash are the SET's (manifest version, set
  /// hash), num_tables the total, num_terms the global vocabulary.
  SnapshotInfo info;
  /// True when `path` was a `.wwtset` manifest.
  bool is_set = false;
};

/// THE way to open a corpus artifact: opens `path`, sniffs the magic
/// (never the extension), and routes — a `.wwtsnap` snapshot loads
/// through the already-open mapping into a 1-shard set (one open, one
/// parse), a `.wwtset` manifest loads every shard (each a single
/// open + checksum; only the tiny manifest itself is re-read). Clean
/// Status on a missing file (IOError), unrecognized or damaged bytes
/// (Corruption), or an unsupported format version (InvalidArgument).
[[nodiscard]] StatusOr<OpenCorpusResult> OpenCorpus(const std::string& path);

}  // namespace wwt

#endif  // WWT_INDEX_CORPUS_SET_H_
