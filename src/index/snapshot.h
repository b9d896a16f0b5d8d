// Copyright 2026 The WWT Authors
//
// Persistent index snapshots: one versioned binary `.wwtsnap` file holds
// the full retrieval state of a built corpus — TableStore records and
// their forward index, TableIndex postings and field statistics,
// Vocabulary, IdfDictionary —
// plus the ground truth and resolved workload the evaluation harness
// needs. This is the offline/online split of the paper's deployment
// (§2.1 builds the Lucene index over 25M tables once, then serves
// queries against the frozen artifact): `tools/wwt_indexer` writes the
// snapshot, `tools/wwt_serve` and the benches load it, and cold start
// becomes a file read instead of a corpus rebuild.
//
// Format (see docs/SNAPSHOTS.md for the layout in full):
//   [magic "WWTSNAP\n"][u32 version][u32 flags]
//   [u64 payload size][u64 payload FNV-1a checksum][payload]
// The payload is a sequence of tagged sections; unknown sections are
// skipped (forward-compatible additions). Any layout change to an
// existing section bumps kSnapshotFormatVersion; files of any other
// version are rejected with a clean Status and are rebuilt with
// `wwt_indexer`.

#ifndef WWT_INDEX_SNAPSHOT_H_
#define WWT_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus_generator.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/statusor.h"

namespace wwt {

/// Bump on ANY change to the header or a section layout. Loaders accept
/// exactly this version; CI cache keys embed it. v4 introduced the
/// zero-copy layout: STOR and INDX store 8-byte-aligned offset tables and raw
/// arrays (store records, vocabulary, df table, docs-only varint
/// postings, the full scoring layout including block metadata) that the
/// loader reads IN PLACE from the file mapping — no per-element decode,
/// no heap materialization, no payload checksum pass (the header
/// checksum is computed at save time and serves as the content hash;
/// load validates structure in O(#terms)). A loaded corpus is immutable
/// and pins its mapping via Corpus::mapping. v5 replaces v4's sorted
/// vocabulary permutation with the vocabulary's open-addressing slot
/// table (text/vocabulary.h), so a mapped lookup is a hash probe, not a
/// binary search. v6 adds the required forward index (section FWRD):
/// each table's CandidateTable forward entry (core/candidate.h), so
/// serving materializes candidates instead of tokenizing tables.
inline constexpr uint32_t kSnapshotFormatVersion = 6;

/// First 8 bytes of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'W', 'W', 'T', 'S',
                                           'N', 'A', 'P', '\n'};

/// One payload section as seen by InspectSnapshot.
struct SnapshotSection {
  /// Four-character section tag ("META", "STOR", ...).
  std::string tag;
  /// Body bytes (excluding the tag + size framing).
  uint64_t bytes = 0;
};

/// Header + META facts about a snapshot, cheap to read (InspectSnapshot
/// parses only the fixed header and the META section).
struct SnapshotInfo {
  uint32_t format_version = 0;
  /// FNV-1a checksum of the payload — the artifact's content hash, used
  /// for cache keys (a shard or query-cache key is derived from it).
  uint64_t content_hash = 0;
  uint64_t file_bytes = 0;

  /// Generation parameters the corpus was built with.
  uint64_t seed = 0;
  double scale = 1.0;
  int32_t noise_pages = 0;
  /// Fingerprint of the workload specs (detects custom workloads).
  uint64_t workload_hash = 0;

  uint64_t num_tables = 0;
  uint64_t num_queries = 0;
  uint64_t num_terms = 0;

  /// Per-section byte sizes in file order (filled by InspectSnapshot;
  /// left empty by the load/save paths).
  std::vector<SnapshotSection> sections;
};

/// Serializes `corpus` (built with `options`) to `path`, creating parent
/// directories as needed. The write is atomic (tmp file + rename). On
/// success `info` (when non-null) is filled from the in-memory state —
/// no read-back of the file.
[[nodiscard]] Status SaveSnapshot(const Corpus& corpus, const CorpusOptions& options,
                    const std::string& path, SnapshotInfo* info = nullptr);

/// Loads a snapshot written by SaveSnapshot. The file is memory-mapped
/// when possible. Fails with a clean Status on missing file (IOError),
/// bad magic / truncation / a structurally broken section (Corruption),
/// or any format version other than kSnapshotFormatVersion
/// (InvalidArgument) — never crashes on garbage input.
[[nodiscard]] StatusOr<Corpus> LoadSnapshot(const std::string& path,
                              SnapshotInfo* info = nullptr);

/// LoadSnapshot from an already-open file — the single-open path for
/// callers that have sniffed or validated the file themselves (the
/// OpenCorpus facade and CorpusHandle). `path` is used in error
/// messages only. The corpus takes ownership of the mapping
/// (Corpus::mapping).
[[nodiscard]] StatusOr<Corpus> LoadSnapshot(serde::InputFile file, const std::string& path,
                              SnapshotInfo* info = nullptr);

/// Reads header + META and lists the section sizes without decoding the
/// store/index sections. Like LoadSnapshot it does not verify the
/// payload checksum.
[[nodiscard]] StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path);

/// Fingerprint of a workload spec list (order-sensitive), stored in META
/// so BuildOrLoad can tell a custom workload from the Table 1 default.
uint64_t WorkloadFingerprint(const CorpusOptions& options);

/// Outcome of BuildOrLoadCorpus.
struct BuildOrLoadResult {
  Corpus corpus;
  /// Default-initialized (format_version == 0) when no snapshot file
  /// backs the corpus: empty path, or the save failed (warned, not
  /// fatal — the in-memory corpus is still valid).
  SnapshotInfo info;
  /// True when the corpus came from the snapshot file; false when it was
  /// generated (and, if a path was given, saved).
  bool loaded = false;
  /// Wall seconds of the load or of the generate(+save).
  double seconds = 0;
  /// Wall seconds of GenerateCorpus alone (0 when loaded) — the
  /// unbiased "rebuild" side of cold-start comparisons, excluding the
  /// snapshot save.
  double generate_seconds = 0;
};

/// Loads `path` when it exists and matches (format version AND the
/// generation parameters seed/scale/noise_pages/workload); otherwise
/// generates the corpus with `options` and — when `path` is non-empty —
/// saves the snapshot for the next run. Never fails: a stale or corrupt
/// file is rebuilt and overwritten, and a failed save (read-only path,
/// full disk) is only a warning — the freshly built corpus is returned
/// either way (`info.format_version == 0` records that no file backs
/// it). An empty `path` always generates and never touches the
/// filesystem.
BuildOrLoadResult BuildOrLoadCorpus(const CorpusOptions& options,
                                    const std::string& path);

/// The WWT_SNAPSHOT environment knob: snapshot path benches/examples
/// route through BuildOrLoadCorpus ("" when unset).
std::string SnapshotPathFromEnv();

// ---------------------------------------------------------------------------
// Sharded corpora: a `.wwtset` manifest describing 1..N `.wwtsnap` shards.
//
// `wwt_indexer --shards N` partitions a built corpus into N contiguous,
// count-balanced table-id ranges. Every shard snapshot carries the
// GLOBAL vocabulary and IDF statistics computed before partitioning (so
// per-shard retrieval scores are comparable and a merged candidate list
// is byte-identical to the unsharded engine's), its own slice of the
// store/postings/ground-truth, and the full resolved workload. The
// manifest records shard file names (relative to its own directory),
// per-shard content hashes and id ranges, and the set-level hash that
// becomes the fingerprint/cache-key corpus component.

/// Bump on ANY change to the manifest layout.
inline constexpr uint32_t kSetFormatVersion = 1;

/// First 8 bytes of every `.wwtset` manifest file.
inline constexpr char kSetMagic[8] = {'W', 'W', 'T', 'S',
                                      'E', 'T', '1', '\n'};

/// One shard as recorded in a manifest.
struct ShardManifestEntry {
  /// Shard file name, relative to the manifest's directory.
  std::string file;
  /// The shard snapshot's content hash (SnapshotInfo::content_hash);
  /// verified against the loaded file, so a rebuilt or swapped shard is
  /// a clean Corruption error, never a silently mixed set.
  uint64_t content_hash = 0;
  /// The contiguous global table-id range [first_table_id,
  /// first_table_id + num_tables) this shard holds.
  uint64_t first_table_id = 0;
  uint64_t num_tables = 0;
};

/// A parsed `.wwtset` manifest.
struct SetManifest {
  uint32_t format_version = 0;
  /// SetContentHash over the shard hashes in order — the corpus
  /// component of every fingerprint/cache key served from this set.
  uint64_t set_hash = 0;
  /// Generation parameters, mirrored from the shard METAs.
  uint64_t seed = 0;
  double scale = 1.0;
  int32_t noise_pages = 0;
  uint64_t workload_hash = 0;
  /// Total tables across all shards.
  uint64_t num_tables = 0;
  std::vector<ShardManifestEntry> shards;
};

/// The set-level content hash: for one shard, the shard's own hash (so a
/// 1-shard manifest fingerprints identically to serving the plain
/// snapshot); otherwise an order-sensitive fold of the shard hashes.
uint64_t SetContentHash(const std::vector<uint64_t>& shard_hashes);

/// Splits `corpus` into `num_shards` (clamped to [1, #tables]) shard
/// corpora over contiguous, count-balanced table-id ranges. Each shard
/// keeps global table ids (TableStore::first_id), the global vocabulary
/// and IDF statistics, its slice of the ground truth, and the full
/// resolved workload. Deterministic: the same corpus always yields the
/// same shards. Shard `kb` is left null (serving never consults it).
std::vector<Corpus> PartitionCorpus(const Corpus& corpus, int num_shards);

/// PartitionCorpus + one SaveSnapshot per shard + the manifest, written
/// atomically next to the shards. `manifest_path` should end in
/// `.wwtset`; shard files are derived from it
/// (`base.shard-I-of-N.wwtsnap`). On success `manifest` (when non-null)
/// is filled from the written state.
///
/// `file_tag` (0 = none) is folded into the shard file names
/// (`base.gTAG.shard-I-of-N.wwtsnap`) so a re-save over a live set never
/// overwrites the shard files its current manifest points at: the
/// atomic manifest rename is the commit point, and a crash mid-save
/// leaves the old set fully intact instead of a manifest whose shard
/// hashes no longer match. The background merge tags every save with
/// its delta generation (docs/FRESHNESS.md).
[[nodiscard]] Status SaveShardedSnapshot(const Corpus& corpus, const CorpusOptions& options,
                           const std::string& manifest_path, int num_shards,
                           SetManifest* manifest = nullptr,
                           uint64_t file_tag = 0);

/// Parses a `.wwtset` manifest (header + entries; shard files are not
/// opened). Clean Status on missing/corrupt/version-mismatched input.
[[nodiscard]] StatusOr<SetManifest> LoadSetManifest(const std::string& path);

/// Resolves a ShardManifestEntry::file against the manifest's directory
/// (absolute entries pass through) — the one definition every manifest
/// consumer resolves shard paths with.
std::string ResolveShardPath(const std::string& manifest_path,
                             const std::string& file);

/// True when `path` exists and starts with the `.wwtset` magic — the
/// cheap sniff tools use to route a path to the manifest or snapshot
/// loader.
bool IsSetManifest(const std::string& path);

}  // namespace wwt

#endif  // WWT_INDEX_SNAPSHOT_H_
