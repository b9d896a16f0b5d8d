// Copyright 2026 The WWT Authors
//
// Live corpus freshness (docs/FRESHNESS.md): a small mutable delta
// layered over the frozen CorpusSet, so a new, corrected or retired
// table is served immediately — no re-index, no artifact rewrite.
//
//  * DeltaShard is the mutable writer: AddTable / UpdateTable /
//    OverrideSummary / TombstoneTable append to an ordered entry log
//    (and, when configured, a crash-tolerant on-disk journal) and
//    publish a fresh immutable DeltaView.
//  * DeltaView is the read surface a serving captures alongside the
//    frozen set: a CorpusOverlay for the engine (delta index + hidden
//    frozen ids + table reads) plus a FreshStats statistics surface and
//    a freshness hash the response cache folds into every key.
//  * The journal (`WWTDLT1` magic) makes restarts lossless: wwt_serve
//    replays it at startup, a torn tail is dropped with a warning, and
//    a background merge rewrites it against the merged base.
//
// The equivalence contract: serving over (frozen + delta) is
// byte-identical to serving over a from-scratch corpus that contains
// the same edits and pins the base global statistics. The delta index
// is built by TableIndex::BuildPinned, the seed-add-pin build the
// sharding path uses, so term ids, IDF weights and per-term score
// contributions all agree.

#ifndef WWT_FRESH_DELTA_SHARD_H_
#define WWT_FRESH_DELTA_SHARD_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "fresh/fresh_stats.h"
#include "index/corpus_set.h"
#include "index/table_index.h"
#include "table/web_table.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace wwt {
namespace fresh {

/// First 8 bytes of every delta journal file.
inline constexpr char kDeltaJournalMagic[8] = {'W', 'W', 'T', 'D',
                                               'L', 'T', '1', '\n'};

/// Bump on ANY change to the journal header or record layout.
inline constexpr uint32_t kDeltaJournalFormatVersion = 1;

/// A read-time patch for one served table: the summary-override layer.
/// Only the named parts change; everything else is served as stored.
/// Applied by materializing the patched table into the delta (so the
/// index, the reads and a later merge all see the same bytes).
struct SummaryOverride {
  struct CellEdit {
    uint32_t row = 0;
    uint32_t col = 0;
    std::string text;
  };

  /// Replaces the title rows with this single title.
  std::optional<std::string> title;
  /// Replaces individual header / body cells (must be in range).
  std::vector<CellEdit> header_cells;
  std::vector<CellEdit> body_cells;
  /// Replaces the context with a single snippet of this text (at the
  /// default snippet score).
  std::optional<std::string> context;

  bool empty() const {
    return !title.has_value() && header_cells.empty() &&
           body_cells.empty() && !context.has_value();
  }
};

/// Applies `patch` to `table` in place. InvalidArgument on an
/// out-of-range cell edit; the table is unchanged on error.
[[nodiscard]] Status ApplySummaryOverride(const SummaryOverride& patch,
                                          WebTable* table);

/// One delta mutation, as logged and journaled.
enum class DeltaOpKind : uint8_t {
  kAdd = 1,
  kUpdate = 2,
  kOverride = 3,
  kTombstone = 4,
};

/// An immutable snapshot of the delta state, published by DeltaShard
/// after every mutation and captured by a serving next to the frozen
/// set. Deeply immutable — every member is set once at build; reads
/// need no lock. Holds the base set alive (a DeltaView outlives swaps
/// exactly like the set it was built against).
class DeltaView : public CorpusOverlay {
 public:
  // --- CorpusOverlay (the engine seam).
  const TableIndex* index() const override { return index_.get(); }
  bool Contains(TableId id) const override {
    return content_.tables.find(id) != content_.tables.end();
  }
  [[nodiscard]] StatusOr<WebTable> Read(TableId id) const override;
  bool Hides(TableId id) const override {
    return content_.hidden.count(id) != 0;
  }
  size_t hidden_count() const override { return content_.hidden.size(); }

  /// True when no unmerged mutation exists: serving must behave (and
  /// fingerprint) exactly as if freshness were disabled.
  bool empty() const { return content_.num_entries == 0; }

  /// The statistics surface a query parses against while this view is
  /// live (pinned global weights, live doc sets — see FreshStats).
  const CorpusStats& stats() const { return *stats_; }

  /// Order-sensitive fingerprint of the unmerged mutations; 0 iff
  /// empty(). The service folds it into the corpus component of every
  /// fingerprint/cache key, so a cached response can never outlive the
  /// delta state it was computed over.
  uint64_t freshness_hash() const { return content_.freshness_hash; }

  /// Sequence number of the last applied mutation (0 when empty) — the
  /// delta "generation" a merge folds up to.
  uint64_t generation() const { return content_.generation; }

  /// Content hash of the base set this view was built against.
  uint64_t base_hash() const { return base_->content_hash(); }
  const std::shared_ptr<const CorpusSet>& base() const { return base_; }

  /// Live delta tables by id (added, updated or patched) — what a merge
  /// folds over the frozen records.
  const std::map<TableId, WebTable>& tables() const { return content_.tables; }
  /// Ids tombstoned as of this view (frozen and delta ids alike); a
  /// merge writes them as empty placeholder records so the contiguous
  /// id space survives.
  const std::set<TableId>& tombstoned() const { return content_.tombstoned; }

  /// One past the highest allocated table id (>= the base end id).
  TableId next_table_id() const { return content_.next_table_id; }
  /// One past the last frozen id.
  TableId base_end_id() const { return content_.base_end_id; }

  size_t num_entries() const { return content_.num_entries; }
  size_t num_tables() const { return content_.tables.size(); }
  size_t num_overrides() const { return content_.num_overrides; }
  size_t num_tombstones() const { return content_.tombstoned.size(); }

 private:
  friend class DeltaShard;

  /// Everything a mutation changes. A live mutation copies the last
  /// view's content and applies itself to the copy; the index and the
  /// statistics are then built over the result.
  struct Content {
    std::map<TableId, WebTable> tables;
    std::set<TableId> tombstoned;
    /// The frozen ids among tables and tombstoned.
    std::unordered_set<TableId> hidden;
    TableId base_end_id = 0;
    TableId next_table_id = 0;
    size_t num_entries = 0;
    size_t num_overrides = 0;
    uint64_t freshness_hash = 0;
    uint64_t generation = 0;
  };

  DeltaView() = default;

  std::shared_ptr<const CorpusSet> base_;
  Content content_;
  /// Seeded/pinned index over content_.tables (null when it is empty).
  std::unique_ptr<TableIndex> index_;
  std::unique_ptr<FreshStats> stats_;
};

/// Journal facts InspectDeltaJournal reads without a base corpus (the
/// `wwt_indexer --inspect` surface).
struct DeltaJournalInfo {
  uint32_t format_version = 0;
  /// Content hash of the base set the journal was written against.
  uint64_t base_hash = 0;
  /// One past the last frozen id at journal creation.
  uint64_t base_end_id = 0;
  uint64_t file_bytes = 0;
  /// Sequence number of the last intact record (0 when none).
  uint64_t generation = 0;
  /// Intact records by kind, plus the derived live state.
  uint64_t num_records = 0;
  uint64_t num_overrides = 0;
  /// Distinct ids with live (unmerged) table content after replay.
  uint64_t pending_tables = 0;
  /// Distinct ids tombstoned after replay.
  uint64_t num_tombstones = 0;
  /// True when a torn tail was dropped (crash mid-append).
  bool truncated = false;
};

/// True when `path` exists and starts with the delta-journal magic.
bool IsDeltaJournal(const std::string& path);

/// Parses a journal standalone (no base corpus): header + every intact
/// record; a torn tail sets `truncated` instead of failing. Clean
/// Status on a missing file or a damaged header.
[[nodiscard]] StatusOr<DeltaJournalInfo> InspectDeltaJournal(
    const std::string& path);

struct DeltaOptions {
  /// Journal path; "" = memory-only (mutations do not survive a
  /// restart). An existing journal is replayed (its base hash must
  /// match the base set); a missing one is created.
  std::string journal_path;
};

/// One mutation as a journal record holds it (defined in delta_shard.cc).
struct DeltaRecord;

/// The mutable freshness writer. Thread-safe: every public method takes
/// the internal mutex; readers never do — they capture the immutable
/// DeltaView once per serving. Mutations are write-ahead: the journal
/// record is appended and flushed before the in-memory state changes,
/// so an error leaves both sides untouched.
class DeltaShard {
 public:
  /// Opens a delta over `base`, replaying `options.journal_path` when
  /// it exists. InvalidArgument when the journal's base hash or frozen
  /// table count does not match the base. Every record is checked
  /// exactly as the live mutation it records was; one that is garbled,
  /// out of order, names a table id above 0xFFFFFFFF or fails those
  /// checks is Corruption naming its seq, and leaves the file as it
  /// was. A torn tail is dropped with a warning and the file rewritten.
  [[nodiscard]] static StatusOr<std::unique_ptr<DeltaShard>> Open(
      std::shared_ptr<const CorpusSet> base, DeltaOptions options = {});

  /// Adds a new table; the id is allocated (one past the current end)
  /// and returned. `table.id` and, when 0, `table.num_cols` are
  /// overwritten.
  [[nodiscard]] StatusOr<TableId> AddTable(WebTable table)
      WWT_EXCLUDES(mu_);

  /// Replaces the content served for `table.id` (a frozen or delta id;
  /// NotFound for an id that was never allocated). Re-adding a
  /// tombstoned id is allowed.
  [[nodiscard]] Status UpdateTable(WebTable table) WWT_EXCLUDES(mu_);

  /// Patches the table currently served for `id` (summary-override
  /// layer). NotFound for an unallocated id, FailedPrecondition for a
  /// tombstoned one, InvalidArgument for an out-of-range cell edit or
  /// an empty patch.
  [[nodiscard]] Status OverrideSummary(TableId id,
                                       const SummaryOverride& patch)
      WWT_EXCLUDES(mu_);

  /// Stops serving `id`. NotFound for an unallocated id,
  /// FailedPrecondition when already tombstoned.
  [[nodiscard]] Status TombstoneTable(TableId id) WWT_EXCLUDES(mu_);

  /// The current immutable view (never null; empty() when unmutated).
  std::shared_ptr<const DeltaView> view() const WWT_EXCLUDES(mu_);

  /// Re-anchors the delta onto `new_base`, dropping every entry with
  /// seq <= `merged_generation` (they are IN new_base after a merge)
  /// and replaying the rest. Survivors that no longer apply (an id
  /// swallowed by an unrelated swap) are dropped with a warning. The
  /// journal is rewritten against the new base hash. Called by the
  /// service under its swap lock — the published view is atomically
  /// consistent with the installed set.
  [[nodiscard]] Status Rebase(std::shared_ptr<const CorpusSet> new_base,
                              uint64_t merged_generation)
      WWT_EXCLUDES(mu_);

  /// Seconds since the oldest unmerged mutation (0 when none) — the
  /// merge-trigger age.
  double pending_age_seconds() const WWT_EXCLUDES(mu_);

 private:
  /// One applied mutation, kept once: as its journal record body.
  struct Entry {
    uint64_t seq = 0;
    std::string body;
    /// Runtime-only: when the mutation was applied in this process
    /// (journal replay stamps the open time).
    std::chrono::steady_clock::time_point time;
  };

  DeltaShard() = default;

  /// The one definition of what a mutation may do: checks `record`
  /// against `content` and base_ with the rules and Status codes of the
  /// live API, and applies it when they pass. Live mutations, journal
  /// replay and rebase all come through here. `content` is unchanged on
  /// error; an added or updated table is normalized in `record`.
  Status ApplyLocked(DeltaRecord* record, DeltaView::Content* content) const
      WWT_REQUIRES(mu_);
  /// Logs an applied mutation: appends it to entries_ and folds it into
  /// `content`'s freshness hash.
  void LogLocked(Entry entry, DeltaView::Content* content)
      WWT_REQUIRES(mu_);
  /// Decodes and applies `log` in order over an empty delta on base_,
  /// then publishes the result as entries_ and view_. A record that
  /// fails is Corruption naming its seq (Open), or with `drop_failed`
  /// is dropped with a warning (Rebase).
  Status ReplayLocked(std::vector<Entry> log, bool drop_failed)
      WWT_REQUIRES(mu_);
  /// Builds the index and statistics over `content` and publishes it.
  void PublishLocked(DeltaView::Content content) WWT_REQUIRES(mu_);
  /// The live mutation path: applies `record` to a copy of the current
  /// content, appends it to the journal, then publishes the copy.
  Status CommitLocked(DeltaRecord record) WWT_REQUIRES(mu_);
  /// Appends a record to the journal (no-op when journaling is off).
  Status AppendJournalLocked(const std::string& body) WWT_REQUIRES(mu_);
  /// Rewrites the whole journal from entries_ (rebase, torn tail).
  Status RewriteJournalLocked() WWT_REQUIRES(mu_);

  mutable Mutex mu_;
  std::shared_ptr<const CorpusSet> base_ WWT_GUARDED_BY(mu_);
  std::vector<Entry> entries_ WWT_GUARDED_BY(mu_);
  std::shared_ptr<const DeltaView> view_ WWT_GUARDED_BY(mu_);
  uint64_t next_seq_ WWT_GUARDED_BY(mu_) = 1;
  std::string journal_path_;
};

/// One past the last frozen id of a set (== first id + total tables;
/// shards are contiguous).
TableId BaseEndId(const CorpusSet& base);

/// Reads a frozen table straight from the owning shard's store.
[[nodiscard]] StatusOr<WebTable> ReadFrozenTable(const CorpusSet& base,
                                                 TableId id);

}  // namespace fresh
}  // namespace wwt

#endif  // WWT_FRESH_DELTA_SHARD_H_
