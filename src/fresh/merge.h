// Copyright 2026 The WWT Authors
//
// The background half of corpus freshness (docs/FRESHNESS.md): folding
// a DeltaView into a new frozen corpus, and the daemon that decides
// when to do it.
//
//  * FoldDelta materializes (frozen base + delta) into one heap Corpus
//    with the same contiguous id space: delta tables replace superseded
//    frozen records, tombstones become empty placeholder records, and
//    the index is rebuilt with the exact seed-add-pin idiom the serving
//    delta index uses — so the folded corpus serves byte-identical
//    results to the live (frozen + delta) overlay it replaces.
//  * MergeDaemon watches a DeltaShard and, past a pending-count or
//    pending-age threshold, runs the caller-supplied merge callback on
//    the serving ThreadPool (the service's MergeDeltaToSet: fold, save
//    a generation-tagged .wwtset, swap, rebase, purge).

#ifndef WWT_FRESH_MERGE_H_
#define WWT_FRESH_MERGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "corpus/corpus_generator.h"
#include "fresh/delta_shard.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace wwt {
namespace fresh {

/// Folds `view` (and the base set it was built against) into one
/// from-scratch heap corpus covering [0, view.next_table_id()):
///
///  * a delta table (added, updated or patched) replaces its id,
///  * a tombstoned id becomes an empty placeholder record (it indexes
///    nothing and can never match, but the contiguous id space — and
///    with it every other table's global id — survives),
///  * every other id is the frozen record, byte-for-byte.
///
/// The index pins the base global statistics (TableIndex::BuildPinned,
/// as the live overlay's is built), so term ids, IDF weights and scores
/// all equal the live overlay's. FailedPrecondition when the
/// base set does not start at id 0 (a folded corpus always does).
[[nodiscard]] StatusOr<Corpus> FoldDelta(const DeltaView& view);

struct MergeDaemonOptions {
  /// Merge once this many unmerged mutations are pending.
  size_t max_pending = 64;
  /// Merge once the oldest pending mutation is this old (seconds);
  /// 0 disables the age trigger.
  double max_age_seconds = 0;
  /// How often the daemon re-checks the triggers.
  double poll_interval_seconds = 1.0;
};

/// Background merge trigger. Owns a small watcher thread that polls the
/// DeltaShard; when a threshold trips, the merge callback runs on
/// `pool` (one merge at a time — the watcher blocks on its future).
/// The callback does the actual fold/save/swap/rebase/purge and must be
/// safe to call from a pool worker. Stop() (implied by the destructor)
/// joins the watcher; a merge already running completes first.
class MergeDaemon {
 public:
  struct Stats {
    uint64_t merges = 0;
    uint64_t failures = 0;
    /// Generation folded by the last successful merge.
    uint64_t last_generation = 0;
  };

  /// `delta` and `pool` are borrowed and must outlive this daemon.
  MergeDaemon(DeltaShard* delta, ThreadPool* pool,
              std::function<Status()> merge_fn, MergeDaemonOptions options);
  ~MergeDaemon();

  MergeDaemon(const MergeDaemon&) = delete;
  MergeDaemon& operator=(const MergeDaemon&) = delete;

  void Stop() WWT_EXCLUDES(mu_);
  Stats stats() const WWT_EXCLUDES(mu_);

 private:
  void Loop() WWT_EXCLUDES(mu_);
  /// Runs one merge on the pool when a trigger is due.
  void MaybeMerge() WWT_EXCLUDES(mu_);

  DeltaShard* const delta_;
  ThreadPool* const pool_;
  const std::function<Status()> merge_fn_;
  const MergeDaemonOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  bool stopping_ WWT_GUARDED_BY(mu_) = false;
  Stats stats_ WWT_GUARDED_BY(mu_);
  std::thread watcher_;
};

}  // namespace fresh
}  // namespace wwt

#endif  // WWT_FRESH_MERGE_H_
