// Copyright 2026 The WWT Authors

#include "fresh/merge.h"

#include <utility>

#include "util/logging.h"

namespace wwt {
namespace fresh {

StatusOr<Corpus> FoldDelta(const DeltaView& view) {
  const CorpusSet& base = *view.base();
  const TableId first = base.shard(0).store().first_id();
  if (first != 0) {
    return Status::FailedPrecondition(
        "cannot fold a delta over a set starting at table id ", first,
        "; folding rebuilds the full contiguous id space from 0");
  }

  Corpus merged;
  const TableId end = view.next_table_id();
  for (TableId id = 0; id < end; ++id) {
    WebTable table;
    if (view.Contains(id)) {
      WWT_ASSIGN_OR_RETURN(table, view.Read(id));
    } else if (view.tombstoned().count(id) != 0) {
      // Empty placeholder: keeps every other table's global id stable.
    } else if (id < view.base_end_id()) {
      WWT_ASSIGN_OR_RETURN(table, ReadFrozenTable(base, id));
    }
    const TableId assigned = merged.store.Put(std::move(table));
    WWT_CHECK(assigned == id) << "folded store id drifted: " << assigned
                              << " != " << id;
  }

  // Fresh terms extend the vocabulary in the same ascending-table-id
  // first-use order the serving overlay used.
  Status read = Status::OK();
  merged.index = TableIndex::BuildPinned(
      base.shard(0).index(), base.stats().vocab(), base.stats().idf(),
      [&](const auto& add) {
        for (TableId id = 0; id < end && read.ok(); ++id) {
          StatusOr<WebTable> table = merged.store.Get(id);
          read = table.status();
          if (read.ok()) add(*table);
        }
      });
  WWT_RETURN_NOT_OK(read);

  // Ground truth survives for every id still serving its provenance;
  // tombstoned ids drop theirs. Delta-added tables have none (operator
  // content, not generated).
  for (size_t s = 0; s < base.num_shards(); ++s) {
    for (const auto& [id, truth] : base.shard(s).corpus().truth) {
      if (view.tombstoned().count(id) == 0) merged.truth.emplace(id, truth);
    }
  }
  merged.queries = base.queries();
  merged.harvest_stats = base.shard(0).corpus().harvest_stats;
  return merged;
}

MergeDaemon::MergeDaemon(DeltaShard* delta, ThreadPool* pool,
                         std::function<Status()> merge_fn,
                         MergeDaemonOptions options)
    : delta_(delta),
      pool_(pool),
      merge_fn_(std::move(merge_fn)),
      options_(options) {
  WWT_CHECK(delta_ != nullptr) << "MergeDaemon needs a delta";
  WWT_CHECK(pool_ != nullptr) << "MergeDaemon needs a pool";
  WWT_CHECK(merge_fn_ != nullptr) << "MergeDaemon needs a merge callback";
  watcher_ = std::thread([this] { Loop(); });
}

MergeDaemon::~MergeDaemon() { Stop(); }

void MergeDaemon::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    cv_.NotifyAll();
  }
  if (watcher_.joinable()) watcher_.join();
}

MergeDaemon::Stats MergeDaemon::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void MergeDaemon::Loop() {
  while (true) {
    {
      MutexLock lock(mu_);
      if (!stopping_) cv_.WaitFor(mu_, options_.poll_interval_seconds);
      if (stopping_) return;
    }
    MaybeMerge();
  }
}

void MergeDaemon::MaybeMerge() {
  std::shared_ptr<const DeltaView> view = delta_->view();
  if (view->empty()) return;
  const bool over_count = view->num_entries() >= options_.max_pending;
  const bool over_age = options_.max_age_seconds > 0 &&
                        delta_->pending_age_seconds() >=
                            options_.max_age_seconds;
  if (!over_count && !over_age) return;

  const uint64_t generation = view->generation();
  WWT_LOG(Info) << "merge daemon: folding delta generation " << generation
                << " (" << view->num_entries() << " pending, "
                << (over_count ? "count" : "age") << " trigger)";
  Status merged = Status::OK();
  try {
    merged = pool_->Submit(merge_fn_).get();
  } catch (const std::exception& e) {
    // A pool already shutting down rejects the task via its future.
    merged = Status::Internal("merge task did not run: ", e.what());
  }
  MutexLock lock(mu_);
  if (merged.ok()) {
    ++stats_.merges;
    stats_.last_generation = generation;
  } else {
    ++stats_.failures;
    WWT_LOG(Error) << "merge daemon: merge failed: " << merged.ToString();
  }
}

}  // namespace fresh
}  // namespace wwt
