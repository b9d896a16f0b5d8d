// Copyright 2026 The WWT Authors
//
// TableStore: assigns ids and stores serialized tables. Reads go through
// the serialization layer so that query-time "read and parse the raw
// tables" cost (Fig. 7's table-read stages) is really paid. Optional file
// persistence round-trips the whole corpus.
//
// Record bytes live behind a StoreSource: a heap vector while building,
// or an offset-table view straight into a memory-mapped snapshot — the
// zero-copy serve path. Everything above the store (engine, snapshot
// codec, sharding) reads records through the source interface and never
// sees which one it is.

#ifndef WWT_INDEX_TABLE_STORE_H_
#define WWT_INDEX_TABLE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "table/web_table.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/statusor.h"

namespace wwt {

class SnapshotCodec;

/// One table's forward-index entry (snapshot section FWRD, see
/// docs/SNAPSHOTS.md): `size` u32 words read in place from the snapshot
/// mapping. The store hands it out uninterpreted; CandidateTable
/// (core/candidate.h) writes and parses it.
struct ForwardEntry {
  const uint32_t* words = nullptr;  // null: the store carries no entries
  size_t size = 0;
};

/// Read surface over a store's serialized records. Implementations:
/// VectorStoreSource (heap strings, build mode) and MappedStoreSource
/// (offset table + blob read in place from a snapshot mapping).
class StoreSource {
 public:
  virtual ~StoreSource() = default;

  virtual size_t size() const = 0;
  /// Serialized bytes of the record at position `pos` (0-based within
  /// this store, not a TableId). `pos` must be < size().
  virtual std::string_view record(size_t pos) const = 0;
  /// The forward-index entry of the record at `pos`; empty when the
  /// source carries no forward index (build mode).
  virtual ForwardEntry forward(size_t /*pos*/) const { return {}; }
  /// True when the records are served from a file mapping.
  virtual bool mapped() const = 0;
  /// Approximate heap bytes owned by this source.
  virtual size_t HeapBytes() const = 0;
};

/// Build-mode source: owns the record strings.
class VectorStoreSource final : public StoreSource {
 public:
  size_t size() const override { return records.size(); }
  std::string_view record(size_t pos) const override {
    return records[pos];
  }
  bool mapped() const override { return false; }
  size_t HeapBytes() const override {
    size_t bytes = records.capacity() * sizeof(std::string);
    for (const std::string& r : records) bytes += r.capacity();
    return bytes;
  }

  std::vector<std::string> records;
};

/// Zero-copy source: a `u64 offsets[count + 1]` table plus a blob, both
/// pointing into a snapshot mapping whose lifetime the owning Corpus
/// pins (`Corpus::mapping`), and the forward index laid out the same way
/// in u32 words. Offsets are validated monotone at load, so record() and
/// forward() can slice without rechecking.
class MappedStoreSource final : public StoreSource {
 public:
  size_t size() const override { return count; }
  std::string_view record(size_t pos) const override {
    return std::string_view(blob + offsets[pos],
                            offsets[pos + 1] - offsets[pos]);
  }
  ForwardEntry forward(size_t pos) const override {
    return {forward_words + forward_offsets[pos],
            static_cast<size_t>(forward_offsets[pos + 1] -
                                forward_offsets[pos])};
  }
  bool mapped() const override { return true; }
  size_t HeapBytes() const override { return 0; }

  const uint64_t* offsets = nullptr;  // [count + 1], offsets[0] == 0
  const char* blob = nullptr;
  size_t count = 0;
  const uint64_t* forward_offsets = nullptr;  // [count + 1], in words
  const uint32_t* forward_words = nullptr;
};

/// Append-only table storage keyed by dense TableId.
///
/// A store covers the contiguous id range [first_id(), end_id()): a full
/// corpus starts at 0, a CorpusSet shard at its partition offset, so
/// tables keep their global ids across sharding (answer digests and
/// cache keys never depend on which shard served them).
///
/// Thread safety: Get()/RecordSize() are pure reads with no hidden
/// mutable state (audited for concurrent serving) — safe from any
/// number of threads once building (Put) has finished.
/// Writes must not overlap reads.
class TableStore {
 public:
  TableStore() {
    auto vec = std::make_unique<VectorStoreSource>();
    vec_ = vec.get();
    source_ = std::move(vec);
  }

  TableStore(TableStore&&) = default;
  TableStore& operator=(TableStore&&) = default;
  TableStore(const TableStore&) = delete;
  TableStore& operator=(const TableStore&) = delete;

  /// Assigns the next id to `table` (overwriting table.id), serializes and
  /// stores it. Returns the assigned id. Build mode only — a store
  /// serving a mapped snapshot is immutable.
  TableId Put(WebTable table);

  /// Deserializes table `id`. NotFound outside [first_id(), end_id()).
  StatusOr<WebTable> Get(TableId id) const;

  /// Table `id`'s forward-index entry when the store serves a snapshot;
  /// empty in build mode. `id` must be in [first_id(), end_id()).
  ForwardEntry Forward(TableId id) const {
    return source_->forward(id - first_id_);
  }

  /// Bytes of the serialized record (for size accounting in benches).
  size_t RecordSize(TableId id) const;

  size_t size() const { return source_->size(); }

  /// First id held by this store (0 for a full corpus, the partition
  /// offset for a CorpusSet shard).
  TableId first_id() const { return first_id_; }
  /// One past the last id held by this store.
  TableId end_id() const {
    return first_id_ + static_cast<TableId>(source_->size());
  }

  /// True when records are served in place from a snapshot mapping.
  bool mapped() const { return source_->mapped(); }
  /// Approximate heap bytes owned by the record storage.
  size_t HeapBytes() const { return source_->HeapBytes(); }

 private:
  /// Snapshot save/load and corpus partitioning (src/index/snapshot.cc)
  /// move records in and out without re-serializing each table.
  friend class SnapshotCodec;

  /// The heap records, or a CHECK failure in mapped mode — every
  /// internal mutation path goes through this.
  std::vector<std::string>& MutableRecords() {
    WWT_CHECK(vec_ != nullptr) << "mapped TableStore is immutable";
    return vec_->records;
  }

  std::unique_ptr<StoreSource> source_;
  /// Non-null iff source_ is the heap VectorStoreSource (build mode).
  VectorStoreSource* vec_ = nullptr;
  TableId first_id_ = 0;
};

}  // namespace wwt

#endif  // WWT_INDEX_TABLE_STORE_H_
