// Copyright 2026 The WWT Authors
//
// String interning: maps tokens to dense TermIds so the index, the TF-IDF
// vectors, and the mapper all manipulate integers instead of strings.
//
// Lookup goes through one open-addressing slot table of term ids in both
// storage modes:
//  * heap mode (the default): a term vector plus the slot table, mutable
//    via Intern();
//  * mapped mode: an offset table + term blob + the slot table read in
//    place from a memory-mapped snapshot — immutable, zero heap.
// The table holds SlotCountFor(size()) slots, filled by inserting ids in
// ascending order at their HomeSlot() with linear probing, so
// it is a function of the terms alone: the snapshot writer stores it as
// is and a re-save reproduces it byte for byte. Copying a mapped
// vocabulary materializes it back to heap mode (the sharding path
// pre-seeds per-shard vocabularies by copy), so a copy never dangles
// into a mapping it does not own.

#ifndef WWT_TEXT_VOCABULARY_H_
#define WWT_TEXT_VOCABULARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace wwt {

class SnapshotCodec;

/// Dense identifier for an interned term.
using TermId = uint32_t;

/// Sentinel for "not in vocabulary".
inline constexpr TermId kInvalidTerm = UINT32_MAX;

/// Append-only term dictionary. Not thread-safe for writes.
class Vocabulary {
 public:
  /// The slot-table value of an empty slot.
  static constexpr uint32_t kEmptySlot = kInvalidTerm;

  /// Slots for a table of `num_terms` terms: the smallest power of two
  /// that is at least 2 * num_terms (1 for an empty vocabulary), so the
  /// load factor stays at or below 1/2 and a probe always reaches an
  /// empty slot. Part of the snapshot format since v5.
  static uint64_t SlotCountFor(uint64_t num_terms);

  /// A term's home slot in a table of `num_slots` (a power of two)
  /// slots; a probe walks on to the next slot, wrapping, until it finds
  /// the term or an empty slot. Part of the snapshot format since v5.
  static uint64_t HomeSlot(std::string_view term, uint64_t num_slots) {
    const uint64_t h = Fnv1a(term);
    return (h ^ (h >> 32)) & (num_slots - 1);
  }

  Vocabulary() = default;
  /// Deep copy; a mapped source is materialized into heap storage. (No
  /// move: a moved-from vocabulary would have no slot table.)
  Vocabulary(const Vocabulary& other) { *this = other; }
  Vocabulary& operator=(const Vocabulary& other);

  /// Returns the id of `term`, interning it if new. Heap mode only — a
  /// mapped vocabulary is immutable.
  TermId Intern(std::string_view term);

  /// Returns the id of `term` if present.
  std::optional<TermId> Find(std::string_view term) const {
    const uint32_t* slots = Slots();
    const uint64_t mask = num_slots() - 1;
    for (uint64_t s = HomeSlot(term, mask + 1);; s = (s + 1) & mask) {
      const TermId id = slots[s];
      if (id == kEmptySlot) return std::nullopt;
      if (Term(id) == term) return id;
    }
  }

  /// The term for an id; id must be valid. A view into either the heap
  /// string or the snapshot mapping — stable for the vocabulary's (and,
  /// mapped, the owning Corpus mapping's) lifetime.
  std::string_view Term(TermId id) const {
    if (m_offsets_ != nullptr) {
      return std::string_view(m_blob_ + m_offsets_[id],
                              m_offsets_[id + 1] - m_offsets_[id]);
    }
    return terms_[id];
  }

  /// Number of distinct terms.
  size_t size() const {
    return m_offsets_ != nullptr ? m_size_ : terms_.size();
  }

  /// True when terms are served in place from a snapshot mapping.
  bool mapped() const { return m_offsets_ != nullptr; }

  /// The slot table: num_slots() == SlotCountFor(size()) entries, each a
  /// term id or kEmptySlot.
  const uint32_t* Slots() const {
    return m_offsets_ != nullptr ? m_slots_ : slots_.data();
  }
  uint64_t num_slots() const {
    return m_offsets_ != nullptr ? m_num_slots_ : slots_.size();
  }

 private:
  /// Snapshot load (src/index/snapshot.cc) installs the mapped view.
  friend class SnapshotCodec;

  /// Heap mode: puts `id` into the first empty slot of its probe.
  void Place(TermId id);

  // Heap mode.
  std::vector<std::string> terms_;
  std::vector<uint32_t> slots_ = std::vector<uint32_t>(1, kEmptySlot);

  // Mapped mode (all null/0 in heap mode).
  const uint64_t* m_offsets_ = nullptr;  // [m_size_ + 1]
  const uint32_t* m_slots_ = nullptr;    // [m_num_slots_]
  const char* m_blob_ = nullptr;
  size_t m_size_ = 0;
  uint64_t m_num_slots_ = 0;
};

}  // namespace wwt

#endif  // WWT_TEXT_VOCABULARY_H_
