#include "text/vocabulary.h"

#include "util/logging.h"

namespace wwt {

uint64_t Vocabulary::SlotCountFor(uint64_t num_terms) {
  uint64_t slots = 1;
  while (slots < 2 * num_terms) slots *= 2;
  return slots;
}

Vocabulary& Vocabulary::operator=(const Vocabulary& other) {
  if (this == &other) return *this;
  terms_.clear();
  terms_.reserve(other.size());
  for (TermId id = 0; id < other.size(); ++id) {
    terms_.emplace_back(other.Term(id));
  }
  // The same terms in the same id order give the same table, so a
  // mapped source's table is copied rather than rebuilt.
  slots_.assign(other.Slots(), other.Slots() + other.num_slots());
  m_offsets_ = nullptr;
  m_slots_ = nullptr;
  m_blob_ = nullptr;
  m_size_ = 0;
  m_num_slots_ = 0;
  return *this;
}

TermId Vocabulary::Intern(std::string_view term) {
  WWT_CHECK(m_offsets_ == nullptr) << "mapped Vocabulary is immutable";
  if (std::optional<TermId> found = Find(term)) return *found;
  const TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  const uint64_t want = SlotCountFor(terms_.size());
  if (slots_.size() < want) {
    // Grow by re-inserting every id in ascending order: the table stays
    // the one a fresh build of these terms would produce.
    slots_.assign(want, kEmptySlot);
    for (TermId t = 0; t <= id; ++t) Place(t);
  } else {
    Place(id);
  }
  return id;
}

void Vocabulary::Place(TermId id) {
  const uint64_t mask = slots_.size() - 1;
  uint64_t s = HomeSlot(terms_[id], slots_.size());
  while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
  slots_[s] = id;
}

}  // namespace wwt
