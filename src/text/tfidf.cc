#include "text/tfidf.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"

namespace wwt {

IdfDictionary& IdfDictionary::operator=(const IdfDictionary& other) {
  if (this == &other) return *this;
  num_docs_ = other.num_docs_;
  m_df_ = nullptr;
  m_df_size_ = 0;
  if (other.mapped()) {
    // Materialize the mapped df table so the copy owns its storage.
    df_.assign(other.m_df_, other.m_df_ + other.m_df_size_);
  } else {
    df_ = other.df_;
  }
  return *this;
}

void IdfDictionary::AddDocument(const std::vector<TermId>& terms) {
  WWT_CHECK(m_df_ == nullptr) << "mapped IdfDictionary is immutable";
  std::unordered_set<TermId> distinct(terms.begin(), terms.end());
  distinct.erase(kInvalidTerm);
  for (TermId t : distinct) {
    if (t >= df_.size()) df_.resize(t + 1, 0);
    ++df_[t];
  }
  ++num_docs_;
}

uint32_t IdfDictionary::DocFreq(TermId term) const {
  if (m_df_ != nullptr) return term < m_df_size_ ? m_df_[term] : 0;
  return term < df_.size() ? df_[term] : 0;
}

double IdfDictionary::Idf(TermId term) const {
  const double n = std::max<uint32_t>(num_docs_, 1);
  return std::log(1.0 + n / (1.0 + DocFreq(term)));
}

namespace {

using Entries = std::vector<std::pair<TermId, double>>;

/// Sorts by term and merges duplicate entries in place.
void SortMerge(Entries* entries) {
  std::sort(entries->begin(), entries->end());
  size_t out = 0;
  for (size_t i = 0; i < entries->size();) {
    TermId t = (*entries)[i].first;
    double sum = 0;
    while (i < entries->size() && (*entries)[i].first == t) {
      sum += (*entries)[i].second;
      ++i;
    }
    (*entries)[out++] = {t, sum};
  }
  entries->resize(out);
}

double DotSorted(const Entries& a, const Entries& b) {
  double dot = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (a[i].first > b[j].first) {
      ++j;
    } else {
      dot += a[i].second * b[j].second;
      ++i;
      ++j;
    }
  }
  return dot;
}

}  // namespace

void SparseVector::Add(TermId term, double weight) {
  entries_.emplace_back(term, weight);
  dirty_ = true;
}

void SparseVector::Compact() {
  if (!dirty_) return;
  SortMerge(&entries_);
  dirty_ = false;
}

// The const readers must not mutate shared state (vectors inside shared
// candidate tables are read concurrently by the serving threads), so a
// still-dirty vector is handled by computing over a local sorted copy
// instead of compacting in place.

double SparseVector::Get(TermId term) const {
  if (dirty_) {
    double sum = 0;
    for (const auto& [t, w] : entries_) {
      if (t == term) sum += w;
    }
    return sum;
  }
  auto it = std::lower_bound(entries_.begin(), entries_.end(),
                             std::make_pair(term, 0.0),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             });
  if (it != entries_.end() && it->first == term) return it->second;
  return 0.0;
}

double SparseVector::Dot(const SparseVector& other) const {
  if (!dirty_ && !other.dirty_) {
    return DotSorted(entries_, other.entries_);
  }
  Entries a, b;
  if (dirty_) {
    a = entries_;
    SortMerge(&a);
  }
  if (other.dirty_) {
    b = other.entries_;
    SortMerge(&b);
  }
  return DotSorted(dirty_ ? a : entries_, other.dirty_ ? b : other.entries_);
}

double SparseVector::NormSquared() const {
  double s = 0;
  if (dirty_) {
    Entries merged = entries_;
    SortMerge(&merged);
    for (const auto& [_, w] : merged) s += w * w;
  } else {
    for (const auto& [_, w] : entries_) s += w * w;
  }
  return s;
}

double SparseVector::Cosine(const SparseVector& a, const SparseVector& b) {
  return Cosine(a.Dot(b), a.NormSquared(), b.NormSquared());
}

double SparseVector::Cosine(double dot, double norm_sq_a, double norm_sq_b) {
  if (norm_sq_a <= 0 || norm_sq_b <= 0) return 0.0;
  return dot / std::sqrt(norm_sq_a * norm_sq_b);
}

}  // namespace wwt
