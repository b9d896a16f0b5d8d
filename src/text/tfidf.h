// Copyright 2026 The WWT Authors
//
// TF-IDF weighting and sparse vectors. The paper's similarity functions
// (Eq. 1 and §3.2.2) weight every token w by TI(w), its TF-IDF score; the
// IDF statistics come from the table corpus via IdfDictionary.

#ifndef WWT_TEXT_TFIDF_H_
#define WWT_TEXT_TFIDF_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "text/vocabulary.h"

namespace wwt {

class SnapshotCodec;

/// Document-frequency dictionary accumulated over a corpus.
/// Idf(w) = ln(1 + N / (1 + df(w))) — the +1s keep rare/unknown terms
/// finite and make the function monotone in N.
///
/// The df table either lives on the heap (build mode) or is a view into
/// a memory-mapped snapshot (immutable). Copying a mapped dictionary
/// materializes the table, so a copy never dangles into a mapping it
/// does not own (the sharding path copies global IDF into every shard).
class IdfDictionary {
 public:
  IdfDictionary() = default;
  IdfDictionary(IdfDictionary&&) = default;
  IdfDictionary& operator=(IdfDictionary&&) = default;
  IdfDictionary(const IdfDictionary& other) { *this = other; }
  IdfDictionary& operator=(const IdfDictionary& other);

  /// Records one document's distinct terms (duplicates are fine; they are
  /// deduplicated internally). Heap mode only.
  void AddDocument(const std::vector<TermId>& terms);

  /// Document frequency of a term.
  uint32_t DocFreq(TermId term) const;

  /// Number of documents added.
  uint32_t num_docs() const { return num_docs_; }

  /// True when the df table is served in place from a snapshot mapping.
  bool mapped() const { return m_df_ != nullptr; }

  /// IDF weight of a term, >= 0. Unknown terms get the weight of a
  /// document frequency of zero (maximally informative).
  double Idf(TermId term) const;

 private:
  /// Snapshot save/load (src/index/snapshot.cc) restores the df table
  /// directly instead of replaying every document.
  friend class SnapshotCodec;

  std::vector<uint32_t> df_;
  uint32_t num_docs_ = 0;

  // Mapped mode (null/0 in heap mode).
  const uint32_t* m_df_ = nullptr;
  size_t m_df_size_ = 0;
};

/// Sparse vector over TermIds, kept sorted by term. Supports the TF-IDF
/// algebra the mapper needs: dot products, squared norms, cosine.
///
/// Thread safety: the const readers never mutate, so a compacted vector
/// can be read from any number of threads. Call Compact() once after the
/// Add() build loop; reading a still-dirty vector is correct but falls
/// back to a slower non-mutating path every call.
class SparseVector {
 public:
  SparseVector() = default;

  /// Adds `weight` to `term`'s entry.
  void Add(TermId term, double weight);

  /// Sorts entries by term and merges duplicates. Idempotent. Must not
  /// race with readers of the same vector (build-then-share).
  void Compact();

  /// Entry for a term (0 if absent).
  double Get(TermId term) const;

  double Dot(const SparseVector& other) const;

  /// Sum of squared entries. The paper's ||P||^2.
  double NormSquared() const;

  /// Cosine similarity; 0 when either vector is empty/zero.
  static double Cosine(const SparseVector& a, const SparseVector& b);

  /// The same cosine from a dot product and both squared norms, for
  /// callers that compute them once per vector.
  static double Cosine(double dot, double norm_sq_a, double norm_sq_b);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  bool compacted() const { return !dirty_; }

  /// (term, weight) pairs — sorted and duplicate-free only after
  /// Compact(); raw insertion order (duplicates possible) before.
  const std::vector<std::pair<TermId, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<TermId, double>> entries_;
  bool dirty_ = false;
};

}  // namespace wwt

#endif  // WWT_TEXT_TFIDF_H_
