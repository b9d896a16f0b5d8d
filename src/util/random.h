// Copyright 2026 The WWT Authors
//
// Deterministic pseudo-random generator used by the corpus generator and
// tests. All randomness in the library flows through Random so experiments
// are reproducible from a single seed.

#ifndef WWT_UTIL_RANDOM_H_
#define WWT_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wwt {

/// xorshift128+ generator. Not cryptographic; fast and reproducible across
/// platforms (unlike std::mt19937 distributions, whose outputs are not
/// standardized for all distribution types).
class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [0, n) with exponent s (s=0 -> uniform).
  uint64_t Zipf(uint64_t n, double s);

  /// Samples an index according to non-negative `weights` (need not sum
  /// to one). Returns weights.size() - 1 on degenerate input.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(Uniform(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k clamped to n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator; used to give each query /
  /// page its own stream so adding pages does not perturb others.
  Random Fork();

 private:
  uint64_t s_[2];
};

}  // namespace wwt

#endif  // WWT_UTIL_RANDOM_H_
