#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace wwt {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  s_[0] = SplitMix64(&sm);
  s_[1] = SplitMix64(&sm);
  if (s_[0] == 0 && s_[1] == 0) s_[0] = 1;
}

uint64_t Random::Next() {
  uint64_t x = s_[0];
  const uint64_t y = s_[1];
  s_[0] = y;
  x ^= x << 23;
  s_[1] = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s_[1] + y;
}

uint64_t Random::Uniform(uint64_t n) {
  WWT_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return v % n;
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  WWT_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Random::NextDouble() {
  // 53 high-quality mantissa bits.
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Random::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

uint64_t Random::Zipf(uint64_t n, double s) {
  WWT_CHECK(n > 0);
  if (s <= 0.0) return Uniform(n);
  // Inverse CDF by linear scan; n is small in corpus generation (< 1e4).
  double norm = 0.0;
  for (uint64_t i = 1; i <= n; ++i) norm += 1.0 / std::pow(double(i), s);
  double u = NextDouble() * norm;
  double acc = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(double(i), s);
    if (u <= acc) return i - 1;
  }
  return n - 1;
}

size_t Random::Categorical(const std::vector<double>& weights) {
  WWT_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0 ? w : 0);
  if (total <= 0.0) return weights.size() - 1;
  double u = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += (weights[i] > 0 ? weights[i] : 0);
    if (u <= acc) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Random::SampleWithoutReplacement(size_t n, size_t k) {
  if (k > n) k = n;
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  // Partial Fisher-Yates: only the first k swaps matter.
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(Uniform(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Random Random::Fork() { return Random(Next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace wwt
