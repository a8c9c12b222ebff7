#ifndef CROSSMINE_COMMON_RANDOM_H_
#define CROSSMINE_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace crossmine {

/// Deterministic 64-bit PRNG (SplitMix64). Every stochastic component of the
/// library takes an explicit seed so experiments are exactly reproducible
/// across runs and platforms; `std::mt19937` distributions are not
/// cross-platform stable, hence this self-contained implementation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in `[0, bound)`. `bound` must be positive.
  uint64_t Uniform(uint64_t bound) {
    CM_CHECK(bound > 0);
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = (0ULL - bound) % bound;
    for (;;) {
      uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in `[lo, hi]` inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    CM_CHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in `[0, 1)`.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in `[lo, hi)`.
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Bernoulli trial with success probability `p`.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Exponentially distributed value with the given expectation, floored at
  /// `min_value` — the shape Table 1 of the paper prescribes for relation
  /// sizes, attribute counts, value counts and foreign-key counts.
  int64_t ExponentialAtLeast(double expectation, int64_t min_value) {
    double u = UniformDouble();
    if (u <= 0.0) u = 1e-12;
    double x = -expectation * std::log(1.0 - u);
    int64_t v = static_cast<int64_t>(std::llround(x));
    return v < min_value ? min_value : v;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Samples `k` distinct indices from `[0, n)` (k <= n), in random order.
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k);

 private:
  uint64_t state_;
};

}  // namespace crossmine

#endif  // CROSSMINE_COMMON_RANDOM_H_
