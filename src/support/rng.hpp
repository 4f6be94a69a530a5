// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through Rng so that every workload,
// trace and experiment is reproducible from a single 64-bit seed. The
// generator is xoshiro256** seeded through splitmix64, which is both fast and
// statistically strong enough for workload synthesis.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace codelayout {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes two 64-bit values into one; order-sensitive.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// Deterministic xoshiro256** generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent child stream; `stream_id` distinguishes children.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const {
    Rng child(hash_combine(state_[0] ^ state_[3], stream_id));
    return child;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be positive.
  std::uint64_t below(std::uint64_t bound) {
    CL_DCHECK(bound > 0);
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0ULL - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    CL_DCHECK(lo <= hi);
    const auto width = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(width));
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Geometric number of successes before failure; mean = p/(1-p) for the
  /// standard parameterization, here mean iterations for a loop whose
  /// back-edge is taken with probability p.
  std::uint64_t geometric(double back_edge_prob, std::uint64_t cap) {
    std::uint64_t n = 0;
    while (n < cap && chance(back_edge_prob)) ++n;
    return n;
  }

  /// Samples an index proportionally to `weights` (all non-negative, at least
  /// one positive).
  std::size_t weighted(std::span<const double> weights);

  /// Zipf-like rank sample over [0, n) with exponent s (s=0 is uniform).
  std::size_t zipf(std::size_t n, double s);

  /// Returns a random permutation of [0, n).
  std::vector<std::uint32_t> permutation(std::uint32_t n);

  /// Fisher–Yates shuffle of a vector-like container.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Rng::chance(p) for a fixed p as one integer compare. chance() tests
/// uniform() < p, i.e. (next() >> 11) * 2^-53 < p; both sides scale exactly
/// by 2^53, and an integer is below a real iff it is below that real's
/// ceiling, so the draw is (next() >> 11) < ceil(p * 2^53). Same results,
/// same stream position: p <= 0 and p >= 1 consume no draw, and a NaN p
/// draws and fails, exactly as chance() does.
class Bernoulli {
 public:
  explicit Bernoulli(double p)
      : mode_(p <= 0.0   ? Mode::kNever
              : p >= 1.0 ? Mode::kAlways
                         : Mode::kDraw),
        threshold_(mode_ == Mode::kDraw && p > 0.0
                       ? static_cast<std::uint64_t>(
                             std::ceil(std::ldexp(p, 53)))
                       : 0) {}

  bool operator()(Rng& rng) const {
    if (mode_ != Mode::kDraw) return mode_ == Mode::kAlways;
    return (rng.next() >> 11) < threshold_;
  }

 private:
  enum class Mode : std::uint8_t { kNever, kAlways, kDraw };
  Mode mode_;
  std::uint64_t threshold_;  ///< in [1, 2^53) for p in (0, 1); 0 for NaN
};

}  // namespace codelayout
