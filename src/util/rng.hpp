#pragma once

/// \file rng.hpp
/// Deterministic, splittable pseudo-random number generation.
///
/// Every stochastic component in the library (bootstrap sampling, tree
/// randomization, Latin-hypercube sampling, the RND optimizer, the synthetic
/// workload generators) draws from an explicitly seeded `Rng`. Experiment
/// reproducibility depends on *never* touching global random state, so the
/// library provides no default-seeded constructor: a seed is always required.

#include <cstdint>
#include <limits>
#include <vector>

namespace lynceus::util {

/// SplitMix64 step. Used to derive well-mixed seeds from small integers
/// (run ids, stream ids) and as the seeding routine for `Rng`.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Hash-combines a seed with a stream identifier, producing an independent
/// seed. `derive_seed(s, i) != derive_seed(s, j)` for `i != j` with
/// overwhelming probability.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream) noexcept;

/// xoshiro256** — a small, fast, high-quality PRNG.
///
/// Satisfies the C++ `UniformRandomBitGenerator` concept so it can be used
/// with `<random>` distributions, although the library prefers the explicit
/// helpers below for reproducibility across standard-library versions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose state is derived from `seed` via
  /// SplitMix64 (so nearby seeds yield unrelated streams).
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value. Inline, like below(): tree fits draw from it
  /// at every split.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires `lo <= hi`.
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires `n > 0`. Uses Lemire's unbiased
  /// bounded-rejection method.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0ULL - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires `lo <= hi`.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal variate (Marsaglia polar method, cached spare).
  [[nodiscard]] double normal() noexcept;

  /// Normal variate with the given mean and standard deviation
  /// (`stddev >= 0`).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Poisson(λ=1) draw by CDF inversion of one uniform() — the resampling
  /// rate of Oza–Russell online bagging, which the incremental ensemble
  /// refit uses to decide how many copies of an appended sample enter each
  /// tree's bootstrap. Exactly one uniform() is consumed per call, and the
  /// inversion uses only +,*,/ on exactly representable pmf recurrences, so
  /// the draw is bit-deterministic across platforms.
  [[nodiscard]] unsigned poisson1() noexcept;

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of {0, 1, ..., n-1}.
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  /// Forks an independent child generator; the parent stream advances by
  /// one draw. Children forked in sequence are mutually independent.
  [[nodiscard]] Rng split() noexcept;

  /// Serializable generator state (tuning-session snapshot/restore, see
  /// core/stepper.hpp). `set_state(state())` is an exact no-op: the stream
  /// continues bit-identically, including a cached spare normal variate.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double spare_normal = 0.0;
    bool has_spare = false;
  };
  [[nodiscard]] State state() const noexcept;
  void set_state(const State& state) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace lynceus::util
