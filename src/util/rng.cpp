#include "util/rng.hpp"

#include <cmath>

namespace lynceus::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t state = seed ^ (0xA0761D6478BD642FULL + stream * 0xE7037ED1A0B428DBULL);
  (void)splitmix64(state);
  return splitmix64(state);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::State Rng::state() const noexcept {
  State st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.spare_normal = spare_normal_;
  st.has_spare = has_spare_;
  return st;
}

void Rng::set_state(const State& state) noexcept {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  spare_normal_ = state.spare_normal;
  has_spare_ = state.has_spare;
}

double Rng::uniform() noexcept {
  // 53 significant bits, uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1ULL;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * scale;
  has_spare_ = true;
  return u * scale;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

unsigned Rng::poisson1() noexcept {
  // P(k) = e^{-1}/k!; walk the CDF until it covers the uniform draw. The
  // tail beyond k=12 has probability < 1e-13 — return 12 there rather than
  // looping on denormals.
  const double u = uniform();
  double pmf = 0.36787944117144232160;  // e^{-1}
  double cdf = pmf;
  unsigned k = 0;
  while (u >= cdf && k < 12) {
    ++k;
    pmf /= static_cast<double>(k);
    cdf += pmf;
  }
  return k;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

Rng Rng::split() noexcept { return Rng((*this)()); }

}  // namespace lynceus::util
