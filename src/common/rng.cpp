#include "common/rng.hpp"

#include <cmath>

namespace redist {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

__extension__ typedef unsigned __int128 uint128;

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
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

std::uint64_t Rng::uniform_below(std::uint64_t bound) {
  // Lemire's multiply-shift rejection method, bias-free.
  REDIST_CHECK(bound > 0);
  std::uint64_t x = next();
  uint128 m = static_cast<uint128>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<uint128>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  REDIST_CHECK_MSG(lo <= hi, "uniform_int: lo=" << lo << " hi=" << hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == std::numeric_limits<std::uint64_t>::max()) {
    return static_cast<std::int64_t>(next());
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   uniform_below(span + 1));
}

double Rng::uniform01() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  REDIST_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
    // Marsaglia polar rejection: s == 0.0 is the exact degenerate sample
    // (log(0) below), not a tolerance question.
    // redist-analyze: allow(float-eq) exact degenerate sample
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return mean + stddev * u * factor;
}

Rng Rng::split() {
  // Mix two outputs into a fresh seed; streams are effectively independent.
  std::uint64_t seed = next() ^ rotl(next(), 31);
  return Rng(seed);
}

}  // namespace redist
