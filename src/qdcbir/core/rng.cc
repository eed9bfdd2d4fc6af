#include "qdcbir/core/rng.h"

#include <cassert>
#include <cmath>

namespace qdcbir {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

GaussianPair BoxMuller(double u1, double u2) {
  if (u1 < 1e-300) u1 = 1e-300;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::UniformDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

void Rng::FillUniform(double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = UniformDouble();
}

double Rng::UniformDouble(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * UniformDouble();
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1ULL;
  return lo + static_cast<std::int64_t>(UniformInt(span));
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  const double u1 = UniformDouble();
  const double u2 = UniformDouble();
  const GaussianPair pair = BoxMuller(u1, u2);
  cached_gaussian_ = pair.sin_part;
  has_cached_gaussian_ = true;
  return pair.cos_part;
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t count) {
  if (count > n) count = n;
  // Partial Fisher-Yates over an index array.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(UniformInt(static_cast<std::uint64_t>(n - i)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  return idx;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace qdcbir
