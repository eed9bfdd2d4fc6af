#ifndef QDCBIR_CORE_RNG_H_
#define QDCBIR_CORE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qdcbir {

/// The two normals of one Box-Muller draw: `Rng::Gaussian()` returns
/// `cos_part` and caches `sin_part` for its next call.
struct GaussianPair {
  double cos_part;
  double sin_part;
};

/// Box-Muller transform of two uniforms in [0, 1): the exact libm
/// expression behind `Rng::Gaussian()`. The vectorized pixel-noise kernel
/// (image/noise_avx2.cc) re-derives near-boundary channels through this
/// same function, so the two cannot drift apart. Defined in rng.cc, which
/// is built without -mfma.
GaussianPair BoxMuller(double u1, double u2);

/// Deterministic pseudo-random number generator (xoshiro256**, seeded via
/// SplitMix64).
///
/// The standard library's engines are portable but its *distributions* are
/// not; this class provides its own uniform/normal sampling so that
/// experiment outputs are bit-reproducible across platforms and compilers.
class Rng {
 public:
  /// Seeds the generator. Equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Writes the next `n` values of `UniformDouble()`, in call order.
  void FillUniform(double* out, std::size_t n);

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double UniformDouble(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t UniformInt(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal sample (Box-Muller).
  double Gaussian();

  /// Normal sample with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// True when the next `Gaussian()` returns the cached sine half of the
  /// previous Box-Muller pair instead of drawing two uniforms.
  bool has_cached_gaussian() const { return has_cached_gaussian_; }

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(UniformInt(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `count` distinct indices from [0, n) (count is clamped to n).
  /// The returned indices are in random order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t count);

  /// Derives an independent generator; useful for giving each experiment
  /// repetition its own deterministic stream.
  Rng Fork();

 private:
  std::uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace qdcbir

#endif  // QDCBIR_CORE_RNG_H_
