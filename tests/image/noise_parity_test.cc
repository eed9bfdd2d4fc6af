// Byte parity of the AVX2 pixel-noise kernel against the scalar loop: same
// pixels and same Rng state afterwards, over random images and stddevs,
// with and without a cached Gaussian on entry, at channel counts that are
// not a multiple of 8, and on a forced near-boundary channel so the exact
// BoxMuller path is shown to run.

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/image/draw.h"

namespace qdcbir {
namespace {

Image RandomImage(int width, int height, Rng& rng) {
  Image img(width, height);
  for (Rgb& p : img.pixels()) {
    const std::uint64_t bits = rng.NextUint64();
    p = Rgb{static_cast<std::uint8_t>(bits),
            static_cast<std::uint8_t>(bits >> 8),
            static_cast<std::uint8_t>(bits >> 16)};
  }
  return img;
}

struct NoiseRun {
  Image image;
  Rng rng;
  std::size_t exact_pairs;
};

NoiseRun Noise(SimdLevel level, const Image& input, double stddev,
               const Rng& rng) {
  NoiseRun run{input, rng, 0};
  run.exact_pairs = AddGaussianNoiseAt(level, run.image, stddev, run.rng);
  return run;
}

// Same pixels, and the two generators continue identically (including a
// cached sine half left by an odd tail).
void ExpectSameBytesAndState(NoiseRun scalar, NoiseRun avx2) {
  ASSERT_EQ(scalar.image.pixels().size(), avx2.image.pixels().size());
  for (std::size_t i = 0; i < scalar.image.pixels().size(); ++i) {
    const Rgb a = scalar.image.pixels()[i];
    const Rgb b = avx2.image.pixels()[i];
    ASSERT_TRUE(a == b) << "pixel " << i << ": scalar (" << int(a.r) << ","
                        << int(a.g) << "," << int(a.b) << ") avx2 ("
                        << int(b.r) << "," << int(b.g) << "," << int(b.b)
                        << ")";
  }
  EXPECT_EQ(scalar.rng.has_cached_gaussian(), avx2.rng.has_cached_gaussian());
  EXPECT_EQ(scalar.rng.Gaussian(), avx2.rng.Gaussian());
  EXPECT_EQ(scalar.rng.NextUint64(), avx2.rng.NextUint64());
}

class NoiseParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Supported()) {
      GTEST_SKIP() << "host lacks AVX2+FMA: the AVX2 noise kernel cannot "
                      "run here, so scalar-vs-avx2 parity is not checkable";
    }
  }
};

TEST_F(NoiseParityTest, RandomImagesAndStddevsMatchScalarBytes) {
  Rng gen(2006);
  const double fixed_stddevs[] = {0.1, 0.5, 1.0, 4.0, 12.5, 60.0};
  for (int trial = 0; trial < 1200; ++trial) {
    // Mostly render-sized images; every 4th trial a tiny one so the channel
    // count (3·w·h) runs through every residue mod 8, down to 3.
    const bool tiny = trial % 4 == 0;
    const int width = tiny ? 1 + static_cast<int>(gen.UniformInt(5))
                           : 8 + static_cast<int>(gen.UniformInt(41));
    const int height = tiny ? 1 + static_cast<int>(gen.UniformInt(4))
                            : 8 + static_cast<int>(gen.UniformInt(41));
    const double stddev = trial % 2 == 0 ? fixed_stddevs[trial / 2 % 6]
                                         : gen.UniformDouble(0.1, 60.0);
    const Image input = RandomImage(width, height, gen);
    Rng rng(gen.NextUint64());
    if (trial % 3 == 0) rng.Gaussian();  // enter with a cached Gaussian
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " " << width
                                      << "x" << height << " stddev "
                                      << stddev);
    const NoiseRun scalar = Noise(SimdLevel::kScalar, input, stddev, rng);
    const NoiseRun avx2 = Noise(SimdLevel::kAvx2, input, stddev, rng);
    EXPECT_EQ(scalar.exact_pairs, 0u);
    ExpectSameBytesAndState(scalar, avx2);
    if (HasFatalFailure()) return;
  }
}

TEST_F(NoiseParityTest, NearHalfIntegerChannelTakesTheExactPath) {
  // Pick σ so that channel 0 (the cosine of the first bulk pair) lands on
  // v + 0.5 up to an ulp: well inside the margin, so the kernel must
  // re-derive that pair through BoxMuller and still match the scalar bytes.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng probe(seed);
    const double g0 = probe.Gaussian();
    if (std::fabs(g0) < 0.01) continue;  // σ would exceed the kernel's range
    const double stddev = std::fabs(0.5 / g0);
    Rng gen(seed);
    Image input = RandomImage(16, 16, gen);
    input.pixels()[0].r = 100;
    const NoiseRun scalar =
        Noise(SimdLevel::kScalar, input, stddev, Rng(seed));
    const NoiseRun avx2 = Noise(SimdLevel::kAvx2, input, stddev, Rng(seed));
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " stddev "
                                      << stddev);
    EXPECT_GE(avx2.exact_pairs, 1u);
    ExpectSameBytesAndState(scalar, avx2);
  }
}

TEST_F(NoiseParityTest, OutOfRangeStddevRunsScalar) {
  Rng gen(5);
  const Image input = RandomImage(9, 7, gen);
  for (double stddev : {internal::kAvx2NoiseMaxStddev * 2, 1e300}) {
    const NoiseRun scalar = Noise(SimdLevel::kScalar, input, stddev, Rng(3));
    const NoiseRun avx2 = Noise(SimdLevel::kAvx2, input, stddev, Rng(3));
    EXPECT_EQ(avx2.exact_pairs, 0u);
    ExpectSameBytesAndState(scalar, avx2);
  }
}

TEST(NoiseTest, EmptyImageDrawsNothing) {
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    Rng rng(11), untouched(11);
    rng.Gaussian();
    untouched.Gaussian();
    Image empty;
    EXPECT_EQ(AddGaussianNoiseAt(level, empty, 4.0, rng), 0u);
    EXPECT_EQ(rng.Gaussian(), untouched.Gaussian());  // cache kept
    EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
  }
}

}  // namespace
}  // namespace qdcbir
