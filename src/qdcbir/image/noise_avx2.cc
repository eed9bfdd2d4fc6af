// AVX2 pixel-noise kernel: `AddGaussianNoise` four Box-Muller pairs
// (eight channels) at a time, writing the same bytes as the scalar loop.
// This translation unit is compiled with -mavx2 -mfma -ffp-contract=off; it
// must not be entered on hosts without AVX2 — draw.cc checks cpuid first.
//
// Exactness (docs/simd.md, "Render noise kernel"). A channel's output is
// clamp(lround(v + σ·g)), an integer that only changes where v + σ·g
// crosses a half-integer k + 0.5. The kernel computes g with polynomial
// log/sincos whose error against the libm expression in `BoxMuller` is
// |Δg| <= kGaussianErrorBound. Every channel whose approximate value lies
// within `NoiseMargin(σ)` of a half-integer has its pair re-derived with
// `BoxMuller` itself and goes through the scalar `PerturbChannel`; every
// other channel is at least the margin away from a boundary the exact
// value cannot reach, so it rounds the same way.
//
// RNG order is the scalar loop's: a cached Gaussian on entry feeds channel
// 0 through `Rng::Gaussian()`, the bulk draws u1, u2 per pair (cosine to the
// first channel, sine to the second), and the < 8 trailing channels go
// through `Rng::Gaussian()`, which also leaves an odd tail's sine cached.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "qdcbir/core/rng.h"
#include "qdcbir/image/draw.h"

namespace qdcbir {
namespace internal {
namespace {

// |g_avx2 - g_libm| bound. Analysis: log is within 2 ulp (relative), sqrt
// is correctly rounded, the Cody-Waite reduction of θ = 2π·u2 < 2π is
// within 1e-16 absolute and the sin/cos kernels within 1 ulp, so with
// r = sqrt(-2 ln u1) <= 37.2 (u1 clamped at 1e-300) the product is within
// ~5e-14 of libm's. A sweep of 10^8 pairs (u1 also scaled down to 2^-60
// and the endpoints 0, 2^-53, 1 - 2^-53) measured at most 3.6e-15. The
// bound keeps a 20x allowance over the analysis.
constexpr double kGaussianErrorBound = 1e-12;

// Margin around k + 0.5 below which a channel takes the exact path. Both
// paths round σ·g and then v + σ·g, so beyond σ·|Δg| the two results differ
// by at most ulp(|σg|) + ulp(|nv|) <= 2^-52·(37.2σ + 255 + 37.2σ), which is
// under 5.7e-14 + 1.7e-14σ; 4e-13 + 2e-14σ covers it.
double NoiseMargin(double stddev) {
  return 4e-13 + stddev * (kGaussianErrorBound + 2e-14);
}

// Uniforms drawn per refill: 64 batches of 4 pairs, 4 KB on the stack.
constexpr std::size_t kUniformChunk = 512;

#define QDCBIR_AVX2 __attribute__((target("avx2,fma"), always_inline)) inline

QDCBIR_AVX2 __m256d Horner(__m256d x, __m256d c1, __m256d c0) {
  return _mm256_fmadd_pd(c1, x, c0);
}

// Natural log of x in [2^-1022, 1): fdlibm's e_log.c reduction and
// minimax polynomial (x = 2^k·(1+f), 1+f in [sqrt(2)/2, sqrt(2))).
QDCBIR_AVX2 __m256d Log(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mantissa_mask = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFll);
  const __m256i one_bits = _mm256_set1_epi64x(0x3FF0000000000000ll);
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, mantissa_mask), one_bits));
  // Biased exponent -> double via the 2^52 magic: exact for 0..2047.
  const __m256d magic = _mm256_set1_pd(0x1.0p52);
  __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits, 52),
                                          _mm256_castpd_si256(magic))),
      magic);
  k = _mm256_sub_pd(k, _mm256_set1_pd(1023.0));
  const __m256d above = _mm256_cmp_pd(m, _mm256_set1_pd(M_SQRT2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), above);
  k = _mm256_add_pd(k, _mm256_and_pd(above, _mm256_set1_pd(1.0)));

  const __m256d f = _mm256_sub_pd(m, _mm256_set1_pd(1.0));  // exact
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, Horner(w,
                Horner(w, _mm256_set1_pd(1.531383769920937332e-01),
                       _mm256_set1_pd(2.222219843214978396e-01)),
                _mm256_set1_pd(3.999999999940941908e-01)));
  const __m256d t2 = _mm256_mul_pd(
      z, Horner(w,
                Horner(w,
                       Horner(w, _mm256_set1_pd(1.479819860511658591e-01),
                              _mm256_set1_pd(1.818357216161805012e-01)),
                       _mm256_set1_pd(2.857142874366239149e-01)),
                _mm256_set1_pd(6.666666666666735130e-01)));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_mul_pd(f, f));
  const __m256d ln2_hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d ln2_lo = _mm256_set1_pd(1.90821492927058770002e-10);
  // k·ln2_hi - ((hfsq - (s·(hfsq + R) + k·ln2_lo)) - f)
  const __m256d inner = _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                                      _mm256_mul_pd(k, ln2_lo));
  return _mm256_sub_pd(_mm256_mul_pd(k, ln2_hi),
                       _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

// cos and sin of θ in [0, 2π): quadrant q = round(2θ/π) (q <= 4), a
// two-constant Cody-Waite reduction to |x| <= ~π/4 (q·pio2_1 is exact and
// θ - q·pio2_1 is exact by Sterbenz), then fdlibm's k_sin/k_cos kernels.
QDCBIR_AVX2 void SinCos(__m256d theta, __m256d* cos_out, __m256d* sin_out) {
  const __m256d q = _mm256_round_pd(
      _mm256_mul_pd(theta, _mm256_set1_pd(6.36619772367581382433e-01)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d pio2_1 = _mm256_set1_pd(1.57079632673412561417e+00);
  const __m256d pio2_1t = _mm256_set1_pd(6.07710050650619224932e-11);
  const __m256d x = _mm256_sub_pd(
      _mm256_sub_pd(theta, _mm256_mul_pd(q, pio2_1)),
      _mm256_mul_pd(q, pio2_1t));
  const __m256d z = _mm256_mul_pd(x, x);

  // sin(x) = x + x·z·(S1 + z·(S2 + ... + z·S6))
  __m256d ps = Horner(z, _mm256_set1_pd(1.58969099521155010221e-10),
                      _mm256_set1_pd(-2.50507602534068634195e-08));
  ps = Horner(z, ps, _mm256_set1_pd(2.75573137070700676789e-06));
  ps = Horner(z, ps, _mm256_set1_pd(-1.98412698298579493134e-04));
  ps = Horner(z, ps, _mm256_set1_pd(8.33333333332248946124e-03));
  ps = Horner(z, ps, _mm256_set1_pd(-1.66666666666666324348e-01));
  const __m256d sin_x =
      _mm256_add_pd(x, _mm256_mul_pd(_mm256_mul_pd(z, x), ps));

  // cos(x) = w + ((1 - w) - z/2 + z·z·(C1 + ... + z·C6)), w = 1 - z/2
  __m256d pc = Horner(z, _mm256_set1_pd(-1.13596475577881948265e-11),
                      _mm256_set1_pd(2.08757232129817482790e-09));
  pc = Horner(z, pc, _mm256_set1_pd(-2.75573143513906633035e-07));
  pc = Horner(z, pc, _mm256_set1_pd(2.48015872894767294178e-05));
  pc = Horner(z, pc, _mm256_set1_pd(-1.38888888888741095749e-03));
  pc = Horner(z, pc, _mm256_set1_pd(4.16666666666666019037e-02));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d hz = _mm256_mul_pd(_mm256_set1_pd(0.5), z);
  const __m256d w = _mm256_sub_pd(one, hz);
  const __m256d cos_x = _mm256_add_pd(
      w, _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(one, w), hz),
                       _mm256_mul_pd(_mm256_mul_pd(z, z), pc)));

  // Quadrant fix-up from q's low bits (q + 2^52 puts q in the low
  // mantissa): odd q swaps sin/cos; cos flips sign for q in {1, 2}, sin
  // for q in {2, 3}.
  const __m256i qi = _mm256_castpd_si256(
      _mm256_add_pd(q, _mm256_set1_pd(0x1.0p52)));
  const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(qi, _mm256_set1_epi64x(1)), _mm256_set1_epi64x(1)));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(qi, _mm256_set1_epi64x(1)),
                       _mm256_set1_epi64x(2)),
      62));
  const __m256d sin_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(qi, _mm256_set1_epi64x(2)), 62));
  *cos_out = _mm256_xor_pd(_mm256_blendv_pd(cos_x, sin_x, swap), cos_sign);
  *sin_out = _mm256_xor_pd(_mm256_blendv_pd(sin_x, cos_x, swap), sin_sign);
}

// v + σ·g for four channels, clamped and rounded to the nearest integer
// (ties cannot occur outside the flagged channels), as int32.
QDCBIR_AVX2 __m128i RoundClamp(__m256d nv) {
  const __m256d clamped = _mm256_min_pd(
      _mm256_max_pd(nv, _mm256_setzero_pd()), _mm256_set1_pd(255.0));
  return _mm256_cvtpd_epi32(_mm256_round_pd(
      clamped, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

// Bitmask of the channels within `margin` of a half-integer (NaN counts as
// near, so it takes the exact path too).
QDCBIR_AVX2 int NearHalf(__m256d nv, __m256d margin) {
  const __m256d half = _mm256_add_pd(
      _mm256_round_pd(nv, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC),
      _mm256_set1_pd(0.5));
  const __m256d dist = _mm256_andnot_pd(_mm256_set1_pd(-0.0),
                                        _mm256_sub_pd(nv, half));
  return _mm256_movemask_pd(_mm256_cmp_pd(dist, margin, _CMP_NGE_UQ));
}

#undef QDCBIR_AVX2

}  // namespace

__attribute__((target("avx2,fma"))) std::size_t Avx2AddGaussianNoise(
    std::uint8_t* channels, std::size_t count, double stddev, Rng& rng) {
  std::size_t i = 0;
  if (count > 0 && rng.has_cached_gaussian()) {
    channels[0] = PerturbChannel(channels[0], rng.Gaussian(0.0, stddev));
    i = 1;
  }
  const std::size_t bulk_end = i + (count - i) / 8 * 8;
  const __m256d sigma = _mm256_set1_pd(stddev);
  const __m256d margin = _mm256_set1_pd(NoiseMargin(stddev));
  const __m256d two_pi = _mm256_set1_pd(2.0 * M_PI);
  const __m256d min_u1 = _mm256_set1_pd(1e-300);
  std::size_t exact_pairs = 0;
  alignas(32) double uniforms[kUniformChunk];
  std::size_t next = kUniformChunk;
  for (; i < bulk_end; i += 8) {
    if (next == kUniformChunk) {
      const std::size_t n = bulk_end - i < kUniformChunk ? bulk_end - i
                                                         : kUniformChunk;
      rng.FillUniform(uniforms, n);
      next = 0;
    }
    const double* u = uniforms + next;
    next += 8;
    // u = [u1 u2 u1 u2 | u1 u2 u1 u2] for pairs 0..3. unpacklo/hi give the
    // u1s and u2s in pair order (0, 2, 1, 3); unpacking the results again
    // restores channel order without a cross-lane shuffle.
    const __m256d a = _mm256_load_pd(u);
    const __m256d b = _mm256_load_pd(u + 4);
    const __m256d u1 = _mm256_max_pd(_mm256_unpacklo_pd(a, b), min_u1);
    const __m256d u2 = _mm256_unpackhi_pd(a, b);
    const __m256d r = _mm256_sqrt_pd(
        _mm256_mul_pd(_mm256_set1_pd(-2.0), Log(u1)));
    __m256d cos_t, sin_t;
    SinCos(_mm256_mul_pd(two_pi, u2), &cos_t, &sin_t);
    const __m256d gc = _mm256_mul_pd(r, cos_t);
    const __m256d gs = _mm256_mul_pd(r, sin_t);
    const __m256d g_lo = _mm256_unpacklo_pd(gc, gs);  // channels 0..3
    const __m256d g_hi = _mm256_unpackhi_pd(gc, gs);  // channels 4..7

    std::uint64_t raw = 0;
    std::memcpy(&raw, channels + i, sizeof(raw));
    const __m256i v32 = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
        static_cast<long long>(raw)));
    const __m256d v_lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(v32));
    const __m256d v_hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(v32, 1));
    const __m256d nv_lo = _mm256_add_pd(v_lo, _mm256_mul_pd(sigma, g_lo));
    const __m256d nv_hi = _mm256_add_pd(v_hi, _mm256_mul_pd(sigma, g_hi));

    const __m128i words =
        _mm_packs_epi32(RoundClamp(nv_lo), RoundClamp(nv_hi));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(channels + i),
                     _mm_packus_epi16(words, words));

    const int flagged =
        NearHalf(nv_lo, margin) | (NearHalf(nv_hi, margin) << 4);
    if (flagged == 0) continue;
    for (int pair = 0; pair < 4; ++pair) {
      if ((flagged >> (2 * pair) & 3) == 0) continue;
      const GaussianPair g = BoxMuller(u[2 * pair], u[2 * pair + 1]);
      std::uint8_t* c = channels + i + 2 * pair;
      c[0] = PerturbChannel(static_cast<std::uint8_t>(raw >> (16 * pair)),
                            0.0 + stddev * g.cos_part);
      c[1] = PerturbChannel(static_cast<std::uint8_t>(raw >> (16 * pair + 8)),
                            0.0 + stddev * g.sin_part);
      ++exact_pairs;
    }
  }
  for (; i < count; ++i) {
    channels[i] = PerturbChannel(channels[i], rng.Gaussian(0.0, stddev));
  }
  return exact_pairs;
}

}  // namespace internal
}  // namespace qdcbir

#endif  // x86-64
