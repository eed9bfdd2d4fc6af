#ifndef QDCBIR_IMAGE_DRAW_H_
#define QDCBIR_IMAGE_DRAW_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/image/image.h"

namespace qdcbir {

/// 2-D point in pixel coordinates (sub-pixel positions allowed).
struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

/// Drawing primitives used by the synthetic dataset generator. All functions
/// clip at the image borders; out-of-bounds coordinates are legal.

/// Fills the axis-aligned rectangle [x0, x1) x [y0, y1).
void FillRect(Image& img, int x0, int y0, int x1, int y1, Rgb color);

/// Fills a disk of radius `r` centered at (cx, cy).
void FillCircle(Image& img, double cx, double cy, double r, Rgb color);

/// Fills an axis-aligned ellipse with radii (rx, ry) centered at (cx, cy).
void FillEllipse(Image& img, double cx, double cy, double rx, double ry,
                 Rgb color);

/// Fills an arbitrary simple polygon (scanline algorithm).
void FillPolygon(Image& img, const std::vector<Point2>& vertices, Rgb color);

/// Fills the triangle (a, b, c).
void FillTriangle(Image& img, Point2 a, Point2 b, Point2 c, Rgb color);

/// Draws a line segment of the given thickness (>= 1 pixel).
void DrawLine(Image& img, Point2 a, Point2 b, Rgb color, int thickness = 1);

/// Fills the image with a vertical gradient from `top` to `bottom`.
void VerticalGradient(Image& img, Rgb top, Rgb bottom);

/// Fills the image with a horizontal gradient from `left` to `right`.
void HorizontalGradient(Image& img, Rgb left, Rgb right);

/// Adds independent Gaussian noise (stddev in 8-bit units) to every channel,
/// at the dispatched `ActiveKernels().level`. Every level writes the same
/// bytes and leaves `rng` in the same state (docs/simd.md).
void AddGaussianNoise(Image& img, double stddev, Rng& rng);

/// `AddGaussianNoise` at an explicit level; kAvx2 on a host without AVX2,
/// or with a stddev above `internal::kAvx2NoiseMaxStddev`, runs the scalar
/// loop. Returns how many Box-Muller pairs the AVX2 kernel re-derived
/// through the exact libm path (always 0 for scalar), so tests can show
/// that path runs.
std::size_t AddGaussianNoiseAt(SimdLevel level, Image& img, double stddev,
                               Rng& rng);

/// Rotates `points` by `angle_rad` around `center` (returns new points).
std::vector<Point2> RotatePoints(const std::vector<Point2>& points,
                                 Point2 center, double angle_rad);

/// Returns the vertices of a regular `n`-gon of circumradius `r` centered at
/// `center`, with the first vertex at angle `phase_rad`.
std::vector<Point2> RegularPolygon(Point2 center, double r, int n,
                                   double phase_rad = 0.0);

namespace internal {

/// Largest stddev the AVX2 noise kernel takes; its error bound (and so its
/// fallback margin) is stated up to here. Rendering uses single digits.
inline constexpr double kAvx2NoiseMaxStddev = 1024.0;

/// The reference per-channel step: `v + noise`, clamped to [0, 255] and
/// rounded half away from zero. Shared by the scalar loop and the AVX2
/// kernel's exact path.
inline std::uint8_t PerturbChannel(std::uint8_t v, double noise) {
  const double nv = v + noise;
  if (nv <= 0.0) return 0;
  if (nv >= 255.0) return 255;
  return static_cast<std::uint8_t>(std::lround(nv));
}

/// AVX2 kernel over `count` interleaved channel bytes (image/noise_avx2.cc).
/// Requires `Avx2Supported()` and 0 < stddev <= kAvx2NoiseMaxStddev.
/// Returns the number of pairs re-derived through `BoxMuller`.
std::size_t Avx2AddGaussianNoise(std::uint8_t* channels, std::size_t count,
                                 double stddev, Rng& rng);

}  // namespace internal
}  // namespace qdcbir

#endif  // QDCBIR_IMAGE_DRAW_H_
