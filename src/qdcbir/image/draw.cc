#include "qdcbir/image/draw.h"

#include <algorithm>
#include <cmath>

#include "qdcbir/image/color.h"

namespace qdcbir {

void FillRect(Image& img, int x0, int y0, int x1, int y1, Rgb color) {
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  x1 = std::min(x1, img.width());
  y1 = std::min(y1, img.height());
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) img.Set(x, y, color);
  }
}

void FillCircle(Image& img, double cx, double cy, double r, Rgb color) {
  FillEllipse(img, cx, cy, r, r, color);
}

void FillEllipse(Image& img, double cx, double cy, double rx, double ry,
                 Rgb color) {
  if (rx <= 0.0 || ry <= 0.0) return;
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - ry)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + ry)));
  for (int y = y0; y <= y1; ++y) {
    const double dy = (y - cy) / ry;
    const double t = 1.0 - dy * dy;
    if (t < 0.0) continue;
    const double half = rx * std::sqrt(t);
    const int x0 = std::max(0, static_cast<int>(std::ceil(cx - half)));
    const int x1 = std::min(img.width() - 1, static_cast<int>(std::floor(cx + half)));
    for (int x = x0; x <= x1; ++x) img.Set(x, y, color);
  }
}

void FillPolygon(Image& img, const std::vector<Point2>& vertices, Rgb color) {
  if (vertices.size() < 3) return;
  double min_y = vertices[0].y, max_y = vertices[0].y;
  for (const Point2& p : vertices) {
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const int y0 = std::max(0, static_cast<int>(std::ceil(min_y)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::floor(max_y)));

  std::vector<double> xs;
  for (int y = y0; y <= y1; ++y) {
    xs.clear();
    const double yc = y + 0.5;  // sample scanline at pixel center
    const std::size_t n = vertices.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Point2& a = vertices[i];
      const Point2& b = vertices[(i + 1) % n];
      // Half-open rule avoids double-counting shared vertices.
      if ((a.y <= yc && b.y > yc) || (b.y <= yc && a.y > yc)) {
        const double t = (yc - a.y) / (b.y - a.y);
        xs.push_back(a.x + t * (b.x - a.x));
      }
    }
    std::sort(xs.begin(), xs.end());
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      const int xa = std::max(0, static_cast<int>(std::ceil(xs[i] - 0.5)));
      const int xb =
          std::min(img.width() - 1, static_cast<int>(std::floor(xs[i + 1] - 0.5)));
      for (int x = xa; x <= xb; ++x) img.Set(x, y, color);
    }
  }
}

void FillTriangle(Image& img, Point2 a, Point2 b, Point2 c, Rgb color) {
  FillPolygon(img, {a, b, c}, color);
}

void DrawLine(Image& img, Point2 a, Point2 b, Rgb color, int thickness) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len = std::sqrt(dx * dx + dy * dy);
  const int steps = std::max(1, static_cast<int>(std::ceil(len * 2.0)));
  const double radius = std::max(0.5, thickness / 2.0);
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / steps;
    const double px = a.x + t * dx;
    const double py = a.y + t * dy;
    if (thickness <= 1) {
      img.SetClipped(static_cast<int>(std::lround(px)),
                     static_cast<int>(std::lround(py)), color);
    } else {
      FillCircle(img, px, py, radius, color);
    }
  }
}

void VerticalGradient(Image& img, Rgb top, Rgb bottom) {
  const int h = img.height();
  for (int y = 0; y < h; ++y) {
    const double t = h > 1 ? static_cast<double>(y) / (h - 1) : 0.0;
    const Rgb c = LerpColor(top, bottom, t);
    for (int x = 0; x < img.width(); ++x) img.Set(x, y, c);
  }
}

void HorizontalGradient(Image& img, Rgb left, Rgb right) {
  const int w = img.width();
  for (int x = 0; x < w; ++x) {
    const double t = w > 1 ? static_cast<double>(x) / (w - 1) : 0.0;
    const Rgb c = LerpColor(left, right, t);
    for (int y = 0; y < img.height(); ++y) img.Set(x, y, c);
  }
}

void AddGaussianNoise(Image& img, double stddev, Rng& rng) {
  AddGaussianNoiseAt(ActiveKernels().level, img, stddev, rng);
}

std::size_t AddGaussianNoiseAt(SimdLevel level, Image& img, double stddev,
                               Rng& rng) {
  if (stddev <= 0.0) return 0;
#if defined(__x86_64__) || defined(_M_X64)
  if (level == SimdLevel::kAvx2 && Avx2Supported() &&
      stddev <= internal::kAvx2NoiseMaxStddev) {
    static_assert(sizeof(Rgb) == 3, "channels must be densely interleaved");
    return internal::Avx2AddGaussianNoise(
        reinterpret_cast<std::uint8_t*>(img.pixels().data()),
        img.pixels().size() * 3, stddev, rng);
  }
#else
  (void)level;
#endif
  auto perturb = [&](std::uint8_t v) {
    return internal::PerturbChannel(v, rng.Gaussian(0.0, stddev));
  };
  for (Rgb& p : img.pixels()) {
    p.r = perturb(p.r);
    p.g = perturb(p.g);
    p.b = perturb(p.b);
  }
  return 0;
}

std::vector<Point2> RotatePoints(const std::vector<Point2>& points,
                                 Point2 center, double angle_rad) {
  const double c = std::cos(angle_rad);
  const double s = std::sin(angle_rad);
  std::vector<Point2> out;
  out.reserve(points.size());
  for (const Point2& p : points) {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    out.push_back(Point2{center.x + c * dx - s * dy, center.y + s * dx + c * dy});
  }
  return out;
}

std::vector<Point2> RegularPolygon(Point2 center, double r, int n,
                                   double phase_rad) {
  std::vector<Point2> out;
  out.reserve(static_cast<std::size_t>(std::max(0, n)));
  for (int i = 0; i < n; ++i) {
    const double a = phase_rad + 2.0 * M_PI * i / n;
    out.push_back(Point2{center.x + r * std::cos(a), center.y + r * std::sin(a)});
  }
  return out;
}

}  // namespace qdcbir
