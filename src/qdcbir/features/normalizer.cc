#include "qdcbir/features/normalizer.h"

#include <cmath>
#include <cstring>

#include "qdcbir/core/stats.h"

namespace qdcbir {

Status FeatureNormalizer::Fit(const std::vector<FeatureVector>& vectors) {
  if (vectors.empty()) {
    return Status::InvalidArgument("cannot fit normalizer on empty set");
  }
  const std::size_t dim = vectors.front().dim();
  for (const FeatureVector& v : vectors) {
    if (v.dim() != dim) {
      return Status::InvalidArgument("inconsistent feature dimensionality");
    }
  }
  std::vector<MomentAccumulator> acc(dim);
  for (const FeatureVector& v : vectors) {
    for (std::size_t i = 0; i < dim; ++i) acc[i].Add(v[i]);
  }
  mean_.resize(dim);
  stddev_.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    mean_[i] = acc[i].mean();
    stddev_[i] = acc[i].stddev();
  }
  return Status::Ok();
}

StatusOr<FeatureVector> FeatureNormalizer::Transform(
    const FeatureVector& v) const {
  if (!fitted()) return Status::FailedPrecondition("normalizer not fitted");
  if (v.dim() != dim()) {
    return Status::InvalidArgument("dimension mismatch in Transform");
  }
  FeatureVector out(v.dim());
  for (std::size_t i = 0; i < v.dim(); ++i) {
    out[i] = stddev_[i] > 0.0 ? (v[i] - mean_[i]) / stddev_[i] : 0.0;
  }
  return out;
}

Status FeatureNormalizer::TransformInPlace(
    std::vector<FeatureVector>& vectors) const {
  for (FeatureVector& v : vectors) {
    StatusOr<FeatureVector> t = Transform(v);
    if (!t.ok()) return t.status();
    v = std::move(t).value();
  }
  return Status::Ok();
}

StatusOr<FeatureVector> FeatureNormalizer::InverseTransform(
    const FeatureVector& v) const {
  if (!fitted()) return Status::FailedPrecondition("normalizer not fitted");
  if (v.dim() != dim()) {
    return Status::InvalidArgument("dimension mismatch in InverseTransform");
  }
  FeatureVector out(v.dim());
  for (std::size_t i = 0; i < v.dim(); ++i) {
    out[i] = v[i] * stddev_[i] + mean_[i];
  }
  return out;
}

std::string FeatureNormalizer::Serialize() const {
  const std::uint64_t dim = mean_.size();
  std::string out;
  out.reserve(8 + dim * 16);
  out.append(reinterpret_cast<const char*>(&dim), sizeof(dim));
  auto append_doubles = [&out](const std::vector<double>& v) {
    out.append(reinterpret_cast<const char*>(v.data()),
               v.size() * sizeof(double));
  };
  append_doubles(mean_);
  append_doubles(stddev_);
  return out;
}

StatusOr<FeatureNormalizer> FeatureNormalizer::Deserialize(
    const std::string& bytes) {
  if (bytes.size() < sizeof(std::uint64_t)) {
    return Status::IoError("normalizer blob too short");
  }
  std::uint64_t dim = 0;
  std::memcpy(&dim, bytes.data(), sizeof(dim));
  const std::size_t expected = sizeof(dim) + 2 * dim * sizeof(double);
  if (bytes.size() != expected) {
    return Status::IoError("normalizer blob size mismatch");
  }
  FeatureNormalizer n;
  n.mean_.resize(dim);
  n.stddev_.resize(dim);
  // An empty vector's data() may be null, which memcpy must never see.
  if (dim > 0) {
    const char* p = bytes.data() + sizeof(dim);
    std::memcpy(n.mean_.data(), p, dim * sizeof(double));
    std::memcpy(n.stddev_.data(), p + dim * sizeof(double),
                dim * sizeof(double));
  }
  return n;
}

}  // namespace qdcbir
