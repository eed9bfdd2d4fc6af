#include "qdcbir/obs/resource_stats.h"

#include <algorithm>

namespace qdcbir {
namespace obs {

std::vector<LeafAccess> ResourceAccumulator::LeafSnapshot() const {
  std::vector<LeafAccess> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(leaves_.size());
    for (const auto& [leaf, counts] : leaves_) {
      rows.push_back(LeafAccess{leaf, counts});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const LeafAccess& x, const LeafAccess& y) {
              return x.leaf < y.leaf;
            });
  return rows;
}

namespace internal {

void FlushResourceTls(ResourceTls& state) {
  if (state.leaves_used == 0 && state.local.IsZero()) return;
  ResourceAccumulator& sink = *state.accumulator;
  {
    std::lock_guard<std::mutex> lock(sink.mu_);
    sink.usage_.Add(state.local);
    for (std::uint32_t i = 0; i < state.leaves_used; ++i) {
      sink.leaves_[state.leaf[i]].Add(state.counts[i]);
    }
  }
  state.local = ResourceUsage{};
  state.leaves_used = 0;
}

}  // namespace internal

}  // namespace obs
}  // namespace qdcbir
