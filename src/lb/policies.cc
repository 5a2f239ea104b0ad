#include "lb/policies.h"

#include "util/assert.h"

namespace inband {

StaticMaglevPolicy::StaticMaglevPolicy(const BackendPool& pool,
                                       std::uint64_t table_size,
                                       std::uint64_t hash_seed)
    : table_{table_size, hash_seed} {
  table_.build(pool);
}

BackendId StaticMaglevPolicy::pick(const FlowKey& flow, SimTime now) {
  (void)now;
  return table_.lookup(flow);
}

RoundRobinPolicy::RoundRobinPolicy(const BackendPool& pool) : pool_{pool} {
  INBAND_ASSERT(!pool_.empty());
}

BackendId RoundRobinPolicy::pick(const FlowKey& flow, SimTime now) {
  (void)flow;
  (void)now;
  for (std::size_t tried = 0; tried < pool_.size(); ++tried) {
    const Backend& b = pool_[next_];
    next_ = (next_ + 1) % pool_.size();
    if (b.healthy && b.weight > 0) return b.id;
  }
  return kNoBackend;
}

WeightedRandomPolicy::WeightedRandomPolicy(const BackendPool& pool,
                                           std::uint64_t seed)
    : pool_{pool}, rng_{seed} {
  for (const auto& b : pool_) {
    if (b.healthy) total_weight_ += b.weight;
  }
  INBAND_ASSERT(total_weight_ > 0, "no healthy weighted backend");
}

BackendId WeightedRandomPolicy::pick(const FlowKey& flow, SimTime now) {
  (void)flow;
  (void)now;
  std::uint64_t r = rng_.uniform_u64(0, total_weight_ - 1);
  for (const auto& b : pool_) {
    if (!b.healthy) continue;
    if (r < b.weight) return b.id;
    r -= b.weight;
  }
  return kNoBackend;
}

LeastConnPolicy::LeastConnPolicy(const BackendPool& pool) : pool_{pool} {
  INBAND_ASSERT(!pool_.empty());
  std::size_t max_id = 0;
  for (const auto& b : pool_) max_id = std::max<std::size_t>(max_id, b.id);
  live_.assign(max_id + 1, 0);
}

BackendId LeastConnPolicy::pick(const FlowKey& flow, SimTime now) {
  (void)flow;
  (void)now;
  BackendId best = kNoBackend;
  std::uint64_t best_count = 0;
  for (const auto& b : pool_) {
    if (!b.healthy || b.weight == 0) continue;
    const std::uint64_t c = live_[b.id];
    if (best == kNoBackend || c < best_count) {
      best = b.id;
      best_count = c;
    }
  }
  if (best != kNoBackend) ++live_[best];
  return best;
}

void LeastConnPolicy::on_flow_closed(const FlowKey& flow, BackendId backend,
                                     SimTime now) {
  (void)flow;
  (void)now;
  if (backend < live_.size() && live_[backend] > 0) --live_[backend];
}

std::uint64_t LeastConnPolicy::live_connections(BackendId id) const {
  INBAND_ASSERT(id < live_.size());
  return live_[id];
}

}  // namespace inband
