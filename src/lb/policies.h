// Baseline routing policies: static Maglev (the paper's comparison point),
// round-robin, weighted random, and least-connections.
#pragma once

#include <memory>

#include "lb/conntrack.h"
#include "lb/maglev.h"
#include "lb/policy.h"
#include "util/rng.h"
#include "util/shard.h"

namespace inband {

// The regular Maglev LB of Fig. 3: a hash table built once from the pool.
INBAND_SHARD_LOCAL(lb)
class StaticMaglevPolicy final : public RoutingPolicy {
 public:
  StaticMaglevPolicy(const BackendPool& pool, std::uint64_t table_size = 65537,
                     std::uint64_t hash_seed = 0xab5e1ef7ULL);

  std::string name() const override { return "maglev-static"; }
  BackendId pick(const FlowKey& flow, SimTime now) override;

  const MaglevTable& table() const { return table_; }

 private:
  MaglevTable table_;
};

// Cycles through healthy backends.
INBAND_SHARD_LOCAL(lb)
class RoundRobinPolicy final : public RoutingPolicy {
 public:
  explicit RoundRobinPolicy(const BackendPool& pool);

  std::string name() const override { return "round-robin"; }
  BackendId pick(const FlowKey& flow, SimTime now) override;

 private:
  BackendPool pool_;
  std::size_t next_ = 0;
};

// Weight-proportional random choice.
INBAND_SHARD_LOCAL(lb)
class WeightedRandomPolicy final : public RoutingPolicy {
 public:
  WeightedRandomPolicy(const BackendPool& pool, std::uint64_t seed);

  std::string name() const override { return "weighted-random"; }
  BackendId pick(const FlowKey& flow, SimTime now) override;

 private:
  BackendPool pool_;
  std::uint64_t total_weight_ = 0;
  Rng rng_;
};

// Fewest live connections. Counts flows itself from the signals every L4 LB
// has: a pick() opens a flow, an observed FIN/RST closes it. (Flows that die
// silently are reaped against a generous idle assumption by periodically
// reconciling with pick volume; for the simulated workloads, FIN/RST
// coverage is complete.)
INBAND_SHARD_LOCAL(lb)
class LeastConnPolicy final : public RoutingPolicy {
 public:
  explicit LeastConnPolicy(const BackendPool& pool);

  std::string name() const override { return "least-conn"; }
  BackendId pick(const FlowKey& flow, SimTime now) override;
  void on_flow_closed(const FlowKey& flow, BackendId backend,
                      SimTime now) override;

  std::uint64_t live_connections(BackendId id) const;

 private:
  BackendPool pool_;
  std::vector<std::uint64_t> live_;
};

}  // namespace inband
