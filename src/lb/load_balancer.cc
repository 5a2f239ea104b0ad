#include "lb/load_balancer.h"

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/logging.h"

namespace inband {

LoadBalancer::LoadBalancer(Simulator& sim, Network& net, Ipv4 vip,
                           std::string name, BackendPool pool,
                           std::unique_ptr<RoutingPolicy> policy,
                           ConntrackConfig conntrack_config)
    : Host(sim, net, vip, std::move(name)),
      pool_{std::move(pool)},
      policy_{std::move(policy)},
      conntrack_{conntrack_config} {
  INBAND_ASSERT(!pool_.empty(), "LB needs at least one backend");
  INBAND_ASSERT(policy_ != nullptr);
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    INBAND_ASSERT(pool_[i].id == i, "backend ids must be pool indices");
  }
  forwarded_per_backend_.assign(pool_.size(), 0);
  new_flows_per_backend_.assign(pool_.size(), 0);
}

void LoadBalancer::handle_batch(PacketBatch&& batch) {
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    forward(batch.take(i));
  }
}

void LoadBalancer::forward(PacketRef pkt) {
  const SimTime now = sim().now();
  ++packets_in_;
  conntrack_.sweep(now);

  BackendId backend = conntrack_.lookup(pkt->flow, now);
  bool new_flow = false;
  if (backend == kNoBackend) {
    backend = policy_->pick(pkt->flow, now);
    if (backend == kNoBackend || backend >= pool_.size() ||
        !pool_[backend].healthy) {
      ++drops_no_backend_;
      return;
    }
    // hotlint:allow(hot-growth): ConnTracker::insert, not a container op
    conntrack_.insert(pkt->flow, backend, now);
    new_flow = true;
    ++new_flows_per_backend_[backend];
    ++new_flows_;
  }

  if (pkt->has(tcpflag::kFin) || pkt->has(tcpflag::kRst)) {
    if (conntrack_.mark_closing(pkt->flow, now)) {
      policy_->on_flow_closed(pkt->flow, backend, now);
      ++flows_closed_;
    }
  }

  policy_->on_packet(*pkt, backend, now, new_flow);

  ++forwarded_per_backend_[backend];
  ++packets_forwarded_;
  send_to(pool_[backend].addr, std::move(pkt));
}

std::uint64_t LoadBalancer::forwarded_to(BackendId id) const {
  INBAND_ASSERT(id < forwarded_per_backend_.size());
  return forwarded_per_backend_[id];
}

std::uint64_t LoadBalancer::new_flows_to(BackendId id) const {
  INBAND_ASSERT(id < new_flows_per_backend_.size());
  return new_flows_per_backend_[id];
}

void LoadBalancer::audit_invariants(AuditScope& scope) const {
  scope.check(forwarded_per_backend_.size() == pool_.size() &&
                  new_flows_per_backend_.size() == pool_.size(),
              "stat-vectors-sized-to-pool");
  conntrack_.audit_invariants(scope, static_cast<BackendId>(pool_.size()));
  policy_->audit_invariants(scope);
}

void LoadBalancer::digest_state(StateDigest& digest) const {
  digest.mix(pool_.size());
  for (const auto& b : pool_) {
    digest.mix_u32(b.id);
    digest.mix_u32(b.weight);
    digest.mix_bool(b.healthy);
  }
  conntrack_.digest_state(digest);
  for (const auto v : forwarded_per_backend_) digest.mix(v);
  for (const auto v : new_flows_per_backend_) digest.mix(v);
  for (const auto& [name, value] : counters_.snapshot()) {
    if (value == 0) continue;  // registered but never bumped
    digest.mix_string(name);
    digest.mix(value);
  }
  policy_->digest_state(digest);
}

}  // namespace inband
