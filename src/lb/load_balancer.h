// L4 load balancer dataplane under direct server return.
//
// The LB is the host attached at the service VIP. For every arriving
// client→VIP packet it (1) consults conntrack for per-connection
// consistency, (2) on miss asks the routing policy for a backend, and
// (3) forwards the packet to the backend's delivery address without
// rewriting the flow — the backend accepts VIP-addressed traffic and
// answers the client directly, so the LB structurally never observes
// responses. The policy's on_packet() hook is therefore fed exactly the
// one-directional stream the paper's estimators must work with.
#pragma once

#include <memory>
#include <vector>

#include "lb/backend.h"
#include "lb/conntrack.h"
#include "lb/policy.h"
#include "net/network.h"
#include "telemetry/counters.h"
#include "util/hotpath.h"
#include "util/shard.h"

namespace inband {

INBAND_SHARD_LOCAL(lb)
class LoadBalancer : public Host {
 public:
  // Backend ids must equal their index in `pool` (asserted) so forwarding
  // is a single array read.
  LoadBalancer(Simulator& sim, Network& net, Ipv4 vip, std::string name,
               BackendPool pool, std::unique_ptr<RoutingPolicy> policy,
               ConntrackConfig conntrack_config = {});

  // Native batch path: every element is conntracked/policied/forwarded out
  // of its pooled buffer — the LB hop moves handles, never packet bytes.
  INBAND_HOT void handle_batch(PacketBatch&& batch) override;

  RoutingPolicy& policy() { return *policy_; }
  const BackendPool& pool() const { return pool_; }
  ConnTracker& conntrack() { return conntrack_; }
  CounterSet& counters() { return counters_; }

  std::uint64_t forwarded_to(BackendId id) const;
  std::uint64_t new_flows_to(BackendId id) const;

  // Invariant audit across the whole dataplane: conntrack consistency
  // (every pinned backend within the pool), per-backend stat vectors sized
  // to the pool, and the routing policy's own invariants.
  void audit_invariants(AuditScope& scope) const;

  // Folds dataplane + policy state into a determinism digest.
  void digest_state(StateDigest& digest) const;

 private:
  // Per-packet dataplane: conntrack, policy pick, forward (or drop).
  INBAND_HOT void forward(PacketRef pkt);

  BackendPool pool_;
  std::unique_ptr<RoutingPolicy> policy_;
  ConnTracker conntrack_;
  CounterSet counters_;
  // Resolved once here: the per-packet path increments through these.
  std::uint64_t& packets_in_ = counters_.get("lb.packets_in");
  std::uint64_t& packets_forwarded_ = counters_.get("lb.packets_forwarded");
  std::uint64_t& new_flows_ = counters_.get("lb.new_flows");
  std::uint64_t& flows_closed_ = counters_.get("lb.flows_closed");
  std::uint64_t& drops_no_backend_ = counters_.get("lb.drops_no_backend");
  std::vector<std::uint64_t> forwarded_per_backend_;
  std::vector<std::uint64_t> new_flows_per_backend_;
};

}  // namespace inband
