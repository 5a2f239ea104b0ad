// Routing-policy interface for the LB dataplane.
//
// A policy decides where *new* flows go and observes every client→server
// packet the LB forwards (after conntrack resolution, so the packet comes
// annotated with the backend it is bound to). The observation hook is the
// entire vantage the paper allows: requests only, no responses.
#pragma once

#include <string>

#include "lb/backend.h"
#include "net/packet.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

INBAND_SHARD_LOCAL(lb)
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  virtual std::string name() const = 0;

  // Backend for a new flow; kNoBackend refuses (the LB drops the packet).
  virtual BackendId pick(const FlowKey& flow, SimTime now) = 0;

  // Every forwarded client→server packet, annotated with its backend and
  // whether this packet created the flow's conntrack entry.
  virtual void on_packet(const Packet& pkt, BackendId backend, SimTime now,
                         bool new_flow) {
    (void)pkt;
    (void)backend;
    (void)now;
    (void)new_flow;
  }

  // The flow was seen finishing (FIN or RST through the LB).
  virtual void on_flow_closed(const FlowKey& flow, BackendId backend,
                              SimTime now) {
    (void)flow;
    (void)backend;
    (void)now;
  }

  // Invariant audit over the policy's internal structures (hash tables,
  // per-flow state). Default: nothing to audit.
  virtual void audit_invariants(AuditScope& scope) const { (void)scope; }

  // Folds policy state into a determinism digest. Default: nothing beyond
  // what the LB itself digests.
  virtual void digest_state(StateDigest& digest) const { (void)digest; }
};

}  // namespace inband
