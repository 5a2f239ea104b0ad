#include "fault/fault_plan.h"

#include "util/assert.h"

namespace inband {

const char* link_scope_name(LinkScope scope) {
  switch (scope) {
    case LinkScope::kAll:
      return "all";
    case LinkScope::kClientToLb:
      return "client->lb";
    case LinkScope::kLbToServer:
      return "lb->server";
    case LinkScope::kServerToClient:
      return "server->client";
  }
  return "?";
}

const char* fault_event_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLoss:
      return "loss";
    case FaultEvent::Kind::kDuplicate:
      return "duplicate";
    case FaultEvent::Kind::kReorder:
      return "reorder";
    case FaultEvent::Kind::kFlapDrop:
      return "flap-drop";
    case FaultEvent::Kind::kLinkDown:
      return "link-down";
    case FaultEvent::Kind::kLinkUp:
      return "link-up";
    case FaultEvent::Kind::kServerStall:
      return "server-stall";
    case FaultEvent::Kind::kServerCrash:
      return "server-crash";
    case FaultEvent::Kind::kServerRestart:
      return "server-restart";
  }
  return "?";
}

namespace {

bool valid_probability(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

void FaultPlan::validate() const {
  for (const auto& spec : links) {
    INBAND_ASSERT(valid_probability(spec.loss), "loss out of [0,1]");
    INBAND_ASSERT(valid_probability(spec.duplicate), "duplicate out of [0,1]");
    INBAND_ASSERT(valid_probability(spec.reorder), "reorder out of [0,1]");
    INBAND_ASSERT(spec.jitter_max >= 0, "jitter_max must be >= 0");
    INBAND_ASSERT(spec.start >= 0 && spec.end > spec.start,
                  "fault window must be ordered");
  }
  for (const auto& flap : flaps) {
    INBAND_ASSERT(flap.down_at >= 0 && flap.up_at > flap.down_at,
                  "flap window must be ordered");
  }
  for (const auto& sf : servers) {
    INBAND_ASSERT(sf.server >= 0, "server index must be >= 0");
    INBAND_ASSERT(sf.at >= 0 && sf.until > sf.at,
                  "server fault window must be ordered");
  }
}

FaultPlan make_noise_plan(double loss, double reorder, double duplicate,
                          SimTime jitter_max, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  LinkFaultSpec spec;
  spec.scope = LinkScope::kAll;
  spec.loss = loss;
  spec.reorder = reorder;
  spec.duplicate = duplicate;
  spec.jitter_max = jitter_max;
  plan.links.push_back(spec);
  plan.validate();
  return plan;
}

}  // namespace inband
