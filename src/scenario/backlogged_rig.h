// Fig. 2 rig: one backlogged flow-controlled TCP flow observed at an LB.
//
// Topology (direct server return — the receiver ACKs straight back to the
// sender, invisible to the LB):
//
//   sender ──► LB(VIP) ──► receiver
//     ▲                        │
//     └────────────────────────┘
//
// The sender keeps a fixed window permanently backlogged; mid-run an extra
// delay is injected on the LB→receiver link, stepping the true RTT up. The
// rig records (a) every packet-arrival timestamp the LB observes for the
// flow and (b) the sender's ground-truth RTT samples (T_client), so callers
// can replay the arrivals through any estimator configuration offline.
#pragma once

#include <memory>
#include <vector>

#include "app/bulk_flow.h"
#include "fault/fault_layer.h"
#include "lb/load_balancer.h"
#include "net/network.h"
#include "scenario/metrics.h"
#include "sim/simulator.h"
#include "util/shard.h"

namespace inband {

// The rig's paths (constants; see backlogged_rig.cc): base RTT ≈ 200 µs of
// propagation plus log-normal per-packet jitter, heavier on the return path.
struct BackloggedRigConfig {
  std::uint32_t window_segments = 16;  // the flow-control quota
  std::uint32_t mss = 1448;
  bool delayed_ack = false;
  SimTime delack_timeout = ms(40);
  bool pacing = false;
  std::uint64_t pacing_rate_bps = 500'000'000;

  SimTime duration = sec(6);
  SimTime step_time = sec(3);        // when the RTT steps up
  SimTime step_extra = us(1500);     // injected extra one-way delay
  std::uint64_t seed = 42;

  // Deterministic fault plan over the three links (sender→VIP is
  // kClientToLb, VIP→receiver is kLbToServer, receiver→sender is
  // kServerToClient, all index 0). Server faults are not supported on this
  // rig — there is no KvServer — and assert. Empty disables the layer.
  FaultPlan fault;
};

INBAND_SHARD_LOCAL(owner)
class BackloggedRig : public PacketObserver {
 public:
  explicit BackloggedRig(BackloggedRigConfig config = {});

  // Runs to completion (duration). Populates arrivals() and ground_truth().
  void run();

  // Packet-arrival timestamps of the flow at the LB, in order.
  const std::vector<SimTime>& arrivals() const { return arrivals_; }

  // Ground-truth RTT samples measured at the sender (T_client).
  const std::vector<Sample>& ground_truth() const { return ground_truth_; }

  Simulator& sim() { return sim_; }
  LoadBalancer& lb() { return *lb_; }
  const BackloggedRigConfig& config() const { return config_; }

  // The fault layer, or null when config.fault is empty.
  FaultLayer* fault() { return fault_.get(); }

 private:
  // Records the LB's forwarding times: every packet the LB sends on was
  // received at that same instant.
  void on_packet(const Packet& pkt, Ipv4 from, Ipv4 to) override;

  BackloggedRigConfig config_;
  Simulator sim_;
  Network net_;
  // Declared after net_ so it is destroyed first (it deregisters itself as
  // the network's send interceptor on destruction).
  std::unique_ptr<FaultLayer> fault_;
  std::unique_ptr<TcpHost> sender_host_;
  std::unique_ptr<TcpHost> receiver_host_;
  std::unique_ptr<LoadBalancer> lb_;
  std::unique_ptr<BulkSender> bulk_sender_;
  std::unique_ptr<BulkSink> bulk_sink_;
  std::vector<SimTime> arrivals_;
  std::vector<Sample> ground_truth_;
};

}  // namespace inband
