// LB-only replay: the LB's forwarded stream, captured from a live rig, run
// again outside the simulator.
//
// The capture holds, per forwarded packet, the time the LB handled it, the
// header fields the dataplane can read, and the backend the live LB chose.
// Two replays consume it:
//  * the whole-LB replay feeds a fresh LoadBalancer + InbandLbPolicy through
//    handle_batch at full speed (Simulator::advance_to, no events) and
//    collects the backend choices through a RemoteEgress sink;
//  * the decomposed replay calls the LB's parts — ConnTracker, MaglevTable,
//    FlowStateTable, EnsembleTimeout, ServerLatencyTracker, the control law
//    and MaglevTable::shift_slots / shares — in the order
//    LoadBalancer::forward and InbandLbPolicy::on_packet call them, timing
//    each stage. Both must reproduce the live backend stream.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/inband_lb_policy.h"
#include "lb/backend.h"
#include "net/flow.h"
#include "net/packet.h"
#include "util/time.h"

namespace lbbench {

// Everything needed to rebuild LB 0 of a rig outside it.
struct LbSetup {
  inband::Ipv4 vip = 0;
  inband::BackendPool pool;
  inband::InbandPolicyConfig policy;
};

struct LbRecord {
  inband::SimTime t = 0;
  inband::FlowKey flow;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t wnd = 0;
  std::uint32_t payload_len = 0;
  std::uint8_t flags = 0;
  inband::BackendId backend = inband::kNoBackend;
};

// The captured stream plus the digest of the live backend choices.
struct LbCapture {
  explicit LbCapture(inband::BackendPool backends)
      : pool(std::move(backends)) {}
  void add(const inband::Packet& pkt, inband::Ipv4 to);
  std::uint64_t live_digest() const;

  inband::BackendPool pool;
  std::vector<LbRecord> records;
};

// Order-sensitive digest of a backend-choice stream.
class StreamDigest {
 public:
  void add(inband::BackendId b) {
    h_ = (h_ ^ (b + 1)) * 0x100000001b3ULL;
    ++n_;
  }
  std::uint64_t value() const { return h_ ^ (n_ * 0x9e3779b97f4a7c15ULL); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t n_ = 0;
};

struct WholeReplay {
  double wall_s = 0;  // the replay loop, packet rebuild included
  std::uint64_t packets = 0;
  std::uint64_t digest = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t new_flows = 0;
  std::uint64_t drops_no_backend = 0;
  std::uint64_t ct_hits = 0;
  std::uint64_t ct_misses = 0;
};

// Replays `cap` through a fresh LoadBalancer. When `call_ns` is non-null
// every handle_batch call is bracketed by the timer and its duration is
// appended there; otherwise the loop runs with no per-call timer.
WholeReplay replay_whole(const LbSetup& setup, const LbCapture& cap,
                         std::vector<std::uint32_t>* call_ns);

// Stages of the decomposed replay; each is a span name.
enum Stage : std::uint8_t {
  kCt,          // conntrack sweep / lookup / insert / mark_closing
  kMaglevPick,  // MaglevTable::lookup for a new flow
  kFlowTable,   // FlowStateTable erase / maybe_sweep / get_or_create
  kEstimator,   // EnsembleTimeout::on_packet
  kTracker,     // ServerLatencyTracker::record
  kControl,     // WeightController::control_step
  kTableUpdate, // MaglevTable::shift_slots + shares
  kStageCount,
  kPacket = kStageCount,  // root span of one packet
};
const char* stage_name(std::uint8_t stage);

struct Span {
  std::uint32_t pkt;  // shared by every span of one packet
  std::uint8_t stage;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct DecomposedReplay {
  double wall_s = 0;  // the replay loop
  std::uint64_t packets = 0;
  std::uint64_t digest = 0;
  // Per packet on which the stage ran (timed runs only): its summed
  // duration, one timer read included per piece.
  std::array<std::vector<std::uint32_t>, kStageCount> stage_ns;
  std::vector<Span> spans;  // the first `span_cap` spans

  std::uint64_t samples = 0;
  std::uint64_t decisions = 0;
  std::uint64_t slots_moved = 0;
  std::size_t ct_entries_max = 0;
  std::size_t flow_entries_max = 0;
  std::size_t ct_entries_end = 0;
  std::size_t flow_entries_end = 0;
  std::uint64_t flow_evictions = 0;
  std::uint64_t flow_expirations = 0;
  // First packet at or after `drain_from` after which the victim holds less
  // than 5% of the table (the table update that drained it, or the first
  // packet if it was drained already); kNoTime if none.
  inband::SimTime drained_at = inband::kNoTime;
};

// The decomposed replay. `timed` brackets every stage with the timer (the
// traced run) and keeps the first `span_cap` spans; untimed, only the loop is
// timed. Fails (std::runtime_error) on a policy config that uses a mechanism
// it does not reproduce.
DecomposedReplay replay_decomposed(const LbSetup& setup, const LbCapture& cap,
                                   bool timed, std::size_t span_cap,
                                   inband::SimTime drain_from,
                                   inband::BackendId victim);

// Writes spans as CSV: pkt,span,parent,start_ns,end_ns.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace lbbench
