// The benchmark's workloads and the rig runs that measure them.
//
// Every layer is reached through its public interface only: the rigs are
// driven through ClusterRig / ShardedRig, and the statistics are read from
// Simulator, NetStats, KvClient / KvServer, the LB's counters and
// ConnTracker, plus a PacketObserver installed on the fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lb_replay.h"
#include "scenario/cluster_rig.h"
#include "scenario/sharded_rig.h"

namespace lbbench {

enum class Size { kFull, kTiny };

struct WorkloadSpec {
  std::string name;
  bool sharded = false;
  inband::ClusterRigConfig cluster;  // the cluster, or the per-shard template
  inband::ShardedRigConfig ring;     // sharded workloads only
  // GET latency and request throughput are read over requests that
  // complete in [window_from, duration).
  inband::SimTime window_from = 0;
  bool injects = false;  // a delay is injected on LB->victim mid-run
};

// The spec for `name` with every rig seed derived from `seed`; throws
// std::invalid_argument for an unknown name.
WorkloadSpec make_spec(const std::string& name, std::uint64_t seed, Size size);

// The same workload with its seeds moved to the `rep`-th derived seed.
WorkloadSpec reseeded(const WorkloadSpec& spec, std::uint64_t seed, int rep);

// The fabric observer: captures the LB's forwarded stream (packets whose
// sender is the VIP) and, when `count_tcp` is set, counts the segments the
// hosts originate, the RSTs among them, and retransmissions (a segment whose
// sequence range ends at or below the highest end its flow has sent), and
// samples the event-queue occupancy every 64th segment.
class RigObserver final : public inband::PacketObserver {
 public:
  // `capture` may be null: then the observer only counts.
  RigObserver(inband::Ipv4 vip, LbCapture* capture, bool count_tcp,
              const inband::Simulator* sim);
  void on_packet(const inband::Packet& pkt, inband::Ipv4 from,
                 inband::Ipv4 to) override;

  std::uint64_t segments = 0;
  std::uint64_t resets = 0;
  std::uint64_t retransmits = 0;
  double pending_sum = 0;
  std::uint64_t pending_samples = 0;

 private:
  inband::Ipv4 vip_;
  LbCapture* capture_;
  bool count_tcp_;
  const inband::Simulator* sim_;
  std::unordered_map<inband::FlowKey, std::uint32_t, inband::FlowKeyHash>
      max_end_;
};

// Observation knobs for one rig run; the default observes nothing.
struct RunOptions {
  LbCapture* capture = nullptr;  // LB 0 (of shard 0) forwarded stream
  bool count_tcp = false;        // install counting observers on every net
};

struct RigRun {
  double wall_s = 0;  // host time of the simulated window
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;

  // Requests completed in the measurement window (sim time): GET
  // latencies, the count, and the first and last completion times.
  std::vector<inband::SimTime> get_latency;
  std::uint64_t window_requests = 0;
  inband::SimTime first_done = inband::kNoTime;
  inband::SimTime last_done = inband::kNoTime;

  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t failed = 0;
  std::uint64_t conn_failures = 0;
  std::uint64_t conns_opened = 0;
  std::uint64_t server_gets = 0;
  std::uint64_t server_hits = 0;

  inband::NetStats net;  // summed over shards
  std::uint64_t lb_packets_in = 0;
  std::uint64_t lb_new_flows = 0;
  std::uint64_t lb_drops_no_backend = 0;
  std::uint64_t ct_hits = 0;
  std::uint64_t ct_misses = 0;

  // First sampled time at which the victim's share fell below 5% after the
  // injection (LB 0 of shard 0); kNoTime if never.
  inband::SimTime drained_at = inband::kNoTime;

  std::uint64_t segments = 0;
  std::uint64_t resets = 0;
  std::uint64_t retransmits = 0;
  double pending_mean = 0;
  std::uint64_t pending_samples = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;

  // Sharded only.
  std::uint64_t cross_packets = 0;
  std::vector<std::uint64_t> shard_events;
};

// Builds the rig of `spec` and discards it; returns the host seconds taken.
double time_setup(const WorkloadSpec& spec);

RigRun run_rig(const WorkloadSpec& spec, int workers, const RunOptions& opt);

// The LB that LB 0 (of shard 0) runs in the rig of `spec`.
LbSetup lb_setup_of(const WorkloadSpec& spec);

}  // namespace lbbench
