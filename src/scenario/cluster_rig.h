// Fig. 3 rig: a load-balanced memcached-style cluster.
//
//   memtier-style clients ──► LB(VIP, Maglev) ──► N KV servers
//            ▲                                        │
//            └────────── direct server return ────────┘
//
// Mid-run, an extra 1 ms delay is injected on the LB→victim-server link
// (the paper's experiment injects the delay on exactly that path). The rig
// records every completed GET/SET with its client-side latency, the LB's
// per-backend slot shares over time, and (for the in-band policy) the shift
// history — everything needed to reproduce Fig. 3 and the reaction-time
// claim, and to run the α/pool-size/multi-LB ablations.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/kv_client.h"
#include "app/kv_server.h"
#include "check/invariant_auditor.h"
#include "core/inband_lb_policy.h"
#include "fault/fault_layer.h"
#include "lb/load_balancer.h"
#include "lb/policies.h"
#include "scenario/metrics.h"
#include "util/shard.h"

namespace inband {

class StateDigest;

enum class LbMode {
  kStaticMaglev,
  kInband,
  kRoundRobin,
  kLeastConn,
  kWeightedRandom,
};

const char* lb_mode_name(LbMode mode);

// The rig's address plan, shared with the sharded rig (which must route to
// another shard's VIPs and attach its own remote-client hosts). `base` is
// ClusterRigConfig::addr_base; valid for base in [0, 62], i in [0, 254].
constexpr Ipv4 rig_client_addr(int base, int i) {
  return make_ipv4(10, static_cast<std::uint8_t>(4 * base),
                   0, static_cast<std::uint8_t>(1 + i));
}
constexpr Ipv4 rig_vip_addr(int base, int i) {
  return make_ipv4(10, static_cast<std::uint8_t>(4 * base + 1),
                   0, static_cast<std::uint8_t>(1 + i));
}
constexpr Ipv4 rig_server_addr(int base, int i) {
  return make_ipv4(10, static_cast<std::uint8_t>(4 * base + 2),
                   0, static_cast<std::uint8_t>(1 + i));
}
constexpr Ipv4 rig_remote_client_addr(int base, int i) {
  return make_ipv4(10, static_cast<std::uint8_t>(4 * base + 3),
                   0, static_cast<std::uint8_t>(1 + i));
}

// The rig's network, also shared with the sharded rig: the one-way
// propagation delay of each path and the rate of every link.
inline constexpr SimTime kRigClientLbDelay = us(20);
inline constexpr SimTime kRigLbServerDelay = us(20);
inline constexpr SimTime kRigServerClientDelay = us(40);
inline constexpr std::uint64_t kRigBandwidthBps = 10'000'000'000;

// Folds a completed-request record stream into a determinism digest.
void digest_records(StateDigest& digest,
                    const std::vector<RequestRecord>& records);

struct ClusterRigConfig {
  int num_servers = 2;
  int num_lbs = 1;       // >1 => independent LBs sharing the server pool
  int num_client_hosts = 2;

  // Address-plan offset: the rig's subnets are 10.(4*addr_base + k).0.x
  // (k = 0 clients, 1 VIPs, 2 servers, 3 reserved for a sharded rig's
  // remote clients). 0 — the default, and the historical plan — for a
  // standalone rig; the sharded rig gives shard s addr_base = s so every
  // shard's topology is globally addressable without collisions.
  int addr_base = 0;
  // Install this rig's sim clock as the process-wide logging clock between
  // start() and finish(). The logging clock is a global; a sharded rig runs
  // many rigs on many threads and must leave it alone (set false there).
  bool install_log_clock = true;

  LbMode mode = LbMode::kInband;
  InbandPolicyConfig inband;  // used when mode == kInband
  std::uint64_t maglev_table_size = 4099;

  KvServerConfig server;
  KvClientConfig client;  // `server` endpoint is filled in by the rig

  // Extra one-way distance per client host (both directions), index-aligned
  // with client hosts; missing entries mean 0. Models far / non-equidistant
  // clients (paper §5(1)).
  std::vector<SimTime> client_extra_distance;
  TcpConfig tcp;

  // Fault injection: extra delay on LB→servers[victim] from inject_time on.
  SimTime inject_time = sec(10);
  SimTime inject_extra = ms(1);
  int victim = 0;

  // Deterministic fault plan (loss / duplication / reordering / jitter /
  // flaps / server faults). Empty (the default) disables the fault layer
  // entirely; see fault/fault_plan.h.
  FaultPlan fault;

  SimTime duration = sec(20);
  // Sample LB slot shares every this often (0 disables).
  SimTime share_sample_interval = ms(1);
  // Full invariant audit every this often during run(); only effective in
  // audit-enabled builds (kAuditsEnabled, i.e. debug or
  // -DINBAND_ENABLE_AUDITS=ON). 0 disables the periodic event; the audit
  // hooks stay registered either way so tests can run them on demand.
  SimTime audit_interval = ms(250);
  std::uint64_t seed = 2022;
  // Pre-reserve the completed-request record vector at start(). Lets
  // allocation tests take the record stream off the steady-state heap
  // profile; 0 keeps the default growth behaviour.
  std::size_t reserve_records = 0;
};

INBAND_SHARD_LOCAL(owner)
class ClusterRig {
 public:
  explicit ClusterRig(ClusterRigConfig config);
  ~ClusterRig();

  void run();

  // Phased form of run() for callers that need to observe the rig mid-run
  // (e.g. the allocation test brackets a steady-state window between two
  // run_until() calls). start() arms the injection schedule, samplers, and
  // clients; run_until() advances the clock; finish() stops the clients and
  // runs the final audit. run() == start(); run_until(duration); finish().
  void start();
  void run_until(SimTime t);
  void finish();

  // All completed requests (client-side ground truth).
  const std::vector<RequestRecord>& records() const { return records_; }
  // GET latencies only, as (t, latency) samples — the Fig. 3 series.
  std::vector<Sample> get_latency_samples() const;

  const std::vector<ShareSnapshot>& share_history() const {
    return share_history_;
  }

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  LoadBalancer& lb(int i = 0) { return *lbs_[static_cast<std::size_t>(i)]; }
  int num_lbs() const { return static_cast<int>(lbs_.size()); }
  KvServer& server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  KvClient& client(int i) { return *clients_[static_cast<std::size_t>(i)]; }
  int num_clients() const { return static_cast<int>(clients_.size()); }

  // The in-band policy of LB i (null unless mode == kInband).
  InbandLbPolicy* inband_policy(int i = 0);

  const ClusterRigConfig& config() const { return config_; }

  // The rig-wide invariant auditor with every subsystem hook registered
  // (simulator, each LB, each host TCP stack, the fault layer if present).
  InvariantAuditor& auditor() { return auditor_; }

  // The fault layer, or null when config.fault is empty.
  FaultLayer* fault() { return fault_.get(); }

  // Runs every audit hook immediately; returns violations found (aborts on
  // the first one in the default kAbort mode).
  std::size_t run_full_audit();

  // Digest of all simulation state that must match between two same-seed
  // runs: clock/scheduler, every LB (conntrack, Maglev table, estimator
  // state), every TCP stack, RNGs, and the completed-request record stream.
  std::uint64_t state_digest();

 private:
  std::unique_ptr<RoutingPolicy> make_policy(const BackendPool& pool,
                                             int lb_index);

  ClusterRigConfig config_;
  Simulator sim_;
  Network net_;
  // Declared after net_ so it is destroyed first (it deregisters itself as
  // the network's send interceptor on destruction).
  std::unique_ptr<FaultLayer> fault_;
  std::vector<std::unique_ptr<TcpHost>> server_hosts_;
  std::vector<std::unique_ptr<KvServer>> servers_;
  std::vector<std::unique_ptr<TcpHost>> client_hosts_;
  std::vector<std::unique_ptr<KvClient>> clients_;
  std::vector<std::unique_ptr<LoadBalancer>> lbs_;
  std::vector<InbandLbPolicy*> inband_policies_;  // borrowed, may hold nulls
  std::vector<RequestRecord> records_;
  std::vector<ShareSnapshot> share_history_;
  std::unique_ptr<PeriodicTask> share_sampler_;
  InvariantAuditor auditor_;
  std::unique_ptr<PeriodicTask> audit_task_;
  // Live between start() and finish() so phased runs log sim timestamps.
  std::optional<Simulator::LogClockGuard> log_guard_;
  bool started_ = false;
};

}  // namespace inband
