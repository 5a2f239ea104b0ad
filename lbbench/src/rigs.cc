#include "rigs.h"

#include <memory>
#include <stdexcept>

#include "scenario/metrics.h"
#include "tcp/seq.h"
#include "timing.h"
#include "util/alloc_counter.h"

namespace lbbench {

using namespace inband;

namespace {

// One queue-occupancy sample per this many observed packets.
constexpr std::uint64_t kPendingStride = 64;

// The fig-3 cluster: 4 KV servers behind one in-band LB, 4 client hosts,
// each host with 4 connections x pipeline 4 and 100 requests per connection.
// 32 workers per server keep even a single server from queueing, so the GET
// latencies show whether traffic avoided the slow server rather than how the
// control law happened to spread load over the healthy ones.
ClusterRigConfig fig3_cluster(SimTime duration) {
  ClusterRigConfig c;
  c.mode = LbMode::kInband;
  c.num_servers = 4;
  c.num_client_hosts = 4;
  c.client.connections = 4;
  c.client.pipeline = 4;
  c.client.requests_per_conn = 100;
  c.client.get_ratio = 0.5;
  c.server.workers = 32;
  c.duration = duration;
  c.inject_time = duration / 2;
  c.inject_extra = ms(1);
  c.victim = 0;
  c.share_sample_interval = ms(1);
  c.audit_interval = 0;
  return c;
}

}  // namespace

WorkloadSpec make_spec(const std::string& name, std::uint64_t seed,
                       Size size) {
  const bool tiny = size == Size::kTiny;
  WorkloadSpec w;
  w.name = name;
  if (name == "fig3_inject") {
    const SimTime d = tiny ? ms(200) : ms(1600);
    w.cluster = fig3_cluster(d);
    w.cluster.seed = seed;
    w.injects = true;
    w.window_from = w.cluster.inject_time + d / 8;
  } else if (name == "conn_churn") {
    // Past 1 s so that conntrack's and the flow table's 1 s sweeps run.
    const SimTime d = tiny ? ms(200) : ms(1200);
    w.cluster = fig3_cluster(d);
    w.cluster.seed = seed;
    w.cluster.inject_extra = 0;  // no injection
    w.cluster.client.connections = 16;
    w.cluster.client.pipeline = 1;
    w.cluster.client.requests_per_conn = 2;
    w.window_from = d / 8;
  } else if (name == "sharded_ring") {
    const SimTime d = tiny ? ms(200) : ms(600);
    w.sharded = true;
    w.ring.num_shards = 8;
    w.ring.shard = fig3_cluster(d);
    w.ring.shard.num_servers = 2;
    w.ring.shard.num_client_hosts = 2;
    w.ring.shard.seed = seed;
    w.ring.cross_latency = us(200);
    w.ring.remote_clients_per_shard = 1;
    w.ring.remote_client.connections = 2;
    w.ring.remote_client.pipeline = 2;
    w.ring.remote_client.requests_per_conn = 50;
    w.ring.shard.inject_extra = 0;  // no injection
    w.cluster = w.ring.shard;
    w.window_from = d / 8;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

WorkloadSpec reseeded(const WorkloadSpec& spec, std::uint64_t seed, int rep) {
  WorkloadSpec w = spec;
  const std::uint64_t s =
      seed + std::uint64_t{1'000'003} * static_cast<std::uint64_t>(rep);
  w.cluster.seed = s;
  w.ring.shard.seed = s;
  return w;
}

RigObserver::RigObserver(Ipv4 vip, LbCapture* capture, bool count_tcp,
                         const Simulator* sim)
    : vip_{vip}, capture_{capture}, count_tcp_{count_tcp}, sim_{sim} {}

void RigObserver::on_packet(const Packet& pkt, Ipv4 from, Ipv4 to) {
  if (from == vip_) {
    // The LB forwarding a segment some host already sent.
    if (capture_ != nullptr) capture_->add(pkt, to);
    return;
  }
  if (!count_tcp_) return;
  if (sim_ != nullptr && segments % kPendingStride == 0) {
    pending_sum += static_cast<double>(sim_->pending_events());
    ++pending_samples;
  }
  ++segments;
  if (pkt.has(tcpflag::kRst)) ++resets;
  const std::uint32_t len = pkt.seq_len();
  if (len == 0) return;
  const std::uint32_t end = pkt.seq + len;
  auto [it, inserted] = max_end_.try_emplace(pkt.flow, end);
  if (inserted) return;
  if (seq_le(end, it->second)) {
    ++retransmits;
  } else {
    it->second = end;
  }
}

LbSetup lb_setup_of(const WorkloadSpec& spec) {
  const ClusterRigConfig& c = spec.cluster;
  const int base = 0;  // LB 0 of the cluster, or of shard 0
  LbSetup s;
  s.vip = rig_vip_addr(base, 0);
  for (int i = 0; i < c.num_servers; ++i) {
    s.pool.push_back({static_cast<BackendId>(i), "server" + std::to_string(i),
                      rig_server_addr(base, i), 1, true});
  }
  s.policy = c.inband;
  s.policy.maglev_table_size = c.maglev_table_size;
  return s;
}

double time_setup(const WorkloadSpec& spec) {
  const auto t0 = Clock::now();
  if (spec.sharded) {
    const ShardedRig rig{spec.ring};
    return seconds_since(t0);  // the destructor runs after the reading
  }
  const ClusterRig rig{spec.cluster};
  return seconds_since(t0);
}

namespace {

void add_client(RigRun& r, const KvClient& c) {
  r.sent += c.requests_sent();
  r.received += c.responses_received();
  r.conn_failures += c.connection_failures();
  r.conns_opened += c.connections_opened();
}

void add_window(RigRun& r, const std::vector<RequestRecord>& recs,
                SimTime from, SimTime to) {
  for (const RequestRecord& rec : recs) {
    const SimTime done = rec.sent_at + rec.latency;
    if (done < from || done >= to) continue;
    ++r.window_requests;
    if (r.first_done == kNoTime || done < r.first_done) r.first_done = done;
    if (r.last_done == kNoTime || done > r.last_done) r.last_done = done;
    if (rec.op == KvOp::kGet) r.get_latency.push_back(rec.latency);
  }
}

void add_rig_stats(RigRun& r, ClusterRig& rig, const WorkloadSpec& spec) {
  for (int i = 0; i < rig.num_clients(); ++i) add_client(r, rig.client(i));
  for (int i = 0; i < rig.config().num_servers; ++i) {
    r.server_gets += rig.server(i).gets();
    r.server_hits += rig.server(i).hits();
  }
  for (int l = 0; l < rig.num_lbs(); ++l) {
    LoadBalancer& lb = rig.lb(l);
    r.lb_packets_in += lb.counters().value("lb.packets_in");
    r.lb_new_flows += lb.counters().value("lb.new_flows");
    r.lb_drops_no_backend += lb.counters().value("lb.drops_no_backend");
    r.ct_hits += lb.conntrack().hits();
    r.ct_misses += lb.conntrack().misses();
  }
  add_window(r, rig.records(), spec.window_from, rig.config().duration);
}

// The most requests the rig's clients may have outstanding at once: one
// pipeline per connection.
std::uint64_t pipelines(const KvClient& c) {
  return static_cast<std::uint64_t>(c.config().connections) *
         static_cast<std::uint64_t>(c.config().pipeline);
}

std::uint64_t in_flight_cap(ClusterRig& rig) {
  std::uint64_t cap = 0;
  for (int i = 0; i < rig.num_clients(); ++i) cap += pipelines(rig.client(i));
  return cap;
}

// Requests that did not complete and cannot still be in flight at the end of
// the run: the shortfall beyond one full pipeline per connection. Zero while
// no request is lost to a reset or a failed connection.
std::uint64_t failed_requests(const RigRun& r, std::uint64_t cap) {
  const std::uint64_t missing = r.sent - r.received;
  return missing > cap ? missing - cap : 0;
}

void add_net(NetStats& sum, const NetStats& s) {
  sum.packets_sent += s.packets_sent;
  sum.packets_dropped += s.packets_dropped;
  sum.batches += s.batches;
  sum.batch_packets += s.batch_packets;
  sum.max_batch = std::max(sum.max_batch, s.max_batch);
  sum.remote_packets += s.remote_packets;
  sum.pool.high_water += s.pool.high_water;
  sum.pool.slots += s.pool.slots;
}

void add_observers(RigRun& r,
                   const std::vector<std::unique_ptr<RigObserver>>& obs) {
  double pending_sum = 0;
  for (const auto& o : obs) {
    r.segments += o->segments;
    r.resets += o->resets;
    r.retransmits += o->retransmits;
    pending_sum += o->pending_sum;
    r.pending_samples += o->pending_samples;
  }
  if (r.pending_samples > 0) {
    r.pending_mean = pending_sum / static_cast<double>(r.pending_samples);
  }
}

RigRun run_cluster(const WorkloadSpec& spec, const RunOptions& opt) {
  RigRun r;
  ClusterRig rig{spec.cluster};
  std::vector<std::unique_ptr<RigObserver>> obs;
  if (opt.capture != nullptr || opt.count_tcp) {
    obs.push_back(std::make_unique<RigObserver>(
        rig_vip_addr(0, 0), opt.capture, opt.count_tcp, &rig.sim()));
    rig.net().set_observer(obs.back().get());
  }
  const SimTime d = spec.cluster.duration;
  rig.start();
  const std::uint64_t ev0 = rig.sim().executed_events();
  const auto mem0 = allocs::snapshot();
  const auto t0 = Clock::now();
  rig.run_until(d);
  r.wall_s = seconds_since(t0);
  const auto mem = allocs::delta(mem0, allocs::snapshot());
  r.events = rig.sim().executed_events() - ev0;
  r.net = rig.net().stats();
  r.packets = r.net.packets_sent;
  r.heap_allocs = mem.count;
  r.heap_bytes = mem.bytes;
  rig.net().set_observer(nullptr);
  rig.finish();

  add_rig_stats(r, rig, spec);
  r.failed = failed_requests(r, in_flight_cap(rig));
  if (spec.injects) {
    r.drained_at = share_drained_at(
        rig.share_history(), static_cast<std::size_t>(spec.cluster.victim),
        0.05, spec.cluster.inject_time);
  }
  add_observers(r, obs);
  r.digest = rig.state_digest();
  return r;
}

RigRun run_sharded(const WorkloadSpec& spec, int workers,
                   const RunOptions& opt) {
  RigRun r;
  ShardedRigConfig cfg = spec.ring;
  cfg.workers = workers;
  ShardedRig rig{cfg};
  std::vector<std::unique_ptr<RigObserver>> obs;
  for (int s = 0; s < rig.num_shards(); ++s) {
    LbCapture* cap = s == 0 ? opt.capture : nullptr;
    if (cap == nullptr && !opt.count_tcp) continue;
    obs.push_back(std::make_unique<RigObserver>(
        rig_vip_addr(s, 0), cap, opt.count_tcp, &rig.shard(s).sim()));
    rig.shard(s).net().set_observer(obs.back().get());
  }
  const auto mem0 = allocs::snapshot();
  const auto t0 = Clock::now();
  rig.run();
  r.wall_s = seconds_since(t0);
  const auto mem = allocs::delta(mem0, allocs::snapshot());
  r.heap_allocs = mem.count;
  r.heap_bytes = mem.bytes;

  const SimTime d = cfg.shard.duration;
  std::uint64_t cap = 0;
  for (int s = 0; s < rig.num_shards(); ++s) {
    ClusterRig& shard = rig.shard(s);
    shard.net().set_observer(nullptr);
    add_net(r.net, shard.net().stats());
    r.shard_events.push_back(shard.sim().executed_events());
    r.events += shard.sim().executed_events();
    add_rig_stats(r, shard, spec);
    cap += in_flight_cap(shard);
    for (int i = 0; i < rig.num_remote_clients(s); ++i) {
      add_client(r, rig.remote_client(s, i));
      cap += pipelines(rig.remote_client(s, i));
    }
    add_window(r, rig.remote_records(s), spec.window_from, d);
  }
  r.packets = r.net.packets_sent;
  r.failed = failed_requests(r, cap);
  r.cross_packets = rig.cross_packets();
  if (spec.injects) {
    r.drained_at = share_drained_at(
        rig.shard(0).share_history(),
        static_cast<std::size_t>(cfg.shard.victim), 0.05,
        cfg.shard.inject_time);
  }
  add_observers(r, obs);
  r.digest = rig.combined_digest();
  return r;
}

}  // namespace

RigRun run_rig(const WorkloadSpec& spec, int workers, const RunOptions& opt) {
  return spec.sharded ? run_sharded(spec, workers, opt)
                      : run_cluster(spec, opt);
}

}  // namespace lbbench
