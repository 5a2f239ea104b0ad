#include "lb_replay.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/controller_zoo.h"
#include "lb/conntrack.h"
#include "lb/load_balancer.h"
#include "lb/maglev.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "timing.h"

namespace lbbench {

using namespace inband;

namespace {

BackendId backend_at(const BackendPool& pool, Ipv4 addr) {
  for (const Backend& b : pool) {
    if (b.addr == addr) return b.id;
  }
  return kNoBackend;
}

// Terminates the replayed LB's egress: every forward lands here.
class BackendSink final : public RemoteEgress {
 public:
  explicit BackendSink(const BackendPool& pool) : pool_{pool} {}
  bool forward(const Packet& pkt, Ipv4 from, Ipv4 to) override {
    (void)pkt;
    (void)from;
    digest_.add(backend_at(pool_, to));
    ++forwarded_;
    return true;
  }
  std::uint64_t digest() const { return digest_.value(); }
  std::uint64_t forwarded() const { return forwarded_; }

 private:
  const BackendPool& pool_;
  StreamDigest digest_;
  std::uint64_t forwarded_ = 0;
};

void fill(Packet& p, const LbRecord& r) {
  p.flow = r.flow;
  p.seq = r.seq;
  p.ack = r.ack;
  p.wnd = r.wnd;
  p.payload_len = r.payload_len;
  p.flags = r.flags;
}

}  // namespace

void LbCapture::add(const Packet& pkt, Ipv4 to) {
  LbRecord r;
  r.t = pkt.sent_at;
  r.flow = pkt.flow;
  r.seq = pkt.seq;
  r.ack = pkt.ack;
  r.wnd = pkt.wnd;
  r.payload_len = pkt.payload_len;
  r.flags = pkt.flags;
  r.backend = backend_at(pool, to);
  records.push_back(r);
}

std::uint64_t LbCapture::live_digest() const {
  StreamDigest d;
  for (const LbRecord& r : records) d.add(r.backend);
  return d.value();
}

WholeReplay replay_whole(const LbSetup& setup, const LbCapture& cap,
                         std::vector<std::uint32_t>* call_ns) {
  Simulator sim;
  Network net{sim};
  BackendSink sink{setup.pool};
  net.set_remote_egress(&sink);
  LoadBalancer lb{sim, net, setup.vip, "lb0", setup.pool,
                  std::make_unique<InbandLbPolicy>(setup.pool, setup.policy)};
  if (call_ns != nullptr) call_ns->reserve(cap.records.size());

  const auto t0 = Clock::now();
  for (const LbRecord& r : cap.records) {
    sim.advance_to(r.t);
    PacketRef ref = net.pool().acquire();
    fill(*ref, r);
    PacketBatch batch;
    batch.push(std::move(ref));
    if (call_ns == nullptr) {
      lb.handle_batch(std::move(batch));
    } else {
      const std::int64_t a = now_ns();
      lb.handle_batch(std::move(batch));
      const std::int64_t b = now_ns();
      call_ns->push_back(static_cast<std::uint32_t>(b - a));
    }
  }
  WholeReplay w;
  w.wall_s = seconds_since(t0);
  w.packets = cap.records.size();
  w.digest = sink.digest();
  w.forwarded = sink.forwarded();
  w.new_flows = lb.counters().value("lb.new_flows");
  w.drops_no_backend = lb.counters().value("lb.drops_no_backend");
  w.ct_hits = lb.conntrack().hits();
  w.ct_misses = lb.conntrack().misses();
  return w;
}

const char* stage_name(std::uint8_t stage) {
  switch (stage) {
    case kCt: return "lb.ct";
    case kMaglevPick: return "lb.maglev_pick";
    case kFlowTable: return "core.flow_table";
    case kEstimator: return "core.estimator";
    case kTracker: return "core.tracker";
    case kControl: return "core.control_step";
    case kTableUpdate: return "core.table_update";
    case kPacket: return "lb.packet";
  }
  return "?";
}

DecomposedReplay replay_decomposed(const LbSetup& setup, const LbCapture& cap,
                                   bool timed, std::size_t span_cap,
                                   SimTime drain_from, BackendId victim) {
  const InbandPolicyConfig& pc = setup.policy;
  if (pc.restore_interval > 0 || pc.normalize_client_floor ||
      pc.use_handshake_bootstrap ||
      pc.table_update != TableUpdateMode::kShiftSlots) {
    throw std::runtime_error(
        "decomposed replay reproduces the paper's policy only (no restore, "
        "client floor, handshake bootstrap or weighted rebuild)");
  }
  for (const Backend& b : setup.pool) {
    if (!b.healthy) {
      throw std::runtime_error("decomposed replay: unhealthy backend");
    }
  }

  // The parts, built as LoadBalancer and InbandLbPolicy build them.
  ConnTracker ct{ConntrackConfig{}};
  MaglevTable table{pc.maglev_table_size, pc.maglev_seed};
  table.build(setup.pool);
  std::vector<double> live_shares = table.shares();
  EnsembleTimeout estimator{pc.ensemble};
  FlowStateTable flows{pc.flow_table};
  ServerLatencyTracker tracker{setup.pool.size(), pc.tracker};
  ControllerZooConfig zoo;
  zoo.kind = pc.controller_kind;
  zoo.alpha = pc.controller;
  zoo.knapsack = pc.knapsack;
  zoo.gradient = pc.gradient;
  zoo.shortest_queue = pc.shortest_queue;
  std::unique_ptr<WeightController> controller = make_controller(zoo);

  DecomposedReplay out;
  const std::size_t n = cap.records.size();
  for (auto& v : out.stage_ns) v.reserve(n);
  out.spans.reserve(span_cap);
  StreamDigest digest;

  std::array<std::uint32_t, kStageCount> acc{};
  std::uint32_t ran = 0;
  const std::int64_t base = now_ns();
  std::int64_t t = base;
  std::uint32_t pkt_index = 0;
  // Closes the stage that started at `t`: accounts and (within the cap)
  // records its span, and starts the next one.
  auto mark = [&](Stage s) {
    if (!timed) return;
    const std::int64_t t2 = now_ns();
    acc[s] += static_cast<std::uint32_t>(t2 - t);
    ran |= 1u << s;
    if (out.spans.size() < span_cap) {
      out.spans.push_back({pkt_index, s, t - base, t2 - base});
    }
    t = t2;
  };

  const auto wall0 = Clock::now();
  for (const LbRecord& r : cap.records) {
    const SimTime now = r.t;
    acc.fill(0);
    ran = 0;
    const std::int64_t pkt_start = timed ? now_ns() : 0;
    t = pkt_start;

    // LoadBalancer::forward.
    ct.sweep(now);
    BackendId b = ct.lookup(r.flow, now);
    mark(kCt);
    if (b == kNoBackend) {
      b = table.lookup(r.flow);
      mark(kMaglevPick);
      if (b == kNoBackend || b >= setup.pool.size()) {
        throw std::runtime_error("decomposed replay: no backend for a flow");
      }
      ct.insert(r.flow, b, now);
      mark(kCt);
    }
    if ((r.flags & (tcpflag::kFin | tcpflag::kRst)) != 0) {
      const bool closing = ct.mark_closing(r.flow, now);
      mark(kCt);
      if (closing) {  // InbandLbPolicy::on_flow_closed
        flows.erase(r.flow);
        mark(kFlowTable);
      }
    }

    // InbandLbPolicy::on_packet.
    flows.maybe_sweep(now);
    FlowState& state = flows.get_or_create(r.flow, now);
    mark(kFlowTable);
    const SimTime t_lb = estimator.on_packet(state.ensemble, now);
    mark(kEstimator);
    if (t_lb != kNoTime) {
      ++out.samples;
      tracker.record(b, now, t_lb);
      mark(kTracker);
      const auto decision = controller->control_step(tracker, live_shares, now);
      mark(kControl);
      if (decision) {
        if (decision->is_weight_vector()) {
          throw std::runtime_error(
              "decomposed replay: weight-vector decisions are not reproduced");
        }
        ++out.decisions;
        const std::size_t moved =
            table.shift_slots(decision->from, decision->fraction);
        if (moved > 0) {
          out.slots_moved += moved;
          live_shares = table.shares();
        }
        mark(kTableUpdate);
      }
    }
    digest.add(b);
    if (out.drained_at == kNoTime && now >= drain_from &&
        victim < live_shares.size() && live_shares[victim] < 0.05) {
      out.drained_at = now;
    }

    for (std::uint8_t s = 0; s < kStageCount; ++s) {
      if ((ran & (1u << s)) != 0) {
        out.stage_ns[s].push_back(acc[s]);
      }
    }
    if (timed && out.spans.size() < span_cap) {
      out.spans.push_back({pkt_index, kPacket, pkt_start - base, t - base});
    }
    if (ct.size() > out.ct_entries_max) out.ct_entries_max = ct.size();
    if (flows.size() > out.flow_entries_max) {
      out.flow_entries_max = flows.size();
    }
    ++pkt_index;
  }
  out.wall_s = seconds_since(wall0);
  out.packets = n;
  out.digest = digest.value();
  out.ct_entries_end = ct.size();
  out.flow_entries_end = flows.size();
  out.flow_evictions = flows.evictions();
  out.flow_expirations = flows.expirations();
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "pkt,span,parent,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%u,%s,%s,%lld,%lld\n", s.pkt, stage_name(s.stage),
                 s.stage == kPacket ? "" : stage_name(kPacket),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace lbbench
