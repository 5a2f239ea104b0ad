// Fault-injection subsystem tests.
//
// Mechanism tests drive a FaultLayer over a tiny two-host network and verify
// each fault actually happens on the wire: losses drop the configured
// fraction, reordered packets are genuinely overtaken, duplicates arrive
// twice, flap windows black-hole exactly their interval. Negative tests
// corrupt the layer's bookkeeping and assert the invariant auditor reports
// it. Scenario tests then assert the paper's control loop is robust: under
// 1% loss + reordering + jitter the in-band policy still migrates load off a
// slow server — without oscillating — while static Maglev stays inflated,
// and fault-injected runs stay bit-for-bit deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/kv_server.h"
#include "check/invariant_auditor.h"
#include "core/controller_zoo.h"
#include "fault/fault_layer.h"
#include "fault/fault_plan.h"
#include "fault/server_faults.h"
#include "net/network.h"
#include "scenario/backlogged_rig.h"
#include "scenario/cluster_rig.h"
#include "scenario/metrics.h"
#include "sim/simulator.h"

namespace inband {
namespace {

constexpr Ipv4 kSrc = make_ipv4(10, 0, 0, 1);
constexpr Ipv4 kDst = make_ipv4(10, 2, 0, 1);

class CaptureHost final : public Host {
 public:
  using Host::Host;
  void handle_batch(PacketBatch&& batch) override {
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      arrivals.push_back({sim().now(), batch[i]->pkt_id});
    }
  }
  std::vector<std::pair<SimTime, std::uint64_t>> arrivals;
};

// One directed link src→dst with a FaultLayer over it; `send_every` spaces
// the test packets so reorder holds (50us+) genuinely let later packets
// overtake.
struct FaultedWire {
  explicit FaultedWire(FaultPlan plan)
      : layer{sim, net, std::move(plan),
              {{kSrc, kDst, LinkScope::kLbToServer, 0}}} {}

  void send_spaced(int count, SimTime send_every) {
    for (int i = 0; i < count; ++i) {
      sim.schedule_at(i * send_every, [this] {
        net.send(kSrc, kDst, make_packet());
      });
    }
    sim.run();
  }

  PacketRef make_packet() {
    PacketRef p = net.pool().acquire();
    p->flow = {{kSrc, 1111}, {kDst, 80}, IpProto::kTcp};
    p->payload_len = 100;
    return p;
  }

  std::size_t audit_violations() {
    InvariantAuditor auditor{AuditFailMode::kCollect};
    auditor.register_hook("fault",
                          [this](AuditScope& s) { layer.audit_invariants(s); });
    return auditor.run_all(sim.now());
  }

  Simulator sim;
  Network net{sim};
  CaptureHost src{sim, net, kSrc, "src"};
  CaptureHost dst{sim, net, kDst, "dst"};
  Link& link = net.add_link(kSrc, kDst, {10'000'000'000, us(10), 0});
  FaultLayer layer;
};

// --- plan construction ---

TEST(FaultPlan, EmptyPlanIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.links.push_back({});
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, NoisePlanCoversEveryLink) {
  const FaultPlan plan = make_noise_plan(0.01, 0.01, 0.002, us(20));
  ASSERT_EQ(plan.links.size(), 1u);
  EXPECT_EQ(plan.links[0].scope, LinkScope::kAll);
  EXPECT_DOUBLE_EQ(plan.links[0].loss, 0.01);
  EXPECT_DOUBLE_EQ(plan.links[0].reorder, 0.01);
  EXPECT_DOUBLE_EQ(plan.links[0].duplicate, 0.002);
  EXPECT_EQ(plan.links[0].jitter_max, us(20));
  plan.validate();  // must not assert
}

TEST(FaultEventNames, AreDistinct) {
  EXPECT_STREQ(fault_event_name(FaultEvent::Kind::kLoss), "loss");
  EXPECT_STRNE(fault_event_name(FaultEvent::Kind::kLinkDown),
               fault_event_name(FaultEvent::Kind::kLinkUp));
  EXPECT_STRNE(link_scope_name(LinkScope::kClientToLb),
               link_scope_name(LinkScope::kLbToServer));
}

// --- loss ---

TEST(FaultLayerMechanism, LossDropsTheConfiguredFraction) {
  FaultPlan plan;
  plan.links.push_back({.loss = 0.25});
  FaultedWire wire{std::move(plan)};
  wire.send_spaced(2000, us(1));

  const std::uint64_t lost = wire.layer.counters().value("fault.loss");
  EXPECT_EQ(wire.dst.arrivals.size() + lost, 2000u);
  // Binomial(2000, 0.25): mean 500, sigma ~19. [400, 600] is > 5 sigma.
  EXPECT_GT(lost, 400u);
  EXPECT_LT(lost, 600u);
  // Every loss is on the executed timeline.
  EXPECT_EQ(fault_events_in_window(wire.layer.events(),
                                   FaultEvent::Kind::kLoss, 0, kEndOfTime),
            lost);
  EXPECT_EQ(wire.audit_violations(), 0u);
}

TEST(FaultLayerMechanism, ActivityWindowGatesFaults) {
  FaultPlan plan;
  plan.links.push_back({.loss = 1.0, .start = ms(1), .end = ms(2)});
  FaultedWire wire{std::move(plan)};
  // 30 packets every 100us: 10 before the window, 10 inside, 10 after.
  wire.send_spaced(30, us(100));
  EXPECT_EQ(wire.dst.arrivals.size(), 20u);
  EXPECT_EQ(wire.layer.counters().value("fault.loss"), 10u);
}

// --- reordering ---

TEST(FaultLayerMechanism, ReorderingActuallyReordersDelivery) {
  FaultPlan plan;
  plan.links.push_back({.reorder = 0.3});
  FaultedWire wire{std::move(plan)};
  wire.send_spaced(500, us(10));

  // Nothing is lost — reordering only delays.
  ASSERT_EQ(wire.dst.arrivals.size(), 500u);
  EXPECT_GT(wire.layer.counters().value("fault.reorders"), 50u);

  // Delivery order differs from send order (pkt_ids are stamped in send
  // order), yet every packet arrived exactly once.
  std::vector<std::uint64_t> ids;
  for (const auto& [t, id] : wire.dst.arrivals) ids.push_back(id);
  EXPECT_FALSE(std::is_sorted(ids.begin(), ids.end()));
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  EXPECT_EQ(wire.audit_violations(), 0u);
}

// A reordered packet is held in [kReorderHoldMin, kReorderHoldMax] before
// the link takes it; every other packet crosses in the link's own time.
TEST(FaultLayerMechanism, ReorderHoldWithinBounds) {
  FaultPlan plan;
  plan.links.push_back({.reorder = 0.5});
  FaultedWire wire{std::move(plan)};
  wire.send_spaced(400, ms(1));  // spaced beyond any hold: nothing queues
  ASSERT_EQ(wire.dst.arrivals.size(), 400u);
  // pkt_ids are stamped in send order from 1: packet k left at (k-1) ms.
  std::vector<SimTime> transit;
  for (const auto& [t, id] : wire.dst.arrivals) {
    transit.push_back(t - ms(1) * static_cast<SimTime>(id - 1));
  }
  const SimTime link_time = *std::min_element(transit.begin(), transit.end());
  std::uint64_t held = 0;
  SimTime min_hold = kEndOfTime;
  SimTime max_hold = 0;
  for (const SimTime d : transit) {
    if (d == link_time) continue;
    const SimTime hold = d - link_time;
    EXPECT_GE(hold, kReorderHoldMin);
    EXPECT_LE(hold, kReorderHoldMax);
    min_hold = std::min(min_hold, hold);
    max_hold = std::max(max_hold, hold);
    ++held;
  }
  EXPECT_EQ(held, wire.layer.counters().value("fault.reorders"));
  EXPECT_GT(held, 150u);
  // The draws cover the range, not one end of it.
  const SimTime quarter = (kReorderHoldMax - kReorderHoldMin) / 4;
  EXPECT_LT(min_hold, kReorderHoldMin + quarter);
  EXPECT_GT(max_hold, kReorderHoldMax - quarter);
}

// --- duplication ---

TEST(FaultLayerMechanism, DuplicationDeliversExtraCopies) {
  FaultPlan plan;
  plan.links.push_back({.duplicate = 1.0});
  FaultedWire wire{std::move(plan)};
  wire.send_spaced(50, us(20));

  EXPECT_EQ(wire.layer.counters().value("fault.duplicates"), 50u);
  ASSERT_EQ(wire.dst.arrivals.size(), 100u);
  // Each pkt_id arrives exactly twice.
  std::vector<std::uint64_t> ids;
  for (const auto& [t, id] : wire.dst.arrivals) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i + 1 < ids.size(); i += 2) {
    EXPECT_EQ(ids[i], ids[i + 1]);
  }
  EXPECT_EQ(wire.audit_violations(), 0u);
}

// The second copy re-arrives at most kReorderHoldMax after the first.
TEST(FaultLayerMechanism, DuplicateTrailsByAtMostHoldMax) {
  FaultPlan plan;
  plan.links.push_back({.duplicate = 1.0});
  FaultedWire wire{std::move(plan)};
  wire.send_spaced(200, ms(1));  // spaced beyond any hold: nothing queues
  ASSERT_EQ(wire.dst.arrivals.size(), 400u);
  std::map<std::uint64_t, std::vector<SimTime>> by_id;
  for (const auto& [t, id] : wire.dst.arrivals) by_id[id].push_back(t);
  ASSERT_EQ(by_id.size(), 200u);
  SimTime max_lag = 0;
  for (const auto& [id, times] : by_id) {
    ASSERT_EQ(times.size(), 2u) << "pkt " << id;
    const SimTime lag = times[1] - times[0];
    EXPECT_GE(lag, 0);
    EXPECT_LE(lag, kReorderHoldMax) << "pkt " << id;
    max_lag = std::max(max_lag, lag);
  }
  EXPECT_GT(max_lag, kReorderHoldMax / 2);
}

// --- jitter ---

TEST(FaultLayerMechanism, JitterPerturbsButPreservesDelivery) {
  FaultPlan plan;
  plan.links.push_back({.jitter_max = us(100)});
  FaultedWire jittered{plan};
  jittered.send_spaced(200, us(200));
  FaultPlan passthrough;  // enabled but all-zero spec: no faults fire
  passthrough.links.push_back({});
  FaultedWire clean{std::move(passthrough)};
  clean.send_spaced(200, us(200));

  ASSERT_EQ(jittered.dst.arrivals.size(), 200u);
  EXPECT_GT(jittered.layer.counters().value("fault.jittered"), 100u);
  bool any_shift = false;
  for (std::size_t i = 0; i < 200; ++i) {
    any_shift |= jittered.dst.arrivals[i] != clean.dst.arrivals[i];
  }
  EXPECT_TRUE(any_shift);
}

TEST(FaultLayerMechanism, SameSeedSameSchedule) {
  const FaultPlan plan = make_noise_plan(0.05, 0.05, 0.01, us(50));
  FaultedWire a{plan};
  a.send_spaced(300, us(10));
  FaultedWire b{plan};
  b.send_spaced(300, us(10));
  EXPECT_EQ(a.dst.arrivals, b.dst.arrivals);

  FaultPlan reseeded = plan;
  reseeded.seed = 99;
  FaultedWire c{std::move(reseeded)};
  c.send_spaced(300, us(10));
  EXPECT_NE(a.dst.arrivals, c.dst.arrivals);
}

// --- link flaps ---

TEST(FaultLayerMechanism, FlapWindowBlackholesItsInterval) {
  FaultPlan plan;
  plan.flaps.push_back({LinkScope::kAll, -1, ms(1), ms(2)});
  FaultedWire wire{std::move(plan)};
  // Packets every 100us across [0, 3ms): the 10 inside [1ms, 2ms) vanish.
  wire.send_spaced(30, us(100));

  EXPECT_EQ(wire.dst.arrivals.size(), 20u);
  EXPECT_EQ(wire.layer.counters().value("fault.flap_drops"), 10u);
  EXPECT_EQ(wire.layer.counters().value("fault.flap_transitions"), 2u);
  for (const auto& [t, id] : wire.dst.arrivals) {
    // Deliveries originate outside the outage (10us propagation).
    EXPECT_TRUE(t - us(10) < ms(1) || t - us(10) >= ms(2)) << t;
  }

  // Timeline: down, 10 drops, up — in order.
  const auto& ev = wire.layer.events();
  ASSERT_EQ(ev.size(), 12u);
  EXPECT_EQ(ev.front().kind, FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(ev.front().t, ms(1));
  EXPECT_EQ(ev.back().kind, FaultEvent::Kind::kLinkUp);
  EXPECT_EQ(ev.back().t, ms(2));
  EXPECT_EQ(fault_events_in_window(ev, FaultEvent::Kind::kFlapDrop, ms(1),
                                   ms(2)),
            10u);
  EXPECT_EQ(wire.audit_violations(), 0u);
}

// --- invariant auditor catches corrupt bookkeeping ---

TEST(FaultLayerAudit, CorruptBookkeepingIsDetected) {
  FaultPlan plan;
  plan.links.push_back({.loss = 0.5});
  FaultedWire wire{std::move(plan)};
  wire.send_spaced(100, us(10));
  ASSERT_EQ(wire.audit_violations(), 0u);

  wire.layer.corrupt_bookkeeping_for_test();
  InvariantAuditor auditor{AuditFailMode::kCollect};
  auditor.register_hook(
      "fault", [&](AuditScope& s) { wire.layer.audit_invariants(s); });
  EXPECT_GT(auditor.run_all(wire.sim.now()), 0u);
  bool saw_xor = false;
  bool saw_count = false;
  for (const auto& v : auditor.violations()) {
    saw_xor |= v.invariant == "dropped-xor-delivered";
    saw_count |= v.invariant == "dropped-ids-match-counters";
  }
  EXPECT_TRUE(saw_xor);
  EXPECT_TRUE(saw_count);
}

// --- scheduled freeze injector ---

TEST(ScheduledFreeze, ReportsLatestCoveringWindow) {
  ScheduledFreezeInjector inj{{{ms(1), ms(2)}, {ms(1), ms(4)}, {ms(6), ms(7)}}};
  EXPECT_EQ(inj.frozen_until(0), 0);
  EXPECT_EQ(inj.frozen_until(ms(1)), ms(4));  // overlapping: latest end wins
  EXPECT_EQ(inj.frozen_until(ms(3)), ms(4));
  EXPECT_EQ(inj.frozen_until(ms(4)), 0);      // end is exclusive
  EXPECT_EQ(inj.frozen_until(ms(6)), ms(7));
}

// A crash inside a stall window: the requests in service when the server
// crashes complete only after the stall ends, long after their connections
// were reset and reaped. Clients that reconnect at once get new server-side
// connections, which may occupy a reaped connection's storage. No stale
// completion may answer a new connection, so no connection ever receives
// more responses than it sent requests.
TEST(ScheduledFreeze, CrashInsideStallAnswersNoReconnectedFlow) {
  constexpr Ipv4 kClientHost = make_ipv4(10, 0, 0, 1);
  constexpr Ipv4 kServerHost = make_ipv4(10, 2, 0, 1);
  constexpr int kConnections = 8;
  constexpr std::uint64_t kRequestsPerConn = 2;
  Simulator sim;
  Network net{sim};
  TcpHost server_host{sim, net, kServerHost, "server", {}, 2};
  TcpHost client_host{sim, net, kClientHost, "client", {}, 3};
  net.add_duplex_link(kClientHost, kServerHost, {10'000'000'000, us(25), 0});
  KvServerConfig sc;
  sc.workers = kConnections * static_cast<int>(kRequestsPerConn);
  KvServer server{server_host, sc};
  server.add_injector(std::make_unique<ScheduledFreezeInjector>(
      std::vector<ScheduledFreezeInjector::Window>{{ms(1), ms(5)}}));
  sim.schedule_at(ms(3), [&] { server.abort_all_connections(); });

  struct Conn {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };
  std::vector<Conn> conns;  // every connection ever opened, in open order
  std::function<void()> open = [&] {
    const std::size_t index = conns.size();
    conns.push_back({});
    TcpConnection* c = client_host.stack().connect({kServerHost, sc.port});
    auto& cb = c->callbacks();
    cb.on_established = [&conns, index](TcpConnection& conn) {
      for (std::uint64_t i = 0; i < kRequestsPerConn; ++i) {
        KvMessage req;
        req.kind = KvKind::kRequest;
        req.op = KvOp::kGet;
        req.id = index * kRequestsPerConn + i;
        conn.send_message(req, kv_request_wire_size(req.op, 0));
        ++conns[index].sent;
      }
    };
    cb.on_message = [&conns, index](TcpConnection&, const KvMessage&) {
      ++conns[index].received;
    };
    cb.on_closed = [&sim, &open](TcpConnection&, bool reset) {
      if (reset) sim.schedule_after(0, [&open] { open(); });
    };
    c->open();
  };
  // The first connections' requests arrive inside the stall.
  sim.schedule_at(ms(2), [&] {
    for (int i = 0; i < kConnections; ++i) open();
  });
  sim.run_until(ms(20));

  ASSERT_EQ(conns.size(), 2u * kConnections);  // every client reconnected
  for (std::size_t i = 0; i < conns.size(); ++i) {
    EXPECT_LE(conns[i].received, conns[i].sent) << "connection " << i;
  }
  // The reconnected flows were served.
  for (std::size_t i = kConnections; i < conns.size(); ++i) {
    EXPECT_EQ(conns[i].received, kRequestsPerConn) << "connection " << i;
  }
}

// --- full rigs under faults ---

ClusterRigConfig noisy_cluster(LbMode mode) {
  ClusterRigConfig cfg;
  cfg.mode = mode;
  cfg.duration = sec(4);
  cfg.inject_time = sec(2);
  cfg.inject_extra = ms(1);
  cfg.num_client_hosts = 2;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 50;
  cfg.server.workers = 8;
  cfg.maglev_table_size = 1021;
  cfg.share_sample_interval = ms(5);
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.controller.min_samples = 3;
  cfg.inband.controller.cooldown = ms(1);
  cfg.inband.tracker.ewma_tau = ms(2);
  // The robustness configuration from the issue: 1% loss, 1% reordering,
  // 0.2% duplication, 20us jitter on every link.
  cfg.fault = make_noise_plan(0.01, 0.01, 0.002, us(20));
  return cfg;
}

TEST(FaultRobustness, InbandStillShiftsUnderLossAndReordering) {
  ClusterRig rig{noisy_cluster(LbMode::kInband)};
  rig.run();
  ASSERT_NE(rig.fault(), nullptr);
  // The noise actually happened.
  EXPECT_GT(rig.fault()->counters().value("fault.loss"), 100u);
  EXPECT_GT(rig.fault()->counters().value("fault.reorders"), 100u);

  auto* policy = rig.inband_policy();
  ASSERT_NE(policy, nullptr);
  EXPECT_GT(policy->controller().shifts(), 0u);
  // The victim lost at least half its fair share of the table.
  const auto fair = policy->table().table_size() / 2;
  EXPECT_LE(policy->table().slots_owned(0), fair / 2);

  // No oscillation: once drained, the victim's share stays low — it never
  // climbs back above half of fair in the last second of the run.
  double max_late_share = 0.0;
  for (const auto& snap : rig.share_history()) {
    if (snap.t >= sec(3) && !snap.shares.empty()) {
      max_late_share = std::max(max_late_share, snap.shares[0]);
    }
  }
  EXPECT_LT(max_late_share, 0.25);
}

TEST(FaultRobustness, StaticMaglevStaysInflatedUnderNoise) {
  ClusterRig rig{noisy_cluster(LbMode::kStaticMaglev)};
  rig.run();
  const auto get = rig.get_latency_samples();
  ASSERT_GT(get.size(), 1000u);
  const double p95_before = percentile_in_window(get, sec(1), sec(2), 0.95);
  const double p95_after = percentile_in_window(get, sec(3), sec(4), 0.95);
  // No feedback loop: the injected 1ms stays in the tail.
  EXPECT_GT(p95_after, p95_before + static_cast<double>(us(700)));
}

TEST(FaultRobustness, FaultInjectedRunsAreDeterministic) {
  auto config = [] {
    ClusterRigConfig cfg = noisy_cluster(LbMode::kInband);
    cfg.duration = sec(2);
    cfg.inject_time = sec(1);
    // Exercise every fault class: noise + a flap + a crash.
    cfg.fault.flaps.push_back(
        {LinkScope::kServerToClient, 1, ms(600), ms(650)});
    cfg.fault.servers.push_back(
        {ServerFaultSpec::Kind::kCrash, 1, ms(300), ms(500)});
    return cfg;
  };
  ClusterRig a{config()};
  a.run();
  ClusterRig b{config()};
  b.run();
  EXPECT_EQ(a.state_digest(), b.state_digest());

  // The digest actually covers the fault schedule: a different fault seed
  // with identical traffic config must change it.
  auto reseeded = config();
  reseeded.fault.seed ^= 0x5eed;
  ClusterRig c{reseeded};
  c.run();
  EXPECT_NE(a.state_digest(), c.state_digest());
}

TEST(FaultRobustness, ServerCrashResetsConnectionsAndRecovers) {
  ClusterRigConfig cfg = noisy_cluster(LbMode::kStaticMaglev);
  cfg.fault = {};  // isolate the crash
  cfg.duration = sec(3);
  cfg.inject_time = sec(10);  // no delay injection
  cfg.fault.servers.push_back(
      {ServerFaultSpec::Kind::kCrash, 0, sec(1), ms(1500)});
  ClusterRig rig{cfg};
  rig.run();

  ASSERT_NE(rig.fault(), nullptr);
  const auto& ev = rig.fault()->events();
  EXPECT_EQ(fault_events_in_window(ev, FaultEvent::Kind::kServerCrash, 0,
                                   kEndOfTime),
            1u);
  EXPECT_EQ(fault_events_in_window(ev, FaultEvent::Kind::kServerRestart, 0,
                                   kEndOfTime),
            1u);

  // The crash was visible to clients...
  std::uint64_t failures = 0;
  for (int c = 0; c < rig.num_clients(); ++c) {
    failures += rig.client(c).connection_failures();
  }
  EXPECT_GT(failures, 0u);
  // ...and the cluster recovered: requests complete well after the restart.
  std::size_t late_completions = 0;
  for (const auto& r : rig.records()) {
    if (r.sent_at > sec(2)) ++late_completions;
  }
  EXPECT_GT(late_completions, 500u);
  EXPECT_GT(rig.server(0).requests_served(), 100u);
}

TEST(FaultRobustness, NoisyRunPassesFullAudit) {
  ClusterRigConfig cfg = noisy_cluster(LbMode::kInband);
  cfg.duration = sec(1);
  cfg.inject_time = sec(10);
  ClusterRig rig{cfg};
  rig.run();
  EXPECT_EQ(rig.run_full_audit(), 0u);
}

// --- controller zoo under faults ---
//
// Every registered control law, not just the paper's α-shift, must stay
// useful when the feedback channel itself is degraded: under the standard 1%
// noise plan each law still migrates load off the slow server, and a server
// stall is detected and survived. Iterating controller_registry() means a
// law added to the zoo is automatically held to this bar.
//
// The zoo rigs warm the laws up past the connection-establishment transient
// (whose timeout storm can otherwise drain healthy servers to zero slots
// before a single real sample exists) and enable the policy's restore drift,
// the documented remedy for the absorbing zero-slots state: a backend with
// no slots gets no traffic, hence no samples, hence — for staleness-gated
// laws — no way back.

ClusterRigConfig zoo_cluster(ControllerKind kind) {
  ClusterRigConfig cfg = noisy_cluster(LbMode::kInband);
  cfg.inband.controller_kind = kind;
  cfg.num_servers = 3;
  cfg.inband.controller.warmup = ms(100);
  cfg.inband.knapsack.warmup = ms(100);
  cfg.inband.gradient.warmup = ms(100);
  cfg.inband.shortest_queue.warmup = ms(100);
  cfg.inband.restore_interval = ms(100);
  return cfg;
}

TEST(FaultRobustness, EveryControllerConvergesUnderNoise) {
  for (const ControllerKind kind : controller_registry()) {
    SCOPED_TRACE(controller_kind_name(kind));
    ClusterRigConfig cfg = zoo_cluster(kind);
    ClusterRig rig{cfg};
    rig.run();

    auto* policy = rig.inband_policy();
    ASSERT_NE(policy, nullptr);
    EXPECT_GT(policy->controller().shifts(), 0u);
    EXPECT_STREQ(policy->controller().name(), controller_kind_name(kind));
    // The victim fell below half its fair share (1/3 of the table) at some
    // point after injection — the law converged despite the noise. The
    // threshold tolerates the weight-vector laws' anti-starvation floor and
    // shortest-queue's oscillation.
    const SimTime drained = share_drained_at(
        rig.share_history(), 0, 1.0 / 6.0, cfg.inject_time);
    EXPECT_NE(drained, kNoTime);
  }
}

TEST(FaultRobustness, EveryControllerSurvivesServerStall) {
  for (const ControllerKind kind : controller_registry()) {
    SCOPED_TRACE(controller_kind_name(kind));
    ClusterRigConfig cfg = zoo_cluster(kind);
    cfg.duration = sec(3);
    cfg.inject_time = sec(10);  // the stall is the only fault of interest
    cfg.fault = {};
    cfg.fault.servers.push_back(
        {ServerFaultSpec::Kind::kStall, 1, sec(1), sec(2)});
    ClusterRig rig{cfg};
    rig.run();

    ASSERT_NE(rig.fault(), nullptr);
    const auto& ev = rig.fault()->events();
    EXPECT_EQ(fault_events_in_window(ev, FaultEvent::Kind::kServerStall, 0,
                                     kEndOfTime),
              1u);
    // The law noticed: the stalled server lost at least half its fair share
    // while frozen.
    const SimTime drained =
        share_drained_at(rig.share_history(), 1, 1.0 / 6.0, sec(1));
    EXPECT_NE(drained, kNoTime);
    EXPECT_LT(drained, sec(2) + ms(500));
    // The cluster survived: traffic kept completing after the stall lifted,
    // and the stalled server came back into rotation.
    std::size_t late_completions = 0;
    for (const auto& r : rig.records()) {
      if (r.sent_at > sec(2)) ++late_completions;
    }
    EXPECT_GT(late_completions, 500u);
    EXPECT_GT(rig.server(1).requests_served(), 100u);
  }
}

TEST(FaultRobustness, ZooRunsUnderNoiseAreDeterministic) {
  // Same-seed reproducibility for a weight-vector law under the full noise
  // plan — the vector-rebuild path through apply_decision is covered by the
  // digest, not just the α-shift slot path.
  auto config = [] {
    ClusterRigConfig cfg = zoo_cluster(ControllerKind::kGradientDescent);
    cfg.duration = sec(2);
    cfg.inject_time = sec(1);
    return cfg;
  };
  ClusterRig a{config()};
  a.run();
  ClusterRig b{config()};
  b.run();
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

// --- backlogged rig under faults ---

TEST(FaultRobustness, BackloggedRigSurvivesNoise) {
  BackloggedRigConfig cfg;
  cfg.duration = ms(800);
  cfg.step_time = ms(400);
  cfg.fault = make_noise_plan(0.01, 0.01, 0.0, us(5));
  BackloggedRig rig{cfg};
  rig.run();
  ASSERT_NE(rig.fault(), nullptr);
  EXPECT_GT(rig.fault()->counters().value("fault.loss"), 10u);
  // The backlogged flow keeps flowing through retransmissions.
  EXPECT_GT(rig.arrivals().size(), 500u);
  EXPECT_GT(rig.ground_truth().size(), 100u);
}

TEST(FaultRobustness, BackloggedNoiseIsDeterministic) {
  BackloggedRigConfig cfg;
  cfg.duration = ms(400);
  cfg.fault = make_noise_plan(0.02, 0.02, 0.005, us(5));
  BackloggedRig a{cfg};
  a.run();
  BackloggedRig b{cfg};
  b.run();
  EXPECT_EQ(a.arrivals(), b.arrivals());
  ASSERT_EQ(a.ground_truth().size(), b.ground_truth().size());
}

}  // namespace
}  // namespace inband
