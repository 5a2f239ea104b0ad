// Unit tests: check module (invariant auditor, state digests, determinism).
//
// The negative tests inject real corruption — an out-of-order event pushed
// straight into an EventQueue, a Maglev slot overwritten with a bogus
// backend, estimator state with an impossible chosen index — and assert the
// auditor reports exactly the violated invariant. The determinism tests run
// the full cluster rig twice per seed and require byte-identical digests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "core/ensemble_timeout.h"
#include "core/flow_state_table.h"
#include "lb/conntrack.h"
#include "lb/maglev.h"
#include "scenario/cluster_rig.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace inband {
namespace {

bool has_violation(const InvariantAuditor& auditor,
                   const std::string& invariant) {
  for (const auto& v : auditor.violations()) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

FlowKey test_flow(std::uint16_t src_port) {
  return FlowKey{Endpoint{make_ipv4(10, 0, 0, 1), src_port},
                 Endpoint{make_ipv4(10, 1, 0, 1), 11211}, IpProto::kTcp};
}

// --- InvariantAuditor core ---

TEST(InvariantAuditor, RunsHooksInRegistrationOrder) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  std::vector<int> order;
  auditor.register_hook("a", [&](AuditScope&) { order.push_back(1); });
  auditor.register_hook("b", [&](AuditScope&) { order.push_back(2); });
  EXPECT_EQ(auditor.hook_count(), 2u);
  EXPECT_EQ(auditor.run_all(ms(5)), 0u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(auditor.audits_run(), 2u);
}

TEST(InvariantAuditor, CollectModeRecordsViolations) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  auditor.register_hook("mod", [](AuditScope& s) {
    EXPECT_EQ(s.now(), ms(7));
    EXPECT_TRUE(s.check(true, "holds"));
    EXPECT_FALSE(s.check(false, "broken", "details here"));
  });
  EXPECT_EQ(auditor.run_all(ms(7)), 1u);
  ASSERT_EQ(auditor.violations().size(), 1u);
  const auto& v = auditor.violations()[0];
  EXPECT_EQ(v.module, "mod");
  EXPECT_EQ(v.invariant, "broken");
  EXPECT_EQ(v.detail, "details here");
  EXPECT_EQ(v.t, ms(7));
  auditor.clear_violations();
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(InvariantAuditor, RunOneTargetsSingleHook) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  auditor.register_hook("ok", [](AuditScope& s) { s.check(true, "x"); });
  auditor.register_hook("bad", [](AuditScope& s) { s.check(false, "y"); });
  EXPECT_EQ(auditor.run_one("ok", 0), 0u);
  EXPECT_EQ(auditor.run_one("bad", 0), 1u);
}

TEST(InvariantAuditor, UnregisterRemovesHook) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  auditor.register_hook("mod", [](AuditScope& s) { s.check(false, "z"); });
  EXPECT_TRUE(auditor.unregister_hook("mod"));
  EXPECT_FALSE(auditor.unregister_hook("mod"));
  EXPECT_EQ(auditor.run_all(0), 0u);
}

TEST(InvariantAuditorDeathTest, AbortModeAbortsOnViolation) {
  EXPECT_DEATH(
      {
        InvariantAuditor auditor{AuditFailMode::kAbort};
        auditor.register_hook("mod", [](AuditScope& s) {
          s.check(false, "fatal-invariant", "boom");
        });
        auditor.run_all(ms(1));
      },
      "fatal-invariant");
}

// --- event queue / simulator audits ---

TEST(EventQueueAudit, CleanQueuePasses) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  EventQueue q;
  q.push(ms(1), [] {});
  q.push(ms(2), [] {});
  auditor.register_hook("q", [&](AuditScope& s) { q.audit_invariants(s); });
  EXPECT_EQ(auditor.run_all(0), 0u);
}

TEST(EventQueueAudit, DetectsInjectedOutOfOrderEvent) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  EventQueue q;
  q.push(ms(10), [] {});
  (void)q.pop();  // queue's notion of "the past" is now 10ms
  // Inject an event behind the clock, bypassing Simulator::schedule_at's
  // monotonicity guard — exactly the corruption a sharded scheduler bug
  // would produce.
  q.push(ms(5), [] {});
  auditor.register_hook("q", [&](AuditScope& s) { q.audit_invariants(s); });
  EXPECT_GE(auditor.run_all(ms(10)), 1u);
  EXPECT_TRUE(has_violation(auditor, "time-monotonic"));
}

TEST(SimulatorAudit, CleanRunPasses) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  Simulator sim;
  int fired = 0;
  sim.schedule_after(ms(1), [&] { ++fired; });
  sim.schedule_after(ms(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  auditor.register_hook("sim",
                        [&](AuditScope& s) { sim.audit_invariants(s); });
  EXPECT_EQ(auditor.run_all(sim.now()), 0u);
}

// --- Maglev audits ---

BackendPool small_pool() {
  BackendPool pool;
  pool.push_back({0, "s0", make_ipv4(10, 2, 0, 1), 1, true});
  pool.push_back({1, "s1", make_ipv4(10, 2, 0, 2), 1, true});
  pool.push_back({2, "s2", make_ipv4(10, 2, 0, 3), 1, true});
  return pool;
}

TEST(MaglevAudit, HealthyTablePasses) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  const auto pool = small_pool();
  MaglevTable table{127};
  table.build(pool);
  table.shift_slots(0, 0.1);  // audits must hold after α-shifts too
  auditor.register_hook("maglev", [&](AuditScope& s) {
    table.audit_invariants(s, &pool);
  });
  EXPECT_EQ(auditor.run_all(0), 0u);
}

TEST(MaglevAudit, DetectsCorruptedSlotOwner) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  const auto pool = small_pool();
  MaglevTable table{127};
  table.build(pool);
  table.corrupt_slot_for_test(42, BackendId{9999});
  auditor.register_hook("maglev", [&](AuditScope& s) {
    table.audit_invariants(s, &pool);
  });
  EXPECT_GE(auditor.run_all(0), 1u);
  EXPECT_TRUE(has_violation(auditor, "slot-owner-valid"));
}

TEST(MaglevAudit, DetectsEmptySlot) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  const auto pool = small_pool();
  MaglevTable table{127};
  table.build(pool);
  table.corrupt_slot_for_test(7, kNoBackend);
  auditor.register_hook("maglev", [&](AuditScope& s) {
    table.audit_invariants(s, &pool);
  });
  EXPECT_GE(auditor.run_all(0), 1u);
  EXPECT_TRUE(has_violation(auditor, "slot-populated"));
}

TEST(MaglevAudit, DetectsOwnerAbsentFromPool) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  auto pool = small_pool();
  MaglevTable table{127};
  table.build(pool);
  pool.pop_back();  // backend 2 disappears from the pool, table still has it
  auditor.register_hook("maglev", [&](AuditScope& s) {
    table.audit_invariants(s, &pool);
  });
  EXPECT_GE(auditor.run_all(0), 1u);
  EXPECT_TRUE(has_violation(auditor, "slot-owner-in-pool"));
}

// --- conntrack audits ---

TEST(ConntrackAudit, CleanTablePasses) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  ConnTracker ct;
  ct.insert(test_flow(1000), 0, ms(1));
  ct.insert(test_flow(1001), 1, ms(2));
  ct.mark_closing(test_flow(1001), ms(3));
  auditor.register_hook("ct", [&](AuditScope& s) {
    ct.audit_invariants(s, BackendId{2});
  });
  EXPECT_EQ(auditor.run_all(ms(5)), 0u);
}

TEST(ConntrackAudit, DetectsFutureTimestamp) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  ConnTracker ct;
  ct.insert(test_flow(1000), 0, sec(100));  // entry stamped in the future
  auditor.register_hook("ct",
                        [&](AuditScope& s) { ct.audit_invariants(s); });
  EXPECT_GE(auditor.run_all(ms(1)), 1u);
  EXPECT_TRUE(has_violation(auditor, "last-seen-in-past"));
}

TEST(ConntrackAudit, DetectsOutOfPoolBackend) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  ConnTracker ct;
  ct.insert(test_flow(1000), 5, ms(1));  // id 5 with a pool of 2
  auditor.register_hook("ct", [&](AuditScope& s) {
    ct.audit_invariants(s, BackendId{2});
  });
  EXPECT_GE(auditor.run_all(ms(2)), 1u);
  EXPECT_TRUE(has_violation(auditor, "backend-in-pool"));
}

// --- flow-state-table / estimator audits ---

TEST(FlowStateAudit, CleanStatePasses) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  EnsembleTimeout est;
  FlowStateTable table;
  FlowState& state = table.get_or_create(test_flow(1000), ms(1));
  est.on_packet(state.ensemble, ms(1));
  est.on_packet(state.ensemble, ms(2));
  auditor.register_hook("flows", [&](AuditScope& s) {
    table.audit_invariants(s, est.k());
  });
  EXPECT_EQ(auditor.run_all(ms(3)), 0u);
}

TEST(FlowStateAudit, DetectsCorruptedChosenIndex) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  EnsembleTimeout est;
  FlowStateTable table;
  FlowState& state = table.get_or_create(test_flow(1000), ms(1));
  est.on_packet(state.ensemble, ms(1));
  state.ensemble.chosen = 99;  // impossible ladder index
  auditor.register_hook("flows", [&](AuditScope& s) {
    table.audit_invariants(s, est.k());
  });
  EXPECT_GE(auditor.run_all(ms(2)), 1u);
  EXPECT_TRUE(has_violation(auditor, "chosen-in-range"));
}

TEST(FlowStateAudit, DetectsBatchTimerInversion) {
  InvariantAuditor auditor{AuditFailMode::kCollect};
  EnsembleTimeout est;
  FlowStateTable table;
  FlowState& state = table.get_or_create(test_flow(1000), ms(1));
  est.on_packet(state.ensemble, ms(1));
  // Batch allegedly started *after* the last packet — the exact corruption
  // a signed-overflow in SimTime arithmetic would leave behind.
  state.ensemble.per_timeout[0].time_last_batch = ms(9);
  state.ensemble.per_timeout[0].time_last_pkt = ms(3);
  auditor.register_hook("flows", [&](AuditScope& s) {
    table.audit_invariants(s, est.k());
  });
  EXPECT_GE(auditor.run_all(ms(10)), 1u);
  EXPECT_TRUE(has_violation(auditor, "batch-timer-ordered"));
}

// --- state digest primitives ---

TEST(StateDigest, OrderSensitive) {
  StateDigest a, b;
  a.mix(1);
  a.mix(2);
  b.mix(2);
  b.mix(1);
  EXPECT_NE(a.value(), b.value());
}

TEST(StateDigest, DeterministicAndHexFormatted) {
  StateDigest a, b;
  for (std::uint64_t v : {3u, 1u, 4u, 1u, 5u}) {
    a.mix(v);
    b.mix(v);
  }
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(StateDigest, UnorderedCombineIsOrderIndependent) {
  StateDigest e1, e2;
  e1.mix_string("flow-a");
  e2.mix_string("flow-b");

  UnorderedDigest u1, u2;
  u1.add(e1);
  u1.add(e2);
  u2.add(e2);
  u2.add(e1);

  StateDigest a, b;
  u1.mix_into(a);
  u2.mix_into(b);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(u1.count(), 2u);
}

// --- request-record digest (shared by the cluster and sharded rigs) ---

RequestRecord sample_record(int i) {
  RequestRecord r{};
  r.sent_at = us(10) * i;
  r.latency = us(100) + i;
  r.op = KvOp::kGet;
  r.hit = true;
  r.conn_index = i;
  r.flow = {{make_ipv4(10, 0, 0, 1), static_cast<std::uint16_t>(1000 + i)},
            {make_ipv4(10, 1, 0, 1), 80},
            IpProto::kTcp};
  return r;
}

std::uint64_t records_digest(const std::vector<RequestRecord>& records) {
  StateDigest d;
  digest_records(d, records);
  return d.value();
}

TEST(RecordDigest, EveryFieldMovesTheDigest) {
  const std::vector<RequestRecord> base{sample_record(1), sample_record(2)};
  const std::uint64_t ref = records_digest(base);
  EXPECT_EQ(records_digest(base), ref);
  auto with = [&](auto mutate) {
    auto records = base;
    mutate(records[1]);
    return records_digest(records);
  };
  EXPECT_NE(with([](RequestRecord& r) { r.sent_at += 1; }), ref);
  EXPECT_NE(with([](RequestRecord& r) { r.latency += 1; }), ref);
  EXPECT_NE(with([](RequestRecord& r) { r.op = KvOp::kSet; }), ref);
  EXPECT_NE(with([](RequestRecord& r) { r.hit = false; }), ref);
  EXPECT_NE(with([](RequestRecord& r) { r.conn_index += 1; }), ref);
  EXPECT_NE(with([](RequestRecord& r) { r.flow.src.port += 1; }), ref);
}

TEST(RecordDigest, OrderAndCountMatter) {
  const RequestRecord a = sample_record(1);
  const RequestRecord b = sample_record(2);
  EXPECT_NE(records_digest({a, b}), records_digest({b, a}));
  EXPECT_NE(records_digest({a}), records_digest({a, a}));
  // The count is mixed even for an empty stream.
  EXPECT_NE(records_digest({}), StateDigest{}.value());
}

// --- full rig: audits + determinism ---

ClusterRigConfig tiny_rig_config(LbMode mode, std::uint64_t seed) {
  ClusterRigConfig c;
  c.mode = mode;
  c.num_servers = 2;
  c.num_client_hosts = 2;
  c.maglev_table_size = 251;
  c.duration = ms(600);
  c.inject_time = ms(300);
  c.seed = seed;
  return c;
}

TEST(ClusterRigAudit, FullAuditCleanAfterRun) {
  ClusterRig rig(tiny_rig_config(LbMode::kInband, 2022));
  rig.run();
  // kAbort mode: a violation would already have aborted the periodic audit
  // in audit-enabled builds; this asserts the on-demand path stays clean.
  EXPECT_EQ(rig.run_full_audit(), 0u);
  EXPECT_GE(rig.auditor().hook_count(), 5u);
}

TEST(Determinism, SameSeedSameDigest) {
  for (const LbMode mode : {LbMode::kInband, LbMode::kStaticMaglev}) {
    std::uint64_t first = 0;
    {
      ClusterRig rig(tiny_rig_config(mode, 2022));
      rig.run();
      first = rig.state_digest();
    }
    std::uint64_t second = 0;
    {
      ClusterRig rig(tiny_rig_config(mode, 2022));
      rig.run();
      second = rig.state_digest();
    }
    EXPECT_EQ(first, second) << "mode " << lb_mode_name(mode);
  }
}

TEST(Determinism, DifferentSeedDifferentDigest) {
  ClusterRig a(tiny_rig_config(LbMode::kInband, 2022));
  a.run();
  ClusterRig b(tiny_rig_config(LbMode::kInband, 2023));
  b.run();
  EXPECT_NE(a.state_digest(), b.state_digest());
}

}  // namespace
}  // namespace inband
