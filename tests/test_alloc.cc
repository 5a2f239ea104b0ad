// Allocation-count assertions for the dataplane hot paths.
//
// This binary links util/alloc_counter.cc (global operator new/delete
// replacements), so every heap allocation in the process is counted. The
// tests warm a hot path up to its steady state, snapshot the counter, run
// many more iterations, and require the delta to be exactly zero — the
// acceptance bar for the slab event pool and the eviction-index flow table.
// Under sanitizers the replacement operators are compiled out (the sanitizer
// runtime owns those symbols) and the tests skip.
#include <gtest/gtest.h>

#include <execinfo.h>

#include <cstdint>

#include "core/inband_lb_policy.h"
#include "dataplane_rig.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "scenario/cluster_rig.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/alloc_counter.h"
#include "util/time.h"

namespace inband {
namespace {

#define SKIP_UNLESS_COUNTING()                                        \
  if (!allocs::counting_enabled()) {                                  \
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)"; \
  }

// Stand-in for the dominant event payload: a link-delivery closure carrying
// a Packet by value.
struct FakeDelivery {
  Packet packet;
  std::uint64_t* fired;
  void operator()() { ++*fired; }
};

TEST(AllocFree, EventQueueSteadyStatePushPop) {
  SKIP_UNLESS_COUNTING();
  EventQueue q;
  std::uint64_t fired = 0;
  SimTime t = 0;
  const auto push_one = [&](SimTime at) {
    Packet pkt;
    pkt.payload_len = 100;
    q.push(at, FakeDelivery{std::move(pkt), &fired});
  };
  for (int i = 0; i < 128; ++i) push_one(t + i);
  // Warm-up: lets the pool and the pending heap reach their capacity
  // high-water marks.
  for (int i = 0; i < 300000; ++i) {
    t = q.fire_next([](SimTime) {});
    push_one(t + 128);
  }
  const auto before = allocs::snapshot();
  for (int i = 0; i < 100000; ++i) {
    t = q.fire_next([](SimTime) {});
    push_one(t + 128);
  }
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_EQ(delta.count, 0u) << delta.bytes << " bytes allocated";
  EXPECT_EQ(fired, 400000u);
}

TEST(AllocFree, EventQueueCancelRecycle) {
  SKIP_UNLESS_COUNTING();
  EventQueue q;
  std::uint64_t fired = 0;
  SimTime t = 0;
  EventId pending = kInvalidEventId;
  const auto cycle = [&] {
    // Schedule a "timeout", cancel it (the common TCP pattern: the ACK
    // arrives first), and fire one real event.
    Packet pkt;
    const EventId timeout = q.push(t + 1000, FakeDelivery{std::move(pkt), &fired});
    if (pending != kInvalidEventId) q.cancel(pending);
    pending = timeout;
    Packet pkt2;
    q.push(t + 10, FakeDelivery{std::move(pkt2), &fired});
    t = q.fire_next([](SimTime) {});
  };
  // Warm-up: lets the pool and the pending heap, tombstones included,
  // reach their capacity high-water marks. cancel()'s compaction bounds
  // the heap's mark.
  for (int i = 0; i < 60000; ++i) cycle();
  const auto before = allocs::snapshot();
  for (int i = 0; i < 100000; ++i) cycle();
  EXPECT_EQ(allocs::delta(before, allocs::snapshot()).count, 0u);
}

TEST(AllocFree, SimulatorSelfReschedulingChain) {
  SKIP_UNLESS_COUNTING();
  Simulator sim;
  std::uint64_t ticks = 0;
  struct Tick {
    Simulator* sim;
    std::uint64_t* ticks;
    void operator()() {
      ++*ticks;
      sim->schedule_after(us(5), Tick{sim, ticks});
    }
  };
  sim.schedule_at(0, Tick{&sim, &ticks});
  for (int i = 0; i < 1000; ++i) sim.step();
  const auto before = allocs::snapshot();
  for (int i = 0; i < 100000; ++i) sim.step();
  EXPECT_EQ(allocs::delta(before, allocs::snapshot()).count, 0u);
  EXPECT_EQ(ticks, 101000u);
}

TEST(AllocFree, InbandPolicySteadyStatePacketLoop) {
  SKIP_UNLESS_COUNTING();
  BackendPool pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back({static_cast<BackendId>(i), "backend" + std::to_string(i),
                    make_ipv4(10, 2, 0, static_cast<std::uint8_t>(1 + i)), 1,
                    true});
  }
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 65537;
  InbandLbPolicy policy{pool, cfg};
  Packet pkt;
  pkt.payload_len = 100;
  const auto flow_n = [](std::uint32_t n) {
    return FlowKey{{make_ipv4(10, 0, 0, 1 + (n & 0x3f)),
                    static_cast<std::uint16_t>(1024 + (n % 50000))},
                   {make_ipv4(10, 1, 0, 1), 80},
                   IpProto::kTcp};
  };
  SimTime t = 0;
  std::uint32_t i = 0;
  const auto one_packet = [&] {
    ++i;
    t += us(5);
    pkt.flow = flow_n(i % 64);
    policy.on_packet(pkt, i % 8, t, false);
  };
  // Warm-up: flow table filled, estimator ladders built, tracker windows
  // and controller scratch at capacity, at least one sweep and eviction
  // index compaction behind us (64 flows * 5us spans several sweep
  // intervals over 400k packets = 2s simulated).
  for (int n = 0; n < 400000; ++n) one_packet();
  const auto before = allocs::snapshot();
  for (int n = 0; n < 200000; ++n) one_packet();
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_EQ(delta.count, 0u) << delta.bytes << " bytes allocated";
}

TEST(AllocFree, PacketPoolSteadyStateAcquireRelease) {
  SKIP_UNLESS_COUNTING();
  PacketPool pool;
  // Warm-up: force one slab and cycle a batch through it once.
  {
    PacketBatch batch;
    while (!batch.full()) batch.push(pool.acquire());
  }
  const auto before = allocs::snapshot();
  for (int n = 0; n < 100000; ++n) {
    PacketBatch batch;
    while (!batch.full()) {
      PacketRef ref = pool.acquire();
      ref->payload_len = 100;
      batch.push(std::move(ref));
    }
    // Refs die with the batch; slots recycle through the freelist.
  }
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_EQ(delta.count, 0u) << delta.bytes << " bytes allocated";
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

// The acceptance bar for the batch redesign: the whole fig-3 rig — clients,
// LB (conntrack + in-band policy), servers, TCP both ways, links — runs a
// steady-state window without touching the allocator at all. Churn sources
// are configured off (no connection churn, no share sampling, no periodic
// audit, saturated keyspace so the KV store stops inserting) and the
// record vector is pre-reserved; everything that remains per packet must
// come from recycled pools.
TEST(AllocFree, Fig3RigSteadyStateZeroAllocs) {
  SKIP_UNLESS_COUNTING();
  ClusterRigConfig cfg;
  cfg.duration = ms(600);
  cfg.inject_time = ms(100);
  cfg.inject_extra = us(200);
  cfg.share_sample_interval = 0;  // sampler allocates a share vector per tick
  cfg.audit_interval = 0;         // audit scratch is not steady-state
  cfg.client.connections = 2;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 0;  // no connection churn
  cfg.client.keyspace = 16;          // saturates quickly: store_ stops growing
  cfg.client.value_len = 64;
  cfg.reserve_records = 1 << 20;
  ClusterRig rig{cfg};

  rig.start();
  // Warm-up: handshakes done, store_ fully populated, pools / rings /
  // hash tables at their high-water marks, delay injection behind us.
  rig.run_until(ms(300));
  // Any allocation inside the window is a failure; print where it came
  // from. backtrace() itself may allocate on first use (libgcc init), so
  // prime it before arming the hook.
  {
    void* prime[4];
    backtrace(prime, 4);
  }
  allocs::set_alloc_hook(+[](std::size_t bytes) {
    void* frames[16];
    const int n = backtrace(frames, 16);
    fprintf(stderr, "steady-state allocation of %zu bytes at:\n", bytes);
    backtrace_symbols_fd(frames, n, 2);
  });
  const auto before = allocs::snapshot();
  rig.run_until(ms(550));
  const auto delta = allocs::delta(before, allocs::snapshot());
  allocs::set_alloc_hook(nullptr);
  rig.finish();

  const auto stats = rig.net().stats();
  EXPECT_GT(stats.packets_sent, 10000u);
  EXPECT_EQ(delta.count, 0u)
      << delta.bytes << " bytes allocated across "
      << stats.packets_sent << " packets";
  EXPECT_GT(stats.pool.high_water, 0u);
}

// The whole-run budget, churn included: the quick reference rig (connection
// set-up and teardown, share sampling, delay injection) counted over run()
// alone. 0.0876 per packet is the rig's recorded allocation baseline (24831
// allocations over 283402 packets sent). The slack is tools/perfcmp's rule
// for allocation metrics: 10% relative (ALLOC_SLACK) plus 0.01 absolute
// (ALLOC_EPSILON).
TEST(AllocFree, QuickRigWholeRunAllocsPerPacketBounded) {
  SKIP_UNLESS_COUNTING();
  ClusterRig rig{dataplane_rig_config(2, 2, ms(400))};
  const auto before = allocs::snapshot();
  rig.run();
  const auto delta = allocs::delta(before, allocs::snapshot());
  const auto packets = rig.net().stats().packets_sent;
  ASSERT_GT(packets, 0u);
  const double per_packet =
      static_cast<double>(delta.count) / static_cast<double>(packets);
  EXPECT_LE(per_packet, 0.0876 * 1.10 + 0.01)
      << delta.count << " allocations over " << packets << " packets";
}

}  // namespace
}  // namespace inband
