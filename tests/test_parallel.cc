// Tests for the sharded parallel simulation: the SPSC transport, the
// cross-shard channel's conservative horizon semantics, the worker pool, and
// — the heart of the PR — digest invariance of ShardedRig across worker
// counts and scheduling seeds, with the single-threaded ClusterRig as oracle.
//
// The invariance suites run under TSan in CI (the parallel-rig job): the
// digest equalities prove determinism, TSan proves the absence of data races
// while the workers genuinely interleave.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "app/message.h"
#include "dataplane_rig.h"
#include "fault/fault_plan.h"
#include "net/shard_channel.h"
#include "scenario/cluster_rig.h"
#include "scenario/sharded_rig.h"
#include "sim/parallel.h"
#include "util/spsc_queue.h"

namespace inband {
namespace {

// ---------------------------------------------------------------- SpscQueue

TEST(SpscQueue, FifoAcrossChunkBoundaries) {
  SpscQueue<int> q;
  const int n = 1000;  // spans many 64-slot chunks
  int next_expected = 0;
  for (int i = 0; i < n; ++i) {
    q.push(i);
    // Drain in a staggered pattern so head and tail straddle chunk edges.
    if (i % 3 == 0) {
      const int* head = q.peek();
      ASSERT_NE(head, nullptr);
      EXPECT_EQ(*head, next_expected);
      q.consume();
      ++next_expected;
    }
    if (i % 128 == 0) q.reclaim();
  }
  while (next_expected < n) {
    const int* head = q.peek();
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(*head, next_expected);
    q.consume();
    ++next_expected;
  }
  EXPECT_EQ(q.peek(), nullptr);
  q.reclaim();
  EXPECT_EQ(q.pushed(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(q.consumed(), static_cast<std::uint64_t>(n));
}

TEST(SpscQueue, ExactChunkMultipleDrainAndReclaim) {
  // Push exactly k * kChunkCap, consume everything, reclaim everything:
  // the reclaim walk must stop cleanly at the chain's end.
  SpscQueue<int> q;
  const int n = static_cast<int>(SpscQueue<int>::kChunkCap) * 3;
  for (int i = 0; i < n; ++i) q.push(i);
  for (int i = 0; i < n; ++i) {
    const int* head = q.peek();
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(*head, i);
    q.consume();
  }
  q.reclaim();
  EXPECT_EQ(q.peek(), nullptr);
  // The queue must keep working after a full drain.
  q.push(7777);
  const int* head = q.peek();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, 7777);
  q.consume();
  q.reclaim();
}

TEST(SpscQueue, TwoThreadStressKeepsOrder) {
  // Producer and consumer race for real; TSan vets the memory ordering.
  SpscQueue<std::uint64_t> q;
  constexpr std::uint64_t kCount = 200'000;
  std::thread producer{[&q] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      q.push(i);
      if (i % 512 == 0) q.reclaim();
    }
  }};
  std::uint64_t expected = 0;
  while (expected < kCount) {
    const std::uint64_t* head = q.peek();
    if (head == nullptr) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(*head, expected);
    q.consume();
    ++expected;
  }
  producer.join();
  q.reclaim();
  EXPECT_EQ(q.pushed(), kCount);
  EXPECT_EQ(q.consumed(), kCount);
}

// -------------------------------------------------------------- ShardChannel

Packet make_kv_packet(std::uint64_t msg_id) {
  Packet p;
  p.seq = 42;
  p.payload_len = 100;
  auto msg = std::make_shared<KvMessage>();
  msg->id = msg_id;
  msg->op = KvOp::kSet;
  msg->value_len = 64;
  p.msgs.push_msg(MessageRef{100, std::move(msg)});
  return p;
}

TEST(ShardChannel, LowerBoundTracksHorizonWhenEmpty) {
  ShardChannel ch{0, us(100)};
  EXPECT_EQ(ch.lower_bound(), 0);  // nothing announced yet: no promise
  ch.announce(us(50));
  EXPECT_EQ(ch.lower_bound(), us(150));
  ch.announce(us(40));  // horizons never regress
  EXPECT_EQ(ch.lower_bound(), us(150));
  ch.announce(us(400));
  EXPECT_EQ(ch.lower_bound(), us(500));
}

TEST(ShardChannel, HeadDeliveryTimeBeatsHorizon) {
  ShardChannel ch{1, us(100)};
  ch.announce(us(200));  // horizon us(300)
  ch.push(us(200), /*from=*/1, /*to=*/2, make_kv_packet(9));
  EXPECT_EQ(ch.lower_bound(), us(300));  // head deliver_at = 200 + L
  ASSERT_NE(ch.peek(), nullptr);
  EXPECT_EQ(ch.peek()->deliver_at, us(300));

  SimTime at = 0;
  Ipv4 from = 0;
  Ipv4 to = 0;
  const Packet got = ch.take_detached(&at, &from, &to);
  EXPECT_EQ(at, us(300));
  EXPECT_EQ(from, 1u);
  EXPECT_EQ(to, 2u);
  EXPECT_EQ(got.seq, 42u);
  // Empty again: back to the announced horizon.
  EXPECT_EQ(ch.lower_bound(), us(300));
  EXPECT_EQ(ch.pushed(), 1u);
  EXPECT_EQ(ch.consumed_count(), 1u);
}

TEST(ShardChannel, TakeDetachedDeepCopiesMessagePayloads) {
  ShardChannel ch{2, us(10)};
  Packet original = make_kv_packet(1234);
  const AppPayload* original_payload = original.msgs.begin()->payload.get();
  ch.push(us(5), 1, 2, original);

  SimTime at = 0;
  Ipv4 from = 0;
  Ipv4 to = 0;
  const Packet got = ch.take_detached(&at, &from, &to);
  ASSERT_EQ(static_cast<int>(got.msgs.size()), 1);
  const auto* kv = dynamic_cast<const KvMessage*>(got.msgs.begin()->payload.get());
  ASSERT_NE(kv, nullptr);
  EXPECT_EQ(kv->id, 1234u);
  EXPECT_EQ(kv->op, KvOp::kSet);
  // Fresh ownership: the detached copy must not alias the producer's payload.
  EXPECT_NE(got.msgs.begin()->payload.get(), original_payload);
  ch.announce(us(100));  // reclaims the consumed slot, producer-side
}

// ----------------------------------------------------------- run_shard_programs

// Toy program: counts to `target` in increments, no channels involved.
class CountingProgram : public ShardProgram {
 public:
  explicit CountingProgram(int target) : target_{target} {}
  bool advance() override {
    if (count_ >= target_) return false;
    ++count_;
    return true;
  }
  void publish() override { ++publishes_; }
  bool done() const override { return count_ >= target_; }
  int count() const { return count_; }
  int publishes() const { return publishes_; }

 private:
  const int target_;
  int count_ = 0;
  int publishes_ = 0;
};

TEST(RunShardPrograms, DrivesEveryProgramToCompletion) {
  for (const int workers : {1, 2, 3, 8}) {
    std::vector<CountingProgram> progs;
    for (int i = 0; i < 5; ++i) progs.emplace_back(100 + i);
    std::vector<ShardProgram*> ptrs;
    for (auto& p : progs) ptrs.push_back(&p);
    run_shard_programs(ptrs, workers,
                       /*sched_seed=*/static_cast<std::uint64_t>(workers));
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(progs[static_cast<std::size_t>(i)].count(), 100 + i)
          << "workers=" << workers;
      EXPECT_GT(progs[static_cast<std::size_t>(i)].publishes(), 0)
          << "workers=" << workers;
    }
  }
}

// ---------------------------------------------------------------- ShardedRig

// A scaled-down sharded topology for the invariance sweeps.
ShardedRigConfig sharded_config(int shards, int workers,
                                std::uint64_t sched_seed) {
  ShardedRigConfig cfg;
  cfg.num_shards = shards;
  cfg.workers = workers;
  cfg.sched_seed = sched_seed;
  cfg.shard = dataplane_rig_config(2, 2, ms(400));
  cfg.cross_latency = us(200);
  cfg.remote_clients_per_shard = 1;
  cfg.remote_client.connections = 2;
  cfg.remote_client.pipeline = 2;
  cfg.remote_client.requests_per_conn = 50;
  return cfg;
}

struct ShardedResult {
  std::vector<std::uint64_t> shard_digests;
  std::uint64_t combined = 0;
  std::uint64_t cross_packets = 0;
  std::uint64_t records = 0;
};

ShardedResult run_sharded(const ShardedRigConfig& cfg) {
  ShardedRig rig{cfg};
  rig.run();
  ShardedResult r;
  for (int s = 0; s < rig.num_shards(); ++s) {
    r.shard_digests.push_back(rig.shard_digest(s));
    EXPECT_FALSE(rig.remote_records(s).empty())
        << "shard " << s << " saw no cross-shard request completions";
  }
  r.combined = rig.combined_digest();
  r.cross_packets = rig.cross_packets();
  r.records = rig.total_records();
  return r;
}

TEST(ShardedRig, SingleShardOneWorkerMatchesClusterRigQuickDigest) {
  // The oracle identity: S=1, W=1, no remote clients is a plain ClusterRig
  // driven step-by-step, and must land on the pinned quick digest
  // (tests/test_core.cc QuickRigDigestPinnedAcrossRefactor).
  ShardedRigConfig cfg;
  cfg.num_shards = 1;
  cfg.workers = 1;
  cfg.shard = dataplane_rig_config(2, 2, ms(400));
  cfg.remote_clients_per_shard = 0;
  ShardedRig rig{cfg};
  rig.run();
  EXPECT_EQ(rig.shard(0).state_digest(), 0x082ea340888d2502ULL);

  ClusterRig oracle{dataplane_rig_config(2, 2, ms(400))};
  oracle.run();
  EXPECT_EQ(rig.shard(0).state_digest(), oracle.state_digest());
  EXPECT_EQ(rig.shard(0).records().size(), oracle.records().size());
}

TEST(ShardedRig, SingleShardOneWorkerMatchesFullRigDigest) {
  // The full reference rig (seed 2022, 3000 ms, 4 servers, 4 client hosts)
  // digest, reproduced through the sharded path.
  ShardedRigConfig cfg;
  cfg.num_shards = 1;
  cfg.workers = 1;
  cfg.shard = dataplane_rig_config(4, 4, ms(3000));
  cfg.remote_clients_per_shard = 0;
  ShardedRig rig{cfg};
  rig.run();
  EXPECT_EQ(rig.shard(0).state_digest(), 0x835cb5c66c29867aULL);
}

TEST(ShardedRig, DigestsInvariantAcrossWorkerCountsAndSchedSeeds) {
  // The tentpole claim: per-shard digests (and their order-independent
  // fold) are a pure function of the configuration — worker count and
  // placement shuffle affect wall-clock only.
  const ShardedResult oracle = run_sharded(sharded_config(4, 1, 0));
  ASSERT_EQ(oracle.shard_digests.size(), 4u);
  EXPECT_GT(oracle.cross_packets, 0u);
  EXPECT_GT(oracle.records, 0u);

  struct Case {
    int workers;
    std::uint64_t sched_seed;
  };
  const Case cases[] = {{2, 0}, {4, 0}, {8, 0}, {4, 1}, {4, 0xfeedULL}};
  for (const Case& c : cases) {
    const ShardedResult got =
        run_sharded(sharded_config(4, c.workers, c.sched_seed));
    EXPECT_EQ(got.shard_digests, oracle.shard_digests)
        << "workers=" << c.workers << " sched_seed=" << c.sched_seed;
    EXPECT_EQ(got.combined, oracle.combined)
        << "workers=" << c.workers << " sched_seed=" << c.sched_seed;
    EXPECT_EQ(got.cross_packets, oracle.cross_packets);
    EXPECT_EQ(got.records, oracle.records);
  }
}

TEST(ShardedRig, CombinedDigestPinned) {
  // Pin the combined digest of the reference sharded topology, the parallel
  // analogue of the ClusterRig digest pins: any change to the merge rule,
  // the channel protocol, the address plan, or shard seeding moves this.
  const ShardedResult got = run_sharded(sharded_config(4, 2, 0));
  EXPECT_EQ(got.combined, 0x9ebf4e9b9cb381f7ULL);

  // Two more sizes of the same topology: 4 shards x 300 ms and 8 x 1000 ms.
  struct Case {
    int shards;
    SimTime duration;
    std::uint64_t combined;
  };
  const Case cases[] = {{4, ms(300), 0x6cef37c99adf15f9ULL},
                        {8, ms(1000), 0xadd97dd3802f3b89ULL}};
  for (const Case& c : cases) {
    ShardedRigConfig cfg = sharded_config(c.shards, 4, 0);
    cfg.shard.duration = c.duration;
    cfg.shard.inject_time = c.duration / 2;
    EXPECT_EQ(run_sharded(cfg).combined, c.combined)
        << "shards=" << c.shards;
  }
}

TEST(ShardedRig, FaultPlanDeterministicAcrossWorkerCounts) {
  // Per-shard fault injector streams (PR 8's seed-derived RNG streams) must
  // keep digests worker-count-invariant with the fault layer active.
  ShardedRigConfig cfg = sharded_config(2, 1, 0);
  cfg.shard.duration = ms(200);
  cfg.shard.inject_time = ms(100);
  cfg.shard.fault = make_noise_plan(0.01, 0.01, 0.002, us(20));
  const ShardedResult a = run_sharded(cfg);
  cfg.workers = 4;
  cfg.sched_seed = 0x5eedULL;
  const ShardedResult b = run_sharded(cfg);
  EXPECT_EQ(a.shard_digests, b.shard_digests);
  EXPECT_EQ(a.combined, b.combined);
}

TEST(ShardedRig, SingleShardRemoteClientsUseLocalLinks) {
  // S=1 keeps the remote-client workload but wires it over ordinary local
  // links — no channels, no threads — and must still be reproducible.
  ShardedRigConfig cfg;
  cfg.num_shards = 1;
  cfg.workers = 1;
  cfg.shard = dataplane_rig_config(2, 2, ms(200));
  cfg.remote_clients_per_shard = 2;
  cfg.remote_client.connections = 2;
  cfg.remote_client.pipeline = 2;
  ShardedRig a{cfg};
  a.run();
  EXPECT_FALSE(a.remote_records(0).empty());
  EXPECT_EQ(a.cross_packets(), 0u);  // local links, not channels
  ShardedRig b{cfg};
  b.run();
  EXPECT_EQ(a.combined_digest(), b.combined_digest());
}

}  // namespace
}  // namespace inband
