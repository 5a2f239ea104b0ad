// Sharded parallel composition of ClusterRigs.
//
// The topology is partitioned exactly along the ownership boundary shardlint
// proves and commits (tools/detlint/partition_src.json): one shard = one
// ClusterRig = one LB tier plus its servers and clients, with a private
// Simulator/EventQueue/Network of its own. Shards are arranged in a ring and
// coupled by real cross-shard traffic: each shard hosts `remote clients`
// whose requests target the *next* shard's VIP, so requests flow around the
// ring one way and direct-server-return responses flow back the other way.
//
// Cross-shard packets travel over ShardChannels (net/shard_channel.h) with a
// fixed positive latency — the conservative lookahead — and the shards are
// driven by run_shard_programs() (sim/parallel.h) on 1..N worker threads.
// Per-shard execution order is a pure function of the inputs (the merge rule
// in ShardExecutor), so per-shard digests are bit-identical across worker
// counts and scheduling seeds; the combined digest folds the per-shard
// digests commutatively so it is independent of shard enumeration order too.
//
// With one shard and one worker the rig degenerates to a plain ClusterRig
// driven step-by-step on the calling thread — the oracle path, pinned
// against ClusterRig::run()'s digest in tests/test_parallel.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/shard_channel.h"
#include "scenario/cluster_rig.h"
#include "sim/parallel.h"
#include "util/shard.h"

namespace inband {

class ShardExecutor;

struct ShardedRigConfig {
  int num_shards = 2;
  // Worker threads for the parallel drive; 1 = inline on the caller (oracle).
  int workers = 1;
  // != 0 permutes the shard->worker placement; results must not change.
  std::uint64_t sched_seed = 0;

  // Per-shard template. addr_base, seed, and install_log_clock are
  // overridden per shard: shard s runs at addr_base = s and
  // seed = shard.seed + 1000 * s (so shard 0 matches the template exactly
  // and the S=1 rig is digest-identical to a plain ClusterRig).
  ClusterRigConfig shard;

  // One-way latency of every cross-shard trunk: the conservative lookahead.
  // Must be positive — zero would stall the protocol (sim/parallel.h).
  SimTime cross_latency = us(200);

  // Remote clients hosted on each shard, targeting the next shard's VIP
  // (round-robin over its LBs). 0 decouples the shards entirely. With
  // num_shards == 1 the "remote" path is wired as ordinary local links of
  // the same latency — no channels, same workload shape.
  int remote_clients_per_shard = 1;
  KvClientConfig remote_client;  // server endpoint + seed filled by the rig
};

INBAND_SHARD_LOCAL(owner)
class ShardedRig {
 public:
  explicit ShardedRig(ShardedRigConfig config);
  ~ShardedRig();

  // start()s every shard, drives them in parallel to shard.duration under
  // the conservative protocol, then finish()es them. Main thread only.
  void run();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  ClusterRig& shard(int s) { return *shards_[static_cast<std::size_t>(s)].rig; }

  int num_remote_clients(int s) const {
    return static_cast<int>(shards_[static_cast<std::size_t>(s)].remote.size());
  }
  KvClient& remote_client(int s, int i);
  const std::vector<RequestRecord>& remote_records(int s) const {
    return shards_[static_cast<std::size_t>(s)].remote_records;
  }

  // Everything that must be bit-identical across worker counts for shard s:
  // the ClusterRig digest plus the remote-client stacks, remote records, and
  // the shard's cross-traffic counters.
  std::uint64_t shard_digest(int s);

  // Order-independent fold of the per-shard digests (each finalized with its
  // shard index so permuting shard state cannot cancel out).
  std::uint64_t combined_digest();

  // Total packets handed to ShardChannels across all trunks.
  std::uint64_t cross_packets() const;
  // Completed requests across all shards, local + remote.
  std::uint64_t total_records() const;

  const ShardedRigConfig& config() const { return config_; }

 private:
  struct Shard {
    std::unique_ptr<ClusterRig> rig;
    struct Remote {
      std::unique_ptr<TcpHost> host;
      std::unique_ptr<KvClient> client;
    };
    std::vector<Remote> remote;
    std::vector<RequestRecord> remote_records;
    std::unique_ptr<ShardExecutor> exec;
  };

  std::vector<Shard> shards_;
  // channels_[2s] carries shard s's requests forward to shard (s+1) % S;
  // channels_[2s+1] carries shard s's responses back to shard (s-1+S) % S.
  // Empty when num_shards == 1.
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  ShardedRigConfig config_;
  bool ran_ = false;
};

}  // namespace inband
