// Per-flow estimator state store.
//
// Bounded map from FlowKey to EnsembleState with idle aging — the software
// analogue of the per-flow BPF map an XDP load balancer would dedicate to
// the estimator. Entries are created on first packet, refreshed on every
// packet, dropped when the flow is seen closing, and swept when idle too
// long; at capacity the stalest entry is evicted.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/ensemble_timeout.h"
#include "net/flow.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

struct FlowStateTableConfig {
  std::size_t max_entries = 1 << 18;
  SimTime idle_timeout = sec(30);
  SimTime sweep_interval = sec(1);
};

// Everything the policy keeps per flow: the estimator state. (The §5(1)
// far-client floor is per client, not per flow: InbandLbPolicy keeps it.)
struct FlowState {
  EnsembleState ensemble;
};

INBAND_SHARD_LOCAL(lb)
class FlowStateTable {
 public:
  explicit FlowStateTable(FlowStateTableConfig config = {});

  // State for `flow`, creating it if absent; refreshes last-seen.
  FlowState& get_or_create(const FlowKey& flow, SimTime now);

  // Drops the flow's state (e.g. FIN observed). No-op when absent.
  void erase(const FlowKey& flow);

  // Amortized cleanup; cheap to call per packet.
  void maybe_sweep(SimTime now);

  std::size_t size() const { return map_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

  // Invariant audit: capacity/liveness bounds for the table itself plus the
  // estimator-state sanity of every entry against ladder size
  // `expected_k` (the owning policy passes EnsembleTimeout::k()).
  void audit_invariants(AuditScope& scope, std::size_t expected_k) const;

  // Order-independent digest of all per-flow state plus counters.
  void digest_state(StateDigest& digest) const;

 private:
  struct Entry {
    FlowState state;
    SimTime last_seen = kNoTime;
  };

  // Lazy min-heap record over (last_seen, flow). Every refresh pushes a new
  // record; eviction pops records until one still matches its entry's
  // current last_seen. Stale records (the flow was refreshed, erased, or
  // expired since the push) are skipped, which makes evict_stalest()
  // amortized O(log n) instead of the former O(n) scan — the scan degraded
  // to O(n²) total under the SYN-flood scenarios that churn the table at
  // capacity. The victim is identical to the scan's: the live minimum of
  // (last_seen, flow key).
  struct EvictRecord {
    SimTime last_seen;
    FlowKey flow;
  };
  struct EvictGreater {
    bool operator()(const EvictRecord& a, const EvictRecord& b) const {
      if (a.last_seen != b.last_seen) return a.last_seen > b.last_seen;
      return b.flow < a.flow;
    }
  };

  void evict_stalest();
  void push_evict_record(const FlowKey& flow, SimTime last_seen);
  void compact_evict_index();
  std::size_t evict_index_limit() const { return 2 * map_.size() + 64; }

  FlowStateTableConfig config_;
  std::unordered_map<FlowKey, Entry, FlowKeyHash> map_;
  std::vector<EvictRecord> evict_index_;  // min-heap via EvictGreater
  SimTime last_sweep_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace inband
