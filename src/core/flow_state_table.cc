#include "core/flow_state_table.h"

#include <algorithm>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/sorted_view.h"

namespace inband {

FlowStateTable::FlowStateTable(FlowStateTableConfig config)
    : config_{config} {
  INBAND_ASSERT(config_.max_entries > 0);
}

FlowState& FlowStateTable::get_or_create(const FlowKey& flow, SimTime now) {
  auto it = map_.find(flow);
  if (it == map_.end()) {
    if (map_.size() >= config_.max_entries) evict_stalest();
    // hotlint:allow(hot-growth): flow admission, bounded by max_entries
    it = map_.emplace(flow, Entry{}).first;
    it->second.last_seen = now;
    push_evict_record(flow, now);
  } else if (it->second.last_seen != now) {
    it->second.last_seen = now;
    push_evict_record(flow, now);
  }
  return it->second.state;
}

void FlowStateTable::erase(const FlowKey& flow) {
  map_.erase(flow);
  if (evict_index_.size() > evict_index_limit()) compact_evict_index();
}

void FlowStateTable::push_evict_record(const FlowKey& flow,
                                       SimTime last_seen) {
  // hotlint:allow(hot-growth): capacity retained across compactions (below)
  evict_index_.push_back({last_seen, flow});
  std::push_heap(evict_index_.begin(), evict_index_.end(), EvictGreater{});
  // Refreshes leave the flow's previous record behind as garbage; compact
  // in place once garbage dominates. The bound keeps the index linear in
  // the live table and the rebuild amortized O(1) per refresh; clear()
  // retains capacity, so steady-state churn never touches the allocator.
  if (evict_index_.size() > evict_index_limit()) compact_evict_index();
}

void FlowStateTable::compact_evict_index() {
  evict_index_.clear();
  // detlint:allow(unordered-iter): refills the heap from all live entries; make_heap orders by value, independent of visit order
  for (const auto& [flow, entry] : map_) {
    // hotlint:allow(hot-growth): refill after clear(); capacity retained
    evict_index_.push_back({entry.last_seen, flow});
  }
  std::make_heap(evict_index_.begin(), evict_index_.end(), EvictGreater{});
}

void FlowStateTable::evict_stalest() {
  // Ties on last_seen break on the flow key, never on hash-table position,
  // so the evicted entry is reproducible run to run.
  while (!evict_index_.empty()) {
    std::pop_heap(evict_index_.begin(), evict_index_.end(), EvictGreater{});
    const EvictRecord rec = evict_index_.back();
    evict_index_.pop_back();
    auto it = map_.find(rec.flow);
    // A record is live only while it matches the entry's current last_seen;
    // anything else is a leftover from a refresh, erase, or expiry.
    if (it == map_.end() || it->second.last_seen != rec.last_seen) continue;
    map_.erase(it);
    ++evictions_;
    return;
  }
  // Every live entry's current record is in the index, so running dry means
  // the table itself is empty and there is nothing to evict.
  INBAND_ASSERT(map_.empty(), "evict index lost a live entry");
}

void FlowStateTable::maybe_sweep(SimTime now) {
  if (now - last_sweep_ < config_.sweep_interval) return;
  last_sweep_ = now;
  // detlint:allow(unordered-iter): erases the idle subset; expiry is decided per entry, independent of visit order
  for (auto it = map_.begin(); it != map_.end();) {
    if (now - it->second.last_seen >= config_.idle_timeout) {
      it = map_.erase(it);
      ++expirations_;
    } else {
      ++it;
    }
  }
  if (evict_index_.size() > evict_index_limit()) compact_evict_index();
}

void FlowStateTable::audit_invariants(AuditScope& scope,
                                      std::size_t expected_k) const {
  const SimTime now = scope.now();
  scope.check(map_.size() <= config_.max_entries, "capacity-bound",
              "flow state table exceeds max_entries");
  scope.check(last_sweep_ <= now, "sweep-clock-sane");
  scope.check(evict_index_.size() <= evict_index_limit(),
              "evict-index-bounded",
              "eviction index grew past its compaction bound");
  const auto rec_less = [](const EvictRecord& a, const EvictRecord& b) {
    if (a.last_seen != b.last_seen) return a.last_seen < b.last_seen;
    return a.flow < b.flow;
  };
  std::vector<EvictRecord> records{evict_index_.begin(), evict_index_.end()};
  std::sort(records.begin(), records.end(), rec_less);
  // Sorted snapshot: audit failure messages come out in flow-key order.
  for (const auto* e : sorted_entries(map_)) {
    const auto& [flow, entry] = *e;
    scope.check(entry.last_seen != kNoTime && entry.last_seen <= now,
                "last-seen-in-past", format_flow(flow));
    scope.check(std::binary_search(records.begin(), records.end(),
                                   EvictRecord{entry.last_seen, flow},
                                   rec_less),
                "evict-index-covers-live", format_flow(flow));
    EnsembleTimeout::audit_state(entry.state.ensemble, expected_k, scope);
  }
}

void FlowStateTable::digest_state(StateDigest& digest) const {
  UnorderedDigest entries;
  // detlint:allow(unordered-iter): per-entry digests fold through the commutative UnorderedDigest combiner
  for (const auto& [flow, entry] : map_) {
    StateDigest e;
    e.mix(hash_flow(flow));
    e.mix_i64(entry.last_seen);
    // Constant kNoTime in the slot of a per-flow floor that was never set:
    // it keeps every pinned digest valid.
    e.mix_i64(kNoTime);
    EnsembleTimeout::digest_state(entry.state.ensemble, e);
    entries.add(e);
  }
  entries.mix_into(digest);
  digest.mix(evictions_);
  digest.mix(expirations_);
  digest.mix_i64(last_sweep_);
}

}  // namespace inband
