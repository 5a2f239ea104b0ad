#include "sim/event_queue.h"

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

EventQueue::EventQueue() {
  heap_keys_.reserve(kHeapReserve);
  heap_payload_.reserve(kHeapReserve);
}

std::uint32_t EventQueue::alloc_slot_slow() {
  INBAND_COLD_OK("slab growth: one chunk per kSlotsPerChunk slots; steady "
                 "state recycles freed slots and never lands here");
  if (slot_count_ % kSlotsPerChunk == 0) {
    INBAND_ASSERT(slot_count_ < kNullSlot - kSlotsPerChunk,
                  "event pool exhausted");
    chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
  }
  return slot_count_++;
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const std::uint32_t index = slot_of(id);
  if (index >= slot_count_) return false;
  Slot& s = slot_ref(index);
  if (s.gen != gen_of(id) || !s.callback) return false;
  s.callback.reset();
  retire_handle(s);  // the heap entry is now a tombstone, skipped at pop
  recycle_slot(index, s);
  INBAND_ASSERT(live_ > 0);
  --live_;
  // A cancelled event stays behind as a tombstone until it reaches the top
  // of the heap, where popping it costs a full O(log n) sift. Once the
  // tombstones make up a quarter of the heap, rebuild it without them
  // instead: O(n) for n/4 tombstones, so amortized O(1) per cancel. This
  // also bounds the heap at 4/3 of its live occupancy plus the reserve
  // (test_sim.cc asserts 2x), so cancel-heavy far-timer workloads cannot
  // retain entries unboundedly.
  if (++heap_tombstones_ >= kHeapReserve &&
      4 * heap_tombstones_ >= heap_keys_.size()) {
    compact_heap();
  }
  return true;
}

void EventQueue::compact_heap() {
  heap_tombstones_ = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_keys_.size(); ++i) {
    const std::uint64_t p = heap_payload_[i];
    if (!is_live(p)) continue;  // tombstone
    heap_keys_[out] = heap_keys_[i];
    heap_payload_[out] = p;
    ++out;
  }
  // hotlint:allow(hot-growth): shrinks to the live prefix; capacity retained across compactions
  heap_keys_.resize(out);
  // hotlint:allow(hot-growth): shrinks to the live prefix; capacity retained across compactions
  heap_payload_.resize(out);
  if (out < 2) return;
  // Floyd heapify, in place and allocation-free (this runs inside the
  // steady-state cancel path, which tests/test_alloc.cc holds to exactly
  // zero heap allocations): sift every internal node down. Keys are unique
  // ((time, seq) with a never-reused seq) and pops always take the minimum,
  // so the pop sequence depends only on the key *set* — any valid heap
  // layout pops bit-identically.
  for (std::size_t node = ((out - 2) >> 2) + 1; node-- > 0;) {
    sift_down(node, heap_keys_[node], heap_payload_[node]);
  }
}

void EventQueue::sift_down(std::size_t i, Key key, std::uint64_t payload) {
  const std::size_t n = heap_keys_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    std::size_t best;
    if (first + 3 < n) {
      // Branchless min-of-4 tournament over the adjacent children.
      const std::size_t a =
          first + static_cast<std::size_t>(heap_keys_[first + 1] <
                                           heap_keys_[first]);
      const std::size_t c =
          first + 2 + static_cast<std::size_t>(heap_keys_[first + 3] <
                                               heap_keys_[first + 2]);
      best = heap_keys_[c] < heap_keys_[a] ? c : a;
    } else {
      if (first >= n) break;
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (heap_keys_[c] < heap_keys_[best]) best = c;
      }
    }
    if (key < heap_keys_[best]) break;
    heap_keys_[i] = heap_keys_[best];
    heap_payload_[i] = heap_payload_[best];
    i = best;
  }
  heap_keys_[i] = key;
  heap_payload_[i] = payload;
}

SimTime EventQueue::next_time() {
  return settle_head() ? key_time(heap_keys_.front()) : kNoTime;
}

EventQueue::Popped EventQueue::pop() {
  const bool any = settle_head();
  INBAND_ASSERT(any, "pop() on empty event queue");
  const SimTime t = key_time(heap_keys_.front());
  const std::uint32_t slot = payload_slot(heap_payload_.front());
  heap_pop();
  Slot& s = slot_ref(slot);
  INBAND_DCHECK(s.callback);
  Popped out{t, std::move(s.callback)};
  retire_handle(s);
  recycle_slot(slot, s);
  --live_;
  INBAND_DCHECK(last_popped_ == kNoTime || t >= last_popped_,
                "event queue popped backwards in time");
  last_popped_ = t;
  return out;
}

void EventQueue::audit_invariants(AuditScope& scope) {
  std::size_t occupied = 0;
  std::uint64_t free_count = 0;
  for (std::uint32_t i = 0; i < slot_count_; ++i) {
    if (slot_ref(i).callback) ++occupied;
  }
  for (std::uint32_t i = free_head_; i != kNullSlot;
       i = slot_ref(i).next_free) {
    ++free_count;
  }
  // An audit can run from inside a firing callback (the rig's periodic
  // audit is itself an event); that callback's slot is occupied but no
  // longer counted live.
  const std::size_t in_flight =
      firing_slot_ != kNullSlot && slot_ref(firing_slot_).callback ? 1 : 0;
  scope.check(occupied == live_ + in_flight, "live-count-consistent",
              "occupied pool slots != live counter");
  scope.check(occupied + free_count + retired_slots_ == slot_count_,
              "pool-slots-accounted",
              "live + free + retired slots != pool size");

  // The heap holds exactly one entry per live event plus one per
  // uncompacted cancel.
  scope.check(heap_keys_.size() == live_ + heap_tombstones_,
              "heap-covers-live",
              "heap entries != live events + tombstones");
  scope.check(next_seq_ >= 1 + live_, "id-counter-sane");
  const SimTime next = next_time();
  if (next != kNoTime && last_popped_ != kNoTime) {
    scope.check(next >= last_popped_, "time-monotonic",
                "next live event is earlier than the last popped event");
  }
}

void EventQueue::digest_state(StateDigest& digest) {
  // Mixes the same quantities (in the same order) as the pre-pool
  // implementation: push counter, live count, last pop time, next event
  // time. Heap layout, tombstones and slot generations are storage
  // artifacts and stay out, which is what keeps digests bit-identical
  // across storage reworks.
  digest.mix(next_seq_);
  digest.mix(live_);
  digest.mix_i64(last_popped_);
  digest.mix_i64(next_time());
}

}  // namespace inband
