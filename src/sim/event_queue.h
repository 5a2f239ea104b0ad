// Cancellable discrete-event queue, allocation-free in steady state.
//
// Events at equal timestamps pop in insertion (FIFO) order — a property the
// TCP and LB models rely on for determinism. Cancellation is O(1): the
// callback slot is released and the pending entry becomes a tombstone skipped
// at pop time.
//
// Storage design (see DESIGN.md §10): two structures replace the former
// std::function + unordered_map<EventId, handler> + binary-heap trio, which
// paid one heap allocation plus a hash insert/erase per scheduled event.
//
// 1. A slab-allocated event pool for the callbacks:
//  * Each event occupies a fixed-size pool slot whose EventCallback member
//    stores the erased callable inline (small-buffer optimization) for
//    captures up to EventCallback::kInlineBytes; only oversized callables
//    fall back to a single heap block.
//  * Slots are recycled through an intrusive free list, so a pop→push steady
//    state touches no allocator at all. The pool grows in fixed-size chunks
//    and slots never move, so callbacks are constructed and invoked in place.
//  * Liveness is a 32-bit generation counter per slot: an EventId encodes
//    (slot, generation), freeing a slot bumps its generation, and a pending
//    entry whose recorded generation no longer matches its slot is dead —
//    one array load where the old design did a hash lookup. A slot whose
//    generation counter would wrap is retired instead of reused, so stale
//    handles can never alias a newer event (the ABA guard; exercised by the
//    wraparound test via EventQueueTestPeer).
//
// 2. One 4-ary min-heap for the pending set, keyed by a packed (time, seq)
//    128-bit key and stored as parallel (key, payload) arrays:
//  * Rig workloads keep about 60–180 events pending, so the heap is 3–4
//    levels deep; pops use a branchless min-of-4 tournament over the four
//    adjacent children.
//  * The heap's capacity is its only growth. It reaches its high-water mark
//    almost at once (within the first ~420 pushes of an lbbench rig run;
//    DESIGN.md §10), which is what keeps the steady state allocation-free.
//  * Cancelled entries stay behind as tombstones: popped off the top when
//    they surface, and swept out in bulk once they make up a quarter of
//    the heap (see cancel()).
//  * The pop order is the strict total order on (time, seq) — seq is the
//    unique monotonic push counter — so FIFO-among-ties holds and the pop
//    sequence (and therefore every digest) is independent of the heap's
//    internal layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/hotpath.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

// Opaque handle for cancellation. Id 0 is never issued (slot indices are
// biased by one in the encoding, so the high word of a real id is nonzero).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Move-only type-erased nullary callable with a small-buffer optimization.
// Unlike std::function it never allocates for captures up to kInlineBytes
// and never copies the target.
INBAND_SHARD_LOCAL(owner)
class EventCallback {
 public:
  // Inline capture budget. The per-packet and per-request callbacks are far
  // smaller and static_assert fits_inline: link delivery and the network's
  // held release carry a pooled PacketRef plus pointers (net/link.cc,
  // net/network.cc), and the KV server's service completion carries its
  // request by value (app/kv_server.cc, 48 bytes). The budget still holds a
  // 136-byte packet image plus a pointer, the payload that the event-queue
  // zero-alloc tests (tests/test_alloc.cc) and micro_dataplane's
  // comparison with the legacy queue are built around.
  static constexpr std::size_t kInlineBytes = 160;

  EventCallback() = default;
  ~EventCallback() { reset(); }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  template <typename F>
  explicit EventCallback(F&& fn) {
    emplace(std::forward<F>(fn));
  }

  // Installs a new target, destroying any current one.
  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "EventCallback target must be callable as void()");
    reset();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      vtable_ = &kInlineVTable<Fn>;
    } else {
      INBAND_COLD_OK("target exceeds kInlineBytes; hot call sites keep their "
                     "callbacks inline (checked by the perf gate)");
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      vtable_ = &kHeapVTable<Fn>;
    }
  }

  void operator()() {
    INBAND_DCHECK(vtable_ != nullptr, "invoking empty EventCallback");
    vtable_->invoke(buf_);
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  // True when Fn is stored in place rather than behind a heap pointer.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    // Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr VTable kInlineVTable{
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable kHeapVTable{
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* p) { delete *std::launder(reinterpret_cast<Fn**>(p)); },
  };

  void move_from(EventCallback& other) {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(buf_, other.buf_);
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

INBAND_SHARD_LOCAL(owner)
class EventQueue {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  template <typename F>
  INBAND_HOT EventId push(SimTime t, F&& fn) {
    if constexpr (requires { fn == nullptr; }) {
      INBAND_ASSERT(!(fn == nullptr));
    }
    INBAND_ASSERT(t >= 0, "event time must be non-negative");
    const std::uint32_t slot = alloc_slot();
    Slot& s = slot_ref(slot);
    // hotlint:allow(hot-growth): emplace targets the slot's inline buffer
    s.callback.emplace(std::forward<F>(fn));
    const std::uint64_t seq = next_seq_++;
    heap_push(make_key(t, seq), make_payload(slot, s.gen));
    ++live_;
    return make_id(slot, s.gen);
  }

  // Returns true if the event existed and had not yet fired.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Timestamp of the next live event; kNoTime when empty.
  SimTime next_time();

  // Pops and returns the next live event's handler (with its time). The
  // caller invokes it — the queue itself never runs user code. The returned
  // callback is moved out of its pool slot; prefer fire_next() on hot paths,
  // which invokes in place.
  struct Popped {
    SimTime t;
    EventCallback fn;
  };
  Popped pop();

  // Fused pop-and-invoke: runs the next live event's callback in its pool
  // slot (no move, no transient storage). `pre(t)` runs after the event is
  // committed but before the callback, so a simulator can advance its clock
  // first. As with pop(), an event cannot cancel() itself once it is firing.
  // Returns the event's time. The queue must not be empty.
  template <typename Pre>
  INBAND_HOT SimTime fire_next(Pre&& pre) {
    const bool any = settle_head();
    INBAND_ASSERT(any, "fire_next() on empty event queue");
    const SimTime t = key_time(heap_keys_.front());
    const std::uint32_t slot = payload_slot(heap_payload_.front());
    Slot& s = slot_ref(slot);
    INBAND_DCHECK(s.gen == payload_gen(heap_payload_.front()) && s.callback);
    heap_pop();  // removed before the callback runs
    --live_;
    INBAND_DCHECK(last_popped_ == kNoTime || t >= last_popped_,
                  "event queue popped backwards in time");
    last_popped_ = t;
    retire_handle(s);  // the firing event's own id goes dead, as with pop()
    firing_slot_ = slot;  // occupied but no longer live, for the auditor
    pre(t);
    s.callback();  // may push/cancel freely
    s.callback.reset();
    firing_slot_ = kNullSlot;
    recycle_slot(slot, s);
    return t;
  }

  std::uint64_t total_pushed() const { return next_seq_ - 1; }

  // Timestamp of the most recently popped event; kNoTime before any pop.
  SimTime last_popped() const { return last_popped_; }

  // Invariant audit: pool/live bookkeeping agrees and the next live event
  // is not earlier than the last popped one (time monotonicity). Non-const
  // because inspecting the head pops cancelled entries off the heap.
  void audit_invariants(AuditScope& scope);

  // Folds scheduling state into a determinism digest (handlers themselves
  // are not hashable; identical push/pop/cancel sequences are what make two
  // runs equal). Non-const for the same reason as audit_invariants.
  void digest_state(StateDigest& digest);

 private:
  friend struct EventQueueTestPeer;

  static constexpr std::uint32_t kNullSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlotsPerChunk = 256;
  // A slot reaching this generation is retired rather than recycled, so a
  // wrapped counter can never revalidate a stale handle.
  static constexpr std::uint32_t kMaxGen = 0xffffffffu;

  struct Slot {
    EventCallback callback;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNullSlot;
  };

  // Sort key for the pending order: ((t << 64) | seq) ascending is exactly
  // the (time, then push order) total order — seq is unique, so there are no
  // ties and the pop sequence is independent of how entries are stored.
  // Requires t >= 0, asserted in push().
  __extension__ typedef unsigned __int128 Key;

  static Key make_key(SimTime t, std::uint64_t seq) {
    return (static_cast<Key>(static_cast<std::uint64_t>(t)) << 64) | seq;
  }
  static SimTime key_time(Key k) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(k >> 64));
  }

  // A pending entry's payload packs (slot << 32 | gen); the entry is live
  // while its slot still carries that generation.
  static std::uint64_t make_payload(std::uint32_t slot, std::uint32_t gen) {
    return static_cast<std::uint64_t>(slot) << 32 | gen;
  }
  static std::uint32_t payload_slot(std::uint64_t p) {
    return static_cast<std::uint32_t>(p >> 32);
  }
  static std::uint32_t payload_gen(std::uint64_t p) {
    return static_cast<std::uint32_t>(p);
  }
  bool is_live(std::uint64_t payload) const {
    return slot_ref(payload_slot(payload)).gen == payload_gen(payload);
  }

  // Initial heap capacity, and the tombstone count below which cancel()
  // never compacts.
  static constexpr std::size_t kHeapReserve = 64;

  void heap_push(Key key, std::uint64_t payload) {
    std::size_t i = heap_keys_.size();
    // hotlint:allow(hot-growth): heap_keys_ reserves kHeapReserve in the ctor
    heap_keys_.emplace_back();  // new last slot; the entry sifts up from it
    // hotlint:allow(hot-growth): heap_payload_ reserves kHeapReserve in the ctor
    heap_payload_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (heap_keys_[parent] < key) break;
      heap_keys_[i] = heap_keys_[parent];
      heap_payload_[i] = heap_payload_[parent];
      i = parent;
    }
    heap_keys_[i] = key;
    heap_payload_[i] = payload;
  }

  // Stores (key, payload) at index i, whose subtrees are heaps, moving it
  // down until the subtree rooted at i is a heap too.
  void sift_down(std::size_t i, Key key, std::uint64_t payload);

  // Removes the root entry: the last entry moves to the root and sifts down.
  void heap_pop() {
    const Key key = heap_keys_.back();
    const std::uint64_t payload = heap_payload_.back();
    heap_keys_.pop_back();
    heap_payload_.pop_back();
    if (!heap_keys_.empty()) sift_down(0, key, payload);
  }

  // Pops cancelled entries off the top; true when the top is then a live
  // event, false when the queue holds none.
  bool settle_head() {
    while (!heap_keys_.empty()) {
      if (is_live(heap_payload_.front())) return true;
      heap_pop();
      INBAND_DCHECK(heap_tombstones_ > 0);
      --heap_tombstones_;
    }
    return false;
  }

  // Rebuilds the heap without its tombstones; see cancel() for the trigger
  // policy. Keeps the (time, seq) pop order bit-identical.
  void compact_heap();

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>((id >> 32) - 1);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  Slot& slot_ref(std::uint32_t index) {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }
  const Slot& slot_ref(std::uint32_t index) const {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }

  // The pool operations sit in the header so push()/fire_next() inline them;
  // out-of-line they cost a call per event on the hottest loop in the tree.
  std::uint32_t alloc_slot() {
    if (free_head_ != kNullSlot) {
      const std::uint32_t index = free_head_;
      Slot& s = slot_ref(index);
      free_head_ = s.next_free;
      s.next_free = kNullSlot;
      return index;
    }
    return alloc_slot_slow();
  }
  std::uint32_t alloc_slot_slow();  // grows the slab by one chunk

  void retire_handle(Slot& s) {
    // Bumping the generation kills every outstanding handle and heap entry
    // for this slot's previous occupancy. kMaxGen itself is never issued
    // (the slot is parked in recycle_slot), so a matching generation always
    // means a live event.
    INBAND_ASSERT(s.gen < kMaxGen);
    ++s.gen;
  }

  void recycle_slot(std::uint32_t index, Slot& s) {
    if (s.gen == kMaxGen) {
      // Generation counter exhausted: park the slot forever instead of
      // letting a stale handle from 2^32 occupancies ago alias a fresh
      // event.
      ++retired_slots_;
      return;
    }
    s.next_free = free_head_;
    free_head_ = index;
  }

  // Pending set (see file comment), live entries and tombstones alike.
  std::vector<Key> heap_keys_;
  std::vector<std::uint64_t> heap_payload_;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;     // slots ever handed out (chunk frontier)
  std::uint32_t free_head_ = kNullSlot;
  // Slot whose callback fire_next() is currently invoking in place: already
  // decommissioned (not live, handle dead) but still occupying its slot, so
  // an audit running inside the callback must expect one extra occupant.
  std::uint32_t firing_slot_ = kNullSlot;
  std::uint64_t retired_slots_ = 0;  // permanently parked by the gen guard
  std::uint64_t heap_tombstones_ = 0;  // cancelled entries still in the heap
  std::uint64_t next_seq_ = 1;       // monotonic push counter (never reused)
  std::size_t live_ = 0;
  SimTime last_popped_ = kNoTime;
};

}  // namespace inband
