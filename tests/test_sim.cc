// Unit tests: discrete-event simulator (queue ordering, cancellation,
// periodic tasks, run_until semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "check/invariant_auditor.h"
#include "check/reference_models.h"
#include "check/state_digest.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace inband {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  q.push(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(us(100), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, us(100));
  EXPECT_EQ(sim.now(), us(100));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_after(us(10), [&] {
    times.push_back(sim.now());
    sim.schedule_after(us(10), [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{us(10), us(20)}));
}

TEST(Simulator, ZeroDelayRunsAfterCurrentHandler) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(0, [&] {
    sim.schedule_after(0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilExecutesInclusiveDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(us(10), [&] { ++count; });
  sim.schedule_at(us(20), [&] { ++count; });
  sim.schedule_at(us(21), [&] { ++count; });
  sim.run_until(us(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), us(20));
  sim.run_until(us(30));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), us(30));
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(ms(5));
  EXPECT_EQ(sim.now(), ms(5));
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(us(5), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, ExecutedEventsCounted) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] { ++count; });
  sim.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task{sim, ms(10), [&](SimTime t) { fires.push_back(t); }};
  task.start(ms(10));
  sim.run_until(ms(35));
  EXPECT_EQ(fires, (std::vector<SimTime>{ms(10), ms(20), ms(30)}));
}

TEST(PeriodicTask, CancelStopsFiring) {
  Simulator sim;
  int count = 0;
  PeriodicTask task{sim, ms(1), [&](SimTime) { ++count; }};
  task.start(ms(1));
  sim.schedule_at(ms(3) + 1, [&] { task.cancel(); });
  sim.run_until(ms(10));
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, CallbackMayCancelItself) {
  Simulator sim;
  int count = 0;
  PeriodicTask task{sim, ms(1), [&](SimTime) {
                      if (++count == 2) task.cancel();
                    }};
  task.start(0);
  sim.run_until(ms(10));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, DestructionCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task{sim, ms(1), [&](SimTime) { ++count; }};
    task.start(ms(1));
  }
  sim.run_until(ms(5));
  EXPECT_EQ(count, 0);
}

TEST(Simulator, HandlersCanScheduleManyLayers) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

// --- EventCallback: the pool's erased callable ---

namespace cbtrack {
int live = 0;       // constructed minus destroyed
int destroyed = 0;  // total destructor runs
struct Tracked {
  Tracked() { ++live; }
  Tracked(const Tracked&) { ++live; }
  Tracked(Tracked&&) noexcept { ++live; }
  ~Tracked() {
    --live;
    ++destroyed;
  }
};
void reset_counters() {
  live = 0;
  destroyed = 0;
}
}  // namespace cbtrack

TEST(EventCallback, InvokesInlineTarget) {
  int hits = 0;
  EventCallback cb{[&] { ++hits; }};
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(EventCallback, LargeCaptureFallsBackToHeap) {
  struct Big {
    std::array<std::int64_t, 64> payload;  // 512B, > kInlineBytes
  };
  static_assert(!EventCallback::fits_inline<Big>());
  Big big{};
  big.payload[0] = 7;
  big.payload[63] = 9;
  std::int64_t sum = 0;
  EventCallback cb{[big, &sum] { sum = big.payload[0] + big.payload[63]; }};
  cb();
  EXPECT_EQ(sum, 16);
}

TEST(EventCallback, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  EventCallback a{[&] { ++hits; }};
  EventCallback b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(EventCallback, DestroysCaptureExactlyOnce) {
  cbtrack::reset_counters();
  {
    EventCallback cb{[t = cbtrack::Tracked{}] { (void)t; }};
    EventCallback moved{std::move(cb)};
    moved();
  }
  EXPECT_EQ(cbtrack::live, 0);
}

// --- event pool: recycling, lazy deletion, generation guard ---

TEST(EventQueue, PendingCallbacksDestroyedWithQueue) {
  cbtrack::reset_counters();
  {
    EventQueue q;
    for (int i = 0; i < 10; ++i) {
      q.push(i, [t = cbtrack::Tracked{}] { (void)t; });
    }
    q.pop().fn();
  }
  EXPECT_EQ(cbtrack::live, 0);
}

TEST(EventQueue, CancelDestroysCaptureImmediately) {
  cbtrack::reset_counters();
  EventQueue q;
  const EventId id = q.push(10, [t = cbtrack::Tracked{}] { (void)t; });
  EXPECT_EQ(cbtrack::live, 1);
  const int before = cbtrack::destroyed;  // temporaries died during push
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(cbtrack::live, 0);
  EXPECT_EQ(cbtrack::destroyed, before + 1);
}

TEST(EventQueue, SelfCancelDuringFireFails) {
  EventQueue q;
  EventId self = kInvalidEventId;
  bool cancel_result = true;
  self = q.push(10, [&] { cancel_result = q.cancel(self); });
  q.fire_next([](SimTime) {});
  EXPECT_FALSE(cancel_result);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FireNextRunsPreHookBeforeCallback) {
  EventQueue q;
  std::vector<int> order;
  q.push(42, [&] { order.push_back(2); });
  const SimTime t = q.fire_next([&](SimTime committed) {
    EXPECT_EQ(committed, 42);
    order.push_back(1);
  });
  EXPECT_EQ(t, 42);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RecycledSlotHandleDoesNotAliasNewEvent) {
  EventQueue q;
  const EventId first = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(first));
  // The replacement event reuses the pool slot; the dead handle must not
  // cancel it.
  bool ran = false;
  const EventId second = q.push(20, [&] { ran = true; });
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, PushCancelInterleaveStress) {
  // Random push/cancel/pop storm; the queue must keep exact live counts,
  // fire everything uncancelled exactly once, and never fire a cancelled
  // event. Mirrored against LegacyEventQueue below.
  Rng rng{20260806};
  EventQueue q;
  std::vector<EventId> open;
  SimTime now = 0;
  std::uint64_t fired = 0;
  std::uint64_t pushed = 0;
  std::uint64_t cancelled = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng.uniform_u64(0, 99);
    if (roll < 50) {
      open.push_back(q.push(
          now + static_cast<SimTime>(rng.uniform_u64(0, 1000)), [&] { ++fired; }));
      ++pushed;
    } else if (roll < 75 && !open.empty()) {
      const std::size_t pick =
          rng.uniform_u64(0, static_cast<std::uint64_t>(open.size()) - 1);
      if (q.cancel(open[pick])) ++cancelled;
      open[pick] = open.back();
      open.pop_back();
    } else if (!q.empty()) {
      now = q.fire_next([](SimTime) {});
    }
  }
  while (!q.empty()) q.fire_next([](SimTime) {});
  EXPECT_EQ(fired + cancelled, pushed);
  EXPECT_EQ(q.total_pushed(), pushed);
}

// Drives an EventQueue and the pre-pool LegacyEventQueue through one random
// op sequence and checks that both pop the same events at the same times.
// `max_exp` > 0 draws delays as uniform(0, 2^e) for a uniform exponent e in
// [0, max_exp]; otherwise delays are uniform in 0..200. With `nested`, a
// third of the events push a child from inside their own callback, half of
// those at delay 0.
class LegacyDiff {
 public:
  LegacyDiff(std::uint64_t seed, std::uint32_t max_exp, bool nested)
      : rng_{seed}, max_exp_(max_exp), nested_(nested) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t roll = rng_.uniform_u64(0, 99);
      if (roll < 50) {
        const SimTime t = now_ + draw_delay();
        const int tag = new_tag();
        open_.emplace_back(push_new(t, tag), push_old(t, tag));
      } else if (roll < 70 && !open_.empty()) {
        const std::size_t pick =
            rng_.uniform_u64(0, static_cast<std::uint64_t>(open_.size()) - 1);
        EXPECT_EQ(neu_.cancel(open_[pick].first),
                  old_.cancel(open_[pick].second));
        open_[pick] = open_.back();
        open_.pop_back();
      } else if (!neu_.empty()) {
        ASSERT_FALSE(old_.empty());
        auto popped_old = old_.pop();
        const SimTime t = neu_.fire_next([this](SimTime at) { now_ = at; });
        EXPECT_EQ(t, popped_old.t);
        popped_old.fn();
        ASSERT_EQ(fired_new_.size(), fired_old_.size());
        EXPECT_EQ(fired_new_.back(), fired_old_.back());
      }
      EXPECT_EQ(neu_.size(), old_.size());
      EXPECT_EQ(neu_.next_time(), old_.next_time());
    }
    EXPECT_EQ(fired_new_, fired_old_);
    StateDigest dn;
    neu_.digest_state(dn);
    StateDigest dl;
    old_.digest_state(dl);
    EXPECT_EQ(dn.value(), dl.value());
  }

 private:
  static constexpr SimTime kNoChild = -1;

  SimTime draw_delay() {
    if (max_exp_ == 0) return static_cast<SimTime>(rng_.uniform_u64(0, 200));
    const std::uint64_t e = rng_.uniform_u64(0, max_exp_);
    return static_cast<SimTime>(rng_.uniform_u64(0, std::uint64_t{1} << e));
  }

  // Allocates a tag and decides up front whether (and how far ahead) its
  // callback will push a child.
  int new_tag() {
    SimTime child = kNoChild;
    if (nested_ && rng_.uniform_u64(0, 2) == 0) {
      child = rng_.uniform_u64(0, 1) == 0 ? 0 : draw_delay();
    }
    child_delay_.push_back(child);
    child_tag_.push_back(-1);
    return static_cast<int>(child_delay_.size()) - 1;
  }

  // The new queue's callback fires first and creates the child; the legacy
  // callback, run right after it for the same event, mirrors that push and
  // completes the (new id, old id) pair.
  EventId push_new(SimTime t, int tag) {
    return neu_.push(t, [this, tag] {
      fired_new_.push_back(tag);
      const SimTime d = child_delay_[static_cast<std::size_t>(tag)];
      if (d == kNoChild) return;
      const int child = new_tag();
      child_tag_[static_cast<std::size_t>(tag)] = child;
      pending_child_id_ = push_new(now_ + d, child);
    });
  }

  EventId push_old(SimTime t, int tag) {
    return old_.push(t, [this, tag] {
      fired_old_.push_back(tag);
      const SimTime d = child_delay_[static_cast<std::size_t>(tag)];
      if (d == kNoChild) return;
      const int child = child_tag_[static_cast<std::size_t>(tag)];
      open_.emplace_back(pending_child_id_, push_old(now_ + d, child));
    });
  }

  Rng rng_;
  std::uint32_t max_exp_;
  bool nested_;
  EventQueue neu_;
  LegacyEventQueue old_;
  std::vector<std::pair<EventId, EventId>> open_;  // (new id, old id)
  std::vector<SimTime> child_delay_;               // by tag
  std::vector<int> child_tag_;                     // by tag
  EventId pending_child_id_ = kInvalidEventId;
  std::vector<int> fired_new_;
  std::vector<int> fired_old_;
  SimTime now_ = 0;
};

TEST(EventQueue, MatchesLegacyQueueOnRandomOps) {
  // Differential check against the pre-pool implementation: identical op
  // sequences must produce the same pop order (by tag and time) and the
  // same digests.
  {
    SCOPED_TRACE("near delays");
    LegacyDiff(77, 0, false).run(5000);
  }
  {
    // Delays past 2^18 ticks, so entries also enter the queue far ahead of
    // the next pop.
    SCOPED_TRACE("delays spanning 0..2^22");
    LegacyDiff(78, 22, false).run(5000);
  }
  {
    // Pushes made while an event is firing, including at the firing time.
    SCOPED_TRACE("pushes from firing callbacks");
    LegacyDiff(79, 0, true).run(5000);
    LegacyDiff(80, 22, true).run(5000);
  }
}

}  // namespace

// Friend peer for reaching into the pool's generation bookkeeping; the
// wraparound guard is unreachable through the public API (it needs 2^32
// occupancies of one slot).
struct EventQueueTestPeer {
  static constexpr std::uint32_t max_gen() { return EventQueue::kMaxGen; }
  static std::uint32_t slot_of(EventId id) { return EventQueue::slot_of(id); }
  static void set_free_slot_generation(EventQueue& q, std::uint32_t slot,
                                       std::uint32_t gen) {
    ASSERT_FALSE(static_cast<bool>(q.slot_ref(slot).callback))
        << "slot must be free";
    q.slot_ref(slot).gen = gen;
  }
  static std::uint64_t retired_slots(const EventQueue& q) {
    return q.retired_slots_;
  }
  static std::size_t heap_size(const EventQueue& q) {
    return q.heap_keys_.size();
  }
  static std::size_t heap_reserve() { return EventQueue::kHeapReserve; }
};

namespace {

TEST(EventQueue, GenerationWraparoundRetiresSlot) {
  EventQueue q;
  const EventId first = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(first));  // slot 0 is now free
  EventQueueTestPeer::set_free_slot_generation(
      q, 0, EventQueueTestPeer::max_gen() - 1);
  const EventId last = q.push(20, [] {});
  EXPECT_EQ(EventQueueTestPeer::slot_of(last), 0u);
  EXPECT_TRUE(q.cancel(last));  // generation hits kMaxGen: slot retires
  EXPECT_EQ(EventQueueTestPeer::retired_slots(q), 1u);
  // The retired slot never comes back, so the exhausted handle can never
  // alias a fresh event.
  const EventId next = q.push(30, [] {});
  EXPECT_NE(EventQueueTestPeer::slot_of(next), 0u);
  EXPECT_FALSE(q.cancel(last));
  EXPECT_TRUE(q.cancel(next));
}

// Regression: a cancelled event stays behind in the heap as a tombstone
// until it reaches the top, so a cancel-heavy far-timer workload (schedule a
// batch of far-future timeouts, cancel nearly all of them, repeat) retained
// heap entries unboundedly — before the compaction in EventQueue::cancel(),
// the occupancy below ends each round near 8 + 1024 * rounds instead of
// staying flat.
TEST(EventQueue, HeapCompactsTombstonesUnderCancelHeavyCancels) {
  EventQueue q;
  constexpr SimTime kFar = SimTime{1} << 20;  // no pop ever reaches these
  std::vector<EventId> keep;
  for (SimTime i = 0; i < 8; ++i) keep.push_back(q.push(kFar + i, [] {}));
  std::size_t high_water = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 1024; ++i) {
      ids.push_back(q.push(kFar + 1000 + round * 1024 + i, [] {}));
    }
    for (EventId id : ids) ASSERT_TRUE(q.cancel(id));
    // Measured after each round's cancels: tombstones left since the last
    // compaction are bounded, so occupancy must not accumulate across rounds.
    high_water =
        std::max(high_water, EventQueueTestPeer::heap_size(q));
  }
  EXPECT_EQ(q.size(), keep.size());
  EXPECT_LE(high_water,
            2 * q.size() + 2 * EventQueueTestPeer::heap_reserve());
  // Compaction preserves the (time, seq) pop order of the survivors.
  for (std::size_t i = 0; i < keep.size(); ++i) {
    EXPECT_EQ(q.pop().t, kFar + static_cast<SimTime>(i));
  }
  EXPECT_TRUE(q.empty());
}

// fire_next() takes the firing event out of the heap before its callback
// runs, but the callback still occupies its pool slot. A cancel-triggered
// compaction and an audit run from inside a callback must both account for
// that.
TEST(EventQueue, CallbackCancelsAndAuditsWhileFiring) {
  EventQueue q;
  InvariantAuditor auditor{AuditFailMode::kCollect};
  auditor.register_hook("q", [&](AuditScope& s) { q.audit_invariants(s); });
  std::vector<SimTime> fired;
  const auto record = [&] { fired.push_back(q.last_popped()); };
  std::vector<EventId> odd;
  for (SimTime t = 1000; t < 1200; ++t) {
    const EventId id = q.push(t, record);
    if (t % 2 == 1) odd.push_back(id);
  }
  q.push(1, [&] {
    // 100 tombstones against ~200 entries: compacts partway through.
    for (EventId id : odd) EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(auditor.run_all(q.last_popped()), 0u);
    q.push(5, record);
  });
  q.push(2, [&] { EXPECT_EQ(auditor.run_all(q.last_popped()), 0u); });
  while (!q.empty()) q.fire_next([](SimTime) {});
  std::vector<SimTime> want{5};
  for (SimTime t = 1000; t < 1200; t += 2) want.push_back(t);
  EXPECT_EQ(fired, want);
}

}  // namespace
}  // namespace inband
