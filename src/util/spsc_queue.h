// Unbounded single-producer / single-consumer queue.
//
// The transport under the cross-shard channels in sim/parallel.h. It is
// unbounded because the conservative-lookahead protocol demands it rather
// than for raw throughput: a bounded ring would make push() block when
// full, and a producer blocked on a consumer that is itself conservatively
// blocked on the producer's horizon is a deadlock cycle. Capacity grows in
// chunks of kChunkCap slots appended to a singly-linked list.
//
// Values are plain data, so the consumer owns what it reads: it may move a
// value out of its slot (see ShardChannel::take), and it frees each chunk
// once it has read past the chunk's last slot. By then the producer has
// linked the next chunk and never touches the old one again.
//
// Memory ordering: the producer publishes a slot by storing the chunk's
// `filled` count with release after writing the slot, and publishes a new
// chunk by storing `next` with release after its last access to the old
// chunk; the consumer loads both with acquire before reading or freeing.
// No other synchronization exists — exactly one thread may call the
// producer methods and one (possibly different) thread the consumer
// methods.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "util/shard.h"

namespace inband {

template <typename T>
INBAND_SHARD_CHANNEL
class SpscQueue {
 public:
  static constexpr std::uint32_t kChunkCap = 64;

  SpscQueue() { head_ = tail_ = new Chunk; }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;
  ~SpscQueue() {
    // Single-threaded by the time a queue dies (the runner has joined).
    Chunk* c = head_;
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  // --- producer side ---

  void push(T value) {
    Chunk* t = tail_;
    const std::uint32_t filled = t->filled.load(std::memory_order_relaxed);
    if (filled == kChunkCap) {
      // hotlint:allow(hot-alloc): one chunk per kChunkCap pushes, cross-shard trunk rate only
      Chunk* fresh = new Chunk;
      fresh->base = t->base + kChunkCap;
      tail_ = fresh;
      // Publish the link after the chunk is fully constructed. The producer
      // never touches `t` again: the consumer frees it.
      t->next.store(fresh, std::memory_order_release);
      t = fresh;
    }
    const std::uint32_t slot = t->filled.load(std::memory_order_relaxed);
    t->slots[slot] = std::move(value);
    t->filled.store(slot + 1, std::memory_order_release);
    ++pushed_;
  }

  std::uint64_t pushed() const { return pushed_; }  // producer thread only

  // --- consumer side ---

  // The next unconsumed value, or nullptr when none is visible. Valid until
  // consume(); the consumer may move from it.
  T* peek() {
    Chunk* c = head_;
    const std::uint32_t i = static_cast<std::uint32_t>(consumed_ - c->base);
    if (i == kChunkCap) {
      Chunk* next = c->next.load(std::memory_order_acquire);
      if (next == nullptr) return nullptr;
      head_ = next;
      // hotlint:allow(hot-alloc): one chunk freed per kChunkCap takes, cross-shard trunk rate only
      delete c;
      return peek();
    }
    if (i >= c->filled.load(std::memory_order_acquire)) return nullptr;
    return &c->slots[i];
  }

  // Marks the current peek()ed value consumed. Must follow a successful
  // peek().
  void consume() { ++consumed_; }

  std::uint64_t consumed() const { return consumed_; }  // consumer thread only

 private:
  struct Chunk {
    std::uint64_t base = 0;  // global index of slots[0]
    std::atomic<std::uint32_t> filled{0};
    std::atomic<Chunk*> next{nullptr};
    T slots[kChunkCap];
  };

  // Producer-owned.
  Chunk* tail_ = nullptr;  // chunk being filled
  std::uint64_t pushed_ = 0;

  // Consumer-owned.
  Chunk* head_ = nullptr;  // chunk being read
  std::uint64_t consumed_ = 0;
};

}  // namespace inband
