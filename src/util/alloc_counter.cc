// Global operator new/delete replacements that count allocations.
//
// Linked ONLY into binaries that want counting (bench/micro_dataplane,
// tests/test_alloc, lbbench); see alloc_counter.h. Under sanitizers the
// replacements are compiled out — the sanitizer runtimes interpose the same
// symbols and must keep doing so — and counting_enabled() reports false so
// harnesses skip the metric instead of reporting zeros.
#include "util/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define INBAND_ALLOC_COUNTER_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define INBAND_ALLOC_COUNTER_DISABLED 1
#endif
#endif

namespace inband::allocs {
namespace {
// Relaxed: the simulator is single-threaded; atomics guard against the
// odd runtime-internal thread touching the heap during shutdown.
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<AllocHook> g_hook{nullptr};
}  // namespace

Snapshot snapshot() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

bool counting_enabled() {
#ifdef INBAND_ALLOC_COUNTER_DISABLED
  return false;
#else
  return true;
#endif
}

void set_alloc_hook(AllocHook hook) {
  g_hook.store(hook, std::memory_order_relaxed);
}

namespace {
inline void run_hook(std::size_t n) {
  // hotlint:allow(shard-global): atomic diagnostic hook; null outside tests
  if (AllocHook hook = g_hook.load(std::memory_order_relaxed)) hook(n);
}
inline void* counted_alloc(std::size_t n) {
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  run_hook(n);
  return std::malloc(n != 0 ? n : 1);
}
inline void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  run_hook(n);
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}
}  // namespace

}  // namespace inband::allocs

#ifndef INBAND_ALLOC_COUNTER_DISABLED

void* operator new(std::size_t n) {
  if (void* p = inband::allocs::counted_alloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  if (void* p = inband::allocs::counted_alloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return inband::allocs::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return inband::allocs::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = inband::allocs::counted_alloc_aligned(
          n, static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = inband::allocs::counted_alloc_aligned(
          n, static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // INBAND_ALLOC_COUNTER_DISABLED
