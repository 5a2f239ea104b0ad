// Heap-allocation counting hook for the benchmarks and allocation tests.
//
// Declarations only: the global operator new/delete replacements live in
// alloc_counter.cc, which is deliberately NOT part of inband_util — linking
// it into a binary (bench/micro_dataplane, tests/test_alloc, lbbench) opts
// that binary into counting.
// Keeping the replacement out of the library keeps sanitizer builds (whose
// runtimes interpose the same symbols) untouched.
#pragma once

#include <cstdint>

namespace inband::allocs {

struct Snapshot {
  std::uint64_t count = 0;  // operator new invocations
  std::uint64_t bytes = 0;  // bytes requested
};

// Current totals since process start. In binaries that do not link
// alloc_counter.cc the weak fallbacks return zeros and `counting_enabled()`
// is false, so callers can tell "no allocations" from "not counting".
Snapshot snapshot();
bool counting_enabled();

// Attribution aid: when set, the hook fires on every counted allocation
// (with the requested size) before the allocation happens. The hook must
// not allocate. Used by zero-alloc tests to print backtraces for the
// allocations that broke the budget; null (the default) disables it.
using AllocHook = void (*)(std::size_t bytes);
void set_alloc_hook(AllocHook hook);

inline Snapshot delta(const Snapshot& before, const Snapshot& after) {
  return {after.count - before.count, after.bytes - before.bytes};
}

}  // namespace inband::allocs
