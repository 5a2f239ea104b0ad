// Wall-clock helpers and order statistics shared by every lbbench phase.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace lbbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Quantile q in [0, 1] by nearest rank; reorders `v`. 0 when empty.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  const auto kth = v.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(v.begin(), kth, v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

// Per-call cost distribution of one stage: median and p99 over `calls`.
struct CallStats {
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t calls = 0;
};

inline CallStats call_stats(std::vector<std::uint32_t>& durations) {
  CallStats s;
  s.calls = durations.size();
  s.p50_ns = quantile(durations, 0.5);
  s.p99_ns = quantile(durations, 0.99);
  return s;
}

// Mean cost of one now_ns() read, which is what every bracketed per-call
// duration in this benchmark carries on top of the work it brackets.
inline double calibrate_timer_ns() {
  constexpr int kReads = 1'000'000;
  std::int64_t sink = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kReads; ++i) sink += now_ns() & 1;
  const std::int64_t t1 = now_ns();
  return static_cast<double>(t1 - t0 + (sink & 0)) / kReads;
}

}  // namespace lbbench
