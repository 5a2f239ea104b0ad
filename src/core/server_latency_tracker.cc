#include "core/server_latency_tracker.h"

#include <string>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

ServerLatencyTracker::ServerLatencyTracker(std::size_t backend_count,
                                           LatencyTrackerConfig config)
    : config_{config} {
  INBAND_ASSERT(backend_count > 0);
  entries_.reserve(backend_count);
  for (std::size_t i = 0; i < backend_count; ++i) {
    entries_.emplace_back(config_.ewma_tau, config_.window,
                          config_.window_slices);
  }
}

void ServerLatencyTracker::record(BackendId backend, SimTime now,
                                  SimTime t_lb) {
  INBAND_ASSERT(backend < entries_.size());
  if (t_lb < 0) return;
  auto& e = entries_[backend];
  e.ewma.record(now, static_cast<double>(t_lb));
  // Only score() in p95 mode reads the window; the audit and the digest
  // read the EWMA and the counters.
  if (config_.mode == LatencyScoreMode::kWindowedP95) {
    e.window.record(now, t_lb);
  }
  e.last_sample = now;
  ++e.count;
}

std::optional<double> ServerLatencyTracker::score(BackendId backend,
                                                  SimTime now) {
  INBAND_ASSERT(backend < entries_.size());
  auto& e = entries_[backend];
  if (e.count == 0) return std::nullopt;
  switch (config_.mode) {
    case LatencyScoreMode::kEwma:
      return e.ewma.value();
    case LatencyScoreMode::kWindowedP95: {
      const Histogram& h = e.window.merged(now);
      if (h.count() == 0) return std::nullopt;  // all samples aged out
      return static_cast<double>(h.percentile(0.95));
    }
  }
  return std::nullopt;
}

std::vector<BackendScore> ServerLatencyTracker::scores(SimTime now) {
  std::vector<BackendScore> out;
  scores_into(now, out);
  return out;
}

void ServerLatencyTracker::scores_into(SimTime now,
                                       std::vector<BackendScore>& out) {
  out.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    auto& e = entries_[i];
    const auto s = score(static_cast<BackendId>(i), now);
    if (!s.has_value()) continue;
    // hotlint:allow(hot-growth): caller-owned buffer, capacity retained
    out.push_back({static_cast<BackendId>(i), *s, e.last_sample, e.count});
  }
}

std::uint64_t ServerLatencyTracker::samples(BackendId backend) const {
  INBAND_ASSERT(backend < entries_.size());
  return entries_[backend].count;
}

SimTime ServerLatencyTracker::last_sample_time(BackendId backend) const {
  INBAND_ASSERT(backend < entries_.size());
  return entries_[backend].last_sample;
}

void ServerLatencyTracker::audit_invariants(AuditScope& scope) const {
  const SimTime now = scope.now();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    if (e.count == 0) {
      scope.check(e.last_sample == kNoTime, "fresh-entry-blank",
                  "backend " + std::to_string(i));
      continue;
    }
    scope.check(e.last_sample != kNoTime && e.last_sample <= now,
                "last-sample-in-past", "backend " + std::to_string(i));
    scope.check(e.ewma.initialized(), "ewma-follows-count",
                "backend " + std::to_string(i));
  }
}

void ServerLatencyTracker::digest_state(StateDigest& digest) const {
  digest.mix(entries_.size());
  for (const auto& e : entries_) {
    digest.mix(e.count);
    digest.mix_i64(e.last_sample);
    digest.mix_bool(e.ewma.initialized());
    digest.mix_double(e.ewma.value());
  }
}

}  // namespace inband
