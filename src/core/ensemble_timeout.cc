#include "core/ensemble_timeout.h"

#include <string>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/hotpath.h"

namespace inband {

std::vector<SimTime> EnsembleConfig::default_timeouts() {
  // 64µs, 128µs, 256µs, 512µs, 1024µs, 2048µs, 4096µs (paper §3).
  std::vector<SimTime> out;
  for (SimTime d = us(64); d <= us(4096); d *= 2) out.push_back(d);
  return out;
}

EnsembleTimeout::EnsembleTimeout(EnsembleConfig config)
    : config_{std::move(config)} {
  INBAND_ASSERT(!config_.timeouts.empty());
  INBAND_ASSERT(config_.epoch > 0);
  SimTime prev = 0;
  for (SimTime d : config_.timeouts) {
    INBAND_ASSERT(d > prev, "timeouts must be strictly increasing");
    prev = d;
    fixed_.emplace_back(d);
  }
  INBAND_ASSERT(config_.initial_choice < fixed_.size());
}

void EnsembleTimeout::init_state(EnsembleState& state, SimTime now) const {
  INBAND_COLD_OK("per-flow estimator init: runs once per admitted flow");
  state.per_timeout.assign(fixed_.size(), FixedTimeoutState{});
  state.samples.assign(fixed_.size(), 0);
  state.epoch_start = now;
  state.chosen = config_.initial_choice;
  state.initialized = true;
}

std::size_t EnsembleTimeout::detect_cliff(
    const std::vector<std::uint32_t>& counts) {
  INBAND_ASSERT(!counts.empty());
  // m = argmaxᵢ (Nᵢ / Nᵢ₊₁), add-one smoothed; ties to the smallest i.
  std::size_t best = 0;
  double best_ratio = 0.0;
  for (std::size_t i = 0; i + 1 < counts.size(); ++i) {
    const double ratio = (static_cast<double>(counts[i]) + 1.0) /
                         (static_cast<double>(counts[i + 1]) + 1.0);
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best = i;
    }
  }
  return best;
}

void EnsembleTimeout::roll_epoch(EnsembleState& state, SimTime now) const {
  const SimTime elapsed = now - state.epoch_start;
  // Counters older than the immediately preceding epoch are stale: the flow
  // sat idle for at least one full epoch since they were collected, and the
  // cliff they encode describes traffic that no longer exists. Adopting δ
  // from them let one pre-idle burst dictate the timeout a resumed flow
  // wakes up with; discard them and keep the previous choice instead.
  const bool stale = elapsed >= 2 * config_.epoch;
  bool any = false;
  for (auto n : state.samples) any = any || n > 0;
  if (any && !stale) {
    const std::size_t m = detect_cliff(state.samples);
    // Only adopt a cliff whose winning timeout actually produced samples;
    // an all-quiet flow keeps its previous choice (line 10's δₘ would be
    // meaningless).
    if (state.samples[m] > 0) {
      state.chosen = static_cast<std::uint32_t>(m);
    }
  }
  // hotlint:allow(hot-growth): resets an already-sized vector in place
  state.samples.assign(fixed_.size(), 0);  // line 9: reset counters
  // Epochs are anchored to the flow's first packet; skip any fully idle
  // epochs so epoch_start stays within one epoch of `now`.
  state.epoch_start += (elapsed / config_.epoch) * config_.epoch;
}

SimTime EnsembleTimeout::on_packet(EnsembleState& state, SimTime now) const {
  if (!state.initialized) init_state(state, now);

  // Line 7: "current packet is the first of a new epoch".
  if (now - state.epoch_start >= config_.epoch) {
    roll_epoch(state, now);
  }

  // Lines 1–6: run every FIXEDTIMEOUT instance, count samples.
  SimTime chosen_sample = kNoTime;
  for (std::size_t i = 0; i < fixed_.size(); ++i) {
    const SimTime t = fixed_[i].on_packet(state.per_timeout[i], now);
    if (t != kNoTime) {
      ++state.samples[i];
      if (i == state.chosen) chosen_sample = t;  // line 12: T_LB,e
    }
  }
  return chosen_sample;
}

SimTime EnsembleTimeout::current_delta(const EnsembleState& state) const {
  if (!state.initialized) return kNoTime;
  return config_.timeouts[state.chosen];
}

void EnsembleTimeout::audit_state(const EnsembleState& state, std::size_t k,
                                  AuditScope& scope) {
  if (!state.initialized) {
    scope.check(state.epoch_start == kNoTime, "uninitialized-state-blank");
    return;
  }
  const SimTime now = scope.now();
  const bool layout_ok =
      scope.check(state.per_timeout.size() == k && state.samples.size() == k,
                  "ladder-layout",
                  "per-flow vectors disagree with ladder size k") &&
      scope.check(state.chosen < k, "chosen-in-range",
                  "chosen=" + std::to_string(state.chosen));
  scope.check(state.epoch_start != kNoTime && state.epoch_start <= now,
              "epoch-start-in-past");
  if (!layout_ok) return;
  for (std::size_t i = 0; i < k; ++i) {
    const FixedTimeoutState& f = state.per_timeout[i];
    if (f.time_last_pkt == kNoTime) {
      scope.check(f.time_last_batch == kNoTime, "batch-needs-packet");
      continue;
    }
    scope.check(f.time_last_pkt <= now, "last-packet-in-past");
    scope.check(f.time_last_batch != kNoTime &&
                    f.time_last_batch <= f.time_last_pkt,
                "batch-timer-ordered",
                "batch start after last packet (timeout index " +
                    std::to_string(i) + ")");
  }
}

void EnsembleTimeout::digest_state(const EnsembleState& state,
                                   StateDigest& digest) {
  digest.mix_bool(state.initialized);
  digest.mix_i64(state.epoch_start);
  digest.mix_u32(state.chosen);
  digest.mix(state.per_timeout.size());
  for (const auto& f : state.per_timeout) {
    digest.mix_i64(f.time_last_batch);
    digest.mix_i64(f.time_last_pkt);
  }
  for (const auto n : state.samples) digest.mix_u32(n);
}

}  // namespace inband
