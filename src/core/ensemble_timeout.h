// Algorithm 2 — ENSEMBLETIMEOUT with sample-cliff detection (HotNets '22 §3).
//
// Runs k FIXEDTIMEOUT instances with exponentially spaced timeouts
// δ₁ < δ₂ < … < δₖ over every packet, counting how many samples each timeout
// produced during an epoch E. At each epoch boundary it finds the *sample
// cliff* — the largest drop in sample count between adjacent timeouts,
// m = argmaxᵢ (Nᵢ / Nᵢ₊₁) — and emits samples from δₘ during the next epoch.
//
// Rationale (paper §3): timeouts below the ideal δ_opt over-segment batches
// and produce too many (low) samples; timeouts above it merge batches and
// produce too few (high) samples; the count falls off sharply right past
// δ_opt, so the cliff position tracks δ_opt as the true RTT changes.
//
// Implementation notes, where the pseudocode is silent:
//  * counts are smoothed as (Nᵢ+1)/(Nᵢ₊₁+1) so empty buckets do not divide
//    by zero; ties resolve to the smallest i;
//  * the epoch is per-flow and starts at the flow's first packet; boundary
//    detection happens on the first packet whose arrival crosses the epoch
//    end ("current packet is the first of a new epoch");
//  * if an epoch produced no samples at all, the previous δ is kept;
//  * the initial δ (before the first cliff) is configurable; the default is
//    the smallest timeout.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fixed_timeout.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

struct EnsembleConfig {
  // δ₁ … δₖ, strictly increasing. Paper default: 64µs, 128µs, …, 4ms.
  std::vector<SimTime> timeouts = default_timeouts();
  // Epoch length E. Paper default: 64 ms.
  SimTime epoch = ms(64);
  // Index into `timeouts` used before the first cliff detection. Default 0
  // (the smallest δ): a sensitive start produces samples from a flow's very
  // first batches — vital for short-lived, churned connections whose
  // lifetime is shorter than one epoch — and the cliff corrects the choice
  // upward at the first boundary.
  std::uint32_t initial_choice = 0;

  static std::vector<SimTime> default_timeouts();
};

// Per-flow state: one FIXEDTIMEOUT state per timeout (sharing time_last_pkt
// would be incorrect — each instance must apply Algorithm 1 independently),
// the per-epoch sample counters, and the epoch bookkeeping.
// Size is ~(24·k + 32) bytes; for k = 7 about 200 bytes per flow, within
// reason for an XDP per-flow map entry.
struct EnsembleState {
  std::vector<FixedTimeoutState> per_timeout;  // k entries
  std::vector<std::uint32_t> samples;          // Nᵢ for this epoch
  SimTime epoch_start = kNoTime;
  std::uint32_t chosen = 0;  // index of δₑ for the current epoch
  bool initialized = false;
};

INBAND_SHARD_LOCAL(lb)
class EnsembleTimeout {
 public:
  explicit EnsembleTimeout(EnsembleConfig config = {});

  // Processes one packet arrival; returns a T_LB sample produced by the
  // currently chosen timeout, or kNoTime.
  SimTime on_packet(EnsembleState& state, SimTime now) const;

  // δ chosen for the flow's current epoch (kNoTime before the first packet).
  SimTime current_delta(const EnsembleState& state) const;

  const EnsembleConfig& config() const { return config_; }
  std::size_t k() const { return fixed_.size(); }

  // Exposed for tests: the cliff rule applied to raw counts.
  static std::size_t detect_cliff(const std::vector<std::uint32_t>& counts);

  // Invariant audit for one flow's state against ladder size k: vector
  // layouts, the chosen index, epoch bookkeeping, and each FIXEDTIMEOUT
  // instance's batch-timer ordering (batch start <= last packet <= now).
  static void audit_state(const EnsembleState& state, std::size_t k,
                          AuditScope& scope);

  // Folds one flow's estimator state into a determinism digest.
  static void digest_state(const EnsembleState& state, StateDigest& digest);

 private:
  void init_state(EnsembleState& state, SimTime now) const;
  void roll_epoch(EnsembleState& state, SimTime now) const;

  EnsembleConfig config_;
  std::vector<FixedTimeout> fixed_;
};

}  // namespace inband
