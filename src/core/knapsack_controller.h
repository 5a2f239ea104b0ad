// KnapsackLB-style performance-aware weight assignment
// (Gandhi & Narayana, "KnapsackLB: Enabling Performance-Aware Layer-4 Load
// Balancing", PAPERS.md).
//
// KNAPSACKLB's core idea is *gauging*: learn each backend's latency-vs-weight
// response curve by observing the latency it delivers at the weights it has
// actually been assigned, then solve the weight assignment as a knapsack-like
// optimization over those curves. This controller reproduces that loop on
// the in-band EnsembleTimeout scores, with no out-of-band probes:
//
//  1. Every epoch, record one gauge point (current weight, current score)
//     per backend into a short per-backend history ring.
//  2. Fit latency_i(w) = a_i + b_i * w by least squares over the ring
//     (slope clamped non-negative; a degenerate ring — every observation at
//     the same weight — falls back to b = score, a = 0, so the solve
//     waterfills toward w_i proportional to 1/score_i until real slope
//     information reappears).
//  3. Solve greedily: start every backend at the kMinWeight floor and hand
//     out the remaining mass in 0.05 units (kWeightStep), each unit to the
//     backend with the lowest *predicted* latency at its next weight level.
//     Ties break toward the lower backend id (determinism).
//
// The floor doubles as the gauging budget: every backend keeps receiving a
// trickle of traffic, so its curve keeps refreshing and a recovered server
// wins weight back — KNAPSACKLB's answer to the restore problem the source
// paper leaves open (§5(4)).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/weight_controller.h"
#include "util/shard.h"

namespace inband {

struct KnapsackLbConfig {
  SimTime epoch = ms(4);      // gauge + solve interval
  std::uint64_t min_samples = 3;
  SimTime staleness = ms(20);  // scores older than this block a solve
  SimTime warmup = 0;
  // A solve whose result moves less than this much total weight (L1) is
  // discarded — the oscillation deadband.
  double deadband = 0.04;
  // Purity contract: identical (samples, weights, seed) => identical output.
  // The law is currently deterministic without entropy; the seed is part of
  // the conformance interface so stochastic variants keep the contract.
  std::uint64_t seed = 0x6a6e;
};

INBAND_SHARD_LOCAL(lb)
class KnapsackLbController final : public WeightController {
 public:
  explicit KnapsackLbController(KnapsackLbConfig config = {});

  const char* name() const override { return "knapsack"; }

  INBAND_HOT std::optional<WeightDecision> control_step(
      ServerLatencyTracker& tracker, const std::vector<double>& weights,
      SimTime now) override;

  const KnapsackLbConfig& config() const { return config_; }
  // Fitted latency-vs-weight slope of one backend (ns per unit weight);
  // 0 until gauged. Introspection for tests/benches.
  double gauged_slope(BackendId backend) const;

  void digest_state(StateDigest& digest) const override;

 private:
  static constexpr int kGaugePoints = 8;
  struct Gauge {
    std::array<double, kGaugePoints> weight{};
    std::array<double, kGaugePoints> score_ns{};
    int count = 0;  // valid points (ring fills then wraps)
    int next = 0;
    double slope = 0.0;      // fitted b_i
    double intercept = 0.0;  // fitted a_i
  };

  void fit(Gauge& g) const;

  KnapsackLbConfig config_;
  std::vector<Gauge> gauges_;
  std::vector<BackendScore> scores_scratch_;
  std::vector<double> solved_;  // the decision's weight vector (owned)
  SimTime last_eval_ = kNoTime;
};

}  // namespace inband
