// Distributed-gradient-descent weight update
// (Balseiro, Mirrokni & Wydrowski, "Load Balancing with Network Latencies via
// Distributed Gradient Descent", PAPERS.md).
//
// Their scheme treats the routing weights as the decision variable of a
// convex program — minimize the weighted mean latency — and descends its
// gradient: each server's weight moves against (latency_i - weighted mean
// latency), then the vector is projected back onto the probability simplex.
// Servers slower than the average lose weight, faster ones gain, and the
// step length shrinks as a server accumulates observations (per-server
// step-size), so the law is aggressive while learning and calm at the
// equilibrium. Reproduced here on the in-band EnsembleTimeout scores:
//
//   g_i  = (score_i - sum_j w_j score_j) / scale        (scale-free gradient)
//   w_i <- w_i - eta_i * g_i,  eta_i = step / sqrt(1 + epochs_i)
//   w   <- floor + project_onto_simplex(w - floor)      (mass 1 - n*floor)
//
// The kMinWeight floor keeps every healthy server sampled (no starvation,
// and the gradient stays observable for recovered servers).
#pragma once

#include <cstdint>
#include <vector>

#include "core/weight_controller.h"
#include "util/shard.h"

namespace inband {

struct GradientDescentConfig {
  SimTime epoch = ms(2);  // descent interval
  double step = 0.3;      // base step size eta_0 (on normalized gradients)
  bool decay_step = true;  // eta_i = step / sqrt(1 + epochs_i); false: constant
  std::uint64_t min_samples = 3;
  SimTime staleness = ms(20);
  SimTime warmup = 0;
  double deadband = 0.01;  // discard updates moving less than this much (L1)
  // Purity contract; the law itself draws no entropy (see KnapsackLbConfig).
  std::uint64_t seed = 0x9d5c;
};

INBAND_SHARD_LOCAL(lb)
class GradientDescentController final : public WeightController {
 public:
  explicit GradientDescentController(GradientDescentConfig config = {});

  const char* name() const override { return "gradient"; }

  // Decay cap: epochs_i saturates here, flooring eta_i at
  // step / sqrt(1 + kMaxDecayEpochs). Unbounded decay is correct for the
  // source papers' static programs but paralyzes the law in a non-stationary
  // system — after a long calm stretch eta falls below the deadband and a
  // fault (stall, flap) can no longer be corrected. 63 floors eta at step/8.
  static constexpr std::uint64_t kMaxDecayEpochs = 63;

  INBAND_HOT std::optional<WeightDecision> control_step(
      ServerLatencyTracker& tracker, const std::vector<double>& weights,
      SimTime now) override;

  const GradientDescentConfig& config() const { return config_; }
  // Number of descent epochs backend i has participated in (drives its
  // per-server step size). Introspection for tests.
  std::uint64_t epochs_seen(BackendId backend) const;

  void digest_state(StateDigest& digest) const override;

 private:
  GradientDescentConfig config_;
  std::vector<std::uint64_t> epochs_;  // per-backend participation count
  std::vector<BackendScore> scores_scratch_;
  std::vector<double> next_;     // the decision's weight vector (owned)
  std::vector<double> scratch_;  // projection workspace
  SimTime last_eval_ = kNoTime;
};

}  // namespace inband
