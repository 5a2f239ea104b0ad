// Shortest-queue-style proportional weighting, with an optional stale-view
// variant.
//
// The classic baseline the source paper argues against sizing by: send
// traffic in proportion to how "short" each server currently looks. Here a
// server's queue proxy is its in-band latency score, so the law is
//
//   w_i  ~  1 / max(score_i, 1ns)
//
// renormalized over the healthy set (floored at kMinWeight, so nobody
// starves): plain inverse-latency proportionality.
//
// The stale-info variant (`view_refresh > 0`) recomputes from a *snapshot*
// of the scores that only refreshes every `view_refresh`: between refreshes
// the law keeps steering by the old view, reproducing the stale-control-state
// herding that motivates in-band feedback in the first place (the "fast
// in-band signal vs slow out-of-band collection" contrast of PAPER.md §3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/weight_controller.h"
#include "util/shard.h"

namespace inband {

struct ShortestQueueConfig {
  SimTime epoch = ms(2);   // reweigh interval
  SimTime view_refresh = 0;  // 0: always-fresh view; >0: stale-info variant
  std::uint64_t min_samples = 1;
  SimTime staleness = ms(20);
  SimTime warmup = 0;
  double deadband = 0.01;
  // Purity contract; the law itself draws no entropy (see KnapsackLbConfig).
  std::uint64_t seed = 0x50f7;
};

INBAND_SHARD_LOCAL(lb)
class ShortestQueueController final : public WeightController {
 public:
  explicit ShortestQueueController(ShortestQueueConfig config = {});

  const char* name() const override {
    return config_.view_refresh > 0 ? "shortest-queue-stale"
                                    : "shortest-queue";
  }

  INBAND_HOT std::optional<WeightDecision> control_step(
      ServerLatencyTracker& tracker, const std::vector<double>& weights,
      SimTime now) override;

  const ShortestQueueConfig& config() const { return config_; }

  void digest_state(StateDigest& digest) const override;

 private:
  ShortestQueueConfig config_;
  std::vector<BackendScore> scores_scratch_;
  std::vector<BackendScore> view_;  // stale snapshot (view_refresh > 0)
  std::vector<double> next_;        // the decision's weight vector (owned)
  SimTime last_eval_ = kNoTime;
  SimTime view_taken_ = kNoTime;
};

}  // namespace inband
