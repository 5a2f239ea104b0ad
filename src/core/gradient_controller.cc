#include "core/gradient_controller.h"

#include <algorithm>
#include <cmath>

#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

GradientDescentController::GradientDescentController(
    GradientDescentConfig config)
    : config_{config} {
  INBAND_ASSERT(config_.epoch > 0);
  INBAND_ASSERT(config_.step > 0.0);
  INBAND_ASSERT(config_.deadband >= 0.0);
}

std::optional<WeightDecision> GradientDescentController::control_step(
    ServerLatencyTracker& tracker, const std::vector<double>& weights,
    SimTime now) {
  if (now < config_.warmup) return std::nullopt;
  if (last_eval_ != kNoTime && now - last_eval_ < config_.epoch) {
    return std::nullopt;
  }
  INBAND_COLD_OK(
      "epoch-rate descent step: runs once per epoch, the per-sample path "
      "exits above");
  last_eval_ = now;

  // Like the knapsack law, descend only on a complete fresh view — the floor
  // keeps every backend sampled once the law is in charge.
  tracker.scores_into(now, scores_scratch_);
  const std::size_t n = tracker.backend_count();
  if (scores_scratch_.size() != n || n < 2 || weights.size() != n) {
    return std::nullopt;
  }
  for (const auto& s : scores_scratch_) {
    if (s.samples < config_.min_samples) return std::nullopt;
    if (now - s.last_sample > config_.staleness) return std::nullopt;
  }
  if (epochs_.size() != n) epochs_.assign(n, 0);

  // Weighted mean latency under the *current* weights — the gradient's
  // reference point — and a scale to make the step size unitless.
  double mean = 0.0;
  double wsum = 0.0;
  const BackendScore* worst = &scores_scratch_[0];
  const BackendScore* best = &scores_scratch_[0];
  for (const auto& s : scores_scratch_) {
    mean += weights[s.backend] * s.score_ns;
    wsum += weights[s.backend];
    if (s.score_ns > worst->score_ns) worst = &s;
    if (s.score_ns < best->score_ns) best = &s;
  }
  if (wsum > 1e-9) {
    mean /= wsum;
  } else {
    mean = 0.0;
    for (const auto& s : scores_scratch_) mean += s.score_ns;
    mean /= static_cast<double>(n);
  }
  const double scale = std::max(mean, 1.0);

  next_.assign(n, 0.0);
  for (const auto& s : scores_scratch_) {
    const double g = (s.score_ns - mean) / scale;
    const std::uint64_t decay_epochs =
        std::min(epochs_[s.backend], kMaxDecayEpochs);
    const double eta =
        config_.decay_step
            ? config_.step / std::sqrt(1.0 + static_cast<double>(decay_epochs))
            : config_.step;
    next_[s.backend] = weights[s.backend] - eta * g;
    ++epochs_[s.backend];
  }

  // Project back onto the simplex, floor first so no healthy backend starves.
  const double nd = static_cast<double>(n);
  const double floor = std::min(kMinWeight, 1.0 / (2.0 * nd));
  for (double& w : next_) w -= floor;
  project_to_simplex(next_, 1.0 - nd * floor, scratch_);
  for (double& w : next_) w += floor;

  if (weight_l1_distance(next_, weights) < config_.deadband) {
    return std::nullopt;
  }
  note_update(now);
  WeightDecision out;
  out.from = worst->backend;
  out.weights = &next_;
  out.worst_score_ns = worst->score_ns;
  out.best_score_ns = best->score_ns;
  return out;
}

std::uint64_t GradientDescentController::epochs_seen(BackendId backend) const {
  return backend < epochs_.size() ? epochs_[backend] : 0;
}

void GradientDescentController::digest_state(StateDigest& digest) const {
  digest.mix(shifts());
  digest.mix_i64(last_shift_time());
  digest.mix_i64(last_eval_);
  digest.mix(epochs_.size());
  for (const std::uint64_t e : epochs_) digest.mix(e);
  digest.mix(next_.size());
  for (const double w : next_) digest.mix_double(w);
}

}  // namespace inband
