#include "core/shortest_queue_controller.h"

#include <algorithm>

#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

ShortestQueueController::ShortestQueueController(ShortestQueueConfig config)
    : config_{config} {
  INBAND_ASSERT(config_.epoch > 0);
  INBAND_ASSERT(config_.deadband >= 0.0);
}

std::optional<WeightDecision> ShortestQueueController::control_step(
    ServerLatencyTracker& tracker, const std::vector<double>& weights,
    SimTime now) {
  if (now < config_.warmup) return std::nullopt;
  if (last_eval_ != kNoTime && now - last_eval_ < config_.epoch) {
    return std::nullopt;
  }
  INBAND_COLD_OK(
      "epoch-rate reweigh: runs once per epoch, the per-sample path exits "
      "above");
  last_eval_ = now;

  const std::size_t n = tracker.backend_count();
  if (n < 2 || weights.size() != n) return std::nullopt;

  // Refresh the operative view — every epoch for the fresh variant, only
  // every `view_refresh` for the stale one. A refresh demands a complete
  // fresh opinion set; if it isn't available, the stale variant keeps
  // steering by the old view (that's the point) and the fresh one holds.
  const bool want_refresh =
      config_.view_refresh == 0 || view_taken_ == kNoTime ||
      now - view_taken_ >= config_.view_refresh;
  if (want_refresh) {
    tracker.scores_into(now, scores_scratch_);
    bool complete = scores_scratch_.size() == n;
    if (complete) {
      for (const auto& s : scores_scratch_) {
        if (s.samples < config_.min_samples ||
            now - s.last_sample > config_.staleness) {
          complete = false;
          break;
        }
      }
    }
    if (complete) {
      view_ = scores_scratch_;
      view_taken_ = now;
    }
  }
  if (view_.size() != n) return std::nullopt;

  const BackendScore* worst = &view_[0];
  const BackendScore* best = &view_[0];
  next_.assign(n, 0.0);
  for (const auto& s : view_) {
    if (s.score_ns > worst->score_ns) worst = &s;
    if (s.score_ns < best->score_ns) best = &s;
    next_[s.backend] = 1.0 / std::max(s.score_ns, 1.0);
  }
  floor_and_normalize(next_, kMinWeight);

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

void ShortestQueueController::digest_state(StateDigest& digest) const {
  digest.mix(shifts());
  digest.mix_i64(last_shift_time());
  digest.mix_i64(last_eval_);
  digest.mix_i64(view_taken_);
  digest.mix(view_.size());
  for (const auto& s : view_) {
    digest.mix_u32(s.backend);
    digest.mix_double(s.score_ns);
  }
  digest.mix(next_.size());
  for (const double w : next_) digest.mix_double(w);
}

}  // namespace inband
