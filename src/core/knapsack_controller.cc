#include "core/knapsack_controller.h"

#include <algorithm>
#include <cmath>

#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

namespace {
// Granularity of the greedy allocation.
constexpr double kWeightStep = 0.05;
}  // namespace

KnapsackLbController::KnapsackLbController(KnapsackLbConfig config)
    : config_{config} {
  INBAND_ASSERT(config_.epoch > 0);
  INBAND_ASSERT(config_.deadband >= 0.0);
}

void KnapsackLbController::fit(Gauge& g) const {
  // Least squares over the ring. A ring whose weights barely vary carries no
  // slope information; fall back to treating the mean observed score as the
  // marginal cost per unit of weight (intercept 0), which makes the greedy
  // solve waterfill toward w_i proportional to 1/score_i. The fallback must
  // NOT divide the score by the current weight: that proxy makes a lightly
  // weighted backend look steep exactly because it is lightly weighted, and
  // the solve locks onto whoever happens to hold the most weight — an
  // absorbing winner-take-all state the gauging can never escape (constant
  // weights forever mean the ring never regains variance).
  const int n = g.count;
  INBAND_ASSERT(n > 0);
  double wm = 0.0;
  double sm = 0.0;
  for (int i = 0; i < n; ++i) {
    wm += g.weight[static_cast<std::size_t>(i)];
    sm += g.score_ns[static_cast<std::size_t>(i)];
  }
  wm /= n;
  sm /= n;
  double var = 0.0;
  double cov = 0.0;
  for (int i = 0; i < n; ++i) {
    const double dw = g.weight[static_cast<std::size_t>(i)] - wm;
    var += dw * dw;
    cov += dw * (g.score_ns[static_cast<std::size_t>(i)] - sm);
  }
  constexpr double kMinVariance = 1e-6;  // weights live in [0,1]
  if (var > kMinVariance) {
    g.slope = std::max(0.0, cov / var);
    g.intercept = sm - g.slope * wm;
  } else {
    g.slope = std::max(0.0, sm);
    g.intercept = 0.0;
  }
}

std::optional<WeightDecision> KnapsackLbController::control_step(
    ServerLatencyTracker& tracker, const std::vector<double>& weights,
    SimTime now) {
  if (now < config_.warmup) return std::nullopt;
  if (last_eval_ != kNoTime && now - last_eval_ < config_.epoch) {
    return std::nullopt;
  }
  INBAND_COLD_OK(
      "epoch-rate gauging + greedy solve: runs once per epoch, the per-sample "
      "path exits above");
  last_eval_ = now;

  // A solve needs a live opinion about *every* backend: the floor guarantees
  // each one keeps producing samples once the law is in charge, and acting on
  // a partial view would starve whoever happens to be quiet this epoch.
  tracker.scores_into(now, scores_scratch_);
  const std::size_t n = tracker.backend_count();
  if (scores_scratch_.size() != n || n < 2 || weights.size() != n) {
    return std::nullopt;
  }
  for (const auto& s : scores_scratch_) {
    if (s.samples < config_.min_samples) return std::nullopt;
    if (now - s.last_sample > config_.staleness) return std::nullopt;
  }

  // Gauge: one (weight, score) observation per backend per epoch.
  if (gauges_.size() != n) gauges_.assign(n, Gauge{});
  const BackendScore* worst = &scores_scratch_[0];
  const BackendScore* best = &scores_scratch_[0];
  for (const auto& s : scores_scratch_) {
    if (s.score_ns > worst->score_ns) worst = &s;
    if (s.score_ns < best->score_ns) best = &s;
    Gauge& g = gauges_[s.backend];
    g.weight[static_cast<std::size_t>(g.next)] = weights[s.backend];
    g.score_ns[static_cast<std::size_t>(g.next)] = s.score_ns;
    g.next = (g.next + 1) % kGaugePoints;
    g.count = std::min(g.count + 1, kGaugePoints);
    fit(g);
  }

  // Greedy knapsack: floor everyone, then hand out the surplus one step at a
  // time to the backend whose *predicted* latency at its next weight level is
  // lowest. With linear curves this greedily minimizes the max predicted
  // latency increase per unit of weight placed.
  const double nd = static_cast<double>(n);
  const double floor = std::min(kMinWeight, 1.0 / (2.0 * nd));
  const double budget = 1.0 - nd * floor;
  const int steps =
      std::max(1, static_cast<int>(std::lround(budget / kWeightStep)));
  const double unit = budget / steps;
  solved_.assign(n, floor);
  for (int s = 0; s < steps; ++s) {
    std::size_t pick = 0;
    double pick_cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Gauge& g = gauges_[i];
      const double cost = g.intercept + g.slope * (solved_[i] + unit);
      if (i == 0 || cost < pick_cost) {
        pick = i;
        pick_cost = cost;
      }
    }
    solved_[pick] += unit;
  }

  if (weight_l1_distance(solved_, weights) < config_.deadband) {
    return std::nullopt;
  }
  note_update(now);
  WeightDecision out;
  out.from = worst->backend;
  out.weights = &solved_;
  out.worst_score_ns = worst->score_ns;
  out.best_score_ns = best->score_ns;
  return out;
}

double KnapsackLbController::gauged_slope(BackendId backend) const {
  return backend < gauges_.size() ? gauges_[backend].slope : 0.0;
}

void KnapsackLbController::digest_state(StateDigest& digest) const {
  digest.mix(shifts());
  digest.mix_i64(last_shift_time());
  digest.mix_i64(last_eval_);
  digest.mix(gauges_.size());
  for (const auto& g : gauges_) {
    digest.mix_u32(static_cast<std::uint32_t>(g.count));
    digest.mix_double(g.slope);
    digest.mix_double(g.intercept);
  }
  digest.mix(solved_.size());
  for (const double w : solved_) digest.mix_double(w);
}

}  // namespace inband
