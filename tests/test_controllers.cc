// Controller-conformance suite: every WeightController registered in the
// zoo (core/controller_zoo.h) is held to the same laws, whatever its control
// strategy:
//
//  * decisions are well-formed — a weight vector is non-negative, normalized
//    and full-width; a shift names a real victim with fraction in (0, 1];
//  * no healthy-server starvation — under a persistent skew every backend
//    keeps a strictly positive share (the weight-vector laws keep their
//    configured floor; the α law's drain is bounded by what it is fed);
//  * purity/determinism — two instances fed the identical (samples, weights)
//    stream emit the identical decision stream and identical digest_state,
//    and two same-seed cluster-rig runs produce the same rig digest;
//  * registry sanity — names round-trip and the factory builds what it says.
//
// A controller added to controller_registry() is automatically subjected to
// all of this; nothing here names a concrete law except the registry test.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "check/state_digest.h"
#include "core/controller_zoo.h"
#include "core/gradient_controller.h"
#include "core/server_latency_tracker.h"
#include "scenario/cluster_rig.h"

namespace inband {
namespace {

constexpr std::size_t kBackends = 4;
constexpr SimTime kTick = us(500);
constexpr int kSteps = 400;  // 200ms of stream: plenty of control epochs

// One recorded decision, weight vector deep-copied for later comparison.
struct LoggedDecision {
  int step;
  BackendId from;
  double fraction;
  bool is_vector;
  std::vector<double> weights;
  double worst_score_ns;
  double best_score_ns;
};

// Drives one controller with a deterministic synthetic score stream and the
// abstract policy loop: the current weight vector starts uniform, adopts any
// vector decision wholesale, and applies a shift decision the way the
// shift-slots mechanism does to shares (victim loses `fraction` of total,
// spread evenly over the rest). Backend 0 turns slow mid-stream and stays
// slow — the persistent-skew scenario the starvation law cares about.
std::vector<LoggedDecision> drive(WeightController& controller) {
  ServerLatencyTracker tracker{kBackends};
  std::vector<double> weights(kBackends, 1.0 / kBackends);
  std::vector<LoggedDecision> log;
  for (int step = 0; step < kSteps; ++step) {
    const SimTime now = kTick * (step + 1);
    for (std::size_t b = 0; b < kBackends; ++b) {
      // Deterministic per-backend jitter; backend 0 slow from step 100 on.
      SimTime sample = us(100) + us(7) * static_cast<SimTime>(b) +
                       us((step * 13 + static_cast<int>(b) * 29) % 23);
      if (b == 0 && step >= 100) sample += ms(1);
      tracker.record(static_cast<BackendId>(b), now, sample);
    }
    const auto decision = controller.control_step(tracker, weights, now);
    if (!decision.has_value()) continue;

    LoggedDecision entry;
    entry.step = step;
    entry.from = decision->from;
    entry.fraction = decision->fraction;
    entry.is_vector = decision->is_weight_vector();
    entry.worst_score_ns = decision->worst_score_ns;
    entry.best_score_ns = decision->best_score_ns;
    if (decision->is_weight_vector()) {
      entry.weights = *decision->weights;
      weights = *decision->weights;
    } else {
      // shift_slots share semantics, in the abstract.
      const double taken = decision->fraction;
      weights[decision->from] = std::max(0.0, weights[decision->from] - taken);
      double total = 0.0;
      for (const double w : weights) total += w;
      for (double& w : weights) w /= total;
    }
    log.push_back(std::move(entry));
  }
  return log;
}

class ConformanceTest : public testing::TestWithParam<ControllerKind> {
 protected:
  static std::unique_ptr<WeightController> make() {
    ControllerZooConfig cfg;
    cfg.kind = GetParam();
    // Uniform, mildly aggressive settings so every law actually fires
    // within the 200ms stream.
    cfg.alpha.min_samples = 2;
    cfg.alpha.cooldown = us(500);
    cfg.knapsack.min_samples = 2;
    cfg.gradient.min_samples = 2;
    cfg.shortest_queue.min_samples = 2;
    return make_controller(cfg);
  }
};

TEST_P(ConformanceTest, DecisionsAreWellFormed) {
  auto controller = make();
  const auto log = drive(*controller);
  ASSERT_FALSE(log.empty()) << controller->name()
                            << " never fired on a 10x persistent skew";
  for (const auto& d : log) {
    EXPECT_LT(d.from, kBackends);
    EXPECT_GE(d.worst_score_ns, d.best_score_ns);
    if (d.is_vector) {
      ASSERT_EQ(d.weights.size(), kBackends);
      double sum = 0.0;
      for (const double w : d.weights) {
        EXPECT_GE(w, 0.0);
        sum += w;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    } else {
      EXPECT_GT(d.fraction, 0.0);
      EXPECT_LE(d.fraction, 1.0);
    }
  }
  EXPECT_EQ(controller->shifts(), log.size());
}

TEST_P(ConformanceTest, NoHealthyServerStarvation) {
  auto controller = make();
  const auto log = drive(*controller);
  ASSERT_FALSE(log.empty());
  // Weight-vector laws must keep every healthy backend above a live floor —
  // the slow server included (it is slow, not dead; starving it would blind
  // the feedback loop to its recovery).
  for (const auto& d : log) {
    if (!d.is_vector) continue;
    for (std::size_t b = 0; b < kBackends; ++b) {
      EXPECT_GE(d.weights[b], 0.015)
          << controller->name() << " starved backend " << b << " at step "
          << d.step;
    }
  }
}

TEST_P(ConformanceTest, PureFunctionOfStreamAndSeed) {
  // Two fresh instances, identical stream: identical decision log and
  // identical internal state digest. This is the purity contract that lets
  // the rig digest-check treat controllers like any other subsystem.
  auto first = make();
  auto second = make();
  const auto log_a = drive(*first);
  const auto log_b = drive(*second);
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].step, log_b[i].step);
    EXPECT_EQ(log_a[i].from, log_b[i].from);
    EXPECT_EQ(log_a[i].fraction, log_b[i].fraction);
    EXPECT_EQ(log_a[i].is_vector, log_b[i].is_vector);
    EXPECT_EQ(log_a[i].weights, log_b[i].weights);
    EXPECT_EQ(log_a[i].worst_score_ns, log_b[i].worst_score_ns);
    EXPECT_EQ(log_a[i].best_score_ns, log_b[i].best_score_ns);
  }
  StateDigest da;
  StateDigest db;
  first->digest_state(da);
  second->digest_state(db);
  EXPECT_EQ(da.value(), db.value());
}

TEST_P(ConformanceTest, SameSeedRigRunsReproduce) {
  // Full-loop determinism: the controller inside the real policy, table and
  // traffic. Two same-seed runs must agree on the complete rig digest.
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.inband.controller_kind = GetParam();
  cfg.num_servers = 3;
  cfg.num_client_hosts = 2;
  cfg.duration = ms(300);
  cfg.inject_time = ms(150);
  cfg.seed = 7;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.server.workers = 8;
  cfg.maglev_table_size = 1021;
  cfg.share_sample_interval = ms(5);
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.tracker.ewma_tau = ms(2);
  std::uint64_t digests[2];
  std::uint64_t updates[2];
  for (int run = 0; run < 2; ++run) {
    ClusterRig rig{cfg};
    rig.run();
    digests[run] = rig.state_digest();
    updates[run] = rig.inband_policy()->controller().shifts();
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(updates[0], updates[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ConformanceTest, testing::ValuesIn(controller_registry()),
    [](const testing::TestParamInfo<ControllerKind>& param) {
      std::string name = controller_kind_name(param.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- registry + factory sanity ---

TEST(ControllerRegistry, NamesRoundTripAndAreUnique) {
  const auto& kinds = controller_registry();
  ASSERT_GE(kinds.size(), 4u);  // the zoo the ablation sweeps
  std::vector<std::string> names;
  for (const ControllerKind kind : kinds) {
    const std::string name = controller_kind_name(kind);
    EXPECT_NE(name, "?");
    const auto parsed = controller_kind_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
    for (const auto& seen : names) EXPECT_NE(seen, name);
    names.push_back(name);
  }
  EXPECT_FALSE(controller_kind_from_name("no-such-law").has_value());
}

TEST(ControllerRegistry, FactoryBuildsWhatItNames) {
  for (const ControllerKind kind : controller_registry()) {
    ControllerZooConfig cfg;
    cfg.kind = kind;
    const auto controller = make_controller(cfg);
    ASSERT_NE(controller, nullptr);
    EXPECT_STREQ(controller->name(), controller_kind_name(kind));
    EXPECT_EQ(controller->shifts(), 0u);
    EXPECT_EQ(controller->last_shift_time(), kNoTime);
  }
}

TEST(ControllerRegistry, StaleFactoryForcesPositiveRefresh) {
  ControllerZooConfig cfg;
  cfg.kind = ControllerKind::kShortestQueueStale;
  cfg.shortest_queue.view_refresh = 0;  // factory must not build a fresh law
  const auto controller = make_controller(cfg);
  EXPECT_STREQ(controller->name(), "shortest-queue-stale");
}

// --- shared weight-vector helpers ---

TEST(WeightHelpers, FloorAndNormalizeIsScaleInvariant) {
  std::vector<double> a{1e-6, 2e-6, 4e-6};
  std::vector<double> b{1.0, 2.0, 4.0};
  floor_and_normalize(a, 0.05);
  floor_and_normalize(b, 0.05);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
  double sum = 0.0;
  for (const double v : a) {
    EXPECT_GE(v, 0.05);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_LT(a[0], a[1]);
  EXPECT_LT(a[1], a[2]);
}

TEST(WeightHelpers, FloorAndNormalizeDegenerateCollapsesToUniform) {
  std::vector<double> zeros{0.0, 0.0, 0.0, 0.0};
  floor_and_normalize(zeros, 0.02);
  for (const double v : zeros) EXPECT_DOUBLE_EQ(v, 0.25);
  std::vector<double> negatives{-1.0, -2.0};
  floor_and_normalize(negatives, 0.02);
  for (const double v : negatives) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(WeightHelpers, FloorClampedSoMassSurvives) {
  // A floor of 0.9 with 4 entries would demand 3.6 of mass; the helper
  // clamps to 1/(2n) and still normalizes.
  std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  floor_and_normalize(w, 0.9);
  double sum = 0.0;
  for (const double v : w) {
    EXPECT_GE(v, 0.125 - 1e-12);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(WeightHelpers, SimplexProjectionProjects) {
  std::vector<double> scratch;
  std::vector<double> w{0.9, 0.4, -0.2};
  project_to_simplex(w, 1.0, scratch);
  double sum = 0.0;
  for (const double v : w) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // A point already on the simplex is a fixed point.
  std::vector<double> fixed{0.2, 0.3, 0.5};
  project_to_simplex(fixed, 1.0, scratch);
  EXPECT_NEAR(fixed[0], 0.2, 1e-12);
  EXPECT_NEAR(fixed[1], 0.3, 1e-12);
  EXPECT_NEAR(fixed[2], 0.5, 1e-12);
  // Interior points shift uniformly, so order is preserved exactly:
  // {0.6, 0.3, 0.5} - tau with tau = 0.4/3.
  std::vector<double> ordered{0.6, 0.3, 0.5};
  project_to_simplex(ordered, 1.0, scratch);
  EXPECT_NEAR(ordered[0], 0.6 - 0.4 / 3.0, 1e-12);
  EXPECT_NEAR(ordered[1], 0.3 - 0.4 / 3.0, 1e-12);
  EXPECT_NEAR(ordered[2], 0.5 - 0.4 / 3.0, 1e-12);
  // Clipping is allowed to create ties at zero: projecting {3, 1, 2} puts
  // all surplus on the max entry.
  std::vector<double> clipped{3.0, 1.0, 2.0};
  project_to_simplex(clipped, 1.0, scratch);
  EXPECT_NEAR(clipped[0], 1.0, 1e-12);
  EXPECT_NEAR(clipped[1], 0.0, 1e-12);
  EXPECT_NEAR(clipped[2], 0.0, 1e-12);
}

TEST(WeightHelpers, L1Distance) {
  EXPECT_DOUBLE_EQ(weight_l1_distance({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(weight_l1_distance({1.0, 0.0}, {0.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(weight_l1_distance({0.5}, {0.5, 0.25}), 0.25);
}

// --- oscillation / convergence metrics (scenario/metrics.h) ---

TEST(ShareMetrics, TotalVariationSeesOscillationAndRest) {
  std::vector<ShareSnapshot> calm;
  std::vector<ShareSnapshot> herd;
  for (int i = 0; i < 10; ++i) {
    const SimTime t = ms(i);
    calm.push_back({t, {0.5, 0.5}});
    const bool odd = i % 2 == 1;
    herd.push_back({t, {odd ? 0.9 : 0.1, odd ? 0.1 : 0.9}});
  }
  EXPECT_DOUBLE_EQ(
      weight_total_variation_per_epoch(calm, ms(1), 0, ms(10)), 0.0);
  // 9 transitions of L1 distance 1.6 over 10 epochs.
  EXPECT_NEAR(weight_total_variation_per_epoch(herd, ms(1), 0, ms(10)),
              9 * 1.6 / 10.0, 1e-9);
  // Windowing excludes transitions outside [from, to).
  EXPECT_DOUBLE_EQ(
      weight_total_variation_per_epoch(herd, ms(1), ms(4), ms(5)), 0.0);
}

// Issue 10 claimed the per-server step decay was a shift derived from epochs
// capped at kMaxDecayEpochs=63 — UB-adjacent on 64-bit and collapsing the
// step to zero before the documented cap. The law as implemented derives
// eta from min(epochs, cap) through a double sqrt: no shift, no UB, and the
// documented floor is step / sqrt(1 + 63) = step / 8. This regression test
// pins the epoch-63 boundary so neither failure mode can be introduced: at
// and past the cap the capped law's decisions must be bit-equal to a
// constant-step law running at exactly step/8 (the step never decays
// further, never collapses to zero), and strictly larger before the cap.
TEST(GradientDescent, StepDecayFloorsAtStepOverEightAtEpoch63) {
  GradientDescentConfig capped_cfg;
  capped_cfg.epoch = ms(2);
  capped_cfg.min_samples = 1;
  capped_cfg.deadband = 0.0;
  capped_cfg.warmup = 0;
  static_assert(GradientDescentController::kMaxDecayEpochs == 63);
  GradientDescentConfig floor_cfg = capped_cfg;
  floor_cfg.decay_step = false;
  floor_cfg.step = capped_cfg.step / 8.0;  // the documented eta floor
  GradientDescentController capped{capped_cfg};
  GradientDescentController floored{floor_cfg};

  ServerLatencyTracker capped_tracker{2};
  ServerLatencyTracker floored_tracker{2};
  const std::vector<double> uniform{0.5, 0.5};
  int compared_past_cap = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    const SimTime now = ms(2) * (epoch + 1);
    for (ServerLatencyTracker* t : {&capped_tracker, &floored_tracker}) {
      t->record(0, now, us(200));  // persistent 2x gap: constant gradient
      t->record(1, now, us(100));
    }
    const std::uint64_t epochs_before = capped.epochs_seen(0);
    const auto a = capped.control_step(capped_tracker, uniform, now);
    const auto b = floored.control_step(floored_tracker, uniform, now);
    ASSERT_TRUE(a.has_value() && b.has_value()) << "epoch " << epoch;
    ASSERT_TRUE(a->is_weight_vector() && b->is_weight_vector());
    const double slow_a = (*a->weights)[0];
    const double slow_b = (*b->weights)[0];
    // Both laws move weight off the slow backend every epoch — the step
    // never collapses to zero, however long the calm stretch.
    EXPECT_LT(slow_a, 0.5);
    if (epochs_before >= 63) {
      // At the cap (and forever after): exactly the floored constant step.
      EXPECT_DOUBLE_EQ(slow_a, slow_b) << "epochs_before=" << epochs_before;
      ++compared_past_cap;
    } else {
      // Before the cap eta is strictly larger, so the capped law moves more.
      EXPECT_LT(slow_a, slow_b) << "epochs_before=" << epochs_before;
    }
  }
  EXPECT_EQ(capped.epochs_seen(0), 200u);
  EXPECT_GT(compared_past_cap, 100);
}

TEST(ShareMetrics, DrainDetectorFindsFirstCrossing) {
  std::vector<ShareSnapshot> history;
  history.push_back({ms(1), {0.5, 0.5}});
  history.push_back({ms(2), {0.3, 0.7}});
  history.push_back({ms(3), {0.04, 0.96}});
  history.push_back({ms(4), {0.03, 0.97}});
  EXPECT_EQ(share_drained_at(history, 0, 0.05, 0), ms(3));
  EXPECT_EQ(share_drained_at(history, 0, 0.05, ms(4)), ms(4));
  EXPECT_EQ(share_drained_at(history, 1, 0.05, 0), kNoTime);
  EXPECT_EQ(share_drained_at(history, 7, 0.05, 0), kNoTime);  // out of range
}

}  // namespace
}  // namespace inband
