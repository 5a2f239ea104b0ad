// WeightController — the pluggable control-law interface of the in-band
// feedback loop.
//
// The paper's α-shift rule (move α of total traffic off the worst server) is
// one point in a large design space of weight-update laws. Every controller
// in the zoo consumes the same inputs — the per-server in-band latency
// scores aggregated by ServerLatencyTracker and the current per-backend
// weight (table-share) vector — and emits a WeightDecision that the policy
// applies through the existing Maglev table-update path. Two decision
// expressions exist so the paper's law stays bit-identical:
//
//  * shift:   "move `fraction` of total traffic off backend `from`" — the
//    α-shift primitive, applied in place via MaglevTable::shift_slots;
//  * weights: a full normalized target-share vector, applied via a weighted
//    Maglev rebuild (the mechanism benchmarked in ablation_table_update).
//
// Controllers must be deterministic: the decision stream is a pure function
// of (sample stream, weight inputs, config/seed). Nothing here may read
// wall clocks, iterate unordered containers, or draw from unseeded entropy —
// detlint/hotlint enforce this like everywhere else in the tree.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/server_latency_tracker.h"
#include "util/hotpath.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class StateDigest;

// Registered control laws. kShortestQueueStale is kShortestQueue acting on a
// periodically refreshed (i.e. stale) score snapshot — the classic
// out-of-band-polling baseline.
enum class ControllerKind {
  kAlphaShift,
  kKnapsack,
  kGradientDescent,
  kShortestQueue,
  kShortestQueueStale,
};

const char* controller_kind_name(ControllerKind kind);
std::optional<ControllerKind> controller_kind_from_name(std::string_view name);

// One control decision. `weights == nullptr` selects the shift expression;
// otherwise `weights` points at a controller-owned normalized target-share
// vector (indexed by backend id) that stays valid until the controller's
// next control_step() call.
struct WeightDecision {
  BackendId from = kNoBackend;  // shift victim / diagnostically-worst backend
  double fraction = 0.0;        // shift expression only
  const std::vector<double>* weights = nullptr;
  double worst_score_ns = 0.0;
  double best_score_ns = 0.0;

  bool is_weight_vector() const { return weights != nullptr; }
};

INBAND_SHARD_LOCAL(lb)
class WeightController {
 public:
  virtual ~WeightController() = default;

  virtual const char* name() const = 0;

  // Called once per in-band latency sample (not per packet). `weights` is
  // the policy's live per-backend share vector. Returns the decision to
  // execute, or nullopt. Implementations must call note_update() exactly
  // when they return a decision, so cooldown/epoch bookkeeping and the
  // shifts() counter stay consistent across laws.
  INBAND_HOT virtual std::optional<WeightDecision> control_step(
      ServerLatencyTracker& tracker, const std::vector<double>& weights,
      SimTime now) = 0;

  // Executed decisions. The α-shift law calls these "shifts"; the name is
  // kept for every law so existing benches/tests read unchanged.
  std::uint64_t shifts() const { return updates_; }
  SimTime last_shift_time() const { return last_update_; }

  // Folds controller-internal state into a determinism digest. Used by the
  // conformance suite to compare two same-seed instances; deliberately NOT
  // folded into InbandLbPolicy::digest_state so the rig digest of the
  // default α-shift configuration is unchanged by the zoo refactor.
  virtual void digest_state(StateDigest& digest) const { (void)digest; }

 protected:
  void note_update(SimTime now) {
    ++updates_;
    last_update_ = now;
  }

 private:
  std::uint64_t updates_ = 0;
  SimTime last_update_ = kNoTime;
};

// --- shared weight-vector helpers (used by the zoo laws and their tests) ---

// Per-backend weight floor of the weight-vector laws (knapsack, gradient,
// shortest-queue): every healthy backend keeps a trickle of traffic, so its
// score keeps refreshing and nobody starves.
inline constexpr double kMinWeight = 0.02;

// Rescales `w` onto the probability simplex with a per-entry floor. The
// input's magnitude is irrelevant (it is first normalized to sum 1, negative
// entries clipped): each entry ends at `floor + surplus_i`, surpluses
// proportional to the positive parts of (share_i - floor) and summing to
// 1 - n*floor. Degenerate inputs (zero, or all-at-or-below-floor) collapse
// to the uniform vector. `floor` is internally clamped to 1/(2n) so n*floor
// can never exceed the total mass.
void floor_and_normalize(std::vector<double>& w, double floor);

// Euclidean projection of `w` onto {v : v_i >= 0, sum v_i = mass} (sort-based
// O(n log n) algorithm; deterministic). `scratch` is caller-owned so the
// epoch-rate caller reuses capacity.
void project_to_simplex(std::vector<double>& w, double mass,
                        std::vector<double>& scratch);

// L1 distance between two weight vectors (total variation x2); the
// oscillation deadband metric shared by the zoo laws.
double weight_l1_distance(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace inband
