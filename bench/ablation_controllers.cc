// ABLATION — the controller zoo under fire.
//
// Sweeps every registered WeightController (α-shift, KnapsackLB gauging,
// distributed gradient descent, shortest-queue and its stale-view variant)
// over a grid of fault plans on the Fig. 3 cluster rig:
//
//   clean  — only the mid-run +1 ms delay on the LB→victim path;
//   loss   — plus 1% loss / 1% reorder / 0.2% dup / 20 us jitter everywhere;
//   flap   — plus a scheduled outage of one LB→server link before injection;
//   stall  — plus a server process freeze before injection.
//
// Per (controller, plan) cell it reports the three quantities the zoo is
// judged on:
//   * convergence_ms — injection → victim slot share below half its fair
//     share (the reaction-time claim, generalized);
//   * steady_p95_us / steady_p99_us — client GET latency in the settled
//     final quarter of the run;
//   * oscillation_tv_per_epoch — total variation of the share vector per
//     16 ms epoch over that settled window: 0 for a law at rest, high for
//     one that herds (scenario/metrics.h).
//
// One CSV row per cell on stdout. Every cell runs twice with the same seed;
// the state digests must match or the harness exits non-zero — controller
// determinism is part of the result, not an assumption — so CI can run
// `--quick` as a smoke test.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "scenario/cluster_rig.h"
#include "util/csv.h"
#include "util/flags.h"

using namespace inband;

namespace {

struct PlanSpec {
  const char* name;
  FaultPlan plan;
};

// The fault grid, windows scaled to the run length. Disruptions (flap,
// stall) land in the first half so the post-injection convergence window
// stays clean; background noise runs throughout.
std::vector<PlanSpec> make_plans(SimTime duration) {
  std::vector<PlanSpec> plans;
  plans.push_back({"clean", {}});

  plans.push_back({"loss", make_noise_plan(0.01, 0.01, 0.002, us(20))});

  FaultPlan flap;
  LinkFlapSpec f;
  f.scope = LinkScope::kLbToServer;
  f.index = 1;  // not the delay victim: two distinct disturbances
  f.down_at = duration / 4;
  f.up_at = duration / 4 + duration / 16;
  flap.flaps.push_back(f);
  plans.push_back({"flap", flap});

  FaultPlan stall;
  ServerFaultSpec s;
  s.kind = ServerFaultSpec::Kind::kStall;
  s.server = 1;
  s.at = duration / 4;
  s.until = duration / 4 + duration / 8;
  stall.servers.push_back(s);
  plans.push_back({"stall", stall});
  return plans;
}

struct CellResult {
  std::string controller;
  std::string plan;
  double convergence_ms = -1.0;  // -1: victim never drained
  double steady_p95_us = 0.0;
  double steady_p99_us = 0.0;
  double oscillation_tv_per_epoch = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t samples = 0;
  std::uint64_t digest = 0;
  bool digest_match = false;
};

ClusterRigConfig cell_config(ControllerKind kind, const FaultPlan& plan,
                             std::int64_t seed, SimTime duration,
                             int servers) {
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.num_servers = servers;
  cfg.num_client_hosts = 2;
  cfg.duration = duration;
  cfg.inject_time = duration / 2;
  cfg.inject_extra = ms(1);
  cfg.victim = 0;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.fault = plan;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 50;
  cfg.server.workers = 8;
  cfg.maglev_table_size = 1021;
  cfg.share_sample_interval = ms(1);
  cfg.audit_interval = 0;
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.controller_kind = kind;
  cfg.inband.controller.cooldown = ms(1);
  cfg.inband.controller.min_samples = 3;
  cfg.inband.tracker.ewma_tau = ms(2);
  return cfg;
}

constexpr SimTime kOscEpoch = ms(16);

CellResult run_cell(ControllerKind kind, const PlanSpec& spec,
                    std::int64_t seed, SimTime duration, int servers) {
  const ClusterRigConfig cfg =
      cell_config(kind, spec.plan, seed, duration, servers);
  const SimTime inj = cfg.inject_time;
  const SimTime steady_from = inj + (duration - inj) / 2;

  CellResult cell;
  cell.controller = controller_kind_name(kind);
  cell.plan = spec.name;

  std::uint64_t digests[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ClusterRig rig{cfg};
    rig.run();
    digests[run] = rig.state_digest();
    if (run != 0) continue;

    // Metrics come from the first run; the second exists only to prove the
    // first reproduces.
    const double fair = 1.0 / static_cast<double>(servers);
    const SimTime drained = share_drained_at(
        rig.share_history(), static_cast<std::size_t>(cfg.victim), fair / 2.0,
        inj);
    if (drained != kNoTime) cell.convergence_ms = to_ms(drained - inj);
    const auto latency = rig.get_latency_samples();
    cell.steady_p95_us =
        percentile_in_window(latency, steady_from, duration, 0.95) / 1e3;
    cell.steady_p99_us =
        percentile_in_window(latency, steady_from, duration, 0.99) / 1e3;
    cell.oscillation_tv_per_epoch = weight_total_variation_per_epoch(
        rig.share_history(), kOscEpoch, steady_from, duration);
    auto* policy = rig.inband_policy();
    cell.updates = policy->controller().shifts();
    cell.samples = policy->samples_total();
  }
  cell.digest = digests[0];
  cell.digest_match = digests[0] == digests[1];
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t duration_ms = 4000;
  std::int64_t servers = 3;
  std::int64_t seed = 2022;
  bool quick = false;
  std::string only_controller;
  FlagSet flags{"controller zoo vs fault plans: convergence, steady tails, "
                "oscillation"};
  flags.add("duration_ms", &duration_ms, "simulated ms per cell");
  flags.add("servers", &servers, "rig server count");
  flags.add("seed", &seed, "simulation seed");
  flags.add("quick", &quick, "800 ms cells, for smoke tests");
  flags.add("controller", &only_controller,
            "restrict the sweep to one controller (by name)");
  if (!flags.parse(argc, argv)) return 1;

  if (quick) duration_ms = 800;
  const SimTime duration = ms(duration_ms);

  std::vector<ControllerKind> kinds;
  if (only_controller.empty()) {
    kinds = controller_registry();
  } else {
    const auto kind = controller_kind_from_name(only_controller);
    if (!kind.has_value()) {
      std::fprintf(stderr, "unknown controller: %s\n", only_controller.c_str());
      return 1;
    }
    kinds.push_back(*kind);
  }
  const auto plans = make_plans(duration);

  CsvWriter csv{std::cout};
  csv.header("controller", "plan", "convergence_ms", "steady_p95_us",
             "steady_p99_us", "oscillation_tv_per_epoch", "updates",
             "samples", "digest", "digest_match");
  bool all_match = true;
  for (const ControllerKind kind : kinds) {
    for (const auto& spec : plans) {
      const CellResult cell = run_cell(kind, spec, seed, duration,
                                       static_cast<int>(servers));
      all_match = all_match && cell.digest_match;
      char hex[32];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(cell.digest));
      csv.row(cell.controller, cell.plan, cell.convergence_ms,
              cell.steady_p95_us, cell.steady_p99_us,
              cell.oscillation_tv_per_epoch, cell.updates, cell.samples, hex,
              cell.digest_match ? 1 : 0);
      std::cout.flush();
    }
  }

  if (!all_match) {
    std::fprintf(stderr, "FAIL: same-seed cell digests diverged\n");
    return 1;
  }
  return 0;
}
