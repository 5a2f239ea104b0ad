// FIG3 — reproduces Fig. 3: p95 GET latency over time in a two-server
// memcached-style cluster, regular Maglev vs. the latency-aware in-band LB,
// with a 1 ms delay injected on the LB→server-0 path mid-run.
//
// Claims this bench regenerates:
//  * static Maglev's p95 jumps by ≈ the injected delay and stays there;
//  * the latency-aware LB shifts traffic off the slow server and its p95
//    returns near the pre-injection baseline;
//  * the hash-table updates incorporate the inflation within milliseconds
//    (REACT: reaction summary at the bottom).
#include <cstdio>
#include <iostream>

#include "scenario/cluster_rig.h"
#include "telemetry/time_series.h"
#include "util/csv.h"
#include "util/flags.h"

using namespace inband;

namespace {

ClusterRigConfig base_config(std::int64_t duration_s, std::int64_t inject_ms,
                             std::int64_t seed) {
  ClusterRigConfig cfg;
  cfg.num_servers = 2;
  cfg.num_client_hosts = 2;
  cfg.duration = sec(duration_s);
  cfg.inject_time = cfg.duration / 2;
  cfg.inject_extra = ms(inject_ms);
  cfg.victim = 0;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 50;
  cfg.server.workers = 8;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.controller.cooldown = ms(1);
  cfg.inband.controller.min_samples = 3;
  cfg.share_sample_interval = ms(1);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t duration_s = 8;
  std::int64_t inject_ms = 1;
  std::int64_t bucket_ms = 100;
  std::int64_t seed = 2022;
  double loss = 0.0;
  double reorder = 0.0;
  double dup = 0.0;
  std::int64_t fault_jitter_us = 0;

  FlagSet flags{"Fig 3: p95 GET latency, static Maglev vs latency-aware"};
  flags.add("duration_s", &duration_s, "simulated seconds");
  flags.add("inject_ms", &inject_ms, "injected LB->server0 delay, ms");
  flags.add("bucket_ms", &bucket_ms, "aggregation bucket, ms");
  flags.add("seed", &seed, "rng seed");
  flags.add("loss", &loss, "per-packet loss probability on every link");
  flags.add("reorder", &reorder, "per-packet reorder probability");
  flags.add("dup", &dup, "per-packet duplication probability");
  flags.add("fault_jitter_us", &fault_jitter_us,
            "max per-packet fault-layer jitter (us)");
  if (!flags.parse(argc, argv)) return 1;

  FaultPlan fault;
  if (loss > 0.0 || reorder > 0.0 || dup > 0.0 || fault_jitter_us > 0) {
    fault = make_noise_plan(loss, reorder, dup, us(fault_jitter_us));
  }

  auto cfg_maglev = base_config(duration_s, inject_ms, seed);
  cfg_maglev.mode = LbMode::kStaticMaglev;
  cfg_maglev.fault = fault;
  ClusterRig maglev{cfg_maglev};
  maglev.run();

  auto cfg_inband = base_config(duration_s, inject_ms, seed);
  cfg_inband.mode = LbMode::kInband;
  cfg_inband.fault = fault;
  ClusterRig inband{cfg_inband};
  inband.run();

  // --- the figure: p95 per bucket for both designs ---
  CsvWriter csv{std::cout};
  csv.header("t_s", "series", "p95_get_latency_us", "requests");
  const auto emit = [&](ClusterRig& rig, const char* name) {
    TimeSeries series;
    for (const auto& s : rig.get_latency_samples()) {
      series.add(s.t, static_cast<double>(s.value));
    }
    for (const auto& row : series.bucketize(ms(bucket_ms), Agg::kP95)) {
      csv.row(to_sec(row.bucket_start), name, row.value / 1e3, row.count);
    }
  };
  emit(maglev, "maglev");
  emit(inband, "latency-aware");

  // --- summary + claim checks ---
  const SimTime inj = cfg_maglev.inject_time;
  const SimTime end = cfg_maglev.duration;
  const auto window_p95 = [](ClusterRig& rig, SimTime a, SimTime b) {
    return percentile_in_window(rig.get_latency_samples(), a, b, 0.95);
  };
  const double m_before = window_p95(maglev, inj / 2, inj);
  const double m_after = window_p95(maglev, (inj + end) / 2, end);
  const double i_before = window_p95(inband, inj / 2, inj);
  const double i_after = window_p95(inband, (inj + end) / 2, end);

  std::fprintf(stderr, "\n--- FIG3 summary (injection %.1fs, +%lldms) ---\n",
               to_sec(inj), static_cast<long long>(inject_ms));
  std::fprintf(stderr, "p95 GET  maglev: %.0fus -> %.0fus\n", m_before / 1e3,
               m_after / 1e3);
  std::fprintf(stderr, "p95 GET  latency-aware: %.0fus -> %.0fus\n",
               i_before / 1e3, i_after / 1e3);
  const auto dataplane = [](ClusterRig& rig, const char* name) {
    const NetStats net = rig.net().stats();
    std::fprintf(stderr,
                 "dataplane %s: %llu pkts, pool high-water %llu of %llu "
                 "slots\n",
                 name, static_cast<unsigned long long>(net.packets_sent),
                 static_cast<unsigned long long>(net.pool.high_water),
                 static_cast<unsigned long long>(net.pool.slots));
  };
  dataplane(maglev, "maglev");
  dataplane(inband, "latency-aware");

  auto* policy = inband.inband_policy();
  SimTime first_shift = kNoTime;
  for (const auto& ev : policy->shift_history()) {
    if (ev.t >= inj) {
      first_shift = ev.t;
      break;
    }
  }
  SimTime drained_at = kNoTime;
  for (const auto& snap : inband.share_history()) {
    if (snap.t >= inj && !snap.shares.empty() && snap.shares[0] < 0.05) {
      drained_at = snap.t;
      break;
    }
  }
  std::fprintf(stderr, "--- REACT summary ---\n");
  if (first_shift != kNoTime) {
    std::fprintf(stderr, "first hash-table update: %.2fms after injection\n",
                 to_ms(first_shift - inj));
  }
  if (drained_at != kNoTime) {
    std::fprintf(stderr,
                 "victim slot share below 5%%: %.2fms after injection\n",
                 to_ms(drained_at - inj));
  }
  std::fprintf(stderr, "shifts executed: %llu; in-band samples: %llu\n",
               static_cast<unsigned long long>(policy->controller().shifts()),
               static_cast<unsigned long long>(policy->samples_total()));
  std::fprintf(stderr,
               "claim checks: maglev stays inflated %s; latency-aware "
               "recovers %s; reaction in ms %s\n",
               m_after > m_before + 0.7 * static_cast<double>(ms(inject_ms))
                   ? "PASS"
                   : "FAIL",
               i_after < m_after * 0.7 ? "PASS" : "FAIL",
               first_shift != kNoTime && first_shift - inj < ms(50)
                   ? "PASS"
                   : "FAIL");
  return 0;
}
