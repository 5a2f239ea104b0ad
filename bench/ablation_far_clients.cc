// FAR — §5(1): "the end-to-end RTT of a client request is not always
// representative of the delays that an LB can control."
//
// Three near clients plus one client 1 ms farther away, no server fault at
// all. The far client's samples (RTT + 2 ms round trip) land on whichever
// server its connections currently map to, so the vanilla controller keeps
// "discovering" a slow server that does not exist and drains healthy
// backends. The client-floor normalization extension scores each sample as
// inflation above the smallest sample ever seen from that client address,
// cancelling the client-specific distance.
//
// Output: per configuration — spurious shifts, final slot shares, p95.
#include <cstdio>
#include <iostream>

#include "scenario/cluster_rig.h"
#include "util/csv.h"
#include "util/flags.h"

using namespace inband;

namespace {

struct Row {
  const char* name;
  std::uint64_t shifts;
  double share0;
  double share1;
  double p95_us;
  std::uint64_t samples;
};

Row run_case(const char* name, bool normalize, SimTime far_extra,
             std::int64_t duration_s) {
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.num_servers = 2;
  cfg.num_client_hosts = 4;
  cfg.client_extra_distance = {0, 0, 0, far_extra};  // client 3 is far
  cfg.duration = sec(duration_s);
  cfg.inject_time = sec(duration_s * 10);  // no server fault, ever
  cfg.client.connections = 2;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 50;
  cfg.server.workers = 8;
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.controller.cooldown = ms(1);
  cfg.inband.normalize_client_floor = normalize;
  ClusterRig rig{cfg};
  rig.run();

  auto* policy = rig.inband_policy();
  const auto shares = policy->table().shares();
  const double p95 = percentile_in_window(rig.get_latency_samples(),
                                          sec(1), cfg.duration, 0.95);
  return {name, policy->controller().shifts(), shares[0], shares[1],
          p95 / 1e3, policy->samples_total()};
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t duration_s = 6;
  std::int64_t far_extra_us = 1000;

  FlagSet flags{"ablation: far clients bias the controller (paper §5.1)"};
  flags.add("duration_s", &duration_s, "simulated seconds");
  flags.add("far_extra_us", &far_extra_us, "extra one-way distance, us");
  if (!flags.parse(argc, argv)) return 1;

  CsvWriter csv{std::cout};
  csv.header("case", "spurious_shifts", "share_s0", "share_s1", "p95_us",
             "inband_samples");
  const Row rows[] = {
      run_case("equidistant_absolute", false, 0, duration_s),
      run_case("far_client_absolute", false, us(far_extra_us), duration_s),
      run_case("far_client_client_floor", true, us(far_extra_us), duration_s),
  };
  for (const auto& r : rows) {
    csv.row(r.name, r.shifts, r.share0, r.share1, r.p95_us, r.samples);
  }

  std::fprintf(stderr,
               "\nexpectation: no fault is injected, so every shift is "
               "spurious. The absolute-latency controller chases the far "
               "client around the pool; client-floor normalization should "
               "bring shifts back to ~the equidistant baseline.\n");
  return 0;
}
