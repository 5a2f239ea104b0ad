// Test helper: the reference fig-3 ClusterRig whose digests are pinned
// repo-wide. Seed 2022, in-band LB, injection at half time; the quick form
// (2 servers, 2 client hosts, 400 ms) lands on 082ea340888d2502 and the full
// form (4, 4, 3000 ms) on 835cb5c66c29867a.
#pragma once

#include "scenario/cluster_rig.h"
#include "util/time.h"

namespace inband {

inline ClusterRigConfig dataplane_rig_config(int servers, int clients,
                                             SimTime duration) {
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.num_servers = servers;
  cfg.num_client_hosts = clients;
  cfg.duration = duration;
  cfg.inject_time = duration / 2;
  cfg.seed = 2022;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.server.workers = 8;
  cfg.share_sample_interval = ms(10);
  cfg.audit_interval = 0;
  return cfg;
}

}  // namespace inband
