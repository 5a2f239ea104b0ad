// Unit tests: application layer (KV protocol, KV server with injectors,
// memtier-style client, bulk flows).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "app/bulk_flow.h"
#include "app/kv_client.h"
#include "app/kv_server.h"
#include "fault/server_faults.h"
#include "scenario/metrics.h"
#include "telemetry/time_series.h"

namespace inband {
namespace {

constexpr Ipv4 kClientAddr = make_ipv4(10, 0, 0, 1);
constexpr Ipv4 kServerAddr = make_ipv4(10, 0, 0, 2);

// --- protocol ---

TEST(KvProtocol, WireSizes) {
  EXPECT_EQ(kv_request_wire_size(KvOp::kGet, 0), kKvRequestHeader);
  EXPECT_EQ(kv_request_wire_size(KvOp::kSet, 100), kKvRequestHeader + 100);
  KvMessage resp;
  resp.kind = KvKind::kResponse;
  resp.op = KvOp::kGet;
  resp.hit = true;
  resp.value_len = 256;
  EXPECT_EQ(kv_response_wire_size(resp), kKvResponseHeader + 256);
  resp.hit = false;
  EXPECT_EQ(kv_response_wire_size(resp), kKvResponseHeader);
  resp.op = KvOp::kSet;
  EXPECT_EQ(kv_response_wire_size(resp), kKvResponseHeader);
}

TEST(KvProtocol, ResponseEchoesRequestFields) {
  KvMessage req;
  req.id = 99;
  req.key = 1234;
  req.op = KvOp::kGet;
  req.created_at = us(55);
  const KvMessage resp = kv_response(req, true, 512);
  EXPECT_EQ(resp.kind, KvKind::kResponse);
  EXPECT_EQ(resp.op, KvOp::kGet);
  EXPECT_EQ(resp.id, 99u);
  EXPECT_EQ(resp.key, 1234u);
  EXPECT_TRUE(resp.hit);
  EXPECT_EQ(resp.value_len, 512u);
  EXPECT_EQ(resp.created_at, us(55));
}

// --- server + client end to end (direct link, no LB) ---

struct KvRig {
  explicit KvRig(KvServerConfig sc = {}, KvClientConfig cc = {},
                 SimTime one_way = us(25)) {
    sim = std::make_unique<Simulator>();
    net = std::make_unique<Network>(*sim);
    server_host = std::make_unique<TcpHost>(*sim, *net, kServerAddr, "s",
                                            TcpConfig{}, 2);
    client_host = std::make_unique<TcpHost>(*sim, *net, kClientAddr, "c",
                                            TcpConfig{}, 3);
    net->add_duplex_link(kClientAddr, kServerAddr,
                         {10'000'000'000, one_way, 0});
    server = std::make_unique<KvServer>(*server_host, sc);
    cc.server = {kServerAddr, sc.port};
    client = std::make_unique<KvClient>(*client_host, cc);
  }

  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<TcpHost> server_host;
  std::unique_ptr<TcpHost> client_host;
  std::unique_ptr<KvServer> server;
  std::unique_ptr<KvClient> client;
};

TEST(KvServer, ServesGetAndSet) {
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 1;
  cc.get_ratio = 0.5;
  cc.requests_per_conn = 0;  // no churn
  KvRig rig{{}, cc};
  std::uint64_t responses = 0;
  rig.client->set_recorder([&](const RequestRecord&) { ++responses; });
  rig.client->start();
  rig.sim->run_until(ms(100));
  rig.client->stop();
  EXPECT_GT(responses, 100u);
  EXPECT_EQ(rig.server->requests_served(),
            rig.client->responses_received());
  EXPECT_GT(rig.server->gets(), 0u);
  EXPECT_GT(rig.server->sets(), 0u);
}

TEST(KvServer, GetAfterSetHits) {
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 1;
  cc.keyspace = 5;  // tiny keyspace: sets quickly cover it
  cc.requests_per_conn = 0;
  KvRig rig{{}, cc};
  std::uint64_t hits = 0;
  std::uint64_t gets = 0;
  rig.client->set_recorder([&](const RequestRecord& r) {
    if (r.op == KvOp::kGet) {
      ++gets;
      if (r.hit) ++hits;
    }
  });
  rig.client->start();
  rig.sim->run_until(ms(100));
  EXPECT_GT(gets, 0u);
  EXPECT_GT(hits, gets / 2);  // most gets hit once keys are populated
  EXPECT_LE(rig.server->store_size(), 5u);
}

TEST(KvServer, LatencyIncludesNetworkAndService) {
  KvServerConfig sc;
  sc.get_base = us(15);
  sc.set_base = us(15);
  sc.service_sigma = 0.0;
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 1;
  cc.requests_per_conn = 0;
  KvRig rig{sc, cc, us(25)};  // RTT 50us + 15us service ≈ 65us
  std::vector<SimTime> latencies;
  rig.client->set_recorder(
      [&](const RequestRecord& r) { latencies.push_back(r.latency); });
  rig.client->start();
  rig.sim->run_until(ms(50));
  ASSERT_GT(latencies.size(), 10u);
  for (std::size_t i = 2; i < latencies.size(); ++i) {  // skip warm-up
    EXPECT_GE(latencies[i], us(64));
    EXPECT_LT(latencies[i], us(90));
  }
}

TEST(KvServer, WorkerPoolQueuesUnderOverload) {
  KvServerConfig sc;
  sc.workers = 1;
  sc.get_base = us(200);  // slow single worker
  sc.set_base = us(200);
  sc.service_sigma = 0.0;
  KvClientConfig cc;
  cc.connections = 4;
  cc.pipeline = 8;  // heavy concurrency against one worker
  cc.requests_per_conn = 0;
  KvRig rig{sc, cc};
  std::vector<SimTime> latencies;
  rig.client->set_recorder(
      [&](const RequestRecord& r) { latencies.push_back(r.latency); });
  rig.client->start();
  rig.sim->run_until(ms(100));
  ASSERT_GT(latencies.size(), 50u);
  EXPECT_GT(rig.server->max_queue_depth(), 4u);
  // Queueing pushes latency far beyond one service time.
  double sum = 0;
  for (auto l : latencies) sum += static_cast<double>(l);
  EXPECT_GT(sum / static_cast<double>(latencies.size()),
            static_cast<double>(us(1000)));
}

// A dependency that every request calls and that degrades at 20ms: a step
// in service time from then on.
TEST(KvServer, InjectorInflatesLatency) {
  KvServerConfig sc;
  sc.service_sigma = 0.0;
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 1;
  cc.requests_per_conn = 0;
  KvRig rig{sc, cc};
  SharedDependency dep{0};
  dep.inject(ms(20), ms(1));
  rig.server->add_injector(std::make_unique<DependencyInjector>(dep, 1.0));
  std::vector<Sample> lat;
  rig.client->set_recorder([&](const RequestRecord& r) {
    lat.push_back({r.sent_at, r.latency});
  });
  rig.client->start();
  rig.sim->run_until(ms(40));
  const double before = mean_in_window(lat, 0, ms(18));
  const double after = mean_in_window(lat, ms(22), ms(40));
  EXPECT_GT(after, before + static_cast<double>(us(900)));
}

TEST(KvServer, FreezeStallsAllWorkers) {
  KvServerConfig sc;
  sc.workers = 4;
  sc.service_sigma = 0.0;
  KvClientConfig cc;
  cc.connections = 2;
  cc.pipeline = 2;
  cc.requests_per_conn = 0;
  KvRig rig{sc, cc};
  // A 2ms freeze every 10ms.
  std::vector<ScheduledFreezeInjector::Window> freezes;
  for (SimTime t = 0; t < ms(50); t += ms(10)) {
    freezes.push_back({t, t + ms(2)});
  }
  rig.server->add_injector(
      std::make_unique<ScheduledFreezeInjector>(std::move(freezes)));
  std::vector<Sample> lat;
  rig.client->set_recorder([&](const RequestRecord& r) {
    lat.push_back({r.sent_at, r.latency});
  });
  rig.client->start();
  rig.sim->run_until(ms(50));
  // The closed loop means only the few in-flight requests per cycle hit a
  // pause, so assert on the extreme tail: some requests stalled ~2ms.
  const double worst = percentile_in_window(lat, 0, ms(50), 1.0);
  EXPECT_GT(worst, static_cast<double>(ms(1)));
  // And the median is unaffected (pauses are rare).
  const double median = percentile_in_window(lat, 0, ms(50), 0.5);
  EXPECT_LT(median, static_cast<double>(us(200)));
}

TEST(KvClient, PipelineBoundsOutstanding) {
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 4;
  cc.requests_per_conn = 0;
  KvRig rig{{}, cc};
  rig.client->start();
  for (SimTime t = ms(1); t < ms(20); t += ms(1)) {
    rig.sim->run_until(t);
    EXPECT_LE(rig.client->requests_sent() -
                  rig.client->responses_received(),
              4u);
  }
}

TEST(KvClient, ChurnReconnects) {
  KvClientConfig cc;
  cc.connections = 2;
  cc.pipeline = 2;
  cc.requests_per_conn = 10;
  KvRig rig{{}, cc};
  rig.client->start();
  rig.sim->run_until(ms(200));
  rig.client->stop();
  EXPECT_GT(rig.client->connections_opened(), 10u);
  // Requests per connection respected (within pipeline slack).
  EXPECT_GE(rig.client->responses_received(),
            (rig.client->connections_opened() - 2) * 10);
}

TEST(KvClient, GetRatioRespected) {
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 4;
  cc.get_ratio = 0.8;
  cc.requests_per_conn = 0;
  KvRig rig{{}, cc};
  std::uint64_t gets = 0;
  std::uint64_t total = 0;
  rig.client->set_recorder([&](const RequestRecord& r) {
    ++total;
    if (r.op == KvOp::kGet) ++gets;
  });
  rig.client->start();
  rig.sim->run_until(ms(200));
  ASSERT_GT(total, 500u);
  EXPECT_NEAR(static_cast<double>(gets) / static_cast<double>(total), 0.8,
              0.05);
}

TEST(KvClient, ThinkTimePacesRequests) {
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 1;
  cc.think_time = ms(1);
  cc.requests_per_conn = 0;
  KvRig rig{{}, cc};
  rig.client->start();
  rig.sim->run_until(ms(100));
  // ~1 request per (think + rtt + service) ≈ 1.1ms -> well under 100.
  EXPECT_LT(rig.client->responses_received(), 100u);
  EXPECT_GT(rig.client->responses_received(), 50u);
}

TEST(KvClient, StopClosesConnections) {
  KvClientConfig cc;
  cc.connections = 3;
  cc.requests_per_conn = 0;
  KvRig rig{{}, cc};
  rig.client->start();
  rig.sim->run_until(ms(10));
  rig.client->stop();
  rig.sim->run_until(ms(30));
  EXPECT_EQ(rig.client_host->stack().connection_count(), 0u);
  EXPECT_EQ(rig.server->open_connections(), 0u);
}

TEST(KvServer, BusyUtilizationTracked) {
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 1;
  cc.requests_per_conn = 0;
  KvRig rig{{}, cc};
  rig.client->start();
  rig.sim->run_until(ms(100));
  const double busy = rig.server->busy_worker_seconds(rig.sim->now());
  EXPECT_GT(busy, 0.0);
  EXPECT_LT(busy, 0.1 * 4);  // cannot exceed workers * wall time
}

// --- bulk flows ---

TEST(BulkFlow, SustainedTransferWithRttSamples) {
  Simulator sim;
  Network net{sim};
  TcpHost sender{sim, net, kClientAddr, "snd", {}, 1};
  TcpHost receiver{sim, net, kServerAddr, "rcv", {}, 2};
  net.add_duplex_link(kClientAddr, kServerAddr, {10'000'000'000, us(100), 0});
  BulkSink sink{receiver, 9000};
  TcpConfig cfg;
  cfg.cwnd_bytes = 16 * cfg.mss;
  BulkSender bulk{sender, {kServerAddr, 9000}, cfg};
  std::vector<Sample> rtts;
  bulk.set_rtt_recorder(
      [&](SimTime t, SimTime rtt) { rtts.push_back({t, rtt}); });
  bulk.start();
  sim.run_until(ms(100));
  EXPECT_GT(sink.bytes_received(), 1'000'000u);
  ASSERT_GT(rtts.size(), 100u);
  for (const auto& s : rtts) {
    EXPECT_GE(s.value, us(200));
    EXPECT_LT(s.value, us(400));
  }
}

TEST(BulkFlow, WindowLimitsInFlight) {
  Simulator sim;
  Network net{sim};
  TcpHost sender{sim, net, kClientAddr, "snd", {}, 1};
  TcpHost receiver{sim, net, kServerAddr, "rcv", {}, 2};
  net.add_duplex_link(kClientAddr, kServerAddr, {10'000'000'000, us(100), 0});
  BulkSink sink{receiver, 9000};
  TcpConfig cfg;
  cfg.cwnd_bytes = 4 * cfg.mss;
  BulkSender bulk{sender, {kServerAddr, 9000}, cfg};
  bulk.start();
  for (SimTime t = ms(1); t < ms(20); t += ms(1)) {
    sim.run_until(t);
    ASSERT_NE(bulk.connection(), nullptr);
    EXPECT_LE(bulk.connection()->bytes_in_flight(), cfg.cwnd_bytes);
  }
}


// --- parameterized sweeps ---

// Pipeline invariant across (connections, pipeline) combinations.
class KvClientShape
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KvClientShape, OutstandingNeverExceedsBudget) {
  const auto [conns, pipeline] = GetParam();
  KvClientConfig cc;
  cc.connections = conns;
  cc.pipeline = pipeline;
  cc.requests_per_conn = 0;
  KvRig rig{{}, cc};
  rig.client->start();
  const auto budget = static_cast<std::uint64_t>(conns) *
                      static_cast<std::uint64_t>(pipeline);
  for (SimTime t = ms(1); t < ms(30); t += ms(1)) {
    rig.sim->run_until(t);
    EXPECT_LE(rig.client->requests_sent() - rig.client->responses_received(),
              budget);
  }
  rig.client->stop();
  rig.sim->run_until(ms(40));
  // Stop abandons at most the in-flight requests (server-side work whose
  // response could no longer be sent once the close was underway).
  EXPECT_LE(rig.client->requests_sent() - rig.client->responses_received(),
            budget);
}

INSTANTIATE_TEST_SUITE_P(Shapes, KvClientShape,
                         testing::Combine(testing::Values(1, 2, 8),
                                          testing::Values(1, 4, 16)));

// Server latency falls as workers grow (same offered load).
class KvWorkerSweep : public testing::TestWithParam<int> {};

TEST_P(KvWorkerSweep, MoreWorkersNeverSlower) {
  auto run_with_workers = [](int workers) {
    KvServerConfig sc;
    sc.workers = workers;
    sc.get_base = us(100);
    sc.set_base = us(100);
    sc.service_sigma = 0.0;
    KvClientConfig cc;
    cc.connections = 4;
    cc.pipeline = 4;
    cc.requests_per_conn = 0;
    KvRig rig{sc, cc};
    std::vector<double> lat;
    rig.client->set_recorder([&](const RequestRecord& r) {
      lat.push_back(static_cast<double>(r.latency));
    });
    rig.client->start();
    rig.sim->run_until(ms(100));
    return exact_percentile(std::move(lat), 0.5);
  };
  const double with_n = run_with_workers(GetParam());
  const double with_2n = run_with_workers(GetParam() * 2);
  EXPECT_LE(with_2n, with_n * 1.1);
}

INSTANTIATE_TEST_SUITE_P(Workers, KvWorkerSweep, testing::Values(1, 2, 4));

// The variability injectors compose: a degraded dependency and periodic
// freezes together inflate both the body and the tail.
TEST(KvServer, InjectorsCompose) {
  KvServerConfig sc;
  sc.service_sigma = 0.0;
  KvClientConfig cc;
  cc.connections = 1;
  cc.pipeline = 1;
  cc.requests_per_conn = 0;
  KvRig rig{sc, cc};
  SharedDependency dep{0};
  dep.inject(ms(10), us(300));
  rig.server->add_injector(std::make_unique<DependencyInjector>(dep, 1.0));
  std::vector<ScheduledFreezeInjector::Window> freezes;
  for (SimTime t = 0; t < ms(60); t += ms(20)) {
    freezes.push_back({t, t + ms(2)});
  }
  rig.server->add_injector(
      std::make_unique<ScheduledFreezeInjector>(std::move(freezes)));
  std::vector<Sample> lat;
  rig.client->set_recorder([&](const RequestRecord& r) {
    lat.push_back({r.sent_at, r.latency});
  });
  rig.client->start();
  rig.sim->run_until(ms(60));
  const double median_late =
      percentile_in_window(lat, ms(12), ms(60), 0.5);
  EXPECT_GT(median_late, static_cast<double>(us(350)));  // step visible
  const double worst = percentile_in_window(lat, 0, ms(60), 1.0);
  EXPECT_GT(worst, static_cast<double>(ms(1)));  // GC pause visible
}

// Failure injection: the server crashes (RSTs every connection, queue
// dropped); clients must reconnect and throughput must resume.
TEST(KvClient, SurvivesServerCrash) {
  KvClientConfig cc;
  cc.connections = 2;
  cc.pipeline = 2;
  cc.requests_per_conn = 0;
  KvRig rig{{}, cc};
  rig.client->start();
  rig.sim->schedule_at(ms(10), [&] { rig.server->abort_all_connections(); });
  rig.sim->run_until(ms(10) + us(1));
  const auto at_crash = rig.client->responses_received();
  rig.sim->run_until(ms(60));
  EXPECT_GT(rig.client->connection_failures(), 0u);   // resets were seen
  EXPECT_GT(rig.client->connections_opened(), 2u);    // reconnected
  EXPECT_GT(rig.client->responses_received(), at_crash + 100);  // recovered
}

}  // namespace
}  // namespace inband
