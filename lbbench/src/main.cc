// lbbench — the repository benchmark.
//
//   lbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--size full|tiny] [--out <dir>]
//
// --trace 0 measures the end-to-end metrics: rig throughput and set-up time,
// the simulated request latencies and rate, and the whole-LB replay. --trace 1
// measures the per-layer metrics: it reruns the rig with counting observers,
// drives the captured LB stream through the decomposed replay (the traced
// run, whose spans are written to <out>), times the event queue at the rig's
// measured occupancy, and, for the sharded workload, sweeps the worker count.
//
// stdout carries one "metric" line per metric (name, value, unit, sample
// count), one "gate" line per correctness gate, and last a JSON object with
// keys correct / attempted / failed / metrics. The exit code is 0 whenever a
// result was printed; a run that cannot produce one exits non-zero.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rigs.h"
#include "sim/event_queue.h"
#include "timing.h"

using namespace inband;
using namespace lbbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Size size = Size::kFull;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "lbbench: %s\nusage: lbbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] [--out dir]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--size") {
        if (v != "full" && v != "tiny") usage("--size is full or tiny");
        a.size = v == "tiny" ? Size::kTiny : Size::kFull;
      } else if (k == "--out") {
        a.out = v;
      } else {
        usage(("unknown flag " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace is 0 or 1");
  if (!(a.seconds > 0) || a.seconds > 3600) usage("--seconds out of range");
  return a;
}

// ---------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t n = 0;  // samples behind the value
  std::string note;
  bool result = false;  // part of the result line
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::uint64_t n,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), n,
                        std::move(note)});
  }
  // A per-call stage cost: median, p99 and call count as three metrics.
  void add_calls(const std::string& name, const CallStats& s,
                 double timer_ns, const std::string& note) {
    const std::string t = "timer_ns=" + fmt(timer_ns) + "; " + note;
    add(name, s.p50_ns, "ns", s.calls, "median per call; " + t);
    add(name + "_p99", s.p99_ns, "ns", s.calls, "p99 per call; " + t);
    add(name + "_calls", static_cast<double>(s.calls), "count", s.calls, t);
  }
  void gate(std::string name, bool pass, std::string detail) {
    gates_.push_back({std::move(name), pass, std::move(detail)});
  }
  bool correct() const {
    for (const auto& g : gates_) {
      if (!g.pass) return false;
    }
    return true;
  }

  static std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
  }

  void print(std::FILE* f) const {
    for (const auto& m : metrics_) {
      std::fprintf(f, "metric %s = %s %s (n=%llu)%s%s\n", m.name.c_str(),
                   fmt(m.value).c_str(), m.unit.c_str(),
                   static_cast<unsigned long long>(m.n),
                   m.note.empty() ? "" : " ", m.note.c_str());
    }
    for (const auto& g : gates_) {
      std::fprintf(f, "gate %s %s %s\n", g.name.c_str(),
                   g.pass ? "PASS" : "FAIL", g.detail.c_str());
    }
  }

  // The result line: the selected metrics.
  std::string json(std::uint64_t attempted, std::uint64_t failed) const {
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics_) {
      if (!m.result) continue;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      s += first ? "" : ", ";
      first = false;
      s += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    }
    s += "}}";
    return s;
  }

  // Marks which metrics form the result line; empty `names` selects all.
  void select(const std::vector<std::string>& names) {
    for (auto& m : metrics_) {
      m.result = names.empty();
      for (const auto& n : names) m.result = m.result || m.name == n;
    }
  }

 private:
  struct Gate {
    std::string name;
    bool pass;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Gate> gates_;
};

// -------------------------------------------------------------- helpers --

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Mean of the middle half of `v` (all of it below four values): as robust
// as the median, but not stuck on the integer nanoseconds a per-call
// quantile reads.
double midmean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t q = v.size() / 4;
  double sum = 0;
  for (std::size_t i = q; i < v.size() - q; ++i) sum += v[i];
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size() - 2 * q);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Repeats `body(i)` at least `min_reps` times and until `budget_s` of host
// time has gone, at most `max_reps` times.
template <typename F>
void repeat_for(double budget_s, int min_reps, int max_reps, F&& body) {
  const auto t0 = Clock::now();
  for (int i = 0;
       i < max_reps && (i < min_reps || seconds_since(t0) < budget_s); ++i) {
    body(i);
  }
}

// Derived rig seeds whose requests the simulated (sim-time) metrics pool.
constexpr int kSimSeeds = 3;

const std::vector<std::string> kEndToEnd = {
    "sim_pkts_per_s", "setup_s",     "peak_rss_mb", "lb_pkts_per_s",
    "lb_pkt_ns_p50",  "lb_pkt_ns_p99", "get_p50_us", "get_p95_us",
    "get_p99_us",     "reqs_per_sim_s"};

// ------------------------------------------------------- trace 0: e2e ----

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Totals run_end_to_end(const Args& a, const WorkloadSpec& spec, int workers,
                      double timer_ns, Report& rep) {
  // The capture run: one worker, the LB stream recorded in memory.
  const LbSetup lbs = lb_setup_of(spec);
  LbCapture cap{lbs.pool};
  RunOptions capture_opt;
  capture_opt.capture = &cap;
  const RigRun live = run_rig(spec, 1, capture_opt);
  const std::uint64_t live_digest = cap.live_digest();
  if (spec.injects) {
    rep.gate("victim_drained", live.drained_at != kNoTime,
             "victim share < 5% after injection at " +
                 Report::fmt(to_ms(spec.cluster.inject_time)) + " ms");
  }

  // Rounds of: two set-up trials, one rig rep, whole-LB replays without and
  // with the per-call timer. Interleaving spreads every metric's samples
  // over the whole run, so a slow spell of the host lands on all of them
  // alike instead of on whichever phase it coincides with. Rig reps cycle
  // over kSimSeeds derived seeds; derived seed 0 is the capture run's, and
  // every rep of a seed must reproduce that seed's digest.
  std::vector<double> setups, pps, lb_pps, call_p50, call_p99;
  std::vector<std::uint32_t> call_ns;
  std::vector<SimTime> gets;
  // Request rate: completions after the first one over the time between the
  // first and the last, summed over seeds.
  std::uint64_t window_requests = 0, rate_requests = 0;
  SimTime rate_time = 0;
  std::map<int, std::uint64_t> first_digest;
  bool repeat_ok = true, cross_ok = true, match = true;
  int repeats = 0;
  Totals tot;
  std::uint64_t conn_failures = 0, queue_drops = 0, lb_drops = 0;
  repeat_for(a.seconds, kSimSeeds + 1, 1000, [&](int i) {
    for (int k = 0; k < 2; ++k) setups.push_back(time_setup(spec));

    const int sub = i % kSimSeeds;
    RigRun r = run_rig(reseeded(spec, a.seed, sub), workers, {});
    pps.push_back(ratio(static_cast<double>(r.packets), r.wall_s));
    if (i == 0) cross_ok = r.digest == live.digest;
    if (first_digest.count(sub) != 0) {
      repeat_ok = repeat_ok && first_digest[sub] == r.digest;
      ++repeats;
    } else {
      first_digest[sub] = r.digest;
      gets.insert(gets.end(), r.get_latency.begin(), r.get_latency.end());
      window_requests += r.window_requests;
      if (r.window_requests > 1) {
        rate_requests += r.window_requests - 1;
        rate_time += r.last_done - r.first_done;
      }
      tot.attempted += r.sent;
      tot.failed += r.failed;
      conn_failures += r.conn_failures;
      queue_drops += r.net.packets_dropped;
      lb_drops += r.lb_drops_no_backend;
    }

    // Replays take 0.4 and 0.6 of the rig rep's time: rig 50%, LB 50%.
    repeat_for(0.4 * r.wall_s, 1, 1000, [&](int) {
      const WholeReplay w = replay_whole(lbs, cap, nullptr);
      match = match && w.digest == live_digest && w.forwarded == w.packets;
      lb_pps.push_back(ratio(static_cast<double>(w.packets), w.wall_s));
    });
    repeat_for(0.6 * r.wall_s, 1, 1000, [&](int) {
      call_ns.clear();
      const WholeReplay w = replay_whole(lbs, cap, &call_ns);
      match = match && w.digest == live_digest && w.forwarded == w.packets;
      call_p50.push_back(quantile(call_ns, 0.50));
      call_p99.push_back(quantile(call_ns, 0.99));
    });
  });

  rep.gate("rig_digest_repeats", repeat_ok && repeats > 0,
           std::to_string(repeats) + " same-seed reps, digest " +
               hex(first_digest[0]));
  if (spec.sharded) {
    rep.gate("sharded_digest_w1_eq_w" + std::to_string(workers), cross_ok,
             "combined digest at 1 worker " + hex(live.digest));
  } else {
    rep.gate("capture_run_digest_repeats", cross_ok,
             "capture run (observer on) digest " + hex(live.digest));
  }
  rep.gate("lb_replay_matches_live", match,
           "backend stream digest " + hex(live_digest) + " over " +
               std::to_string(cap.records.size()) + " packets");

  rep.add("setup_s", median(setups), "s", setups.size(),
          "median rig construction");
  rep.add("sim_pkts_per_s", median(pps), "pkts/s", pps.size(),
          "host; median over rig reps of packets / wall; " +
              std::to_string(workers) + " worker(s)");
  const std::string win =
      "sim; " + std::to_string(first_digest.size()) +
      " seeds pooled; requests completed in [" +
      Report::fmt(to_ms(spec.window_from)) + ", " +
      Report::fmt(to_ms(spec.cluster.duration)) + ") ms";
  rep.add("get_p50_us", quantile(gets, 0.50) / 1e3, "us", gets.size(), win);
  rep.add("get_p95_us", quantile(gets, 0.95) / 1e3, "us", gets.size(), win);
  rep.add("get_p99_us", quantile(gets, 0.99) / 1e3, "us", gets.size(), win);
  rep.add("reqs_per_sim_s",
          ratio(static_cast<double>(rate_requests), to_sec(rate_time)),
          "req/s", window_requests, win);
  rep.add("fail_frac",
          ratio(static_cast<double>(tot.failed),
                static_cast<double>(tot.attempted)),
          "ratio", tot.attempted,
          "failed=" + std::to_string(tot.failed) +
              " attempted=" + std::to_string(tot.attempted) +
              " conn_failures=" + std::to_string(conn_failures) +
              " net.queue_drops=" + std::to_string(queue_drops) +
              " lb.drops_no_backend=" + std::to_string(lb_drops));

  const std::uint64_t n = cap.records.size();
  rep.add("lb_pkts_per_s", median(lb_pps), "pkts/s", n * lb_pps.size(),
          "host; whole-LB replay, no per-call timer; median over " +
              std::to_string(lb_pps.size()) + " reps of " + std::to_string(n) +
              " packets");
  const std::string call_note =
      "host; per handle_batch call, mid-mean over " +
      std::to_string(call_p50.size()) + " reps; timer_ns=" +
      Report::fmt(timer_ns);
  rep.add("lb_pkt_ns_p50", midmean(call_p50), "ns", n * call_p50.size(),
          call_note);
  rep.add("lb_pkt_ns_p99", midmean(call_p99), "ns", n * call_p99.size(),
          call_note);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "getrusage ru_maxrss");
  return tot;
}

// ----------------------------------------------------- trace 1: layers ----

// Event-queue operations are timed per block of kBlock: one of them is far
// below the timer's own cost.
constexpr int kBlock = 256;

CallStats block_stats(std::vector<std::uint32_t>& per_block) {
  CallStats s = call_stats(per_block);
  s.p50_ns /= kBlock;
  s.p99_ns /= kBlock;
  s.calls *= kBlock;
  return s;
}

// xorshift64: cheap deterministic event times.
struct XorShift {
  std::uint64_t x;
  SimTime operator()(SimTime range) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<SimTime>(x % static_cast<std::uint64_t>(range));
  }
};

struct Bump {
  std::uint64_t* fired;
  void operator()() const { ++*fired; }
};

// Times `op(queue, rng, callback)` per block of kBlock calls on a queue
// holding `pending` events, until `budget_s` has passed.
template <typename Op>
CallStats time_queue(std::size_t pending, double budget_s, Op&& op) {
  EventQueue q;
  XorShift rnd{0x2545F4914F6CDD1DULL};
  std::uint64_t fired = 0;
  const Bump fn{&fired};
  for (std::size_t i = 0; i < pending; ++i) q.push(rnd(100'000), fn);
  std::vector<std::uint32_t> per_block;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < budget_s) {
    const std::int64_t a = now_ns();
    for (int k = 0; k < kBlock; ++k) op(q, rnd, fn);
    per_block.push_back(static_cast<std::uint32_t>(now_ns() - a));
  }
  return block_stats(per_block);
}

// Hold model: fire the earliest event, push a replacement.
CallStats eq_hold(std::size_t pending, double budget_s) {
  return time_queue(pending, budget_s,
                    [](EventQueue& q, XorShift& rnd, const Bump& fn) {
                      const SimTime t = q.fire_next([](SimTime) {});
                      q.push(t + 1 + rnd(100'000), fn);
                    });
}

// Timer churn: arm a retransmit-style timer and cancel it, as TCP does for
// every acknowledged segment, while the queue keeps advancing underneath.
CallStats eq_cancel(std::size_t pending, double budget_s) {
  return time_queue(pending, budget_s,
                    [](EventQueue& q, XorShift& rnd, const Bump& fn) {
                      const SimTime now = q.fire_next([](SimTime) {});
                      q.cancel(q.push(now + ms(1) + rnd(ms(200)), fn));
                      q.push(now + 1 + rnd(100'000), fn);
                    });
}

Totals run_layers(const Args& a, const WorkloadSpec& spec, int workers,
                  double timer_ns, Report& rep) {
  const auto t_start = Clock::now();
  const double S = a.seconds;
  const LbSetup lbs = lb_setup_of(spec);

  // Instrumented rig run: LB capture + host-segment counters + queue
  // occupancy, on one worker.
  LbCapture cap{lbs.pool};
  RunOptions counted;
  counted.capture = &cap;
  counted.count_tcp = true;
  RigRun live = run_rig(spec, 1, counted);
  const std::uint64_t live_digest = cap.live_digest();
  Totals tot{live.sent, live.failed};

  // Plain run: what the end-to-end run measures, with allocation counts.
  RigRun plain = run_rig(spec, workers, {});
  const double pkts = static_cast<double>(plain.packets);
  rep.add("sim.events_per_pkt", ratio(static_cast<double>(plain.events), pkts),
          "events/pkt", plain.events);
  rep.add("sim.ns_per_event", ratio(plain.wall_s * 1e9,
                                    static_cast<double>(plain.events)),
          "ns", plain.events, "host wall / executed events");
  rep.add("sim.pending_mean", live.pending_mean, "events", live.pending_samples,
          "event-queue size sampled every 64th host segment");
  const auto pending = static_cast<std::size_t>(live.pending_mean + 0.5);
  rep.add_calls("sim.eq_hold_ns", eq_hold(pending, 0.05 * S), timer_ns,
                "fire+push at pending=" + std::to_string(pending) +
                    ", timed per 256-op block");
  rep.add_calls("sim.eq_cancel_ns", eq_cancel(pending, 0.05 * S), timer_ns,
                "push+cancel+fire+push at pending=" + std::to_string(pending) +
                    ", timed per 256-op block");

  rep.add("net.heap_allocs_per_pkt",
          ratio(static_cast<double>(plain.heap_allocs), pkts), "allocs/pkt",
          plain.packets, "operator new calls over the simulated window");
  rep.add("net.heap_bytes_per_pkt",
          ratio(static_cast<double>(plain.heap_bytes), pkts), "B/pkt",
          plain.packets);
  rep.add("net.pkts_per_batch",
          ratio(static_cast<double>(plain.net.batch_packets),
                static_cast<double>(plain.net.batches)),
          "pkts", plain.net.batches);
  rep.add("net.pool_hwm", static_cast<double>(plain.net.pool.high_water),
          "pkts", 1, "packet-pool high water (summed over shards)");
  rep.add("net.queue_drops", static_cast<double>(live.net.packets_dropped),
          "count", live.packets);

  rep.add("tcp.segments_per_req",
          ratio(static_cast<double>(live.segments),
                static_cast<double>(live.received)),
          "seg/req", live.received, "host-originated segments / responses");
  rep.add("tcp.retransmits", static_cast<double>(live.retransmits), "count",
          live.segments);
  rep.add("tcp.conns_opened", static_cast<double>(live.conns_opened), "count",
          live.conns_opened);
  rep.add("tcp.resets", static_cast<double>(live.resets), "count",
          live.segments);

  rep.add("app.reqs_completed", static_cast<double>(live.received), "count",
          live.sent);
  rep.add("app.conn_failures", static_cast<double>(live.conn_failures),
          "count", live.conns_opened);
  rep.add("app.server_hit_ratio",
          ratio(static_cast<double>(live.server_hits),
                static_cast<double>(live.server_gets)),
          "ratio", live.server_gets);
  rep.add("app.fail_frac",
          ratio(static_cast<double>(live.failed),
                static_cast<double>(live.sent)),
          "ratio", live.sent,
          "failed=" + std::to_string(live.failed) +
              " attempted=" + std::to_string(live.sent) +
              " conn_failures=" + std::to_string(live.conn_failures) +
              " net.queue_drops=" + std::to_string(live.net.packets_dropped));

  // Sharded: worker sweep 1 vs W, alternating.
  if (spec.sharded) {
    std::vector<double> w1, wn;
    std::uint64_t d1 = 0, dn = 0;
    bool same = true;
    RigRun last;
    repeat_for(0.35 * S, 4, 100, [&](int i) {
      const int w = i % 2 == 0 ? 1 : workers;
      RigRun r = run_rig(spec, w, {});
      (w == 1 ? w1 : wn).push_back(ratio(static_cast<double>(r.packets),
                                         r.wall_s));
      std::uint64_t& d = w == 1 ? d1 : dn;
      if (d != 0) same = same && d == r.digest;
      d = r.digest;
      last = std::move(r);
    });
    same = same && d1 == dn;
    const double m1 = median(w1);
    rep.add("par.w1_pkts_per_s", m1, "pkts/s", w1.size(), "host");
    rep.add("par.speedup", ratio(median(wn), m1), "x", wn.size(),
            std::to_string(workers) + " workers vs 1");
    rep.add("par.cross_frac",
            ratio(static_cast<double>(last.cross_packets),
                  static_cast<double>(last.packets)),
            "ratio", last.packets);
    double mx = 0, sum = 0;
    for (const auto e : last.shard_events) {
      mx = std::max(mx, static_cast<double>(e));
      sum += static_cast<double>(e);
    }
    rep.add("par.shard_event_imbalance",
            ratio(mx, sum / static_cast<double>(last.shard_events.size())),
            "ratio", last.shard_events.size(), "max / mean executed events");
    rep.add("par.digest_match", same ? 1.0 : 0.0, "bool",
            w1.size() + wn.size());
    rep.gate("sharded_digest_w1_eq_w" + std::to_string(workers), same,
             "combined digest " + hex(d1));
  } else {
    const std::pair<const char*, const char*> par[] = {
        {"par.w1_pkts_per_s", "pkts/s"}, {"par.speedup", "x"},
        {"par.cross_frac", "ratio"},     {"par.shard_event_imbalance", "ratio"},
        {"par.digest_match", "bool"}};
    for (const auto& [name, unit] : par) {
      rep.add(name, 0, unit, 0, "not exercised: single-shard workload");
    }
  }

  // Whole-LB replay (untraced) against the decomposed replay, untraced and
  // traced, interleaved so that drift on the host hits all three alike.
  bool match = true, dmatch = true;
  std::vector<double> whole_ns, parts_ns, traced_ns;
  std::array<std::vector<double>, kStageCount> p50, p99;
  std::array<std::uint64_t, kStageCount> calls{};
  WholeReplay whole;
  DecomposedReplay first;
  const BackendId victim = static_cast<BackendId>(spec.cluster.victim);
  const SimTime drain_from = spec.injects ? spec.cluster.inject_time : 0;
  // The replays fill the run's time up to the per-call pass below.
  const double replay_budget =
      std::max(0.2 * S, 0.95 * S - seconds_since(t_start));
  repeat_for(replay_budget, 2, 1000, [&](int i) {
    whole = replay_whole(lbs, cap, nullptr);
    match = match && whole.digest == live_digest;
    const double n = static_cast<double>(whole.packets);
    whole_ns.push_back(ratio(whole.wall_s * 1e9, n));

    const DecomposedReplay u =
        replay_decomposed(lbs, cap, false, 0, drain_from, victim);
    dmatch = dmatch && u.digest == live_digest;
    parts_ns.push_back(ratio(u.wall_s * 1e9, n));

    DecomposedReplay d = replay_decomposed(
        lbs, cap, true, i == 0 ? 1u << 18 : 0, drain_from, victim);
    dmatch = dmatch && d.digest == live_digest;
    traced_ns.push_back(ratio(d.wall_s * 1e9, n));
    for (std::uint8_t s = 0; s < kStageCount; ++s) {
      const CallStats cs = call_stats(d.stage_ns[s]);
      p50[s].push_back(cs.p50_ns);
      p99[s].push_back(cs.p99_ns);
      calls[s] = cs.calls;
    }
    if (i == 0) first = std::move(d);
  });
  // A last pass with the per-call timer finds the slowest call; the timer
  // stays out of the loop times above.
  std::vector<std::uint32_t> call_ns;
  double call_max = 0;
  repeat_for(0.05 * S, 1, 1000, [&](int) {
    call_ns.clear();
    const WholeReplay w = replay_whole(lbs, cap, &call_ns);
    match = match && w.digest == live_digest;
    for (const auto c : call_ns) {
      call_max = std::max(call_max, static_cast<double>(c));
    }
  });
  rep.gate("lb_replay_matches_live", match,
           "backend stream digest " + hex(live_digest));
  rep.gate("decomposed_replay_matches_live", dmatch,
           "backend stream digest " + hex(live_digest));
  const double pkts_in = static_cast<double>(whole.packets);
  rep.add("lb.pkts_in", pkts_in, "count", whole.packets,
          "packets LB 0 forwarded (the replayed stream)");
  rep.add("lb.new_flow_frac",
          ratio(static_cast<double>(whole.new_flows), pkts_in), "ratio",
          whole.packets);
  rep.add("lb.ct_hit_ratio",
          ratio(static_cast<double>(whole.ct_hits),
                static_cast<double>(whole.ct_hits + whole.ct_misses)),
          "ratio", whole.ct_hits + whole.ct_misses);
  rep.add("lb.ct_entries_max", static_cast<double>(first.ct_entries_max),
          "count", first.packets);
  rep.add("lb.ct_entries_end", static_cast<double>(first.ct_entries_end),
          "count", first.packets, "conntrack size after the last packet");
  rep.add("lb.drops_no_backend", static_cast<double>(whole.drops_no_backend),
          "count", whole.packets);
  rep.add("lb.replay_match", match ? 1.0 : 0.0, "bool", whole.packets);
  rep.add("lb.call_max_us", call_max / 1e3, "us", call_ns.size(),
          "slowest handle_batch call; timer_ns=" + Report::fmt(timer_ns));
  const double whole_m = median(whole_ns), parts_m = median(parts_ns);
  rep.add("lb.glue_ns", whole_m - parts_m, "ns",
          whole.packets * whole_ns.size(),
          "whole-LB replay ns/pkt (" + Report::fmt(whole_m) +
              ") minus untraced decomposed replay ns/pkt (" +
              Report::fmt(parts_m) + "), medians over " +
              std::to_string(whole_ns.size()) + " reps");

  const char* stage_metric[kStageCount] = {
      "lb.ct_ns",          "lb.maglev_pick_ns",  "core.flow_table_ns",
      "core.estimator_ns", "core.tracker_ns",    "core.control_step_ns",
      "core.table_update_ns"};
  for (std::uint8_t s = 0; s < kStageCount; ++s) {
    CallStats cs;
    cs.p50_ns = median(p50[s]);
    cs.p99_ns = median(p99[s]);
    cs.calls = calls[s];
    rep.add_calls(stage_metric[s], cs, timer_ns,
                  "decomposed replay, median over " +
                      std::to_string(p50[s].size()) +
                      " reps; calls = packets on which the stage ran");
  }

  const double dp = static_cast<double>(first.packets);
  rep.add("core.flow_entries_max", static_cast<double>(first.flow_entries_max),
          "count", first.packets);
  rep.add("core.flow_entries_end", static_cast<double>(first.flow_entries_end),
          "count", first.packets, "flow-table size after the last packet");
  rep.add("core.flow_evictions", static_cast<double>(first.flow_evictions),
          "count", first.packets);
  rep.add("core.flow_expirations", static_cast<double>(first.flow_expirations),
          "count", first.packets);
  rep.add("core.samples_per_pkt", ratio(static_cast<double>(first.samples), dp),
          "ratio", first.packets, "estimator samples / packets");
  rep.add("core.decisions", static_cast<double>(first.decisions), "count",
          first.samples);
  rep.add("core.slots_moved", static_cast<double>(first.slots_moved), "count",
          first.decisions);
  const bool drained = spec.injects && first.drained_at != kNoTime;
  rep.add("core.react_ms",
          drained ? to_ms(first.drained_at - spec.cluster.inject_time) : 0.0,
          "ms", drained ? 1 : 0,
          spec.injects ? "sim time from injection until the victim holds < 5% "
                         "of the table"
                       : "not exercised: no injection");
  if (spec.injects) {
    rep.gate("victim_drained", drained, "decomposed replay table shares");
  }
  rep.add("core.decomposed_match", dmatch ? 1.0 : 0.0, "bool", first.packets);

  rep.add("trace.timer_ns", timer_ns, "ns", 1'000'000,
          "mean steady_clock read");
  rep.add("trace.overhead_frac", ratio(median(traced_ns), parts_m) - 1, "ratio",
          traced_ns.size(),
          "decomposed replay ns/pkt traced (" + Report::fmt(median(traced_ns)) +
              ") vs untraced (" + Report::fmt(parts_m) + ")");

  std::filesystem::create_directories(a.out);
  const std::string spans_path = a.out + "/spans-" + spec.name + "-seed" +
                                 std::to_string(a.seed) + ".csv";
  const bool wrote = write_spans(spans_path, first.spans);
  rep.gate("spans_written", wrote && !first.spans.empty(),
           std::to_string(first.spans.size()) + " spans -> " + spans_path);
  return tot;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    const WorkloadSpec spec = make_spec(a.workload, a.seed, a.size);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const int workers =
        spec.sharded ? static_cast<int>(std::min(4u, nproc)) : 1;
    std::printf("run workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
                "workers=%d size=%s\n",
                spec.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace, nproc, workers,
                a.size == Size::kTiny ? "tiny" : "full");
    const double timer_ns = calibrate_timer_ns();
    Report rep;
    const Totals tot = a.trace == 0
                           ? run_end_to_end(a, spec, workers, timer_ns, rep)
                           : run_layers(a, spec, workers, timer_ns, rep);
    rep.select(a.trace == 0 ? kEndToEnd : std::vector<std::string>{});
    rep.print(stdout);
    std::printf("%s\n", rep.json(tot.attempted, tot.failed).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lbbench: %s\n", e.what());
    return 1;
  }
}
