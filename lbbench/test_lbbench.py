#!/usr/bin/env python3
"""Tests for lbbench: a tiny run of every workload, in both modes.

    python3 lbbench/test_lbbench.py

Run from the repository root. Each run must print every metric that
BENCHMARK.json lists for its mode as a "metric" line with a unit and a sample
count, pass every correctness gate, and end with the JSON result line whose
metrics carry the same names and units.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)")

# Metric lines every run prints, whether or not they are in the result line.
REQUIRED_END_TO_END = {
    "sim_pkts_per_s", "setup_s", "peak_rss_mb", "lb_pkts_per_s",
    "lb_pkt_ns_p50", "lb_pkt_ns_p99", "get_p50_us", "get_p95_us",
    "get_p99_us", "reqs_per_sim_s", "fail_frac",
}
REQUIRED_PER_LAYER = {
    "sim.events_per_pkt", "sim.ns_per_event", "sim.pending_mean",
    "sim.eq_hold_ns", "sim.eq_cancel_ns",
    "net.heap_allocs_per_pkt", "net.heap_bytes_per_pkt", "net.pkts_per_batch",
    "net.pool_hwm", "net.queue_drops",
    "tcp.segments_per_req", "tcp.retransmits", "tcp.conns_opened",
    "tcp.resets",
    "app.reqs_completed", "app.conn_failures", "app.server_hit_ratio",
    "lb.pkts_in", "lb.new_flow_frac", "lb.ct_hit_ratio", "lb.ct_entries_max",
    "lb.ct_ns", "lb.maglev_pick_ns", "lb.glue_ns", "lb.replay_match",
    "lb.drops_no_backend",
    "core.flow_table_ns", "core.flow_entries_max", "core.flow_evictions",
    "core.estimator_ns", "core.tracker_ns", "core.control_step_ns",
    "core.table_update_ns", "core.samples_per_pkt", "core.decisions",
    "core.slots_moved", "core.react_ms",
    "par.w1_pkts_per_s", "par.speedup", "par.cross_frac",
    "par.shard_event_imbalance", "par.digest_match",
    "trace.timer_ns", "trace.overhead_frac",
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny", "--out", ".bench_out/test"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def parse(lines):
    metrics = {}
    for line in lines:
        m = METRIC.match(line)
        if m:
            metrics[m.group(1)] = (float(m.group(2)), m.group(3), int(m.group(4)))
    gates = [l for l in lines if l.startswith("gate ")]
    return metrics, gates, json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    bench = load_benchmark()

    def check(self, workload, trace):
        spec = self.bench["end_to_end" if trace == 0 else "per_layer"]
        lines = run(workload, trace)
        metrics, gates, result = parse(lines)
        expected = {"lb_replay_matches_live"}
        expected |= ({"rig_digest_repeats"} if trace == 0 else
                     {"decomposed_replay_matches_live", "spans_written"})
        if workload == "fig3_inject":
            expected.add("victim_drained")
        if workload == "sharded_ring":
            expected.add("sharded_digest_w1_eq_w" + lines[0].split("workers=")[1].split()[0])
        self.assertEqual(expected - {g.split()[1] for g in gates}, set())
        self.assertTrue(lines[0].startswith(f"run workload={workload} seed=3 "))
        self.assertIn(" nproc=", lines[0])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(gates))
        self.assertTrue(gates and all(" PASS " in g for g in gates))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            name = m["name"]
            self.assertIn(name, metrics, f"{workload}: no metric line for {name}")
            value, unit, _ = metrics[name]
            self.assertEqual(unit, m["unit"], name)
            self.assertEqual(result["metrics"][name]["unit"], m["unit"], name)
            self.assertAlmostEqual(result["metrics"][name]["value"], value,
                                   delta=abs(value) * 1e-8, msg=name)
        required = REQUIRED_END_TO_END if trace == 0 else REQUIRED_PER_LAYER
        self.assertEqual(required - set(metrics), set())
        return metrics

    def test_fig3_inject(self):
        e2e = self.check("fig3_inject", 0)
        layers = self.check("fig3_inject", 1)
        self.assertGreater(e2e["get_p99_us"][2], 100)  # GET sample count
        self.assertGreater(layers["core.decisions"][0], 0)
        self.assertEqual(layers["core.react_ms"][2], 1)  # the victim drained

    def test_conn_churn(self):
        self.check("conn_churn", 0)
        layers = self.check("conn_churn", 1)
        self.assertGreater(layers["lb.new_flow_frac"][0], 0.05)

    def test_sharded_ring(self):
        self.check("sharded_ring", 0)
        layers = self.check("sharded_ring", 1)
        self.assertEqual(layers["par.digest_match"][0], 1.0)
        self.assertGreater(layers["par.cross_frac"][0], 0)

    def test_same_seed_same_simulated_metrics(self):
        a, _, _ = parse(run("conn_churn", 0, seed=5))
        b, _, _ = parse(run("conn_churn", 0, seed=5))
        for name in ("get_p50_us", "get_p95_us", "get_p99_us", "reqs_per_sim_s"):
            self.assertEqual(a[name], b[name], name)

    def test_rejects_unknown_workload(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
