"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402
from ledger import BenchError  # noqa: E402


def cal(slowdown=1.0, threads=1):
    """A calibration line of a host running `slowdown` times slower than
    the reference host."""
    return {"kind": "cal", "threads": threads,
            "wall_s": slowdown * ledger.REF_CALIBRATION_S[threads]}


def interpolated_quantile(sorted_xs, q):
    """sim::LatencyRecorder::percentile: linear interpolation at q*(n-1)."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def rep(**over):
    r = {"kind": "rep", "wall_s": 1.0, "allocs": 300, "issued": 30000,
         "completed": 30000, "redundant": 0, "events": 1800, "samples": 20000,
         "p50_ms": 2.0, "p99_ms": 16.0, "p999_ms": 25.0, "beyond_p999": 20,
         "forwards_per_request": 9.5, "wire_bytes_per_request": 8000.0,
         "load_oscillation": 0.7, "rsnodes": 6, "plans_deployed": 5,
         "doomed_picks": 0, "fault_events_fired": 0, "trace_events": 0,
         "trace_dropped": 0}
    r.update(over)
    return r


def traced(**over):
    t = {"kind": "traced", "setup_ns": 1000, "run_ns": 8000,
         "harvest_ns": 100, "issued": 100, "completed": 100, "events": 1800,
         "measured": 80, "forwards_sum": 760.0, "shards": 1, "windows": 0,
         "lane_events": 0, "max_lane_events": 0, "exec_ns": 0, "stall_ns": 0,
         "accel_utilization": 0.02, "ilp_solve_ms": 3.0}
    t.update(over)
    return t


def trace_lines():
    """One trace child's output, consistent with itself."""
    u = rep(kind="untraced", issued=20000, completed=20000, samples=16000,
            beyond_p999=16, forwards_per_request=9.5, wall_s=1.4e-3)
    spans = [("net.switch", 200000, 600000), ("netrs.selector", 40000, 300000),
             ("rs.select", 20000, 80000), ("rs.on_send", 20000, 20000),
             ("rs.on_response", 20000, 60000)]
    lines = [u]
    lines += [{"kind": "ctor", "name": n, "ns": 10, "rss_kb": 4}
              for n in ("netrs.operators", "kv.servers", "kv.clients")]
    lines += [{"kind": "span", "name": n, "calls": c, "ns": ns, "allocs": 0}
              for n, c, ns in spans]
    lines.append(traced(setup_ns=200000, run_ns=1600000, harvest_ns=20000,
                        issued=20000, completed=20000, measured=16000,
                        forwards_sum=152000.0))
    return lines


class TailRule(unittest.TestCase):
    def test_samples_beyond_matches_brute_force(self):
        for n in (1, 2, 10, 999, 1000, 1001, 12345):
            xs = list(range(n))
            for q in (0.5, 0.99, 0.999):
                p = interpolated_quantile(xs, q)
                self.assertEqual(ledger.samples_beyond(n, q),
                                 sum(1 for x in xs if x > p), (n, q))

    def test_p999_needs_ten_samples_beyond(self):
        self.assertEqual(ledger.samples_beyond(10_001, 0.999), 10)
        self.assertEqual(ledger.samples_beyond(9_000, 0.999), 9)
        ledger.check_tail(10_001, 10)
        with self.assertRaises(BenchError):
            ledger.check_tail(9_000, 9)

    def test_measured_count_cannot_exceed_possible(self):
        with self.assertRaises(BenchError):
            ledger.check_tail(20_000, 25)


class LostShare(unittest.TestCase):
    def test_share(self):
        self.assertAlmostEqual(ledger.lost_share(1000, 997), 0.003)
        self.assertEqual(ledger.lost_share(5, 5), 0.0)

    def test_impossible_counts(self):
        with self.assertRaises(BenchError):
            ledger.lost_share(10, 11)
        with self.assertRaises(BenchError):
            ledger.lost_share(0, 0)


class PeakRss(unittest.TestCase):
    def test_units(self):
        self.assertEqual(ledger.peak_rss_mb(2048), 2.0)

    def test_child_high_water_mark(self):
        code = ("b = bytearray(64 << 20)\n"
                "for i in range(0, len(b), 4096): b[i] = 1\n"
                "print('{\"kind\": \"done\"}')")
        out, rc, rss = ledger.run_child([sys.executable, "-c", code])
        self.assertEqual(rc, 0)
        self.assertEqual(ledger.parse_lines(out), [{"kind": "done"}])
        self.assertGreaterEqual(rss, 64)
        # A second, small child reports its own peak, not the first one's.
        _, _, small = ledger.run_child([sys.executable, "-c", "pass"])
        self.assertLess(small, 64)

    def test_exit_code(self):
        _, rc, _ = ledger.run_child([sys.executable, "-c", "exit(3)"])
        self.assertEqual(rc, 3)


class Reconciliation(unittest.TestCase):
    def test_rows_sum_to_traced_and_untraced_totals(self):
        t = traced()
        rows, total, overhead, untraced = ledger.reconcile(
            8e-6, t, selector_ns=1500, rs_ns=800, switch_ns=3000)
        self.assertAlmostEqual(sum(rows.values()), total)
        self.assertAlmostEqual(total, (1000 + 8000 + 100) / 100)
        self.assertAlmostEqual(untraced, 80.0)
        self.assertAlmostEqual(total - overhead, untraced)
        self.assertAlmostEqual(rows["netrs.selector.self"], 7.0)
        self.assertAlmostEqual(rows["sim.run.residual"],
                               (8000 - 3000 - 1500) / 100)
        ledger.check_reconciliation(rows, total, overhead, untraced)

    def test_sharded_spans_are_divided_by_shards(self):
        t = traced(shards=4)
        rows, *_ = ledger.reconcile(8e-6, t, 1500, 800, 3000)
        self.assertAlmostEqual(rows["net.switch"], 3000 / 4 / 100)

    def test_spans_longer_than_the_run_fail(self):
        t = traced(run_ns=1000)
        with self.assertRaises(BenchError):
            ledger.check_reconciliation(
                *ledger.reconcile(8e-6, t, 1500, 800, 3000))


class OutputChecks(unittest.TestCase):
    def test_consistent_reps_pass(self):
        ledger.check_reps("ilp-k8", [rep(), rep(wall_s=1.2, allocs=301)])

    def test_nondeterministic_latency_fails(self):
        with self.assertRaises(BenchError):
            ledger.check_reps("ilp-k8", [rep(), rep(p99_ms=16.5)])

    def test_nondeterministic_events_fail(self):
        with self.assertRaises(BenchError):
            ledger.check_reps("ilp-k8", [rep(), rep(events=1801)])

    def test_loss_on_fault_free_workload_fails(self):
        with self.assertRaises(BenchError):
            ledger.check_reps("tor-k16-sh4", [rep(completed=29999)])
        ledger.check_reps("ilp-k8-crash-obs", [rep(completed=29999)])

    def test_more_completed_than_issued_fails(self):
        with self.assertRaises(BenchError):
            ledger.check_reps("ilp-k8-crash-obs", [rep(completed=30001)])

    def test_thin_tail_fails(self):
        with self.assertRaises(BenchError):
            ledger.check_reps("ilp-k8", [rep(beyond_p999=9)])

    def test_traced_run_must_agree(self):
        untraced, good = trace_lines()[0], trace_lines()[-1]
        ledger.check_agreement(untraced, good)
        with self.assertRaises(BenchError):
            ledger.check_agreement(untraced, dict(good, events=1799))
        with self.assertRaises(BenchError):
            ledger.check_agreement(untraced, dict(good, forwards_sum=152001.0))


class ObsFiles(unittest.TestCase):
    def write(self, d, **over):
        files = {
            "trace.json": json.dumps({"traceEvents": [{"ph": "X"}]}),
            "metrics.csv": "repeat,time_us,metric,value\n0,5,m,1\n",
            "attribution.csv": "repeat,req,component,ns\n0,1,wire,5\n",
            "decisions.csv": "repeat,time_us,node,chosen\n0,1,2,3\n",
        }
        files.update(over)
        for name, text in files.items():
            with open(os.path.join(d, name), "w") as f:
                f.write(text)

    def test_well_formed(self):
        with tempfile.TemporaryDirectory() as d:
            self.write(d)
            sizes = ledger.check_obs_files(d)
            self.assertEqual(set(sizes), set(ledger.OBS_FILES))

    def test_truncated_trace(self):
        with tempfile.TemporaryDirectory() as d:
            self.write(d, **{"trace.json": '{"traceEvents": [{"ph": "X"'})
            with self.assertRaises(BenchError):
                ledger.check_obs_files(d)

    def test_ragged_csv(self):
        with tempfile.TemporaryDirectory() as d:
            self.write(d, **{"attribution.csv":
                             "repeat,req,component,ns\n0,1,wire\n"})
            with self.assertRaises(BenchError):
                ledger.check_obs_files(d)

    def test_empty_file(self):
        with tempfile.TemporaryDirectory() as d:
            self.write(d, **{"decisions.csv": ""})
            with self.assertRaises(BenchError):
                ledger.check_obs_files(d)


class Metrics(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_end_to_end_names_match_benchmark_json(self):
        m = ledger.end_to_end([{"wall_s": 0.1}], [[cal(), cal()]], [rep(), rep()],
                              [cal()] * 3, 100.0)
        self.assertEqual(set(m), {x["name"] for x in self.spec["end_to_end"]})

    def test_warm_up_call_is_left_out_of_the_rate(self):
        reps = [rep(wall_s=4.0), rep(wall_s=1.0), rep(wall_s=1.0)]
        m = ledger.end_to_end([{"wall_s": 0.3}, {"wall_s": 0.1},
                               {"wall_s": 0.2}], [[cal(), cal()]] * 3, reps,
                              [cal()] * 4, 100.0)
        self.assertEqual(m["requests_per_s"], 30000.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["completed_share"], 1.0)

    def test_host_slowdown_is_divided_out_of_setup(self):
        # Set-up runs of 0.2 s at reference speed and 0.4 s on a host
        # running 2x slower.
        runs = [{"wall_s": 0.2}, {"wall_s": 0.4}, {"wall_s": 0.2}]
        cals = [[cal(), cal()], [cal(2), cal(2)], [cal(), cal()]]
        raw, normalized = ledger.setup_times(runs, cals)
        self.assertEqual(raw, [0.2, 0.4, 0.2])
        for x in normalized:
            self.assertAlmostEqual(x, 0.2)
        with self.assertRaises(BenchError):
            ledger.setup_times(runs, cals[:2])

    def test_host_slowdown_is_divided_out(self):
        # The host ran 1.5x slower than the reference during the second
        # call (calibration 1.5x its reference on both sides): it took 1.5 s
        # but counts as 1 s at reference speed.
        reps = [rep(wall_s=1.0), rep(wall_s=1.5)]
        cals = [cal(), cal(1.5), cal(1.5)]
        raw, normalized = ledger.rates(reps, cals)
        self.assertEqual(raw, [30000.0, 20000.0])
        self.assertAlmostEqual(normalized[0], 30000.0 * 1.25)
        self.assertAlmostEqual(normalized[1], 30000.0)
        m = ledger.end_to_end([{"wall_s": 0.1}], [[cal(), cal()]], reps, cals,
                              100.0)
        self.assertAlmostEqual(m["requests_per_s"], 30000.0)

    def test_slowdown_is_against_the_reference_for_its_thread_count(self):
        self.assertEqual(ledger.slowdowns([cal(1, 4), cal(2, 4)], 1), [1.5])

    def test_calibration_must_bracket_every_call(self):
        with self.assertRaises(BenchError):
            ledger.slowdowns([cal(), cal()], 2)
        with self.assertRaises(BenchError):
            ledger.slowdowns([cal(), cal(0.0)], 1)
        with self.assertRaises(BenchError):
            ledger.slowdowns([cal(), dict(cal(), threads=3)], 1)

    def test_per_layer_names_match_benchmark_json(self):
        m, _ = ledger.layer_metrics("ilp-k8", trace_lines())
        self.assertEqual(set(m), {x["name"] for x in self.spec["per_layer"]})
        self.assertAlmostEqual(m["net.switch.calls_per_request"], 10.0)
        self.assertAlmostEqual(m["rs.calls_per_request"], 3.0)
        self.assertAlmostEqual(m["harness.host_ns_per_request"], 70.0)


if __name__ == "__main__":
    unittest.main()
