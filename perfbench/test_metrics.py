"""Self-tests of the benchmark's own folding code (metrics.py).

    python3 -m unittest discover -s perfbench
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from metrics import (BenchError, Run, count_errors, fold_ops,  # noqa: E402
                     op_kind, percentile_with_tail)

REF = 2944.2857142857142
SERVE_REF = {"10": [54573, 1393509.0], "20": [113101, 2889142.0]}


def q17_query(lat=0.1, ans=REF, ok=True, **extra):
    rec = {"rec": "q", "phase": "plain", "ok": ok, "lat_s": lat}
    if ok:
        rec.update({"ans": ans, "result_rows": 1, "answer_bytes": 15,
                    "bytes_shipped": 1 << 20, "socket_bytes": 1 << 20,
                    "peak_state_bytes": 1 << 19, "rows_pruned": 0,
                    "checkpoints": 3, "checkpoint_bytes": 1 << 20})
    rec.update(extra)
    return rec


def serve_read(pred=10, ans=None, ok=True, phase="plain"):
    rec = {"rec": "q", "phase": phase, "ok": ok, "lat_s": 0.05,
           "pred": pred}
    if ok:
        rec.update({"ans": ans or SERVE_REF[str(pred)], "result_rows": 1,
                    "answer_bytes": 16, "bytes_shipped": 0,
                    "peak_state_bytes": 1000, "hit": True})
    return rec


def records(workload, queries, ref=REF, **end):
    recs = [{"rec": "setup", "total_s": t, "gen_s": t / 2}
            for t in (0.3, 0.1, 0.2)]
    recs.append({"rec": "ref", "ref": ref})
    recs += queries
    recs.append(dict({"rec": "end", "phase": "plain", "elapsed_s": 10.0,
                      "trace_dropped": 0}, **end))
    recs.append({"rec": "rss", "peak_rss_mb": 40.0})
    return Run(workload, recs)


class PercentileTest(unittest.TestCase):
    def test_p90_of_100_leaves_exactly_ten_beyond(self):
        xs = list(range(100, 0, -1))  # unsorted input
        self.assertEqual(percentile_with_tail(xs, 0.9), 90)

    def test_too_few_samples_beyond_raises(self):
        with self.assertRaises(BenchError):
            percentile_with_tail(range(99), 0.9)
        with self.assertRaises(BenchError):
            percentile_with_tail([], 0.5)

    def test_rule_scales_with_the_quantile(self):
        self.assertEqual(percentile_with_tail(range(1, 1001), 0.99), 990)
        with self.assertRaises(BenchError):
            percentile_with_tail(range(1, 1000), 0.99)


class FoldTest(unittest.TestCase):
    def test_scale_out_labels_fold_into_layer_kinds(self):
        for label, kind in [("scan_l1", "scan"), ("scan_p", "scan"),
                            ("filter", "filter"), ("project", "project"),
                            ("join", "join"), ("agg", "agg"),
                            ("xsend_partial", "xsend"),
                            ("xrecv_part", "xrecv"), ("sink", "sink")]:
            self.assertEqual(op_kind(label), kind, label)

    def test_unknown_operator_is_refused(self):
        with self.assertRaises(BenchError):
            op_kind("MysteryOp")

    def test_fold_sums_self_by_kind_and_busy_of_sources(self):
        ops = [["scan_l1", 0.5, 2.0, True],
               ["project", 0.25, 1.5, False],
               ["xsend_l1", 1.25, 1.25, False],
               ["scan_l2", 0.5, 0.5, True],
               ["xrecv_l1", 1.0, 1.5, True],
               ["agg", 0.5, 0.5, False]]
        by_kind, self_total, source_busy = fold_ops(ops)
        self.assertEqual(by_kind, {"scan": 1.0, "project": 0.25,
                                   "xsend": 1.25, "xrecv": 1.0, "agg": 0.5})
        self.assertEqual(self_total, 4.0)
        self.assertEqual(source_busy, 4.0)


class ErrorCountTest(unittest.TestCase):
    def test_q17_wrong_answers_and_bad_status_both_fail(self):
        ops = [q17_query(),
               q17_query(ans=REF * (1 + 1e-12)),  # within 1e-9
               q17_query(ans=REF * (1 + 1e-6)),   # wrong
               q17_query(ans=None),               # wrong: null
               q17_query(result_rows=2),          # wrong: shape
               q17_query(ok=False)]               # non-OK status
        self.assertEqual(count_errors("q17-aip", ops, REF), (6, 4, 3))

    def test_null_reference_matches_only_null(self):
        self.assertEqual(
            count_errors("q17-tcp-ckpt", [q17_query(ans=None)], None),
            (1, 0, 0))

    def test_serve_reads_writes_and_refusals(self):
        ops = [serve_read(10),
               serve_read(20, ans=[113101, 2889142.0 + 1e-6]),
               serve_read(20, ans=[113100, 2889142.0]),  # count differs
               serve_read(30, ans=[1, 1.0]),             # no reference
               serve_read(ok=False),                     # refused Submit
               {"rec": "w", "phase": "plain", "ok": True, "lat_s": 1e-5},
               {"rec": "w", "phase": "plain", "ok": False, "lat_s": 1e-5}]
        self.assertEqual(count_errors("serve-mixed", ops, SERVE_REF),
                         (7, 4, 2))

    def test_failures_lower_success_rate_and_leave_latency(self):
        queries = [q17_query(lat=0.1 + i * 1e-3, rows_pruned=0)
                   for i in range(110)]
        queries += [q17_query(ok=False), q17_query(ans=1.0)]
        run = records("q17-tcp-ckpt", queries)
        e2e = run.end_to_end()
        self.assertAlmostEqual(e2e["success_rate"], 1 - 2 / 112)
        self.assertAlmostEqual(e2e["latency_p90_s"], 0.1 + 98e-3)
        self.assertAlmostEqual(e2e["qps"], 11.0)
        self.assertAlmostEqual(e2e["setup_s"], 0.2)
        self.assertEqual(run.errors(), (112, 2, 1))


class FloorTest(unittest.TestCase):
    def test_tcp_ckpt_must_not_prune_and_must_checkpoint(self):
        records("q17-tcp-ckpt", [q17_query()]).check_floors()
        with self.assertRaises(BenchError):
            records("q17-tcp-ckpt",
                    [q17_query(rows_pruned=5)]).check_floors()
        with self.assertRaises(BenchError):
            records("q17-tcp-ckpt",
                    [q17_query(checkpoints=0)]).check_floors()

    def test_traced_phase_must_have_written_its_trace(self):
        for written in (True, False):
            run = records("q17-tcp-ckpt", [q17_query()])
            run.ends["traced"] = {"rec": "end", "phase": "traced",
                                  "trace_dropped": 0,
                                  "trace_written": written}
            if written:
                run.check_floors()
            else:
                with self.assertRaises(BenchError):
                    run.check_floors()

    def test_serve_needs_hits_misses_and_writes(self):
        reads = [serve_read() for _ in range(20)]
        write = {"rec": "w", "phase": "plain", "ok": True, "lat_s": 1e-5}
        records("serve-mixed", reads + [write], SERVE_REF, cache_hits=17,
                cache_misses=3).check_floors()
        for hits, misses, writes in [(20, 0, [write]), (17, 3, []),
                                     (19, 1, [write])]:
            with self.assertRaises(BenchError):
                records("serve-mixed", reads + writes, SERVE_REF,
                        cache_hits=hits, cache_misses=misses).check_floors()


if __name__ == "__main__":
    unittest.main()
