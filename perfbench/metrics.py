"""Folds the records perfbench_load prints into the benchmark's metrics.

Pure functions over parsed records (dicts, one per JSON line of the load
generator); run.py does the I/O. test_metrics.py tests them.

Record kinds: "setup" (one per repeated set-up), "ref" (the reference
answers, computed once after the set-ups), "floor" (q17-aip: bytes the same query ships without AIP), "q" (one
query), "w" (one serve write), "end" (one per phase), "rss".
"""

import math
import statistics

MIB = 1024.0 * 1024.0
# fig15's answer tolerance: |got - want| <= |want| * 1e-9 + 1e-9.
REL_TOL = 1e-9

Q17_WORKLOADS = ("q17-aip", "q17-tcp-ckpt")
WORKLOADS = Q17_WORKLOADS + ("serve-mixed",)

# Profile operator label prefix -> layer kind (the exec.* per-layer
# metrics). The scale-out plans label operators by role: scan_l1,
# xsend_part, xrecv_partial, join, agg, ...
OP_KIND_PREFIXES = (
    ("scan", "scan"),
    ("filter", "filter"),
    ("project", "project"),
    ("join", "join"),
    ("agg", "agg"),
    ("distinct", "agg"),
    ("xsend", "xsend"),
    ("xrecv", "xrecv"),
    ("sink", "sink"),
)
EXEC_KINDS = ("scan", "filter", "project", "join", "agg", "xsend", "xrecv")


class BenchError(Exception):
    """A run that must fail instead of reporting numbers."""


def percentile_with_tail(values, q, min_beyond=10):
    """Nearest-rank q-quantile of `values`.

    The sample must hold at least `min_beyond` values ranked after the
    quantile, so the tail it describes is observed rather than guessed.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise BenchError("no samples for the %g quantile" % q)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < min_beyond:
        raise BenchError(
            "%d samples leave %d beyond the %g quantile; %d needed"
            % (n, n - rank, q, min_beyond))
    return xs[rank - 1]


def op_kind(name):
    """Layer kind of a profile operator label.

    An unknown label raises, so a renamed or new operator cannot drop out
    of the per-layer fold unnoticed.
    """
    for prefix, kind in OP_KIND_PREFIXES:
        if name.startswith(prefix):
            return kind
    raise BenchError("profile operator %r has no layer kind" % name)


def fold_ops(ops):
    """Folds one query's profile [name, self_s, busy_s, is_source] rows.

    Returns ({kind: self seconds}, total self seconds, total busy seconds
    of the source operators).
    """
    by_kind = {}
    self_total = 0.0
    source_busy = 0.0
    for name, self_s, busy_s, is_source in ops:
        kind = op_kind(name)
        by_kind[kind] = by_kind.get(kind, 0.0) + self_s
        self_total += self_s
        if is_source:
            source_busy += busy_s
    return by_kind, self_total, source_busy


def close(got, want):
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= abs(want) * REL_TOL + REL_TOL


def answer_ok(workload, rec, ref):
    """Whether a successful query's answer matches the set-up reference."""
    if rec.get("result_rows") != 1:
        return False
    if workload in Q17_WORKLOADS:
        return close(rec["ans"], ref)
    want = ref.get(str(rec["pred"]))
    got = rec.get("ans")
    if want is None or got is None:
        return False
    return got[0] == want[0] and close(got[1], want[1])


def count_errors(workload, ops, ref):
    """(attempted, failed, wrong) over query and write records.

    A non-OK status (a refused Submit included) and a wrong answer each
    count as one failed operation; `wrong` counts the wrong answers alone.
    """
    attempted = failed = wrong = 0
    for rec in ops:
        attempted += 1
        if not rec["ok"]:
            failed += 1
        elif rec["rec"] == "q" and not answer_ok(workload, rec, ref):
            failed += 1
            wrong += 1
    return attempted, failed, wrong


def good_queries(workload, ops, ref):
    return [r for r in ops
            if r["rec"] == "q" and r["ok"] and answer_ok(workload, r, ref)]


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


class Run:
    """One perfbench_load invocation's records, split by kind and phase."""

    def __init__(self, workload, records):
        if workload not in WORKLOADS:
            raise BenchError("unknown workload %r" % workload)
        self.workload = workload
        self.setups = [r for r in records if r["rec"] == "setup"]
        refs = [r for r in records if r["rec"] == "ref"]
        if not self.setups or not refs:
            raise BenchError("no set-up or reference record")
        self.ref = refs[-1]["ref"]
        floors = [r for r in records if r["rec"] == "floor"]
        self.unpruned_bytes = floors[-1]["unpruned_bytes"] if floors else None
        self.ops = {}
        self.ends = {}
        for r in records:
            if r["rec"] in ("q", "w"):
                self.ops.setdefault(r["phase"], []).append(r)
            elif r["rec"] == "end":
                self.ends[r["phase"]] = r
        rss = [r for r in records if r["rec"] == "rss"]
        if not rss or "plain" not in self.ends:
            raise BenchError("the load generator did not finish its phases")
        self.peak_rss_mb = rss[-1]["peak_rss_mb"]

    def errors(self):
        ops = [r for phase in self.ops.values() for r in phase]
        return count_errors(self.workload, ops, self.ref)

    def good(self, phase):
        return good_queries(self.workload, self.ops.get(phase, []), self.ref)

    def end_to_end(self):
        good = self.good("plain")
        lat = [r["lat_s"] for r in good]
        attempted, failed, _ = count_errors(
            self.workload, self.ops.get("plain", []), self.ref)
        p90 = percentile_with_tail(lat, 0.9)
        return {
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": p90,
            "qps": len(good) / self.ends["plain"]["elapsed_s"],
            "mb_shipped": mean([(r["bytes_shipped"] + r["answer_bytes"]) / MIB
                                for r in good]),
            "state_mb": mean([r["peak_state_bytes"] / MIB for r in good]),
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": statistics.median(s["total_s"] for s in self.setups),
            "success_rate": 1.0 - failed / attempted if attempted else 0.0,
        }

    def per_layer(self):
        q17 = self.workload in Q17_WORKLOADS
        plain = self.good("plain")
        traced = self.good("traced")
        if not plain or not traced:
            raise BenchError("the traced run needs good plain and traced "
                             "queries")

        def avg(key, scale=1.0):
            return mean([r.get(key, 0) * scale for r in plain])

        m = {
            "storage.gen_s": statistics.median(s["gen_s"]
                                               for s in self.setups),
            "dist.build_s": avg("build_s"),
            "dist.run_s": avg("run_s"),
            "dist.teardown_s": avg("teardown_s"),
            "dist.stall_s": avg("stall_s"),
            "net.tcp_setup_s": avg("tcp_s"),
            "net.link_s": avg("link_s"),
            "net.payload_mb": avg("payload_bytes", scale=1 / MIB),
            "net.dict_reships": avg("dict_reships"),
            "net.encode_transposes": avg("encode_transposes"),
            "sip.rows_pruned": avg("rows_pruned"),
            "sip.aip_filters": avg("aip_filters"),
            "sip.aip_ship_s": avg("aip_ship_s"),
            "sip.cache_hit_frac": 0.0 if q17 else mean(
                [1.0 if r["hit"] else 0.0 for r in plain]),
            "ckpt.count": avg("checkpoints"),
            "ckpt.mb": avg("checkpoint_bytes", scale=1 / MIB),
            "serve.exec_s": avg("exec_s"),
        }
        state = sum(r["peak_state_bytes"] for r in plain)
        m["ckpt.per_state"] = (
            sum(r.get("checkpoint_bytes", 0) for r in plain) / state
            if state else 0.0)
        writes = [r for r in self.ops.get("plain", []) if r["rec"] == "w"]
        m["serve.write_s"] = mean([r["lat_s"] for r in writes])

        # Operator self time by layer kind (q17 only: server contexts
        # expose no profile), per traced query.
        kinds = {k: 0.0 for k in EXEC_KINDS}
        self_total = source_busy = 0.0
        if q17:
            for r in traced:
                by_kind, s, b = fold_ops(r["ops"])
                for k in EXEC_KINDS:
                    kinds[k] += by_kind.get(k, 0.0) / len(traced)
                self_total += s
                source_busy += b
        for k in EXEC_KINDS:
            m["exec.%s_s" % k] = kinds[k]
        m["exec.cover_frac"] = self_total / source_busy if source_busy else 0.0

        # Span totals per query: q17 folds them per query, serve per phase.
        def span_s(name):
            if q17:
                return mean([r["spans"].get(name, [0, 0.0])[1]
                             for r in traced])
            total = self.ends["traced"]["spans"].get(name, [0, 0.0])[1]
            return total / len(traced)

        m["trace.checkpoint_s"] = span_s("checkpoint")
        m["trace.credit_stall_s"] = span_s("exchange_credit_stall")
        m["trace.admission_wait_s"] = span_s("admission_wait")
        m["trace.session_run_s"] = span_s("session_run")
        m["trace.overhead_frac"] = (
            statistics.median(r["lat_s"] for r in traced)
            / statistics.median(r["lat_s"] for r in plain) - 1.0)
        return m

    def check_floors(self):
        """Raises BenchError when the workload degenerated."""
        good = [r for phase in self.ops for r in self.good(phase)]
        if not good:
            raise BenchError("no query returned a correct answer")
        w = self.workload
        if w == "q17-aip":
            if min(r["rows_pruned"] for r in good) <= 0:
                raise BenchError("q17-aip: a query pruned no rows")
            shipped = mean([r["bytes_shipped"] for r in good])
            if self.unpruned_bytes is None or \
                    not shipped * 10 < self.unpruned_bytes:
                raise BenchError(
                    "q17-aip: shipped %.0f B per query, not under a tenth "
                    "of the %s B shipped without AIP"
                    % (shipped, self.unpruned_bytes))
        elif w == "q17-tcp-ckpt":
            if min(r["checkpoints"] for r in good) < 1:
                raise BenchError("q17-tcp-ckpt: a query took no checkpoint")
            if min(r["socket_bytes"] for r in good) <= 0:
                raise BenchError("q17-tcp-ckpt: a query shipped nothing "
                                 "over TCP")
            if max(r["rows_pruned"] for r in good) != 0:
                raise BenchError("q17-tcp-ckpt: rows were pruned without "
                                 "AIP")
        else:
            for phase, end in self.ends.items():
                reads = [r for r in self.ops.get(phase, [])
                         if r["rec"] == "q"]
                writes = [r for r in self.ops.get(phase, [])
                          if r["rec"] == "w"]
                if end["cache_hits"] < 1 or end["cache_misses"] < 1:
                    raise BenchError("serve-mixed (%s): %d cache hits, %d "
                                     "misses; both must occur"
                                     % (phase, end["cache_hits"],
                                        end["cache_misses"]))
                if not writes:
                    raise BenchError("serve-mixed (%s): no write" % phase)
                if end["cache_misses"] * 10 < len(reads):
                    raise BenchError("serve-mixed (%s): %d misses over %d "
                                     "reads, under a tenth"
                                     % (phase, end["cache_misses"],
                                        len(reads)))
        for phase, end in self.ends.items():
            if end.get("trace_dropped", 0) != 0:
                raise BenchError("%s: the trace buffer dropped %d events"
                                 % (phase, end["trace_dropped"]))
        if "traced" in self.ends and not self.ends["traced"]["trace_written"]:
            raise BenchError("the traced phase wrote no trace")
