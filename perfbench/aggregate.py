"""Turns the raw output of perfbench_workload into the benchmark's metrics.

Pure functions over the JSON object that program prints, so that the
aggregation rules are unit-tested on their own (test_perfbench.py).
"""

import bisect
import math
import statistics

OPS = ("met", "mer", "topk", "mec")
# Query types whose p50 and p90 are end-to-end metrics. MEC's are printed
# but not gated: a 40-70 us call bound by cache-miss latency, its median
# spread up to 0.26 across runs even after host-speed scaling (README.md).
GATED_OPS = ("met", "mer", "topk")

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# Host speed (README.md): a timing is scaled by CAL_REF_NS over the median
# calibration chunk that ran within CAL_WINDOW_NS of it, so it reads as if
# the host ran at the speed where one chunk takes CAL_REF_NS.
CAL_REF_NS = 27_000
CAL_WINDOW_NS = 100_000_000
CAL_MIN_CHUNKS = 3


class HostSpeed:
    """Scale factors from the calibration chunks of a run."""

    def __init__(self, at_ns, chunk_ns):
        self.at = at_ns
        self.chunk = chunk_ns

    def scale(self, start_ns, end_ns):
        lo = bisect.bisect_left(self.at, start_ns - CAL_WINDOW_NS)
        hi = bisect.bisect_right(self.at, end_ns + CAL_WINDOW_NS)
        if hi - lo < CAL_MIN_CHUNKS:
            mid = bisect.bisect_left(self.at, start_ns)
            lo = max(0, mid - CAL_MIN_CHUNKS)
            hi = min(len(self.at), mid + CAL_MIN_CHUNKS)
        return CAL_REF_NS / statistics.median(self.chunk[lo:hi])


class Unscaled:
    """Reads timings as measured."""

    def scale(self, start_ns, end_ns):
        return 1.0


def speed_of(raw, normalize=True):
    return HostSpeed(raw["cal_at"], raw["cal_ns"]) if normalize else Unscaled()


def samples_us(raw, key, speed):
    """The `key` durations in microseconds, each scaled by the host speed."""
    return [us * speed.scale(at, at + us * 1e3) for us, at in zip(raw[key + "_us"],
                                                                 raw[key + "_at"])]


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q < 1) of `samples`.

    Returns None when fewer than MIN_BEYOND samples lie strictly above the
    rank, so a tail is never read off a handful of points.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median(samples):
    return statistics.median(samples) if samples else None


def self_time(start, end, children):
    """Time in [start, end] that no child interval (start, end) covers."""
    covered = 0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered


def busy_s(kinds):
    """Seconds spent inside calls, estimated per kind of call as count times
    median duration, so that a host stall in a handful of calls does not
    swing a throughput (README.md). The throughputs therefore cannot see a
    change confined to the slowest half of the calls; the gated p90s can."""
    return sum(len(us) * median(us) for us in kinds if us) / 1e6


def end_to_end(raw, normalize=True):
    """The end-to-end metrics of one untraced run, by name: (value, unit)."""
    speed = speed_of(raw, normalize)
    us = {key: samples_us(raw, key, speed) for key in ("setup", "publish", "append") + OPS}
    queries = sum(len(us[op]) for op in OPS)
    m = {
        "setup_s": (median(us["setup"]) / 1e6, "s"),
        "ingest_rows_per_s": (raw["rows"] / busy_s([us["publish"], us["append"]]), "rows/s"),
        "visible_p50_us": (median(us["publish"]), "us"),
        "query_per_s": (queries / busy_s([us[op] for op in OPS]), "1/s"),
    }
    for op in GATED_OPS:
        m[op + "_p50_us"] = (median(us[op]), "us")
        m[op + "_p90_us"] = (percentile(us[op], 0.9), "us")
    m["answer_match_share"] = (raw["matched"] / max(raw["verified"], 1), "share")
    m["ok_op_share"] = ((raw["attempted"] - raw["failed_ops"]) / raw["attempted"], "share")
    # The growth of the resident set over what the process held once its
    # inputs existed (the program reset the high-water mark there).
    m["peak_rss_mb"] = ((raw["rss_hwm_kb"] - raw["rss_base_kb"]) / 1024.0, "MiB")
    return m


def not_gated(raw, normalize=True):
    """Latencies printed but kept out of BENCHMARK.json (README.md): MEC's
    p50 and p90, which spread too widely across runs for a bound, and the
    epoch-visibility p90, which `query` publishes too few epochs for (it
    reads None there)."""
    speed = speed_of(raw, normalize)
    mec = samples_us(raw, "mec", speed)
    return {
        "mec_p50_us": (median(mec), "us"),
        "mec_p90_us": (percentile(mec, 0.9), "us"),
        "visible_p90_us": (percentile(samples_us(raw, "publish", speed), 0.9), "us"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw, overhead_share):
    """The per-layer metrics of one traced run, by name: (value, unit).

    Busy times and latency percentiles come from the spans, counts from
    the run's counters. A layer the workload does not call reads 0.
    """
    speed = speed_of(raw)
    names = raw["span_names"]
    spans = [(names[s[0]], bool(s[1]), s[2], s[3], s[4]) for s in raw["spans"]]
    c = raw["counters"]
    get = lambda key: c.get(key, 0.0)

    def durations_us(name, published=None):
        return [(e - s) / 1e3 * speed.scale(s, e) for (n, p, _, s, e) in spans
                if n == name and (published is None or p == published)]

    def span_busy_s(name):
        return sum(durations_us(name)) / 1e6

    def p50(values):
        return median(values) or 0.0

    m = {}
    m["core.framework.first_build_s"] = (median(samples_us(raw, "first_build", speed)) / 1e6, "s")
    m["core.streaming.publish_us_p50"] = (p50(durations_us("core.streaming.append", True)), "us")
    m["core.streaming.append_us_p50"] = (p50(durations_us("core.streaming.append", False)), "us")
    m["core.streaming.escalations"] = (get("maint.escalations"), "count")

    refreshes = get("maint.refreshes")
    m["core.incremental.updated_per_refresh"] = (
        _ratio(get("maint.relationships_updated"), refreshes), "1/refresh")
    m["core.incremental.refit_per_refresh"] = (
        _ratio(get("maint.relationships_refit"), refreshes), "1/refresh")
    m["core.incremental.rekeys_per_refresh"] = (
        _ratio(get("maint.tree_rekeys"), refreshes), "1/refresh")
    m["core.incremental.rekeys_skipped_share"] = (
        _ratio(get("maint.scape_rekeys_skipped"),
               get("maint.tree_rekeys") + get("maint.scape_rekeys_skipped")), "share")
    m["core.incremental.blocks_reused_share"] = (
        _ratio(get("maint.recompute_blocks_reused"),
               get("maint.recompute_blocks_reused") + get("maint.recompute_blocks_touched")),
        "share")

    epochs = get("publish.epochs")
    m["serve.publish.delta_share"] = (_ratio(get("publish.epochs_delta"), epochs), "share")
    m["serve.publish.bytes_per_epoch"] = (_ratio(get("publish.bytes_copied"), epochs), "B")
    m["serve.publish.runs_shared_per_epoch"] = (
        _ratio(get("publish.scape_runs_shared"), epochs), "1/epoch")
    m["serve.publish.runs_spliced_per_epoch"] = (
        _ratio(get("publish.scape_runs_spliced"), epochs), "1/epoch")
    m["serve.publish.segments_reused_per_epoch"] = (
        _ratio(get("publish.window_segments_reused"), epochs), "1/epoch")

    m["serve.query.fallbacks"] = (get("publish.serve_fallbacks"), "count")
    for op in OPS:
        m["serve.query.%s.busy_s" % op] = (span_busy_s("query." + op), "s")

    for op in ("met", "mer"):
        queries = get("ops." + op)
        m["core.scape.%s.accepted_per_query" % op] = (
            _ratio(get("scape.%s.accepted" % op), queries), "1/query")
        m["core.scape.%s.verified_per_query" % op] = (
            _ratio(get("scape.%s.verified" % op), queries), "1/query")
    m["core.scape.topk.examined_per_query"] = (
        _ratio(get("scape.topk.examined"), get("ops.topk")), "1/query")

    for op in OPS:
        m["core.query.%s.entities_per_query" % op] = (
            _ratio(get("entities." + op), get("ops." + op)), "1/query")
    m["core.query.min_quality_excluded"] = (get("quality.excluded"), "count")

    for op in OPS:
        queries = get("ops." + op)
        for method in ("scape", "wa", "wn"):
            m["core.planner.%s.%s_share" % (op, method)] = (
                _ratio(get("plan.%s.%s" % (op, method)), queries), "share")
        m["core.planner.%s.estimated_cost" % op] = (
            _ratio(get("plan.%s.estimated_cost" % op), queries), "ops")

    rows = get("ingest.rows")
    cells = rows * raw["stamp"]["n"]
    m["ts.ingest.align_us_per_row"] = (_ratio(span_busy_s("ts.ingest.align") * 1e6, rows), "us")
    m["ts.ingest.gap_share"] = (_ratio(get("ingest.gaps"), cells), "share")
    m["ts.ingest.fill_share"] = (_ratio(get("ingest.fills"), cells), "share")
    m["ts.ingest.late_samples"] = (get("ingest.late"), "count")

    router_queries = sum(get("ops." + op) for op in OPS) if raw["stamp"]["shards"] > 1 else 0
    m["shard.router.publish_us_p50"] = (p50(durations_us("shard.router.append", True)), "us")
    m["shard.router.cross_pairs_per_query"] = (
        _ratio(get("cross.pairs_scanned"), router_queries), "1/query")
    m["shard.router.columns_hoisted_per_query"] = (
        _ratio(get("cross.columns_hoisted"), router_queries), "1/query")

    start, end = raw["phase_ns"]
    calibration = [(a, a + d) for a, d in zip(raw["cal_at"], raw["cal_ns"]) if start <= a < end]
    covered = [(s, e) for (n, _, _, s, e) in spans] + calibration
    m["bench.driver_self_share"] = (_ratio(self_time(start, end, covered), end - start), "share")
    m["bench.calibration_share"] = (
        _ratio(sum(e - s for s, e in calibration), end - start), "share")
    m["bench.trace_overhead_share"] = (overhead_share, "share")
    return m


def deterministic(raw):
    """What must repeat exactly for one seed: counters, checksum, op counts."""
    return {
        "counters": raw["counters"],
        "checksum": raw["checksum"],
        "ops": raw["stamp"]["ops"],
        "rows": raw["rows"],
        "attempted": raw["attempted"],
        "failed_ops": raw["failed_ops"],
        "verified": raw["verified"],
        "matched": raw["matched"],
    }
