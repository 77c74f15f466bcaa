"""Per-run metric aggregation: tail-latency percentiles, CPU utilization,
bandwidth averages, modeled LLC occupancy, and the timely-requests ratio.

All aggregates are computed over a measurement window [warmup, horizon]
that discards a warmup prefix of the run; censored requests never enter
latency statistics but are counted and flagged. Bandwidths are exact
window integrals of the trace: memory and disk bytes are the constant-rate
segments' rates times their overlap with the window, and network bytes are
the per-request amount times the issues (received) or completions (sent)
in [warmup, horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import MB
from .engine import Trace

#: Stable column order for one-row-per-sweep-point CSV output.
SWEEP_CSV_COLUMNS = ("qps", "p50", "p95", "p99", "util", "mem_bw", "disk_bw",
                     "net_tx", "net_rx", "llc_occ", "timely_ratio",
                     "saturated")


class MetricsError(ValueError):
    """Raised when a trace cannot be summarized (e.g. empty window)."""


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregates of one run over its measurement window.

    Latencies are seconds, bandwidths MB/s, llc_occupancy MB. saturated is
    set when requests were censored or completions fell visibly behind
    issues within the window.
    """

    p50: float
    p95: float
    p99: float
    mean_latency: float
    mean_service_time: float
    cpu_utilization: float
    mem_bw: float
    disk_bw: float
    net_tx_bw: float
    net_rx_bw: float
    llc_occupancy: float
    timely_ratio: float
    completed: int
    censored: int
    saturated: bool

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and math.isnan(v):
                v = None
            out[f.name] = v
        return out


def percentile(latencies, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.

    Always returns an element of the input, so tail percentiles are
    realized latencies rather than interpolated ones.
    """
    arr = np.asarray(latencies, dtype=np.float64)
    if arr.size == 0:
        raise MetricsError("percentile: empty input")
    if not 0.0 < p <= 100.0:
        raise MetricsError("percentile: p must lie in (0, 100]")
    k = int(math.ceil(p * arr.size / 100.0 - 1e-9))
    k = min(max(k, 1), arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def default_warmup(duration: float) -> float:
    """Warmup discarded from aggregates: max(5 s, 10% of the horizon),
    capped below the horizon so short runs keep a window."""
    w = max(5.0, 0.1 * duration)
    if w >= duration:
        w = 0.1 * duration
    return w


def summarize(trace: Trace, warmup: float | None = None) -> MetricsSummary:
    """Aggregate a trace over [warmup, horizon].

    Records scheduled before the warmup are discarded. Latency statistics
    cover completed requests only (drain-tail completions included);
    utilization and bandwidths are clipped to the window.
    """
    horizon = trace.duration
    if warmup is None:
        warmup = default_warmup(horizon)
    if warmup >= horizon:
        raise MetricsError("warmup: must be below the run horizon")
    window = horizon - warmup

    sched = trace.scheduled
    in_win = (sched >= warmup) & (sched < horizon)
    n_win = int(in_win.sum())
    if n_win == 0:
        raise MetricsError("summarize: no requests scheduled in the window")

    completion = trace.completion
    completed_mask = in_win & ~np.isnan(completion)
    completed = int(completed_mask.sum())
    censored = n_win - completed

    if completed:
        lat = trace.latency[completed_mask]
        p50 = percentile(lat, 50.0)
        p95 = percentile(lat, 95.0)
        p99 = percentile(lat, 99.0)
        mean_latency = float(lat.mean())
        service = completion[completed_mask] - trace.service_start[completed_mask]
        mean_service = float(service.mean())
    else:
        p50 = p95 = p99 = mean_latency = mean_service = math.nan

    busy_total = 0.0
    for core in range(trace.n_cores):
        busy_total += _overlap_sum(trace.cpu_busy[core], warmup, horizon)
    cpu_utilization = busy_total / (window * trace.n_cores)

    mem_bw = _segment_bytes(trace.mem_segments, warmup,
                            horizon) / window / MB
    disk_bw = _segment_bytes(trace.disk_segments, warmup,
                             horizon) / window / MB
    net_tx_bw = (trace.net_tx_bytes * _count_in(completion, warmup, horizon)
                 / window / MB)
    net_rx_bw = (trace.net_rx_bytes * _count_in(trace.issue, warmup, horizon)
                 / window / MB)

    t_ratio = float(trace.timely[in_win].mean())

    issue = trace.issue
    issued_by_h = int((in_win & (issue <= horizon)).sum())
    completed_by_h = int((in_win & (completion <= horizon)).sum())
    saturated = censored > 0 or (issued_by_h > 0
                                 and completed_by_h < 0.95 * issued_by_h)

    return MetricsSummary(
        p50=p50, p95=p95, p99=p99, mean_latency=mean_latency,
        mean_service_time=mean_service, cpu_utilization=cpu_utilization,
        mem_bw=mem_bw, disk_bw=disk_bw, net_tx_bw=net_tx_bw,
        net_rx_bw=net_rx_bw, llc_occupancy=trace.llc_occupancy,
        timely_ratio=t_ratio, completed=completed, censored=censored,
        saturated=saturated,
    )


def summary_csv_row(qps: float, summary: MetricsSummary) -> str:
    vals = [qps, summary.p50, summary.p95, summary.p99,
            summary.cpu_utilization, summary.mem_bw, summary.disk_bw,
            summary.net_tx_bw, summary.net_rx_bw, summary.llc_occupancy,
            summary.timely_ratio, int(summary.saturated)]
    return ",".join(_csv_num(v) for v in vals)


def _csv_num(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def _overlap_sum(intervals: np.ndarray, a: float, b: float) -> float:
    """Total length of the (k, 2) [start, end] rows inside [a, b]. The
    parts are added one after another (cumsum, not np.sum's pairwise
    sum), so the total has the bits of a plain loop over the rows."""
    part = np.minimum(intervals[:, 1], b) - np.maximum(intervals[:, 0], a)
    part = part[part > 0.0]
    return float(np.cumsum(part)[-1]) if len(part) else 0.0


def _segment_bytes(segments: np.ndarray, a: float, b: float) -> float:
    """Bytes the (k, 3) [t0, t1, rate] segments move within [a, b]: each
    rate times the length of its segment's overlap with [a, b]."""
    part = np.minimum(segments[:, 1], b)
    part -= np.maximum(segments[:, 0], a)
    np.maximum(part, 0.0, out=part)
    part *= segments[:, 2]
    return float(part.sum())


def _count_in(times: np.ndarray, a: float, b: float) -> int:
    """How many times lie in [a, b); NaN never does."""
    return int(((times >= a) & (times < b)).sum())
