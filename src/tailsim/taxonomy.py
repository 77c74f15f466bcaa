"""Resource-signature workload classification.

A characterization sweep collapses into a small feature vector read at the
saturation point and at sweep-wide peaks; ordered threshold rules then place
the workload into one of four categories, with a trace of exactly which
predicate fired so every verdict is auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .experiments import StudyEntry, sweep_metric_at
from .model import ClosedLoop


class Category(Enum):
    HIGH_PROCESSOR = "high_processor"  # heavy core/DRAM demand per request
    HIGH_DISK = "high_disk"
    FAST = "fast"
    STREAMING = "streaming"


@dataclass(frozen=True)
class FeatureVector:
    """Feature inputs for classification; bandwidths MB/s, latency seconds."""

    p95_at_saturation: float
    saturation_qps: float
    max_cpu_utilization: float
    mem_bw_at_saturation: float
    disk_bw_at_saturation: float
    net_tx_bw_peak: float
    mode: str  # open | closed
    flagged: bool = False  # no gated point; features read at the last one


@dataclass(frozen=True)
class Thresholds:
    """Classifier thresholds; all configurable, defaults documented in the
    classify docstring."""

    streaming_net_tx: float = 100.0  # MB/s
    high_processor_p95: float = 1.0  # s
    high_processor_qps: float = 10.0
    high_processor_util: float = 0.95
    high_disk_bw: float = 2.0  # MB/s
    high_disk_p95: float = 0.003  # s
    high_disk_qps: float = 1000.0


@dataclass(frozen=True)
class Classification:
    category: Category
    rule: str
    trace: tuple[str, ...]
    features: FeatureVector
    thresholds: Thresholds

    def to_dict(self) -> dict:
        return {
            "category": self.category.value,
            "rule": self.rule,
            "trace": list(self.trace),
            "features": {k: (None if isinstance(v, float) and math.isnan(v)
                             else v)
                         for k, v in vars(self.features).items()},
            "thresholds": vars(self.thresholds).copy(),
        }


def extract_features(entry: StudyEntry) -> FeatureVector:
    """Read the feature vector off the study entry of the unconstrained
    single-thread sweep.

    Latency and bandwidth features are interpolated at the entry's
    saturation load; utilization and network transmit are sweep-wide
    peaks. When no point passes the gates, features come from the highest
    timely point and the vector is flagged.
    """
    sweep, sat = entry.sweep, entry.saturation
    closed = isinstance(sweep.scenario.mode, ClosedLoop)
    anchor = sweep.points[-1].qps if closed else sat.qps

    flagged = False
    if not closed and (not sat.qualified or anchor <= 0):
        gated = [p for p in sweep.points if p.gate_ok]
        anchor_point = gated[-1] if gated else sweep.points[-1]
        anchor = anchor_point.qps
        flagged = True

    p95 = sweep_metric_at(sweep, anchor, "p95")
    mem_bw = sweep_metric_at(sweep, anchor, "mem_bw")
    disk_bw = sweep_metric_at(sweep, anchor, "disk_bw")
    max_util = max(p.summary.cpu_utilization for p in sweep.points)
    net_peak = max(p.summary.net_tx_bw for p in sweep.points)
    return FeatureVector(
        p95_at_saturation=p95,
        saturation_qps=float(sat.qps),
        max_cpu_utilization=max_util,
        mem_bw_at_saturation=mem_bw,
        disk_bw_at_saturation=disk_bw,
        net_tx_bw_peak=net_peak,
        mode="closed" if closed else "open",
        flagged=flagged,
    )


def classify(features: FeatureVector,
             thresholds: Thresholds | None = None) -> Classification:
    """Place a workload into one of the four categories.

    Rules fire in fixed order, so exactly one applies:

    1. STREAMING when peak network transmit reaches the streaming threshold
       (default 100 MB/s).
    2. HIGH_PROCESSOR when requests are so heavy that the p95 at saturation
       is at least 1 s, the supported load below 10 QPS, and peak CPU
       utilization at least 0.95.
    3. HIGH_DISK when disk bandwidth at saturation reaches 2 MB/s with a
       p95 of at least 3 ms and a supported load under 1000 QPS (the two
       extra conjuncts keep borderline search workloads out).
    4. FAST otherwise.
    """
    th = thresholds or Thresholds()
    f = features
    trace: list[str] = []

    cond = f.net_tx_bw_peak >= th.streaming_net_tx
    trace.append(f"streaming: net_tx_bw_peak {f.net_tx_bw_peak:.3g} MB/s "
                 f">= {th.streaming_net_tx:.3g} -> {cond}")
    if cond:
        return Classification(Category.STREAMING, "streaming", tuple(trace),
                              f, th)

    cond = (f.p95_at_saturation >= th.high_processor_p95
            and f.saturation_qps < th.high_processor_qps
            and f.max_cpu_utilization >= th.high_processor_util)
    trace.append(
        f"high_processor: p95 {f.p95_at_saturation:.3g}s "
        f">= {th.high_processor_p95:.3g} and qps {f.saturation_qps:.3g} "
        f"< {th.high_processor_qps:.3g} and util "
        f"{f.max_cpu_utilization:.3g} >= {th.high_processor_util:.3g} "
        f"-> {cond}")
    if cond:
        return Classification(Category.HIGH_PROCESSOR, "high_processor",
                              tuple(trace), f, th)

    cond = (f.disk_bw_at_saturation >= th.high_disk_bw
            and f.p95_at_saturation >= th.high_disk_p95
            and f.saturation_qps < th.high_disk_qps)
    trace.append(
        f"high_disk: disk_bw {f.disk_bw_at_saturation:.3g} MB/s "
        f">= {th.high_disk_bw:.3g} and p95 {f.p95_at_saturation:.3g}s "
        f">= {th.high_disk_p95:.3g} and qps {f.saturation_qps:.3g} "
        f"< {th.high_disk_qps:.3g} -> {cond}")
    if cond:
        return Classification(Category.HIGH_DISK, "high_disk", tuple(trace),
                              f, th)

    trace.append("fast: default")
    return Classification(Category.FAST, "fast", tuple(trace), f, th)
