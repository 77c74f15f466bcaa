"""Open-loop arrival schedule generation.

One seeded generator produces the global request schedule for a target QPS.
The engine lays it over a finite client pool, request j issued by client
j mod n_clients, so it can judge, per request, whether its client was free
at the scheduled instant (the timeliness test).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import ModelError

_RATE_CHUNK = 16384  # gap draws per block while filling a horizon
# Largest zipf support: a schedule's support, weight and cdf arrays take
# 8 bytes per value, 8 MB each at this size.
ZIPF_SUPPORT_MAX = 10**6


@dataclass(frozen=True)
class ArrivalModel:
    """Arrival process: evenly spaced, Poisson, or bursty Zipf-multiplier gaps.

    The zipf model draws inter-arrival gaps g = c * Z with Z sampled from a
    bounded Zipf(alpha) over {1..support_n}; c normalizes the mean gap to
    1/qps, so small Z values produce dense request bursts separated by long
    pauses.
    """

    kind: str  # deterministic | poisson | zipf
    alpha: float = 1.0
    support_n: int = 1000

    KINDS = ("deterministic", "poisson", "zipf")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ModelError(f"arrival model: unknown kind {self.kind!r}")
        if self.kind == "zipf":
            if self.alpha <= 0:
                raise ModelError("arrival model: zipf alpha must be > 0")
            if self.support_n < 2:
                raise ModelError("arrival model: zipf support_n must be >= 2")
            if self.support_n > ZIPF_SUPPORT_MAX:
                raise ModelError(
                    f"zipf_support: must be at most {ZIPF_SUPPORT_MAX}")


@dataclass(frozen=True)
class ArrivalSchedule:
    """Scheduled request issue times for one run."""

    # Seconds, all < duration; simulate_open_loop enforces non-decreasing.
    times: np.ndarray
    target_qps: float
    model: ArrivalModel
    seed: int
    duration: float

    def __len__(self) -> int:
        return len(self.times)


def build_schedule(model: ArrivalModel, qps: float, duration: float,
                   seed: int) -> ArrivalSchedule:
    """Generate the arrival schedule for one run.

    Identical (model, qps, duration, seed) always yields the identical
    schedule. The runs of one load point ask for it one after another, so
    the last schedule's times are kept, read-only, and handed out again
    to a call with equal inputs instead of being drawn anew.
    """
    if qps <= 0:
        raise ModelError("qps: must be positive")
    if duration <= 0:
        raise ModelError("duration: must be positive")
    return ArrivalSchedule(times=_times(model, qps, duration, seed),
                           target_qps=qps, model=model, seed=seed,
                           duration=duration)


@functools.lru_cache(maxsize=1)
def _times(model: ArrivalModel, qps: float, duration: float,
           seed: int) -> np.ndarray:
    if model.kind == "deterministic":
        n = int(np.floor(qps * duration + 1e-9))
        times = np.arange(n, dtype=np.float64) / qps
    elif model.kind == "poisson":
        rng = np.random.default_rng(seed)
        times = _accumulate_gaps(
            lambda k: rng.exponential(1.0 / qps, k), duration)
    else:
        rng = np.random.default_rng(seed)
        support = np.arange(1, model.support_n + 1, dtype=np.float64)
        weights = support ** (-model.alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        mean_z = float(np.sum(support * weights) / np.sum(weights))
        scale = 1.0 / (qps * mean_z)

        def draw(k: int) -> np.ndarray:
            z = np.searchsorted(cdf, rng.random(k), side="right") + 1
            return scale * z

        times = _accumulate_gaps(draw, duration)
    times.flags.writeable = False
    return times


def _accumulate_gaps(draw, duration: float) -> np.ndarray:
    """Cumulate gap draws until the horizon is covered, then cut. At a
    load so low that a gap or a sum of gaps passes the largest float, the
    times that overflow to inf lie past any horizon and are cut with the
    rest."""
    chunks: list[np.ndarray] = []
    total = 0.0
    while total < duration:
        with np.errstate(over="ignore"):
            cum = total + np.cumsum(draw(_RATE_CHUNK))
        chunks.append(cum)
        total = float(cum[-1])
    times = np.concatenate(chunks)
    return times[times < duration].copy()

