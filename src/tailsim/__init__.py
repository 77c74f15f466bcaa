"""Discrete-event simulator and experiment toolkit for characterizing
latency-critical server workloads: open-loop load generation with
timeliness accounting, tail-latency analysis across SMT thread placements,
behavior under LLC-way and memory-bandwidth constraints, and a
resource-signature workload taxonomy."""

import atexit
import gc
import os

# tailsim makes no BLAS call: keep OpenBLAS from starting a worker thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# At exit, move every tracked object to the permanent generation, which the
# interpreter's exit-time collections skip: numpy's and tailsim's classes,
# functions and module globals form cycles that the collector would
# otherwise free one object at a time, and the OS takes the pages back
# anyway. Nothing is frozen while the process runs. Hooks registered after
# this import run before it (atexit runs last-registered-first); forked
# pool workers leave by os._exit and never run it.
atexit.register(gc.freeze)

from .model import (ClosedLoop, ModelError, OpenLoop, PlatformConfig,
                    ResourceLimits, ScenarioConfig, ServiceDist, Topology,
                    WorkloadProfile, load_profile, mem_bytes, miss_ratio,
                    save_profile, shipped_profile, validate_profile)
from .loadgen import ArrivalModel, build_schedule
from .engine import Trace, simulate_closed_loop, simulate_open_loop
from .metrics import MetricsSummary, default_warmup, percentile, summarize

__version__ = "0.1.0"
