"""Discrete-event simulator and experiment toolkit for characterizing
latency-critical server workloads: open-loop load generation with
timeliness accounting, tail-latency analysis across SMT thread placements,
behavior under LLC-way and memory-bandwidth constraints, and a
resource-signature workload taxonomy."""

from .model import (ClosedLoop, ModelError, OpenLoop, PlatformConfig,
                    ResourceLimits, ScenarioConfig, ServiceDist, Topology,
                    WorkDemand, WorkloadProfile, load_profile, mean_demands,
                    miss_ratio, save_profile, shipped_profile,
                    validate_profile)
from .loadgen import ArrivalModel, ArrivalSchedule, build_schedule
from .engine import (Trace, export_trace_csv, simulate_closed_loop,
                     simulate_open_loop)
from .metrics import MetricsSummary, default_warmup, percentile, summarize

__version__ = "0.1.0"
