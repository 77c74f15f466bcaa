"""Deterministic discrete-event simulation of the server.

Each run models a FIFO server with one or two worker threads. A request
passes through up to three sequential phases (compute, memory, disk); the
worker is occupied for all of them but only compute and memory count as
CPU-busy time. Drain rates are recomputed on every event so SMT slowdown,
shared memory-bandwidth limits, and disk fair-sharing take effect the moment
the active set changes: a compute phase drains at 1.0, or at the profile's
SMT efficiency on TWO_SMT while the sibling is compute- or memory-busy;
memory phases share the effective bandwidth limit in proportion to their
lone-request rates; disk phases split the disk limit evenly. Clients issue
their requests in order and are busy until a round trip after the
completion of the previous one, which is what makes a request late
(non-timely) when its client cannot keep up.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .loadgen import ArrivalSchedule, ClientAssignment
from .model import (MB, ClosedLoop, ModelError, OpenLoop, PlatformConfig,
                    ResourceLimits, ScenarioConfig, Topology, WorkloadProfile,
                    mean_demands, validate_profile)

TIMELY_EPS = 1e-6  # seconds of slack when judging issue punctuality

_COMPUTE, _MEMORY, _DISK = 0, 1, 2
_EV_ISSUE, _EV_PHASE = 0, 1


@dataclass
class Trace:
    """Simulation output: per-request lifecycle columns, per-core busy
    intervals split by phase class, and sampled byte-movement series.
    Censored requests carry NaN for the timestamps that never happened."""

    client: np.ndarray
    scheduled: np.ndarray
    issue: np.ndarray
    service_start: np.ndarray
    completion: np.ndarray
    timely: np.ndarray
    latency: np.ndarray
    n_cores: int
    duration: float
    sample_dt: float
    mem_series: np.ndarray  # bytes moved per sampling bin
    disk_series: np.ndarray
    tx_series: np.ndarray
    rx_series: np.ndarray
    cpu_busy: list[list[tuple[float, float]]]
    disk_busy: list[list[tuple[float, float]]]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.scheduled)

    @property
    def completed_mask(self) -> np.ndarray:
        return ~np.isnan(self.completion)

    @property
    def censored_count(self) -> int:
        return int(np.isnan(self.completion).sum())

    @property
    def is_closed_loop(self) -> bool:
        return self.meta.get("mode") == "closed_loop"


def simulate_open_loop(profile: WorkloadProfile, scenario: ScenarioConfig,
                       limits: ResourceLimits, platform: PlatformConfig,
                       schedule: ArrivalSchedule,
                       assignment: ClientAssignment, seed: int) -> Trace:
    """Run an open-loop simulation of the full schedule.

    Every scheduled request appears in the trace exactly once; requests
    still unfinished when the run truncates (twice the scenario duration)
    are censored rather than dropped.
    """
    if not isinstance(scenario.mode, OpenLoop):
        raise ModelError("scenario.mode: open_loop required")
    if assignment.n_clients != scenario.n_clients:
        raise ModelError("assignment does not match scenario.n_clients")
    if sum(len(ix) for ix in assignment.client_indices) != len(schedule):
        raise ModelError("assignment does not cover the schedule")
    validate_profile(profile, platform)
    limits.validate_against(platform)
    return _run(profile, scenario, limits, platform, seed,
                schedule=schedule, assignment=assignment)


def simulate_closed_loop(profile: WorkloadProfile, scenario: ScenarioConfig,
                         limits: ResourceLimits, platform: PlatformConfig,
                         seed: int) -> Trace:
    """Run a closed-loop simulation: each session issues its next request a
    round trip plus think time after the previous completion. Issue and
    scheduled times coincide, so every request is timely by definition."""
    if not isinstance(scenario.mode, ClosedLoop):
        raise ModelError("scenario.mode: closed_loop required")
    validate_profile(profile, platform)
    limits.validate_against(platform)
    return _run(profile, scenario, limits, platform, seed)


def _run(profile: WorkloadProfile, scenario: ScenarioConfig,
         limits: ResourceLimits, platform: PlatformConfig, seed: int,
         schedule: ArrivalSchedule | None = None,
         assignment: ClientAssignment | None = None) -> Trace:
    open_mode = schedule is not None
    n_workers = scenario.topology.n_workers
    smt = scenario.topology is Topology.TWO_SMT
    sigma = profile.smt_efficiency
    rtt2 = 2.0 * scenario.rtt
    duration = scenario.duration
    hard_stop = 2.0 * duration + 10.0

    base = mean_demands(profile, limits, platform)
    mem_bytes = base.mem_bytes
    disk_bytes = base.disk_bytes
    tx_bytes = base.net_tx_bytes
    rx_bytes = base.net_rx_bytes
    stream_mb = profile.mem_stream_rate
    mem_limit_mb = limits.effective_mem_bw(platform)
    disk_limit_b = limits.effective_disk_bw(platform) * MB
    solo_mem_rate_b = min(stream_mb, mem_limit_mb) * MB

    sample_dt = max(0.001, hard_stop / 200000.0)
    nbins = int(hard_stop / sample_dt) + 2
    mem_series = np.zeros(nbins)
    disk_series = np.zeros(nbins)
    tx_series = np.zeros(nbins)
    rx_series = np.zeros(nbins)

    rng = np.random.default_rng(seed)
    if open_mode:
        n = len(schedule)
        sched = schedule.times
        cpu_demands = profile.cpu_work * profile.service_dist.sample(rng, n)
        client_lists = assignment.client_indices
        n_clients = assignment.n_clients
        client_of = np.empty(n, dtype=np.int64)
        for c, ix in enumerate(client_lists):
            client_of[ix] = c
        a_client = client_of
        a_sched = sched.copy()
        a_issue = np.full(n, np.nan)
        a_start = np.full(n, np.nan)
        a_done = np.full(n, np.nan)
        a_timely = np.zeros(n, dtype=bool)
        client_pos = [0] * n_clients
    else:
        sessions = scenario.mode.sessions
        think = scenario.mode.think_time
        l_client: list[int] = []
        l_sched: list[float] = []
        l_start: list[float] = []
        l_done: list[float] = []
        cpu_list: list[float] = []
        mult_buf = profile.service_dist.sample(rng, 1024)
        mult_pos = 0

    heap: list[tuple[float, int, int, int, int]] = []
    seq = 0

    def push(t: float, kind: int, a: int, b: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, a, b))
        seq += 1

    w_req = [-1] * n_workers  # request index, -1 when idle
    w_phase = [0] * n_workers
    w_remaining = [0.0] * n_workers
    w_rate = [1.0] * n_workers
    w_ver = [0] * n_workers
    w_disk_start = [0.0] * n_workers
    w_start = [0.0] * n_workers  # service_start of current request
    w_client = [0] * n_workers
    w_dirty = [False] * n_workers  # entered a new phase since last schedule
    fifo: deque[int] = deque()
    cpu_busy: list[list[tuple[float, float]]] = [[] for _ in range(n_workers)]
    disk_busy: list[list[tuple[float, float]]] = [[] for _ in range(n_workers)]

    def deposit(series: np.ndarray, t0: float, t1: float,
                amount: float) -> None:
        if amount <= 0.0:
            return
        b0 = min(int(t0 / sample_dt), nbins - 1)
        b1 = min(int(t1 / sample_dt), nbins - 1)
        if b0 >= b1:
            series[b0] += amount
            return
        rate = amount / (t1 - t0)
        series[b0] += ((b0 + 1) * sample_dt - t0) * rate
        if b1 > b0 + 1:
            series[b0 + 1:b1] += sample_dt * rate
        series[b1] += (t1 - b1 * sample_dt) * rate

    def impulse(series: np.ndarray, t: float, amount: float) -> None:
        if amount > 0.0:
            series[min(int(t / sample_dt), nbins - 1)] += amount

    def start_service(w: int, j: int, t: float, cpu_demand: float,
                      client: int) -> None:
        w_req[w] = j
        w_start[w] = t
        w_client[w] = client
        w_dirty[w] = True
        if cpu_demand > 0.0:
            w_phase[w] = _COMPUTE
            w_remaining[w] = cpu_demand
        elif mem_bytes > 0.0:
            w_phase[w] = _MEMORY
            w_remaining[w] = mem_bytes
        else:
            w_phase[w] = _DISK
            w_remaining[w] = disk_bytes
            w_disk_start[w] = t

    def complete(w: int, t: float) -> int:
        """Finish the worker's request; returns the finished index."""
        j = w_req[w]
        if open_mode:
            a_done[j] = t
        else:
            l_done[j] = t
        impulse(tx_series, t, tx_bytes)
        w_req[w] = -1
        if fifo:
            nxt = fifo.popleft()
            if open_mode:
                start_service(w, nxt, t, float(cpu_demands[nxt]),
                              int(client_of[nxt]))
                a_start[nxt] = t
            else:
                start_service(w, nxt, t, cpu_list[nxt], l_client[nxt])
                l_start[nxt] = t
        return j

    def advance(w: int, t: float) -> None:
        """Move the worker's request past its just-finished phase."""
        ph = w_phase[w]
        w_dirty[w] = True
        if ph == _COMPUTE and mem_bytes > 0.0:
            w_phase[w] = _MEMORY
            w_remaining[w] = mem_bytes
            return
        if ph != _DISK:
            # Leaving the CPU-busy phases (compute and/or memory).
            if t > w_start[w]:
                cpu_busy[w].append((w_start[w], t))
            if disk_bytes > 0.0:
                w_phase[w] = _DISK
                w_remaining[w] = disk_bytes
                w_disk_start[w] = t
                return
        else:
            disk_busy[w].append((w_disk_start[w], t))
        client = w_client[w]
        j = complete(w, t)
        free_at = t + rtt2
        if open_mode:
            pos = client_pos[client]
            lst = client_lists[client]
            if pos < len(lst):
                nxt = int(lst[pos])
                push(max(float(a_sched[nxt]), free_at), _EV_ISSUE, client, 0)
        else:
            t_next = free_at + think
            if t_next < duration:
                push(t_next, _EV_ISSUE, client, 0)

    def next_mult() -> float:
        nonlocal mult_buf, mult_pos
        if mult_pos >= len(mult_buf):
            mult_buf = profile.service_dist.sample(rng, 1024)
            mult_pos = 0
        v = float(mult_buf[mult_pos])
        mult_pos += 1
        return v

    # Initial events: each open-loop client waits for its first scheduled
    # time; every closed-loop session fires at t=0.
    if open_mode:
        for c in range(n_clients):
            if len(client_lists[c]):
                push(float(a_sched[client_lists[c][0]]), _EV_ISSUE, c, 0)
    else:
        for s in range(sessions):
            push(0.0, _EV_ISSUE, s, 0)

    t_last = 0.0
    truncated_at = hard_stop
    while heap:
        t, _, kind, a, b = heapq.heappop(heap)
        if t > hard_stop:
            truncated_at = t_last
            break
        if t > t_last:
            dt = t - t_last
            for w in range(n_workers):
                if w_req[w] >= 0:
                    amount = w_rate[w] * dt
                    w_remaining[w] -= amount
                    ph = w_phase[w]
                    if ph == _MEMORY:
                        deposit(mem_series, t_last, t, amount)
                    elif ph == _DISK:
                        deposit(disk_series, t_last, t, amount)
            t_last = t

        if kind == _EV_ISSUE:
            if open_mode:
                c = a
                j = int(client_lists[c][client_pos[c]])
                client_pos[c] += 1
                a_issue[j] = t
                a_timely[j] = t <= a_sched[j] + TIMELY_EPS
                impulse(rx_series, t, rx_bytes)
                cpu_d = float(cpu_demands[j])
                client = c
            else:
                j = len(l_sched)
                l_client.append(a)
                l_sched.append(t)
                l_start.append(math.nan)
                l_done.append(math.nan)
                cpu_d = profile.cpu_work * next_mult()
                cpu_list.append(cpu_d)
                impulse(rx_series, t, rx_bytes)
                client = a
            if w_req[0] < 0:
                start_service(0, j, t, cpu_d, client)
                if open_mode:
                    a_start[j] = t
                else:
                    l_start[j] = t
            elif n_workers == 2 and w_req[1] < 0:
                start_service(1, j, t, cpu_d, client)
                if open_mode:
                    a_start[j] = t
                else:
                    l_start[j] = t
            else:
                fifo.append(j)
        else:  # _EV_PHASE
            w = a
            if b != w_ver[w] or w_req[w] < 0:
                continue  # superseded by a later rate change
            w_remaining[w] = 0.0
            advance(w, t)

        # Recompute drain rates; reschedule a worker's completion only when
        # its rate changed or it just entered a new phase (version guards
        # invalidate the superseded event).
        if n_workers == 1:
            if w_req[0] >= 0 and w_dirty[0]:
                ph = w_phase[0]
                rate = (1.0 if ph == _COMPUTE else
                        solo_mem_rate_b if ph == _MEMORY else disk_limit_b)
                w_rate[0] = rate
                w_dirty[0] = False
                w_ver[0] += 1
                push(t + w_remaining[0] / rate, _EV_PHASE, 0, w_ver[0])
        else:
            busy0 = w_req[0] >= 0
            busy1 = w_req[1] >= 0
            mem_demand = ((stream_mb if busy0 and w_phase[0] == _MEMORY else 0.0)
                          + (stream_mb if busy1 and w_phase[1] == _MEMORY else 0.0))
            mem_factor = (1.0 if mem_demand <= mem_limit_mb
                          else mem_limit_mb / mem_demand)
            n_disk = ((1 if busy0 and w_phase[0] == _DISK else 0)
                      + (1 if busy1 and w_phase[1] == _DISK else 0))
            for w in range(2):
                if w_req[w] < 0:
                    continue
                ph = w_phase[w]
                if ph == _COMPUTE:
                    other = 1 - w
                    sib_cpu = (w_req[other] >= 0
                               and w_phase[other] != _DISK)
                    rate = sigma if (smt and sib_cpu) else 1.0
                elif ph == _MEMORY:
                    rate = stream_mb * mem_factor * MB
                else:
                    rate = disk_limit_b / n_disk
                if w_dirty[w] or rate != w_rate[w]:
                    w_rate[w] = rate
                    w_dirty[w] = False
                    w_ver[w] += 1
                    push(t + w_remaining[w] / rate, _EV_PHASE, w, w_ver[w])

    # Close busy intervals of requests still in flight at truncation.
    for w in range(n_workers):
        if w_req[w] >= 0:
            if w_phase[w] == _DISK:
                if truncated_at > w_disk_start[w]:
                    disk_busy[w].append((w_disk_start[w], truncated_at))
            elif truncated_at > w_start[w]:
                cpu_busy[w].append((w_start[w], truncated_at))

    if open_mode:
        client = a_client
        scheduled = a_sched
        issue = a_issue
        service_start = a_start
        completion = a_done
        timely = a_timely
    else:
        client = np.asarray(l_client, dtype=np.int64)
        scheduled = np.asarray(l_sched)
        issue = scheduled.copy()
        service_start = np.asarray(l_start)
        completion = np.asarray(l_done)
        timely = np.ones(len(l_sched), dtype=bool)
    latency = completion - scheduled + rtt2

    n_cores = n_workers  # one logical core per worker thread
    meta = {
        "mode": "open_loop" if open_mode else "closed_loop",
        "profile": profile,
        "scenario": scenario,
        "limits": limits,
        "platform": platform,
        "seed": seed,
        "target_qps": schedule.target_qps if open_mode else None,
        "sessions": None if open_mode else scenario.mode.sessions,
        "arrival_model": schedule.model.label() if open_mode else None,
    }
    return Trace(client=client, scheduled=scheduled, issue=issue,
                 service_start=service_start, completion=completion,
                 timely=timely, latency=latency, n_cores=n_cores,
                 duration=duration, sample_dt=sample_dt,
                 mem_series=mem_series, disk_series=disk_series,
                 tx_series=tx_series, rx_series=rx_series,
                 cpu_busy=cpu_busy, disk_busy=disk_busy, meta=meta)


def export_trace_csv(trace: Trace, path: str | Path) -> None:
    """One row per request with the full lifecycle timestamps."""
    lines = ["index,client,scheduled,issue,service_start,completion,"
             "timely,latency"]
    columns = zip(trace.client.tolist(), trace.scheduled.tolist(),
                  trace.issue.tolist(), trace.service_start.tolist(),
                  trace.completion.tolist(), trace.timely.tolist(),
                  trace.latency.tolist())
    for i, (client, sched, issue, start, done, timely, lat) in enumerate(
            columns):
        lines.append(",".join([
            str(i), str(client), _num(sched), _num(issue), _num(start),
            _num(done), str(int(timely)), _num(lat),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def export_series_csv(trace: Trace, path: str | Path) -> None:
    """Sampled resource movement: bytes per bin converted to MB/s."""
    dt = trace.sample_dt
    lines = ["t,mem_mbps,disk_mbps,net_tx_mbps,net_rx_mbps"]
    scale = 1.0 / (dt * MB)
    for b in range(len(trace.mem_series)):
        t0 = b * dt
        if t0 > trace.duration:
            break
        lines.append(",".join([
            _num(t0),
            _num(trace.mem_series[b] * scale),
            _num(trace.disk_series[b] * scale),
            _num(trace.tx_series[b] * scale),
            _num(trace.rx_series[b] * scale),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def _num(x: float) -> str:
    if isinstance(x, (np.floating,)):
        x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)
