"""Deterministic simulation of the server.

Each run models a FIFO server with one or two worker threads. A request
passes through up to three sequential phases (compute, memory, disk); the
worker is occupied for all of them but only compute and memory count as
CPU-busy time. A compute phase drains at 1.0, or at the profile's SMT
efficiency on TWO_SMT while the sibling is compute- or memory-busy; memory
phases share the effective bandwidth limit in proportion to their
lone-request rates; disk phases split the disk limit evenly. Clients issue
their requests in order and are busy until a round trip after the
completion of the previous one, which is what makes a request late
(non-timely) when its client cannot keep up.

Every drain rate comes from one table, ``model.drain_rates``: both
workers' rates for each pair of phases they can be in (compute, memory,
disk or idle). The event engine (``_run``) looks the rates up there when
a worker's phase changes; it is the reference, and it runs every
closed-loop run and every open-loop run whose rates vary. An open-loop run
in which each phase drains at its lone rate (beside an idle sibling) in
every pair its workers can reach (``_constant_rate``: one worker always)
takes ``_run_constant_rate``. There a request's phase ends are fixed when
it starts: with one worker it starts at the later of its issue and the
previous completion (Lindley, "The theory of queues with a single
server", 1952); with two it takes the worker that frees first, in FIFO
order (Kiefer and Wolfowitz, "On the theory of queues with many servers",
1955), and the two workers' phase ends are taken in the event engine's
(time, push order) order, which decides equal times. The simulate_*
functions choose the path and record it in ``Trace.meta["engine"]``
(``"constant_rate"`` or ``"event"``). ``_request_store`` builds the
request store both paths fill: in open loop the schedule times, compute
seconds, clients and each client's next request; in closed loop a request
appended as its session issues it.

Both paths record memory and disk traffic as constant-rate segments: a
stretch of one worker's memory or disk phase at one rate, as a
[start, end, bytes/s] row, logged only when it has positive length. The
event engine closes a segment when the phase ends, when the worker's rate
changes, or at the hard stop; at constant rates every phase is one
segment, and the constant-rate path builds the rows in the order the event
engine closes them, so the two paths' segment arrays are the same, bit for
bit. Network traffic is a fixed amount per issue (received) and per
completion (sent). ``metrics.summarize`` integrates the segments exactly
over its window; only ``export_series_csv`` bins them onto a sampling grid.
The event heap keeps superseded (stale) phase events: one still pops and
ends the drain step at its time, which splits the float subtractions of
the remaining work, so dropping it would change the completion times' bits.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .loadgen import ArrivalSchedule, ClientAssignment
from .model import (COMPUTE, DISK, IDLE, MB, MEMORY, ClosedLoop, ModelError,
                    OpenLoop, PlatformConfig, ResourceLimits, ScenarioConfig,
                    WorkloadProfile, drain_rates, llc_occupancy, mean_demands,
                    validate_profile)

TIMELY_EPS = 1e-6  # seconds of slack when judging issue punctuality
_BLOCK = 4096  # segments per export deposit step; bounds the temporaries

_EV_ISSUE, _EV_PHASE = 0, 1


@dataclass
class Trace:
    """Simulation output: per-request lifecycle columns, per-core CPU-busy
    intervals (compute and memory phases) and byte movement. Censored
    requests carry NaN for the timestamps that never happened. Busy
    intervals are one (k, 2) array of [start, end] rows per core, in the
    order the intervals closed. Memory and disk traffic are (k, 3) arrays
    of constant-rate [t0, t1, bytes/s] segments with t1 > t0, in the order
    the segments closed; network traffic is net_rx_bytes per issue and
    net_tx_bytes per completion. llc_occupancy is the MB of LLC the
    workload holds (``model.llc_occupancy``), NaN when unknown."""

    client: np.ndarray
    scheduled: np.ndarray
    issue: np.ndarray
    service_start: np.ndarray
    completion: np.ndarray
    timely: np.ndarray
    latency: np.ndarray
    n_cores: int
    duration: float
    mem_segments: np.ndarray
    disk_segments: np.ndarray
    net_tx_bytes: float
    net_rx_bytes: float
    cpu_busy: list[np.ndarray]
    llc_occupancy: float = math.nan
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.scheduled)

    @property
    def censored_count(self) -> int:
        return int(np.isnan(self.completion).sum())


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
    run = (_run_constant_rate
           if _constant_rate(profile, scenario, limits, platform) else _run)
    return run(profile, scenario, limits, platform, seed, schedule=schedule,
               assignment=assignment)


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


def _request_store(profile: WorkloadProfile, scenario: ScenarioConfig,
                   seed: int, schedule: ArrivalSchedule | None,
                   assignment: ClientAssignment | None) -> tuple:
    """The request store a run fills, indexed by request: (client,
    scheduled, cpu, next, issue, start, done, first, closed_issue).

    In open loop the schedule times, the compute seconds and the client's
    next request (-1 after its last) are memoryviews and the client an
    int64 array; issue, start and done are NaN; first holds each client's
    first (time, request) in client order, and closed_issue is None. In
    closed loop every column starts empty and next is None; first holds
    (0, session) for each session, and closed_issue(session, t) appends the
    request a session issues at t and returns its index. Compute seconds
    are cpu_work times service multipliers drawn from the seed's generator:
    all at once in open loop, in blocks of 1024 in issue order in closed
    loop.
    """
    rng = np.random.default_rng(seed)
    if schedule is None:
        client, scheduled, cpu = array("q"), array("d"), array("d")
        issue, start, done = array("d"), array("d"), array("d")
        mult = profile.service_dist.sample(rng, 1024)
        pos = 0

        def closed_issue(session: int, t: float) -> int:
            nonlocal mult, pos
            if pos == len(mult):
                mult = profile.service_dist.sample(rng, 1024)
                pos = 0
            client.append(session)
            scheduled.append(t)
            issue.append(t)
            start.append(math.nan)
            done.append(math.nan)
            cpu.append(profile.cpu_work * float(mult[pos]))
            pos += 1
            return len(issue) - 1

        first = [(0.0, s) for s in range(scenario.mode.sessions)]
        return (client, scheduled, cpu, None, issue, start, done, first,
                closed_issue)
    n = len(schedule)
    scheduled = memoryview(schedule.times)
    cpu = memoryview(profile.cpu_work * profile.service_dist.sample(rng, n))
    client = np.empty(n, dtype=np.int64)
    next_of = np.full(n, -1, dtype=np.int64)
    first = []
    for c, ix in enumerate(assignment.client_indices):
        client[ix] = c
        if len(ix):
            next_of[ix[:-1]] = ix[1:]
            first.append((scheduled[ix[0]], int(ix[0])))
    issue, start, done = (array("d", [math.nan]) * n for _ in range(3))
    return (client, scheduled, cpu, memoryview(next_of), issue, start, done,
            first, None)


def _run(profile: WorkloadProfile, scenario: ScenarioConfig,
         limits: ResourceLimits, platform: PlatformConfig, seed: int,
         schedule: ArrivalSchedule | None = None,
         assignment: ClientAssignment | None = None) -> Trace:
    open_mode = schedule is not None
    n_workers = scenario.topology.n_workers
    two = n_workers == 2
    rtt2 = 2.0 * scenario.rtt
    duration = scenario.duration
    hard_stop = _sample_grid(duration)[0]

    base = mean_demands(profile, limits, platform)
    mem_bytes = base.mem_bytes
    disk_bytes = base.disk_bytes
    # (worker, phase, rate) of each busy worker at phase0 * 4 + phase1.
    rates = drain_rates(profile, scenario.topology, limits, platform)

    (client_of, scheduled, cpu, next_of, issue, start, done, first,
     closed_issue) = _request_store(profile, scenario, seed, schedule,
                                    assignment)
    if not open_mode:
        think = scenario.mode.think_time
    heap: list[tuple[float, int, int, int, int]] = []
    heappush, heappop = heapq.heappush, heapq.heappop

    # Per worker; a missing second worker stays IDLE.
    w_req = [-1, -1]  # request index while busy
    w_phase = [IDLE, IDLE]
    w_remaining = [0.0, 0.0]
    w_rate = [1.0, 1.0]
    w_ver = [0, 0]
    w_since = [0.0, 0.0]  # when the current rate was set
    fifo: deque[int] = deque()
    # Busy intervals per worker, flat [start, end, start, end, ...].
    cpu_busy = [array("d") for _ in range(n_workers)]
    # Memory and disk segments, flat [t0, t1, rate, ...] in the order they
    # closed.
    mem_log = array("d")
    disk_log = array("d")

    # An issue event carries the request in open loop and the session in
    # closed loop. seq is the push order, which breaks ties between equal
    # times.
    seq = 0
    for t, a in first:
        heappush(heap, (t, seq, _EV_ISSUE, a, 0))
        seq += 1

    t_last = 0.0
    stopped = False  # an event past the hard stop was popped
    stale = 0
    while heap:
        t, _, kind, w, b = heappop(heap)
        if t > hard_stop:
            stopped = True
            break
        if t > t_last:
            dt = t - t_last
            if w_phase[0] != IDLE:
                w_remaining[0] -= w_rate[0] * dt
            if w_phase[1] != IDLE:
                w_remaining[1] -= w_rate[1] * dt
            t_last = t

        # j becomes the request worker w starts at t, if any.
        if kind == _EV_ISSUE:
            if open_mode:
                j = w
                issue[j] = t
            else:
                j = closed_issue(w, t)
            if w_phase[0] == IDLE:
                w = 0
            elif two and w_phase[1] == IDLE:
                w = 1
            else:
                fifo.append(j)
                continue  # both workers stay busy: no rate can change
        else:  # _EV_PHASE of worker w
            if b != w_ver[w]:
                stale += 1
                continue  # superseded by a later rate change
            # Move the worker's request past its just-finished phase.
            ph = w_phase[w]
            j = -1
            if ph == COMPUTE and mem_bytes > 0.0:
                w_phase[w] = MEMORY
                w_remaining[w] = mem_bytes
            else:
                if ph != COMPUTE and t > w_since[w]:
                    (mem_log if ph == MEMORY else disk_log).extend(
                        (w_since[w], t, w_rate[w]))
                k = w_req[w]
                if ph != DISK and t > start[k]:
                    # Leaving the CPU-busy phases (compute and/or memory).
                    cpu_busy[w].extend((start[k], t))
                if ph != DISK and disk_bytes > 0.0:
                    w_phase[w] = DISK
                    w_remaining[w] = disk_bytes
                else:
                    done[k] = t
                    free_at = t + rtt2
                    if open_mode:
                        nxt = next_of[k]
                        if nxt >= 0:
                            t_next = scheduled[nxt]
                            heappush(heap, (t_next if t_next > free_at
                                            else free_at, seq, _EV_ISSUE,
                                            nxt, 0))
                            seq += 1
                    else:
                        t_next = free_at + think
                        if t_next < duration:
                            heappush(heap, (t_next, seq, _EV_ISSUE,
                                            client_of[k], 0))
                            seq += 1
                    if fifo:
                        j = fifo.popleft()
                    else:
                        w_phase[w] = IDLE
        if j >= 0:
            w_req[w] = j
            start[j] = t
            x = cpu[j]
            if x > 0.0:
                w_phase[w] = COMPUTE
                w_remaining[w] = x
            elif mem_bytes > 0.0:
                w_phase[w] = MEMORY
                w_remaining[w] = mem_bytes
            else:
                w_phase[w] = DISK
                w_remaining[w] = disk_bytes

        # Look the drain rates up; reschedule worker w, which just entered
        # a new phase, and a sibling whose rate changed (version guards
        # invalidate the superseded event). A rate change mid-phase closes
        # the memory or disk segment drained at the old rate.
        for v, ph, rate in rates[w_phase[0] * 4 + w_phase[1]]:
            if v != w:
                if rate == w_rate[v]:
                    continue
                if ph != COMPUTE and t > w_since[v]:
                    (mem_log if ph == MEMORY else disk_log).extend(
                        (w_since[v], t, w_rate[v]))
            w_rate[v] = rate
            w_since[v] = t
            w_ver[v] += 1
            heappush(heap, (t + w_remaining[v] / rate, seq, _EV_PHASE, v,
                            w_ver[v]))
            seq += 1

    # Every pushed event was popped except those left in the heap and the
    # one past the hard stop.
    events = seq - len(heap) - stopped
    # Requests still in flight at truncation: their busy intervals and
    # segments end at the last event time.
    for w, (j, ph) in enumerate(zip(w_req, w_phase[:n_workers])):
        if ph == IDLE:
            continue
        if ph != DISK and t_last > start[j]:
            cpu_busy[w].extend((start[j], t_last))
        if ph != COMPUTE and t_last > w_since[w]:
            (mem_log if ph == MEMORY else disk_log).extend(
                (w_since[w], t_last, w_rate[w]))

    # Freed before the trace is built: it would otherwise set the run's peak
    # memory.
    del next_of
    # The trace gets its own copy of the schedule's times.
    scheduled_a = (schedule.times.copy() if open_mode
                   else np.frombuffer(scheduled))
    issue_a = np.frombuffer(issue)
    done_a = np.frombuffer(done)
    meta = {"engine": "event", "events": events, "stale_events": stale}
    return Trace(client=np.frombuffer(client_of, dtype=np.int64),
                 scheduled=scheduled_a, issue=issue_a,
                 service_start=np.frombuffer(start), completion=done_a,
                 timely=issue_a <= scheduled_a + TIMELY_EPS,
                 latency=done_a - scheduled_a + rtt2,
                 n_cores=n_workers,  # one logical core per worker thread
                 duration=duration,
                 mem_segments=np.frombuffer(mem_log).reshape(-1, 3),
                 disk_segments=np.frombuffer(disk_log).reshape(-1, 3),
                 net_tx_bytes=base.net_tx_bytes,
                 net_rx_bytes=base.net_rx_bytes,
                 cpu_busy=[_rows(iv) for iv in cpu_busy],
                 llc_occupancy=llc_occupancy(profile, limits, platform),
                 meta=meta)


def _constant_rate(profile: WorkloadProfile, scenario: ScenarioConfig,
                   limits: ResourceLimits, platform: PlatformConfig) -> bool:
    """Whether every phase of an open-loop run drains at one rate from its
    start to its end: whether each phase its requests enter drains at its
    lone rate (``drain_rates`` beside IDLE) in every pair of phases the
    workers can reach. Always so with one worker."""
    base = mean_demands(profile, limits, platform)
    reach = [ph for ph, demand in ((COMPUTE, profile.cpu_work),
                                   (MEMORY, base.mem_bytes),
                                   (DISK, base.disk_bytes)) if demand > 0.0]
    reach.append(IDLE)
    rates = drain_rates(profile, scenario.topology, limits, platform)
    return all(rate == rates[ph * 4 + IDLE][0][2]
               for p0 in reach
               for p1 in (reach if scenario.topology.n_workers == 2
                          else [IDLE])
               for _, ph, rate in rates[p0 * 4 + p1])


def _run_constant_rate(profile: WorkloadProfile, scenario: ScenarioConfig,
                       limits: ResourceLimits, platform: PlatformConfig,
                       seed: int, schedule: ArrivalSchedule,
                       assignment: ClientAssignment) -> Trace:
    """An open-loop run whose phases drain at constant rates
    (``_constant_rate``), taken request by request; the trace is ``_run``'s,
    bit for bit.

    A request's phase ends are fixed when it starts: compute ends at
    start + cpu, memory mem_bytes / rate later and disk disk_bytes / rate
    after that, at the lone rates of ``drain_rates``, summed in ``_run``'s
    order. With one worker a request starts at the later of its issue and
    the previous completion (Lindley). With two, an issue takes worker 0
    if it is idle, else worker 1, else waits in FIFO order for the worker
    that frees first (Kiefer and Wolfowitz, "On the theory of queues with
    many servers", 1955). Equal times are taken in ``_run``'s (time, push
    order) order. A completion pushes its client's next issue at
    max(scheduled, done + 2 rtt). At the hard stop nothing later is
    issued, started or completed, and the busy intervals and bytes of
    requests in flight end at the last event at or before it. Each phase
    is one segment, in the order ``_run`` closes it.
    """
    n_workers = scenario.topology.n_workers
    rtt2 = 2.0 * scenario.rtt
    hard_stop = _sample_grid(scenario.duration)[0]

    base = mean_demands(profile, limits, platform)
    mem_bytes = base.mem_bytes
    disk_bytes = base.disk_bytes
    rates = drain_rates(profile, scenario.topology, limits, platform)
    mem_rate = rates[MEMORY * 4 + IDLE][0][2]
    disk_rate = rates[DISK * 4 + IDLE][0][2]
    mem_time = mem_bytes / mem_rate if mem_bytes > 0.0 else 0.0
    disk_time = disk_bytes / disk_rate if disk_bytes > 0.0 else 0.0

    # The issue heap holds (time, push order, request); the initial issues
    # are pushed first, in client order.
    (client_of, scheduled, cpu, next_of, issue, start, done, first,
     _) = _request_store(profile, scenario, seed, schedule, assignment)
    heap = [(t, i, a) for i, (t, a) in enumerate(first)]
    heapq.heapify(heap)
    seq = len(heap)

    # Started requests in the order _run closes their CPU-busy phases:
    # completions, then requests in flight at the hard stop in worker
    # order; with two workers, the worker of each.
    closed = array("q")
    closed_on = array("b")
    heappop, heappush = heapq.heappop, heapq.heappush
    if n_workers == 1:
        # One worker completes requests in the order they start, so each
        # completion is taken when its request starts (Lindley) and pushes
        # the client's next issue then, in the same order as _run would.
        heapreplace = heapq.heapreplace
        free_at = -math.inf  # completion of the last started request
        while heap:
            t, _, j = heap[0]
            if t > hard_stop:
                break
            issue[j] = t
            s = t if t > free_at else free_at
            if s > hard_stop:  # queued behind a request that never completes
                heappop(heap)
                continue
            start[j] = s
            closed.append(j)
            free_at = s + cpu[j] + mem_time + disk_time
            if free_at > hard_stop:  # in flight at the hard stop
                heappop(heap)
                continue
            done[j] = free_at
            key = next_of[j]
            if key < 0:  # the client's last request
                heappop(heap)
                continue
            t_next = scheduled[key]
            ready = free_at + rtt2
            if ready > t_next:
                t_next = ready
            heapreplace(heap, (t_next, seq, key))
            seq += 1
        # The request in flight at the stop, if any, started last; the
        # last event before the stop was the last issue or its start.
        in_flight = [j for j in closed[-1:] if math.isnan(done[j])]
        t_last = (max(float(np.nanmax(np.frombuffer(issue))),
                      start[in_flight[0]]) if in_flight else hard_stop)
    else:
        # Two workers complete out of start order, and equal times pop in
        # push order, which follows when each phase began; so every phase
        # end that a completion's push order depends on is an event, taken
        # against the issues in (time, push order).
        inf = math.inf
        end = [inf, inf]  # next phase end per worker, inf when idle
        end_seq = [0, 0]  # its push order
        busy = [-1, -1]  # request in service
        to_mem = [False, False]  # the phase ending is compute, memory next
        split = mem_bytes > 0.0
        fifo: deque[int] = deque()
        t_last = 0.0
        while True:
            w = 1 if (end[1] < end[0] or end[1] == end[0]
                      and end_seq[1] < end_seq[0]) else 0
            t = end[w]
            if heap and ((top := heap[0])[0] < t
                         or top[0] == t and top[1] < end_seq[w]):
                t = top[0]
                if t > hard_stop:
                    break
                t_last = t
                heappop(heap)
                j = top[2]
                issue[j] = t
                if busy[0] < 0:
                    w = 0
                elif busy[1] < 0:
                    w = 1
                else:
                    fifo.append(j)
                    continue
            else:
                if t > hard_stop:
                    break
                t_last = t
                if to_mem[w]:
                    to_mem[w] = False
                    end[w] = t + mem_time + disk_time
                    end_seq[w] = seq
                    seq += 1
                    continue
                j = busy[w]
                done[j] = t
                closed.append(j)
                closed_on.append(w)
                # _run pushes the next issue before the phase end of the
                # request the worker takes from the queue.
                key = next_of[j]
                if key >= 0:
                    ready = t + rtt2
                    t_next = scheduled[key]
                    heappush(heap, (t_next if t_next > ready else ready, seq,
                                    key))
                    seq += 1
                if not fifo:
                    busy[w] = -1
                    end[w] = inf
                    continue
                j = fifo.popleft()
            # Worker w starts request j at t.
            busy[w] = j
            start[j] = t
            x = cpu[j]
            if split and x > 0.0:
                end[w] = t + x
                to_mem[w] = True
            else:
                end[w] = t + x + mem_time + disk_time
            end_seq[w] = seq
            seq += 1
        in_flight = [j for j in busy if j >= 0]
        closed.extend(in_flight)
        closed_on.extend(w for w, j in enumerate(busy) if j >= 0)
    for j in in_flight:
        # _run took the phase ends of a request in flight up to the stop
        # as events.
        a = start[j] + cpu[j]
        for x in (a, a + mem_time):
            if t_last < x <= hard_stop:
                t_last = x

    # The per-request temporaries below are dropped as soon as they are
    # used: they would otherwise set the run's peak memory.
    del next_of
    issue_a = np.frombuffer(issue)
    start_a = np.frombuffer(start)
    done_a = np.frombuffer(done)
    # Phase bounds of the started requests in closing order, clipped at
    # the last event; a phase a request in flight has not entered shrinks
    # to nothing. The temporaries are built in place where the sums allow.
    order = np.frombuffer(closed, dtype=np.int64)
    s = start_a[order]
    cpu_end = np.frombuffer(cpu)[order]
    has_cpu = (cpu_end > 0.0) | (mem_bytes > 0.0)
    cpu_end += s  # start + cpu, as _run sums it
    del order, closed
    # One segment per phase: every phase drains at one rate.
    mem_segments = _phase_rows(cpu_end, mem_time, mem_rate, t_last)
    cpu_end += mem_time
    disk_segments = _phase_rows(cpu_end, disk_time, disk_rate, t_last)
    np.minimum(cpu_end, t_last, out=cpu_end)
    in_cpu = has_cpu & (cpu_end > s)
    del has_cpu
    # The busy intervals outlive the run; made last, after the segments,
    # they measured a lower process peak memory than made first.
    if n_workers == 1:
        cpu_busy = [np.column_stack((s[in_cpu], cpu_end[in_cpu]))]
    else:
        on_1 = np.frombuffer(closed_on, dtype=np.int8) == 1
        cpu_busy = [np.column_stack((s[rows], cpu_end[rows]))
                    for rows in (in_cpu & ~on_1, in_cpu & on_1)]
        del on_1
    del s, in_cpu, cpu_end, closed_on

    # The trace gets its own copy of the schedule's times.
    scheduled_a = schedule.times.copy()
    return Trace(client=np.frombuffer(client_of, dtype=np.int64),
                 scheduled=scheduled_a, issue=issue_a,
                 service_start=start_a, completion=done_a,
                 timely=issue_a <= scheduled_a + TIMELY_EPS,
                 latency=done_a - scheduled_a + rtt2, n_cores=n_workers,
                 duration=scenario.duration, mem_segments=mem_segments,
                 disk_segments=disk_segments,
                 net_tx_bytes=base.net_tx_bytes,
                 net_rx_bytes=base.net_rx_bytes, cpu_busy=cpu_busy,
                 llc_occupancy=llc_occupancy(profile, limits, platform),
                 meta={"engine": "constant_rate"})


def _sample_grid(duration: float) -> tuple[float, float, int]:
    """Hard stop of a run, and the width and count of its sampling bins."""
    hard_stop = 2.0 * duration + 10.0
    sample_dt = max(0.001, hard_stop / 200000.0)
    return hard_stop, sample_dt, int(hard_stop / sample_dt) + 2


def _rows(flat: array) -> np.ndarray:
    """[start, end] rows over a flat array of interval bounds."""
    return np.frombuffer(flat).reshape(-1, 2)


def _phase_rows(begin: np.ndarray, length: float, rate: float,
                t_last: float) -> np.ndarray:
    """[t0, t1, rate] segments of phases that begin at `begin` and last
    `length`, clipped at t_last; segments of zero length are left out."""
    if length <= 0.0:
        return np.empty((0, 3))
    rows = np.empty((len(begin), 3))
    t0, t1 = rows[:, 0], rows[:, 1]
    np.add(begin, length, out=t1)
    np.minimum(t1, t_last, out=t1)
    np.minimum(begin, t_last, out=t0)
    rows[:, 2] = rate
    keep = t1 > t0
    return rows if keep.all() else rows[keep]


def _deposit(series: np.ndarray, dt: float, t0: np.ndarray, t1: np.ndarray,
             rate: np.ndarray) -> None:
    """Spread rate x (t1 - t0) bytes of each segment [t0, t1] over the bins
    it covers: the part up to its first bin's upper edge, dt x rate in each
    inner bin and the rest in its last bin, or all of it when it lies in
    one bin. Bytes in bins past the end of series are dropped. The result
    is the same, bit for bit, as adding the segments one after the other:
    segments may cover the same bins, inner ones too when two workers drain
    over one step, so every bin receives its additions in segment order."""
    amount = rate * (t1 - t0)
    end = len(series)
    b0 = (t0 / dt).astype(np.int64)
    keep = (amount > 0.0) & (b0 < end)
    t0, t1, amount, b0 = t0[keep], t1[keep], amount[keep], b0[keep]
    # A segment running past the end gets one entry at end, dropped below.
    b1 = np.minimum((t1 / dt).astype(np.int64), end)
    per_s = amount / (t1 - t0)
    n_bins = b1 - b0 + 1
    ends = np.cumsum(n_bins)  # one past each segment's last entry
    firsts = ends - n_bins
    bins = (np.repeat(b0 - firsts, n_bins)
            + np.arange(int(ends[-1]) if len(ends) else 0))
    values = np.repeat(dt * per_s, n_bins)
    values[ends - 1] = (t1 - b1 * dt) * per_s
    values[firsts] = np.where(n_bins == 1, amount,
                              ((b0 + 1) * dt - t0) * per_s)
    inside = bins < end
    np.add.at(series, bins[inside], values[inside])


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
    """Sampled resource movement up to the run's horizon: the bytes of
    each bin of the run's sampling grid (``_sample_grid``) that starts at
    or before the duration, in MB/s. A segment's bytes spread over the
    bins it covers, and a request's network bytes fall in the bin of its
    issue (rx) or completion (tx); bytes in later bins are left out."""
    _, dt, _ = _sample_grid(trace.duration)
    rows = int(trace.duration / dt) + 2  # at least one too many
    while (rows - 1) * dt > trace.duration:
        rows -= 1
    mem, disk, tx, rx = series = [np.zeros(rows) for _ in range(4)]
    for out, segments in ((mem, trace.mem_segments),
                          (disk, trace.disk_segments)):
        for i in range(0, len(segments), _BLOCK):
            block = segments[i:i + _BLOCK]
            _deposit(out, dt, block[:, 0], block[:, 1], block[:, 2])
    for out, times, amount in ((tx, trace.completion, trace.net_tx_bytes),
                               (rx, trace.issue, trace.net_rx_bytes)):
        if amount > 0.0:
            bins = (times[~np.isnan(times)] / dt).astype(np.int64)
            np.add.at(out, bins[bins < rows], amount)
    lines = ["t,mem_mbps,disk_mbps,net_tx_mbps,net_rx_mbps"]
    scale = 1.0 / (dt * MB)
    for b in range(rows):
        lines.append(",".join([_num(b * dt)]
                              + [_num(x[b] * scale) for x in series]))
    Path(path).write_text("\n".join(lines) + "\n")


def _num(x: float) -> str:
    if isinstance(x, (np.floating,)):
        x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)
