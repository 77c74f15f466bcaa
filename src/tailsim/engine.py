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
it starts. One worker takes the requests in index order, by Lindley's
recursion with the client feedback, computed in numpy blocks whose busy
stretches np.add.accumulate sums left to right, as the recurrence does;
a block that this does not settle, or where a client's previous
completion may set a start, is walked one request at a time. Two workers
take one step per request, the issues from a heap (Kiefer and
Wolfowitz's recursion), and a two-worker run in which two event times are
equal is handed to ``_run``, which orders them by its own push order. In
open loop request j is issued by client j mod n_clients. The simulate_*
functions choose the path and record it in ``Trace.meta["engine"]``
(``"constant_rate"`` or ``"event"``).
``_request_store`` builds the request store both paths fill: in open loop
the schedule times, compute seconds and clients; in closed loop a request
appended as its session issues it.

Both paths record memory and disk traffic as constant-rate segments: a
stretch of one worker's memory or disk phase at one rate, as a
[start, end, bytes/s] row, logged only when it has positive length. The
event engine closes a segment when the phase ends, when the worker's rate
changes, or at the hard stop; at constant rates every phase is one
segment, and the constant-rate path builds the rows in the order the event
engine closes them (by completion time, then the requests in flight), so
the two paths' segment arrays are the same, bit for bit. Network traffic
is a fixed amount per issue (received) and per completion (sent).
``metrics.summarize`` integrates the segments exactly over its window.
The event engine's heap holds issues only. Each worker's next phase end
sits in a slot with its push order, and a rate change overwrites it, so
each step takes the earliest in (time, push order) of the heap's top and
the two slots. Its events are the issues and the phase ends that can
change a rate or end a request: when, by the table, memory drains at its
lone rate beside every phase the sibling can reach and the sibling's rate
is the same whether a worker computes or drains memory, a compute end
changes nothing, and a compute phase's slot end is its memory end. A
worker's remaining work is drained only when its rate changes. Each
worker's state (phase, remaining work, rate, phase end) is a set of local
variables, and its rates come from its own column of the table, 0.0 while
idle; the loop steps worker 0, then worker 1. Busy intervals and segments
are logged as rows of packed native doubles.
"""

from __future__ import annotations

import heapq
import math
import struct
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .loadgen import ArrivalSchedule
from .model import (COMPUTE, DISK, IDLE, MEMORY, ClosedLoop, ModelError,
                    OpenLoop, PlatformConfig, ResourceLimits, ScenarioConfig,
                    WorkloadProfile, drain_rates, llc_occupancy, mean_demands,
                    validate_profile)

TIMELY_EPS = 1e-6  # seconds of slack when judging issue punctuality
_RUN_BLOCK = 4096  # requests per block of a one-worker constant-rate run
_PASSES = 2  # exact passes a one-worker block may take before it is walked


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
    workload holds (``model.llc_occupancy``), NaN when unknown. meta
    names the engine path that ran (``"engine"``: ``"event"`` or
    ``"constant_rate"``); the event engine adds ``"events"``, the issues
    and the phase ends that can change a rate or end a request, up to the
    hard stop, and a one-worker constant-rate run ``"walked"``, the
    requests it computed one at a time (``_one_worker``)."""

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
                       schedule: ArrivalSchedule, seed: int) -> Trace:
    """Run an open-loop simulation of the full schedule, request j issued
    by client j mod scenario.n_clients.

    Every scheduled request appears in the trace exactly once; requests
    still unfinished at the hard stop (twice the scenario duration plus
    10 s) are censored rather than dropped.
    """
    if not isinstance(scenario.mode, OpenLoop):
        raise ModelError("scenario.mode: open_loop required")
    times = schedule.times
    if (times[1:] < times[:-1]).any():
        raise ModelError("schedule: times must not decrease")
    validate_profile(profile, platform)
    limits.validate_against(platform)
    _check_times(profile, scenario, limits, platform)
    if _constant_rate(profile, scenario, limits, platform):
        trace = _run_constant_rate(profile, scenario, limits, platform, seed,
                                   schedule)
        if trace is not None:
            return trace
    return _run(profile, scenario, limits, platform, seed, schedule=schedule)


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
    _check_times(profile, scenario, limits, platform)
    return _run(profile, scenario, limits, platform, seed)


def _check_times(profile: WorkloadProfile, scenario: ScenarioConfig,
                 limits: ResourceLimits, platform: PlatformConfig) -> None:
    """Raise ModelError, naming the keys that set it, for a time the run
    cannot hold: every phase of a request must drain at a finite positive
    rate in finite time on the run's topology, and a round trip and each
    phase of a lone request must end by the hard stop. Values that pass
    each key's own range check can fail this. A memory bandwidth of
    5e-324 MB/s makes a memory phase last inf s, and the engine then
    computes inf - inf = nan; at 2.2e-308 MB/s the phase is finite, but a
    few of them in a row sum past the largest float."""
    hard_stop = _hard_stop(scenario.duration)
    if 2.0 * scenario.rtt > hard_stop:
        raise ModelError(
            f"rtt: a round trip of {2.0 * scenario.rtt:g} s outlasts the "
            f"run's hard stop of {hard_stop:g} s")
    demand = mean_demands(profile, limits, platform)
    mem_limit = ("mem_bw_limit" if limits.effective_mem_bw(platform)
                 < platform.mem_bw_capacity else "mem_bw_capacity")
    disk_limit = ("disk_bw_limit" if limits.effective_disk_bw(platform)
                  < platform.disk_bw_capacity else "disk_bw_capacity")
    phases = {COMPUTE: (demand.cpu_seconds, "compute", "cpu_work"),
              MEMORY: (demand.mem_bytes, "memory",
                       f"mem_accesses/mem_stream_rate/{mem_limit}"),
              DISK: (demand.disk_bytes, "disk", f"disk_bytes/{disk_limit}")}
    for pair, row in enumerate(drain_rates(profile, scenario.topology, limits,
                                           platform)):
        for _, phase, rate in row:
            amount, name, keys = phases[phase]
            if amount <= 0.0:
                continue
            lone = pair in (phase * 4 + IDLE, IDLE * 4 + phase)
            time = amount / rate if 0.0 < rate < math.inf else math.inf
            if (time <= hard_stop) if lone else math.isfinite(time):
                continue
            if not lone and phase == COMPUTE:
                keys += "/smt_efficiency"
            raise ModelError(
                f"{keys}: a request's {name} phase lasts {time:g} s "
                f"{'alone' if lone else 'beside its sibling'}; it must end "
                f"in finite time, and alone by the run's hard stop of "
                f"{hard_stop:g} s")


def _request_store(profile: WorkloadProfile, scenario: ScenarioConfig,
                   seed: int, schedule: ArrivalSchedule | None) -> tuple:
    """The request store a run fills, indexed by request: (client,
    scheduled, cpu, issue, start, done, first, closed_issue).

    In open loop the schedule times and the compute seconds are
    memoryviews and the client an int64 array, request j's client being
    j mod n_clients; issue, start and done are NaN; first holds each
    client's first (time, request), requests 0 to n_clients - 1, and
    closed_issue is None. In closed loop every column starts empty; first
    holds (0, session) for each session, and closed_issue(session, t)
    appends the request a session issues at t and returns its index.
    Compute seconds are cpu_work times service multipliers drawn from the
    seed's generator: all at once in open loop, in blocks of 1024 in issue
    order in closed loop.
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
        return (client, scheduled, cpu, issue, start, done, first,
                closed_issue)
    n = len(schedule)
    scheduled = memoryview(schedule.times)
    cpu = memoryview(profile.cpu_work * profile.service_dist.sample(rng, n))
    client = np.arange(n, dtype=np.int64)
    client %= scenario.n_clients
    first = [(scheduled[j], j) for j in range(min(n, scenario.n_clients))]
    issue, start, done = (array("d", [math.nan]) * n for _ in range(3))
    return client, scheduled, cpu, issue, start, done, first, None


def _run(profile: WorkloadProfile, scenario: ScenarioConfig,
         limits: ResourceLimits, platform: PlatformConfig, seed: int,
         schedule: ArrivalSchedule | None = None) -> Trace:
    open_mode = schedule is not None
    n_workers = scenario.topology.n_workers
    two = n_workers == 2
    rtt2 = 2.0 * scenario.rtt
    duration = scenario.duration
    hard_stop = _hard_stop(duration)

    base = mean_demands(profile, limits, platform)
    mem_bytes = base.mem_bytes
    disk_bytes = base.disk_bytes
    # Each worker's drain rate at phase0 * 4 + phase1, 0.0 while it is idle
    # or missing: one column per worker of drain_rates' table.
    rate_of = [[0.0] * 16, [0.0] * 16]
    for i, row in enumerate(drain_rates(profile, scenario.topology, limits,
                                        platform)):
        for v, _, rate in row:
            rate_of[v][i] = rate
    rates0, rates1 = rate_of
    # A compute end is no event when it changes no rate: when each worker's
    # memory phase drains at its lone rate beside every phase its sibling
    # can reach, and the sibling's rate is the same whether the worker
    # computes or drains memory. A compute phase's slot end is then its
    # memory end, cend + mem_time, with cend its compute end.
    mem_rate = rates0[MEMORY * 4 + IDLE]
    hide = mem_bytes > 0.0 and (not two or all(
        rates0[MEMORY * 4 + sib] == rates1[sib * 4 + MEMORY] == mem_rate
        and rates1[COMPUTE * 4 + sib] == rates1[MEMORY * 4 + sib]
        and rates0[sib * 4 + COMPUTE] == rates0[sib * 4 + MEMORY]
        for sib in _reach(profile, base)))
    hidden = COMPUTE if hide else -1
    mem_time = mem_bytes / mem_rate if hide else 0.0

    (client_of, scheduled, cpu, issue, start, done, first,
     closed_issue) = _request_store(profile, scenario, seed, schedule)
    if open_mode:
        n, n_clients = len(issue), scenario.n_clients
    else:
        think = scenario.mode.think_time
    # The issue heap holds (time, push order, request in open loop or
    # session in closed loop); the push order breaks ties between equal
    # times. The initial issues are pushed first, in order.
    heap = [(t, i, a) for i, (t, a) in enumerate(first)]
    heapq.heapify(heap)
    seq = len(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    fifo: deque[int] = deque()
    fifo_append, fifo_popleft = fifo.append, fifo.popleft

    # Per-worker state in locals, worker 0's ending in 0 and worker 1's in
    # 1; a missing second worker stays IDLE. req: the request while busy;
    # p: the phase; rem: its remaining work at since, when the rate r was
    # set (0.0 while idle); end and eseq: the next phase end (inf when
    # idle) and its push order; cend: a hidden compute end, else inf.
    inf = math.inf
    req0 = req1 = -1
    p0 = p1 = IDLE
    rem0 = rem1 = r0 = r1 = since0 = since1 = 0.0
    end0 = end1 = cend0 = cend1 = inf
    eseq0 = eseq1 = 0
    # Busy intervals per worker, flat [start, end, start, end, ...], and
    # memory and disk segments, flat [t0, t1, rate, ...] in the order they
    # closed. Each row is appended as packed native doubles, the same
    # bytes the arrays hold.
    cpu_busy = [array("d") for _ in range(n_workers)]
    busy_add = [log.frombytes for log in cpu_busy]
    mem_log = array("d")
    disk_log = array("d")
    mem_add, disk_add = mem_log.frombytes, disk_log.frombytes
    pack2, pack3 = struct.Struct("2d").pack, struct.Struct("3d").pack

    t_last = 0.0
    events = 0
    while True:
        # The next event is the earlier, in (time, push order), of the
        # issue heap's top and the workers' phase ends; w becomes -1 for an
        # issue.
        if end1 < end0 or end1 == end0 and eseq1 < eseq0:
            w, t, s = 1, end1, eseq1
        else:
            w, t, s = 0, end0, eseq0
        if heap and ((top := heap[0])[0] < t or top[0] == t and top[1] < s):
            t = top[0]
            w = -1
        if t > hard_stop:  # also when nothing is left: t is inf
            break
        events += 1
        t_last = t

        # Worker w's new phase ph, its remaining work rem and its request
        # k; j becomes the request worker w starts at t, if any.
        if w < 0:  # an issue
            a = heappop(heap)[2]
            if open_mode:
                j = a
                issue[j] = t
            else:
                j = closed_issue(a, t)
            if p0 == IDLE:
                w = 0
            elif two and p1 == IDLE:
                w = 1
            else:
                fifo_append(j)
                continue  # both workers stay busy: no rate can change
        else:  # the end of worker w's phase
            # Move the worker's request past its just-finished phase.
            if w == 0:
                ph, k = p0, req0
                since, rate, c = since0, r0, cend0
            else:
                ph, k = p1, req1
                since, rate, c = since1, r1, cend1
            j = -1
            if ph == hidden:  # past its hidden compute end: memory ends
                ph, since, rate = MEMORY, c, mem_rate
            if ph == COMPUTE and mem_bytes > 0.0:
                ph = MEMORY
                rem = mem_bytes
            else:
                if ph != COMPUTE and t > since:
                    (mem_add if ph == MEMORY else disk_add)(
                        pack3(since, t, rate))
                if ph != DISK and t > (began := start[k]):
                    # Leaving the CPU-busy phases (compute and/or memory).
                    busy_add[w](pack2(began, t))
                if ph != DISK and disk_bytes > 0.0:
                    ph = DISK
                    rem = disk_bytes
                else:
                    done[k] = t
                    free_at = t + rtt2
                    if open_mode:
                        nxt = k + n_clients  # the client's next request
                        if nxt < n:
                            t_next = scheduled[nxt]
                            heappush(heap, (t_next if t_next > free_at
                                            else free_at, seq, nxt))
                            seq += 1
                    else:
                        t_next = free_at + think
                        if t_next < duration:
                            heappush(heap, (t_next, seq, client_of[k]))
                            seq += 1
                    if fifo:
                        j = fifo_popleft()
                    else:
                        ph = IDLE
                        rem = 0.0
        if j >= 0:
            k = j
            start[j] = t
            x = cpu[j]
            if x > 0.0:
                ph = COMPUTE
                rem = x
            elif mem_bytes > 0.0:
                ph = MEMORY
                rem = mem_bytes
            else:
                ph = DISK
                rem = disk_bytes

        # Look the drain rates up, worker 0 first: reschedule worker w,
        # which just entered a new phase, and a sibling whose rate changed
        # before any hidden compute end, by overwriting its phase end. A
        # rate change drains the remaining work at the old rate and, in
        # mid-phase, closes the memory or disk segment drained at it.
        if w == 0:
            p0, rem0, req0 = ph, rem, k
            r0 = rates0[ph * 4 + p1]
            cend0 = inf
            if ph == IDLE:
                end0 = inf
            else:
                since0 = t
                end0 = t + rem / r0
                if ph == hidden:
                    cend0, end0 = end0, end0 + mem_time
                eseq0 = seq
                seq += 1
            rate = rates1[ph * 4 + p1]
            if rate != r1 and t < cend1:  # worker 1 is busy
                if p1 != COMPUTE and t > since1:
                    (mem_add if p1 == MEMORY else disk_add)(
                        pack3(since1, t, r1))
                rem1 -= r1 * (t - since1)
                r1 = rate
                since1 = t
                end1 = t + rem1 / rate
                if cend1 < inf:
                    cend1, end1 = end1, end1 + mem_time
                eseq1 = seq
                seq += 1
        else:
            p1, rem1, req1 = ph, rem, k
            rate = rates0[p0 * 4 + ph]
            if rate != r0 and t < cend0:  # worker 0 is busy
                if p0 != COMPUTE and t > since0:
                    (mem_add if p0 == MEMORY else disk_add)(
                        pack3(since0, t, r0))
                rem0 -= r0 * (t - since0)
                r0 = rate
                since0 = t
                end0 = t + rem0 / rate
                if cend0 < inf:
                    cend0, end0 = end0, end0 + mem_time
                eseq0 = seq
                seq += 1
            r1 = rates1[p0 * 4 + ph]
            cend1 = inf
            if ph == IDLE:
                end1 = inf
            else:
                since1 = t
                end1 = t + rem / r1
                if ph == hidden:
                    cend1, end1 = end1, end1 + mem_time
                eseq1 = seq
                seq += 1

    # Requests still in flight at truncation: their busy intervals and
    # segments end at the last event time, a hidden compute end included.
    workers = ((req0, p0, since0, r0, cend0),
               (req1, p1, since1, r1, cend1))[:n_workers]
    t_last = max([t_last] + [c for *_, c in workers if c <= hard_stop])
    for w, (j, ph, since, rate, c) in enumerate(workers):
        if ph == IDLE:
            continue
        if c <= hard_stop:  # past its hidden compute end
            ph, since, rate = MEMORY, c, mem_rate
        if ph != DISK and t_last > start[j]:
            cpu_busy[w].extend((start[j], t_last))
        if ph != COMPUTE and t_last > since:
            (mem_log if ph == MEMORY else disk_log).extend(
                (since, t_last, rate))

    # The trace gets its own copy of the schedule's times.
    scheduled_a = (schedule.times.copy() if open_mode
                   else np.frombuffer(scheduled))
    issue_a = np.frombuffer(issue)
    done_a = np.frombuffer(done)
    meta = {"engine": "event", "events": events}
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
    reach = _reach(profile, mean_demands(profile, limits, platform))
    rates = drain_rates(profile, scenario.topology, limits, platform)
    return all(rate == rates[ph * 4 + IDLE][0][2]
               for p0 in reach
               for p1 in (reach if scenario.topology.n_workers == 2
                          else [IDLE])
               for _, ph, rate in rates[p0 * 4 + p1])


def _reach(profile: WorkloadProfile, base) -> list[int]:
    """IDLE and each phase a run's requests enter: positive mean demand."""
    return [ph for ph, demand in ((COMPUTE, profile.cpu_work),
                                  (MEMORY, base.mem_bytes),
                                  (DISK, base.disk_bytes), (IDLE, 1.0))
            if demand > 0.0]


def _run_constant_rate(profile: WorkloadProfile, scenario: ScenarioConfig,
                       limits: ResourceLimits, platform: PlatformConfig,
                       seed: int, schedule: ArrivalSchedule) -> Trace | None:
    """An open-loop run whose phases drain at constant rates
    (``_constant_rate``): ``_run``'s trace, bit for bit, or None when the
    order is left to ``_run``: with two workers when two of the run's
    event times are equal.

    A request's phase ends are fixed when it starts: compute ends at
    start + cpu, memory mem_bytes / rate later and disk disk_bytes / rate
    after that, at the lone rates of ``drain_rates``, summed in ``_run``'s
    order. A request takes worker 0 if it has freed by the issue, else
    worker 1 if it has, else the worker that frees first: FIFO dispatch
    (Kiefer and Wolfowitz, "On the theory of queues with many servers",
    1955). The completion is known at the start, and the client's next
    issue with it, at max(scheduled, done + 2 rtt).

    One worker completes its requests in the order they start, so done
    never decreases in issue order. Request j's client issued request
    j - k before it (k = n_clients), and scheduled never decreases, so
    issue[j] never decreases in j, by induction, and ``_run`` pushes equal
    issue times in index order: its heap takes the requests in index
    order. With done[-1] = -inf, each request follows Lindley's recursion
    ("The theory of queues with a single server", 1952) with the client
    feedback:

        issue[j] = max(scheduled[j], done[j - k] + 2 rtt)   (j >= k)
        start[j] = max(issue[j], done[j - 1])
        done[j]  = ((start[j] + cpu[j]) + mem_time) + disk_time

    ``_one_worker`` computes it in numpy blocks of _RUN_BLOCK requests. A
    busy stretch (a request that starts at its issue and the requests
    that each start at the previous completion after it) is a running sum
    of [start, cpu, mem_time, disk_time, cpu, ...], and np.add.accumulate
    adds strictly left to right: the sums of the recurrence, bit for bit.
    A block guesses its stretches from a closed-form Lindley recursion
    and is accepted only when the starts that its exact completions give
    are the ones its stretches began with: a fixed point of the
    recurrence, equal to it by induction over j. A block where the client
    feedback may set a start, where some k - 1 consecutive service times
    sum to less than 2 rtt (k = 1 with any round trip), or where the
    guess has not settled after one re-check, is walked one request at a
    time; ``Trace.meta["walked"]`` counts those requests.

    With two workers issue order is not index order: the issues go
    through a heap of (time, push order, request), the client's next
    pushed when a request starts. ``_run`` decides equal times by its own
    push order, which differs, so if any two of the issues and the
    completions at or before the hard stop are equal, the run is left to
    ``_run``.

    At the hard stop nothing later is issued, started or completed, and
    the busy intervals and bytes of requests in flight end at the last
    event at or before it. A request whose client's previous one never
    completed is never issued, and no later one is either. One worker
    computes issue, start and done without the hard stop, where such a
    request's issue is past it, and cuts each where it first passes the
    hard stop. Each phase is one segment, in the order ``_run`` closes
    it: by completion time, then the requests in flight in worker order.
    """
    n_workers = scenario.topology.n_workers
    n_clients = scenario.n_clients
    rtt2 = 2.0 * scenario.rtt
    hard_stop = _hard_stop(scenario.duration)

    base = mean_demands(profile, limits, platform)
    mem_bytes = base.mem_bytes
    disk_bytes = base.disk_bytes
    rates = drain_rates(profile, scenario.topology, limits, platform)
    mem_rate = rates[MEMORY * 4 + IDLE][0][2]
    disk_rate = rates[DISK * 4 + IDLE][0][2]
    mem_time = mem_bytes / mem_rate if mem_bytes > 0.0 else 0.0
    disk_time = disk_bytes / disk_rate if disk_bytes > 0.0 else 0.0

    (client_of, scheduled, cpu, issue, start, done, first,
     _) = _request_store(profile, scenario, seed, schedule)
    n = len(issue)
    issue_a = np.frombuffer(issue)
    start_a = np.frombuffer(start)
    done_a = np.frombuffer(done)
    cpu_a = np.frombuffer(cpu)
    # on holds 1 for each request worker 1 serves, and in_flight each
    # worker's request still in service at the hard stop, if any.
    on = bytearray(n)
    in_flight = [-1, -1]
    meta = {"engine": "constant_rate"}
    if n_workers == 1:
        meta["walked"], stop = _one_worker(
            schedule.times, cpu_a, issue_a, start_a, done_a, n_clients, rtt2,
            mem_time, disk_time, hard_stop)
        # The hard stop: issue, start and done never decrease in index
        # order, so the issues, starts and completions up to it are
        # prefixes, and the request in flight, if any, is the first one
        # started and not completed.
        issued = int(np.searchsorted(issue_a[:stop], hard_stop, "right"))
        started = int(np.searchsorted(start_a[:issued], hard_stop, "right"))
        completed = int(np.searchsorted(done_a[:started], hard_stop, "right"))
        issue_a[issued:stop] = math.nan
        start_a[started:stop] = math.nan
        done_a[completed:stop] = math.nan
        if completed < started:
            in_flight[0] = completed
    else:
        # When each worker frees: the completion of its last request.
        free0 = free1 = -math.inf
        # The issue heap holds (time, push order, request); the initial
        # issues are pushed first, in client order.
        heap = [(t, i, a) for i, (t, a) in enumerate(first)]
        heapq.heapify(heap)
        seq = len(heap)
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        while heap:
            t, _, j = heap[0]
            if t > hard_stop:
                break
            issue[j] = t
            if free1 < free0 > t:  # worker 0 busy past t, 1 frees first
                w = 1
                s = t if t > free1 else free1
            else:
                w = 0
                s = t if t > free0 else free0
            if s > hard_stop:  # queued behind requests that never complete
                heappop(heap)
                continue
            start[j] = s
            end = s + cpu[j] + mem_time + disk_time
            if w:
                free1 = end
                on[j] = 1
            else:
                free0 = end
            if end > hard_stop:  # in flight at the hard stop
                in_flight[w] = j
                heappop(heap)
                continue
            done[j] = end
            key = j + n_clients  # the client's next request
            if key >= n:  # the client's last request
                heappop(heap)
                continue
            t_next = scheduled[key]
            ready = end + rtt2
            if ready > t_next:
                t_next = ready
            heapreplace(heap, (t_next, seq, key))
            seq += 1

    # The per-request temporaries below are dropped as soon as they are
    # used: they would otherwise set the run's peak memory.
    in_flight = [j for j in in_flight if j >= 0]
    if n_workers == 2:
        # _run's events up to the hard stop, the issues and the completions,
        # sorted in one array freed before the trace's arrays are built; NaN
        # (never happened) equals nothing. Equal times are left to _run.
        times = np.concatenate((issue_a, done_a))
        times.sort()
        tied = bool((times[1:] == times[:-1]).any())
        del times
        if tied:
            return None

    # _run's closing order of the started requests: the completions by
    # time, then the requests in flight, worker 0 first.
    n_done = int(np.count_nonzero(done_a <= hard_stop))
    order = np.argsort(done_a, kind="stable")[:n_done + len(in_flight)]
    order[n_done:] = in_flight
    t_last = hard_stop
    if in_flight:
        # The last event at or before the stop: an issue, a completion or
        # a phase end of a request in flight.
        t_last = float(np.nanmax(issue_a))
        if n_done:
            t_last = max(t_last, float(done_a[order[n_done - 1]]))
        for j in in_flight:
            a = start[j] + cpu[j]
            for x in (a, a + mem_time):
                if t_last < x <= hard_stop:
                    t_last = x

    # Phase bounds of the started requests in closing order, clipped at
    # the last event; a phase a request in flight has not entered shrinks
    # to nothing. The temporaries are built in place where the sums allow.
    s = start_a[order]
    cpu_end = cpu_a[order]
    on_1 = np.frombuffer(on, dtype=np.bool_)[order]
    has_cpu = (cpu_end > 0.0) | (mem_bytes > 0.0)
    cpu_end += s  # start + cpu, as _run sums it
    del order, on
    # One segment per phase: every phase drains at one rate.
    mem_segments = _phase_rows(cpu_end, mem_time, mem_rate, t_last)
    cpu_end += mem_time
    disk_segments = _phase_rows(cpu_end, disk_time, disk_rate, t_last)
    np.minimum(cpu_end, t_last, out=cpu_end)
    in_cpu = has_cpu & (cpu_end > s)
    del has_cpu
    # The busy intervals outlive the run; made last, after the segments,
    # they measured a lower process peak memory than made first.
    cpu_busy = [np.column_stack((s[rows], cpu_end[rows]))
                for rows in (in_cpu & ~on_1, in_cpu & on_1)[:n_workers]]
    del s, in_cpu, cpu_end, on_1

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
                 meta=meta)


def _one_worker(scheduled: np.ndarray, cpu: np.ndarray, issue: np.ndarray,
                start: np.ndarray, done: np.ndarray, n_clients: int,
                rtt2: float, mem_time: float, disk_time: float,
                hard_stop: float) -> tuple[int, int]:
    """Fill issue, start and done of a one-worker run, with no hard stop,
    in blocks of _RUN_BLOCK requests up to the first block whose last
    issue is past the hard stop. Returns the requests walked and the end
    of the last block filled.

    A block is walked (``_walk``) when the client feedback may set a start
    in it (``_feedback_may_bind``) or when ``_settle`` does not settle it
    within _PASSES exact passes."""
    n = len(scheduled)
    walked = b = 0
    for a in range(0, n, _RUN_BLOCK):
        b = min(a + _RUN_BLOCK, n)
        if (_feedback_may_bind(cpu, a, b, n_clients, rtt2,
                               mem_time + disk_time)
                or not _settle(scheduled, cpu, issue, start, done, a, b,
                               n_clients, rtt2, mem_time, disk_time)):
            _walk(scheduled, cpu, issue, start, done, a, b, n_clients, rtt2,
                  mem_time, disk_time)
            walked += b - a
        if issue[b - 1] > hard_stop:
            break
    return walked, b


def _feedback_may_bind(cpu: np.ndarray, a: int, b: int, k: int,
                       rtt2: float, tail: float) -> bool:
    """Whether the client feedback done[j - k] + rtt2 may set the start of
    a request j of the block [a, b): whether any k - 1 consecutive service
    times that precede such a j sum to less than rtt2. The worker serves
    requests j - k + 1 to j - 1 between done[j - k] and done[j - 1], so
    otherwise the feedback is never later than the previous completion.
    Always so with one client and a positive round trip."""
    first = max(a, k)  # the block's first request with a previous one
    if first >= b:
        return False
    lo = first - k + 1
    # sums[i] is the service of requests lo to lo + i - 1, in floats: the
    # result is a guess, which _settle checks
    sums = np.zeros(b - lo)
    np.cumsum(cpu[lo:b - 1] + tail, out=sums[1:])
    return bool((sums[k - 1:] - sums[:b - first] < rtt2).any())


def _settle(scheduled: np.ndarray, cpu: np.ndarray, issue: np.ndarray,
            start: np.ndarray, done: np.ndarray, a: int, b: int, k: int,
            rtt2: float, mem_time: float, disk_time: float) -> bool:
    """Fill the block [a, b) of a one-worker run from its busy stretches,
    or return False when they do not settle within _PASSES exact passes.

    A first guess of the completions comes from Lindley's recursion over
    the schedule in closed form, with cumsum and maximum.accumulate. Each
    pass takes the starts that the current completions give
    (``_reissue``), computes the completions of the busy stretches they
    begin exactly (``_stretches``) and takes the starts again. The block is
    settled when these are the starts the stretches began with, and the
    previous completion inside each stretch: a fixed point of the
    recurrence, which by induction over j is the one the scalar walk
    computes."""
    service = cpu[a:b] + (mem_time + disk_time)
    before = np.cumsum(service)
    before -= service
    guess = scheduled[a:b] - before
    np.maximum.accumulate(guess, out=guess)
    if a:
        np.maximum(guess, done[a - 1], out=guess)
    np.add(guess, before + service, out=done[a:b])
    prev = _reissue(scheduled, issue, start, done, a, b, k, rtt2)
    terms = tuple(t for t in (mem_time, disk_time) if t > 0.0)
    starts = start[a:b]
    for _ in range(_PASSES):
        head = starts > prev
        head[0] = True
        value = starts[head]
        _stretches(head, value, cpu[a:b], terms, done[a:b])
        prev = _reissue(scheduled, issue, start, done, a, b, k, rtt2)
        used = prev.copy()
        used[head] = value
        if np.array_equal(starts, used):
            return True
    return False


def _reissue(scheduled: np.ndarray, issue: np.ndarray, start: np.ndarray,
             done: np.ndarray, a: int, b: int, k: int,
             rtt2: float) -> np.ndarray:
    """Issue and start of the block [a, b) from the completions in done:
    issue[j] = max(scheduled[j], done[j - k] + rtt2) and start[j] =
    max(issue[j], done[j - 1]). Returns done[j - 1] for the block, -inf
    before the first request."""
    iss = issue[a:b]
    iss[:] = scheduled[a:b]
    first = max(a, k)
    if first < b:
        np.maximum(iss[first - a:], done[first - k:b - k] + rtt2,
                   out=iss[first - a:])
    prev = np.empty(b - a)
    prev[0] = done[a - 1] if a else -math.inf
    prev[1:] = done[a:b - 1]
    np.maximum(iss, prev, out=start[a:b])
    return prev


def _stretches(head: np.ndarray, value: np.ndarray, cpu: np.ndarray,
               terms: tuple[float, ...], out: np.ndarray) -> None:
    """Completions of consecutive requests, into out: the i-th request
    where head is True starts at value[i], any other at the previous
    completion, and each completes at ((start + cpu) + terms[0]) +
    terms[1], with the terms that are present.

    Each busy stretch, a head and the requests up to the next one, is a
    row [start, cpu, *terms, cpu, *terms, ...], and np.add.accumulate
    along it adds strictly left to right, so its running sums are the
    completions as the scalar walk sums them, bit for bit. Rows are
    bucketed by their length rounded up to a power of two; the padding is
    summed and dropped."""
    n = len(cpu)
    c = 1 + len(terms)
    firsts = np.flatnonzero(head)
    lengths = np.diff(firsts, append=n)
    bucket = np.frexp(lengths - 1)[1]  # lengths up to 2**bucket
    for e in np.flatnonzero(np.bincount(bucket)).tolist():
        rows = bucket == e
        width = 1 << e
        at = firsts[rows, None] + np.arange(width)
        np.minimum(at, n - 1, out=at)
        sums = np.empty((len(at), 1 + width * c))
        sums[:, 0] = value[rows]
        sums[:, 1::c] = cpu[at]
        for i, term in enumerate(terms, 2):
            sums[:, i::c] = term
        np.add.accumulate(sums, axis=1, out=sums)
        keep = np.arange(width) < lengths[rows, None]
        out[at[keep]] = sums[:, c::c][keep]


def _walk(scheduled: np.ndarray, cpu: np.ndarray, issue: np.ndarray,
          start: np.ndarray, done: np.ndarray, a: int, b: int, k: int,
          rtt2: float, mem_time: float, disk_time: float) -> None:
    """Fill the block [a, b) of a one-worker run by the scalar recurrence,
    one request at a time: issue[j] = max(scheduled[j], done[j - k] +
    rtt2), start[j] = max(issue[j], done[j - 1]) and done[j] = ((start[j]
    + cpu[j]) + mem_time) + disk_time (Lindley, "The theory of queues with
    a single server", 1952)."""
    lo = max(a - k, 0)
    ends = done[lo:a].tolist()  # done[lo + i] at ends[i], then the block's
    free = ends[-1] if ends else -math.inf
    issues, starts = [], []
    for i, t, x in zip(range(a - k - lo, b - k - lo),
                       scheduled[a:b].tolist(), cpu[a:b].tolist()):
        if i >= 0:  # done[j - k] + rtt2, the client's previous request
            ready = ends[i] + rtt2
            if ready > t:
                t = ready
        issues.append(t)
        if free > t:
            t = free
        starts.append(t)
        free = t + x + mem_time + disk_time
        ends.append(free)
    issue[a:b] = issues
    start[a:b] = starts
    done[a:b] = ends[a - lo:]


def _hard_stop(duration: float) -> float:
    """Time past which a run of this duration issues, starts and completes
    nothing."""
    return 2.0 * duration + 10.0


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


def _num(x: float) -> str:
    if math.isnan(x):
        return ""
    return repr(x)
