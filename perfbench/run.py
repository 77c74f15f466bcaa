"""tailsim benchmark: three characterization studies, timed end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload is one ``tailsim`` CLI command on a shipped spec, run as its
own process. ``--trace 0`` repeats the command for about ``--seconds``
and reports medians; ``--trace 1`` runs it once untraced and once
under ``tracing.py`` (both with ``--parallelism 1``) and reports per-layer
numbers. Every run's outputs are checked; see ``outcheck.py``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The benchmark runs from the root of a source checkout and imports tailsim
from its ``src`` directory; it writes only under ``.bench_tmp`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import outcheck
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPECS = Path("src") / "tailsim" / "specs"
REFERENCE = BENCH / "reference"
SETUP_SPAWNS = 3  # set-up timings before each command run
TOPOLOGIES = ("ONE_ST", "TWO_ST", "TWO_SMT")


@dataclass(frozen=True)
class Workload:
    command: str
    spec: str
    parallelism: int  # for the untraced runs; traced runs use 1
    sweeps: int  # load sweeps the command runs, each over the spec's points
    topologies: tuple[str, ...]  # engine topologies the command simulates
    layers: tuple[str, ...]  # layers the traced run must record
    category: str | None = None  # expected classification (characterize)
    labels: tuple[str, ...] | None = None  # expected study entries (partition)


WORKLOADS = {
    # Compute and memory phases on all three placements; SMT slowdown and
    # shared memory-bandwidth rate recomputation do most of the work.
    "imgdnn-characterize": Workload(
        "characterize", "img-dnn.spec", 1, 3, TOPOLOGIES, tracing.LAYERS,
        category="fast"),
    # Four LLC-way sweeps on ONE_ST only: the single-worker path with its
    # late and censored requests, and the only process pool.
    "imgdnn-cat-partition": Workload(
        "partition", "img-dnn-partition.spec", 2, 4, ("ONE_ST",),
        tuple(l for l in tracing.LAYERS if l != "taxonomy"),
        labels=("cat_w11", "cat_w8", "cat_w5", "cat_w2")),
    # Disk-bound with lqos_override: two workers split the disk, so rates
    # change at every disk entry and exit.
    "shore-characterize": Workload(
        "characterize", "shore.spec", 1, 3, TOPOLOGIES, tracing.LAYERS,
        category="high_disk"),
}


@dataclass(frozen=True)
class Job:
    """One benchmark invocation: a workload at a seed."""

    name: str
    w: Workload
    spec: object  # tailsim.experiments.ExperimentSpec at the chosen seed
    shipped_seed: int
    tmp: Path

    @property
    def seed(self) -> int:
        return self.spec.config.seed


@dataclass
class Run:
    start: float
    end: float
    cpu: float
    rss_mb: float
    problems: list[str]
    digest: str | None = None
    identical: bool | None = None
    slowness: float = 1.0  # host slowness over the run, see hostspeed.py

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list[str],
          err_path: Path) -> tuple[float, float, float, float, int]:
    """Run argv from the checkout root. Returns the ``perf_counter`` times
    of the spawn and of the exit, user+system CPU seconds and peak RSS (MB)
    of the process and its children, and the exit code."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT,
                                env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (t0, t1, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
            proc.returncode)


def command_args(job: Job, out: Path, parallelism: int) -> list[str]:
    return ["--seed", str(job.seed), "--out", str(out),
            "--parallelism", str(parallelism), job.w.command,
            str(SPECS / job.w.spec)]


def run_once(job: Job, argv: list[str], out: Path) -> Run:
    """Run one command and check what it wrote to out."""
    err = job.tmp / "stderr.txt"
    start, end, cpu, rss, code = spawn(argv, err)
    run = Run(start, end, cpu, rss, [])
    if code != 0:
        tail = err.read_text(errors="replace").strip().splitlines()[-3:]
        run.problems.append(f"exit code {code}: {' | '.join(tail)}")
        return run
    ref = REFERENCE / job.name
    run.problems += outcheck.check_invariants(
        ref, out, job.spec.n_points, job.w.category, job.w.labels)
    if job.seed == job.shipped_seed:
        diffs, run.identical = outcheck.compare_to_reference(ref, out)
        run.problems += diffs
    run.digest = outcheck.combined_digest(outcheck.digests(out))
    return run


def setup_argv(spec_path: Path) -> list[str]:
    """A process that starts the interpreter, imports tailsim and loads the
    spec, and does nothing else."""
    code = ("import tailsim\n"
            "from tailsim.experiments import load_experiment_spec\n"
            f"load_experiment_spec({str(spec_path)!r})\n")
    return [sys.executable, "-c", code]


def time_setup(argv: list[str], tmp: Path) -> tuple[float, float]:
    """Start and end of one set-up process."""
    err = tmp / "setup-stderr.txt"
    start, end, _, _, rc = spawn(argv, err)
    if rc != 0:
        raise RuntimeError(f"set-up process exited {rc}: "
                           + err.read_text(errors="replace"))
    return start, end


def offered_requests(spec, sweeps: int) -> int:
    """Requests the command simulates: every sweep offers each point's
    arrival schedule, derived as ``experiments.qps_sweep`` and ``run_point``
    derive it. The traced run checks this count against the spans."""
    from tailsim.experiments import geometric_points, point_seed
    from tailsim.loadgen import build_schedule
    per_sweep = 0
    for i, q in enumerate(geometric_points(*spec.qps_range, spec.n_points)):
        seed = point_seed(point_seed(spec.config.seed, i), 1)
        per_sweep += len(build_schedule(spec.config.arrival, q,
                                        spec.scenario.duration, seed))
    return sweeps * per_sweep


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "loadavg_1m": os.getloadavg()[0],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit()}


def pin_cpus(n: int) -> list[int]:
    """Keep the driver, and so the commands it starts, on its first n CPUs;
    the host-speed probes run on the same ones."""
    cpus = sorted(os.sched_getaffinity(0))[:n]
    os.sched_setaffinity(0, cpus)
    return cpus


def untraced(job: Job, seconds: float) -> tuple[dict, list[Run]]:
    """Repeat the command for about ``seconds``; report medians over the
    runs, with times scaled to the reference host speed."""
    setup = setup_argv(SPECS / job.w.spec)
    cpus = pin_cpus(job.w.parallelism)
    setups: list[list[tuple[float, float]]] = []
    runs: list[Run] = []
    with hostspeed.Probes(cpus, job.tmp) as probes:
        time_setup(setup, job.tmp)  # fills the bytecode cache
        start = time.perf_counter()
        while True:
            # Set-up is timed between the command runs, so that it samples
            # the same stretch of host speed as they do.
            setups.append([time_setup(setup, job.tmp)
                           for _ in range(SETUP_SPAWNS)])
            out = job.tmp / f"run{len(runs)}"
            argv = [sys.executable, "-m", "tailsim",
                    *command_args(job, out, job.w.parallelism)]
            runs.append(run_once(job, argv, out))
            shutil.rmtree(out, ignore_errors=True)
            # Stop where the measuring time comes nearest to ``seconds``.
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r.wall for r in runs) / 2 > seconds:
                break
    for r in runs:
        r.slowness = probes.factor(r.start, r.end)
    setup_s = []
    for spawns in setups:
        slowness = probes.factor(spawns[0][0], spawns[-1][1])
        setup_s += [(end - start) / slowness for start, end in spawns]
    wall = statistics.median(r.wall / r.slowness for r in runs)
    requests = offered_requests(job.spec, job.w.sweeps)
    print(f"requests simulated per command: {requests}")
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(r.cpu / r.slowness for r in runs), "s"),
        "sim_req_per_s": (requests / wall, "req/s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    return metrics, runs


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(w: Workload, spans: list[dict], requests: int,
                  traced_wall: float, overhead: float
                  ) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run. ``overhead`` is the traced less
    the untraced wall time, both scaled to the reference host speed."""
    own = tracing.self_times(spans)
    layer_s = tracing.layer_self_times(spans)
    problems = [f"layer {l}: no span recorded" for l in w.layers
                if l not in layer_s]

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str, key: str) -> int:
        return sum(s["attrs"][key] for s in named(name))

    m: dict[str, tuple[float, str]] = {}
    engine = [s for s in spans if s["name"].startswith("engine.simulate_")]
    for topo in TOPOLOGIES:
        calls = [s for s in engine if s["attrs"]["topology"] == topo]
        if topo in w.topologies and not calls:
            problems.append(f"engine {topo}: no span recorded")
        busy = sum((own[s["id"]] for s in calls), 0.0)
        reqs = sum(s["attrs"]["requests"] for s in calls)
        per_point = [own[s["id"]] for s in calls]
        p = f"engine.{topo}."
        m[p + "s"] = (busy, "s")
        m[p + "calls"] = (len(calls), "count")
        m[p + "requests"] = (reqs, "count")
        m[p + "req_per_s"] = (reqs / busy if busy else 0.0, "req/s")
        m[p + "late"] = (sum(s["attrs"]["late"] for s in calls), "count")
        m[p + "censored"] = (sum(s["attrs"]["censored"] for s in calls),
                             "count")
        m[p + "point_p50_s"] = (_quantile(per_point, 5), "s")
        m[p + "point_p90_s"] = (_quantile(per_point, 9), "s")
    metrics_s = layer_s.get("metrics", 0.0)
    summarized = total("metrics.summarize", "requests")
    m["metrics.s"] = (metrics_s, "s")
    m["metrics.calls"] = (len(named("metrics.summarize")), "count")
    m["metrics.req_per_s"] = (summarized / metrics_s if metrics_s else 0.0,
                              "req/s")
    m["loadgen.s"] = (layer_s.get("loadgen", 0.0), "s")
    m["loadgen.calls"] = (len(named("loadgen.build_schedule")), "count")
    scheduled = total("loadgen.build_schedule", "requests")
    m["loadgen.requests"] = (scheduled, "count")
    m["experiments.self_s"] = (layer_s.get("experiments", 0.0), "s")
    m["cli.self_s"] = (layer_s.get("cli", 0.0), "s")
    m["taxonomy.s"] = (layer_s.get("taxonomy", 0.0), "s")
    m["svgplot.s"] = (layer_s.get("svgplot", 0.0), "s")
    m["svgplot.calls"] = (len(named("svgplot.line_plot")), "count")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.outside_s"] = (traced_wall - sum(layer_s.values()), "s")
    simulated = sum(s["attrs"]["requests"] for s in engine)
    counts = {"offered": requests, "loadgen": scheduled,
              "engine": simulated, "metrics": summarized}
    if len(set(counts.values())) != 1:
        problems.append(f"request counts disagree: {counts}")
    return m, problems


def traced(job: Job) -> tuple[dict, list[Run]]:
    """One untraced and one traced run, both serial; per-layer numbers
    from the traced run's spans."""
    with hostspeed.Probes(pin_cpus(1), job.tmp) as probes:
        out = job.tmp / "untraced"
        base = run_once(job, [sys.executable, "-m", "tailsim",
                              *command_args(job, out, 1)], out)
        out, spans_path = job.tmp / "traced", job.tmp / "spans.json"
        run = run_once(job, [sys.executable, str(BENCH / "tracing.py"),
                             str(spans_path), "--",
                             *command_args(job, out, 1)], out)
    for r in (base, run):
        r.slowness = probes.factor(r.start, r.end)
    if base.digest != run.digest:
        run.problems.append("traced outputs differ from untraced outputs")
    metrics: dict = {}
    if not run.problems:
        spans = json.loads(spans_path.read_text())
        metrics, problems = layer_metrics(
            job.w, spans, offered_requests(job.spec, job.w.sweeps),
            run.wall, run.wall / run.slowness - base.wall / base.slowness)
        run.problems += problems
    return metrics, [base, run]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the spec's seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tailsim" / "__init__.py").is_file():
        print(f"error: no tailsim source under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import tailsim
    from tailsim.experiments import load_experiment_spec
    if not Path(tailsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: tailsim imported from {tailsim.__file__}",
              file=sys.stderr)
        return 1

    w = WORKLOADS[args.workload]
    shipped_seed = load_experiment_spec(ROOT / SPECS / w.spec).config.seed
    seed = shipped_seed if args.seed is None else args.seed
    spec = load_experiment_spec(ROOT / SPECS / w.spec, seed_override=seed)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}: tailsim {w.command} {w.spec}, "
          f"seed {seed}, trace {args.trace}")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    job = Job(args.workload, w, spec, shipped_seed, tmp)
    try:
        metrics, runs = (traced(job) if args.trace
                         else untraced(job, args.seconds))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for i, r in enumerate(runs):
        status = "ok" if not r.problems else "FAILED: " + "; ".join(
            r.problems[:5])
        print(f"run {i}: wall {r.wall:.3f} s, cpu {r.cpu:.3f} s, "
              f"peak rss {r.rss_mb:.1f} MB, host slowness {r.slowness:.3f}, "
              f"{status}")
    digests = {r.digest for r in runs if r.digest}
    for d in sorted(digests):
        print(f"outputs digest {d}")
    failed = sum(1 for r in runs if r.problems)
    if len(digests) > 1:
        print("FAILED: runs at one seed wrote different outputs")
        failed = len(runs)
    if seed == shipped_seed:
        same = all(r.identical for r in runs)
        print(f"byte-identical to reference: {'yes' if same else 'no'}")
    print(f"failed_ratio {failed / len(runs):g} ({failed}/{len(runs)})")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
