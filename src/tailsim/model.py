"""Domain types: platform constants, workload demand profiles, run scenarios,
resource limits, and the per-request demand derivations used everywhere else.

All types are immutable after construction so simulations can share them
freely. Bandwidth figures are decimal MB/s, cache capacities are MB, times
are seconds, byte counts are bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

MB = 1e6  # bytes per MB (decimal, matching bandwidth reporting)

# The phase a worker is in: a request's compute, memory or disk phase, or
# none (an idle or missing worker).
COMPUTE, MEMORY, DISK, IDLE = 0, 1, 2, 3


class ModelError(ValueError):
    """Raised when a domain object violates its invariants."""


class Topology(Enum):
    """Server thread placement: one thread, two threads on distinct physical
    cores, or two threads on the two logical cores of one physical core."""

    ONE_ST = "ONE_ST"
    TWO_ST = "TWO_ST"
    TWO_SMT = "TWO_SMT"

    @property
    def n_workers(self) -> int:
        return 1 if self is Topology.ONE_ST else 2


@dataclass(frozen=True)
class PlatformConfig:
    """Server platform constants.

    Defaults model a 12-core Xeon-class node with an 11-way 16.5 MB LLC,
    ~111 GB/s measured memory bandwidth and a 550 MB/s SSD-backed remote
    disk. The rate a lone request drains memory at is a profile property
    (mem_stream_rate), and network transfers are not rate-limited.
    """

    llc_total_ways: int = 11
    llc_way_capacity: float = 1.5  # MB per way
    mem_bw_capacity: float = 111000.0  # MB/s
    disk_bw_capacity: float = 550.0  # MB/s
    cache_line: int = 64  # bytes

    def __post_init__(self) -> None:
        if self.llc_total_ways < 1:
            raise ModelError("llc_total_ways: must be >= 1")
        for name in ("llc_way_capacity", "mem_bw_capacity",
                     "disk_bw_capacity", "cache_line"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name}: must be strictly positive")

    @property
    def llc_capacity(self) -> float:
        """Total LLC capacity in MB."""
        return self.llc_total_ways * self.llc_way_capacity


@dataclass(frozen=True)
class ServiceDist:
    """Multiplicative service-time distribution applied to compute work.

    All variants have mean 1.0 so the profile's cpu_work stays the mean
    compute demand regardless of the distribution chosen.
    """

    kind: str  # deterministic | exponential | lognormal
    cv: float = 0.0  # coefficient of variation, lognormal only

    KINDS = ("deterministic", "exponential", "lognormal")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ModelError(f"service_dist: unknown kind {self.kind!r}")
        if self.kind == "lognormal" and self.cv <= 0:
            raise ModelError("service_dist: lognormal requires cv > 0")
        if self.kind == "lognormal" and math.isinf(self.cv * self.cv):
            # log(1 + cv^2) would be inf, and every draw nan or 0
            raise ModelError("service_cv: too large, its square overflows")

    def _lognormal_params(self) -> tuple[float, float]:
        sigma2 = math.log(1.0 + self.cv * self.cv)
        return -0.5 * sigma2, math.sqrt(sigma2)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n multipliers."""
        if self.kind == "deterministic":
            return np.ones(n)
        if self.kind == "exponential":
            return rng.standard_exponential(n)
        mu, sigma = self._lognormal_params()
        return rng.lognormal(mu, sigma, n)


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-request demand model for one server workload.

    cpu_work is seconds of pure compute per request; mem_accesses are
    LLC-level accesses whose miss fraction (from the way-dependent miss
    curve) turns into main-memory traffic; disk/net bytes are fixed per
    request. smt_efficiency is the per-thread compute-rate factor applied
    while the SMT sibling is simultaneously compute- or memory-busy.
    """

    name: str
    cpu_work: float = 0.0  # s of compute per request
    mem_accesses: float = 0.0  # LLC-level accesses per request
    miss_min: float = 0.0  # miss fraction with the full LLC
    miss_max: float = 0.0  # miss fraction with a single way
    miss_shape: float = 1.0  # exponent k of the miss curve
    mem_stream_rate: float = 9000.0  # MB/s a lone request drains its traffic
    footprint: float = 0.0  # MB of LLC occupied when unconstrained
    disk_bytes: float = 0.0
    net_tx_bytes: float = 0.0
    net_rx_bytes: float = 0.0
    smt_efficiency: float = 1.0
    service_dist: ServiceDist = ServiceDist("deterministic")
    qos_multiplier: float = 5.0

    def phase_times(self, limits: "ResourceLimits",
                    platform: PlatformConfig) -> tuple[float, float, float]:
        """Mean compute, memory and disk phase times of a lone request
        under limits."""
        mem = mem_bytes(self, limits, platform)
        rates = drain_rates(self, Topology.ONE_ST, limits, platform)
        mem_t = mem / rates[MEMORY * 4 + IDLE][0][2] if mem > 0 else 0.0
        disk_t = (self.disk_bytes / rates[DISK * 4 + IDLE][0][2]
                  if self.disk_bytes > 0 else 0.0)
        return self.cpu_work, mem_t, disk_t

    def isolated_service_time(self, limits: "ResourceLimits",
                              platform: PlatformConfig) -> float:
        """Mean three-phase service time of a lone request under limits."""
        cpu, mem, disk = self.phase_times(limits, platform)
        return cpu + mem + disk


@dataclass(frozen=True)
class OpenLoop:
    """Open-loop load: arrivals scheduled independently of completions."""

    qps: float


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop load: each session issues its next request on completion
    of the previous one plus a think time."""

    sessions: int
    think_time: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Thread topology plus client-side load configuration for one run."""

    topology: Topology
    n_clients: int
    mode: OpenLoop | ClosedLoop
    duration: float
    rtt: float = 0.0001  # one-way network delay, charged twice per request

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ModelError("n_clients: must be >= 1")
        if self.n_clients > 2**63 - 1:  # the engine's int64 client column
            raise ModelError("n_clients: must be at most 2**63 - 1")
        if self.duration <= 0:
            raise ModelError("duration: must be positive")
        if self.rtt < 0:
            raise ModelError("rtt: must be non-negative")
        if isinstance(self.mode, OpenLoop):
            if self.mode.qps <= 0:
                raise ModelError("qps: must be positive in open_loop")
        elif isinstance(self.mode, ClosedLoop):
            if self.mode.sessions < 1:
                raise ModelError("sessions: must be >= 1 in closed_loop")
            if self.mode.think_time < 0:
                raise ModelError("think_time: must be non-negative")
        else:
            raise ModelError(f"mode: unknown load mode {self.mode!r}")


@dataclass(frozen=True)
class ResourceLimits:
    """LLC-way and bandwidth caps applied to a run.

    mem_bw_limit None means the platform memory system is the only cap;
    disk_bw_limit None means the platform disk bandwidth applies.
    """

    llc_ways: int = 11
    mem_bw_limit: float | None = None  # MB/s
    disk_bw_limit: float | None = None  # MB/s

    def __post_init__(self) -> None:
        if self.llc_ways < 1:
            raise ModelError("llc_ways: must be >= 1")
        if self.mem_bw_limit is not None and self.mem_bw_limit <= 0:
            raise ModelError("mem_bw_limit: must be positive when finite")
        if self.disk_bw_limit is not None and self.disk_bw_limit <= 0:
            raise ModelError("disk_bw_limit: must be positive when finite")

    def validate_against(self, platform: PlatformConfig) -> "ResourceLimits":
        if self.llc_ways > platform.llc_total_ways:
            raise ModelError(
                f"llc_ways: {self.llc_ways} exceeds platform total "
                f"{platform.llc_total_ways}")
        return self

    def effective_mem_bw(self, platform: PlatformConfig) -> float:
        if self.mem_bw_limit is None:
            return platform.mem_bw_capacity
        return min(self.mem_bw_limit, platform.mem_bw_capacity)

    def effective_disk_bw(self, platform: PlatformConfig) -> float:
        if self.disk_bw_limit is None:
            return platform.disk_bw_capacity
        return min(self.disk_bw_limit, platform.disk_bw_capacity)

    @classmethod
    def unconstrained(cls, platform: PlatformConfig) -> "ResourceLimits":
        return cls(llc_ways=platform.llc_total_ways)


def validate_profile(profile: WorkloadProfile,
                     platform: PlatformConfig) -> WorkloadProfile:
    """Check every profile invariant, reporting all violations by field name.

    Returns the profile unchanged when valid; raises ModelError listing
    every violated invariant otherwise.
    """
    errors: list[str] = []
    p = profile
    if not p.name:
        errors.append("name: must be non-empty")
    if not 0.0 <= p.miss_min <= 1.0:
        errors.append("miss_min: must lie in [0, 1]")
    if not 0.0 <= p.miss_max <= 1.0:
        errors.append("miss_max: must lie in [0, 1]")
    if p.miss_min > p.miss_max:
        errors.append("miss_min: exceeds miss_max")
    if p.miss_shape <= 0:
        errors.append("miss_shape: must be > 0")
    if p.cpu_work < 0:
        errors.append("cpu_work: must be >= 0")
    if p.mem_accesses < 0:
        errors.append("mem_accesses: must be >= 0")
    if p.mem_stream_rate <= 0:
        errors.append("mem_stream_rate: must be positive")
    if p.footprint < 0:
        errors.append("footprint: must be >= 0")
    if p.footprint > platform.llc_capacity:
        errors.append(
            f"footprint: {p.footprint} MB exceeds platform LLC capacity "
            f"{platform.llc_capacity} MB")
    if p.disk_bytes < 0:
        errors.append("disk_bytes: must be >= 0")
    if p.net_tx_bytes < 0:
        errors.append("net_tx_bytes: must be >= 0")
    if p.net_rx_bytes < 0:
        errors.append("net_rx_bytes: must be >= 0")
    if not 0.0 < p.smt_efficiency <= 1.0:
        errors.append("smt_efficiency: must lie in (0, 1]")
    if p.qos_multiplier <= 0:
        errors.append("qos_multiplier: must be positive")
    if p.cpu_work <= 0 and p.mem_accesses <= 0 and p.disk_bytes <= 0:
        errors.append(
            "cpu_work/mem_accesses/disk_bytes: at least one demand must be "
            "positive")
    if errors:
        raise ModelError("; ".join(errors))
    return profile


def miss_ratio(profile: WorkloadProfile, ways: int, total_ways: int) -> float:
    """Miss fraction of LLC-level accesses given an assigned way count.

    Power-law interpolation between the full-LLC miss fraction and the
    one-way miss fraction:

        m(w) = miss_min + (miss_max - miss_min) * ((total - w)/(total - 1))^k

    Monotone non-increasing in ways; exactly miss_min at the full LLC and
    exactly miss_max at one way.
    """
    if total_ways < 2:
        raise ModelError("total_ways: must be >= 2")
    if not 1 <= ways <= total_ways:
        raise ModelError(f"ways: {ways} outside [1, {total_ways}]")
    span = (total_ways - ways) / (total_ways - 1)
    return profile.miss_min + (profile.miss_max - profile.miss_min) * (
        span ** profile.miss_shape)


def mem_bytes(profile: WorkloadProfile, limits: ResourceLimits,
              platform: PlatformConfig) -> float:
    """Mean main-memory bytes a request moves under the limits: its
    LLC-level accesses that miss at the assigned way count, a cache line
    each. The one per-request demand the limits change; compute, disk and
    network demands are the profile's own fields."""
    if profile.mem_accesses > 0:
        m = miss_ratio(profile, limits.llc_ways, platform.llc_total_ways)
        return profile.mem_accesses * m * platform.cache_line
    return 0.0


def drain_rates(profile: WorkloadProfile, topology: Topology,
                limits: ResourceLimits, platform: PlatformConfig) -> list:
    """For each pair of phases the workers can be in, at phase0 * 4 +
    phase1 (a missing second worker stays IDLE), a (worker, phase, rate)
    tuple per busy worker; a phase's row beside IDLE holds its lone rate.
    Compute drains at 1.0 s/s, or at smt_efficiency on TWO_SMT while the
    sibling computes or drains memory. Memory and disk drain in bytes/s:
    two memory phases share the limit in proportion to their stream rates,
    one worker drains at the lesser of its stream rate and the limit, and
    disk phases split the disk limit evenly."""
    two = topology.n_workers == 2
    smt = topology is Topology.TWO_SMT
    sigma = profile.smt_efficiency
    stream_mb = profile.mem_stream_rate
    mem_limit_mb = limits.effective_mem_bw(platform)
    disk_limit_b = limits.effective_disk_bw(platform) * MB
    rates = []
    for pair in [(p0, p1) for p0 in range(4) for p1 in range(4)]:
        mem_demand = ((stream_mb if pair[0] == MEMORY else 0.0)
                      + (stream_mb if pair[1] == MEMORY else 0.0))
        mem_factor = (1.0 if mem_demand <= mem_limit_mb
                      else mem_limit_mb / mem_demand)
        row = []
        for w in range(topology.n_workers):
            ph = pair[w]
            if ph == COMPUTE:
                rate = (sigma if smt and pair[1 - w] in (COMPUTE, MEMORY)
                        else 1.0)
            elif ph == MEMORY:
                rate = (stream_mb * mem_factor * MB if two
                        else min(stream_mb, mem_limit_mb) * MB)
            elif ph == DISK:
                rate = disk_limit_b / pair.count(DISK)
            else:
                continue
            row.append((w, ph, rate))
        rates.append(tuple(row))
    return rates


def llc_occupancy(profile: WorkloadProfile, limits: ResourceLimits,
                  platform: PlatformConfig) -> float:
    """MB of LLC the workload occupies: its footprint, capped by the
    capacity of its assigned ways."""
    return min(profile.footprint, limits.llc_ways * platform.llc_way_capacity)


# ---------------------------------------------------------------------------
# Profile, platform and spec files: flat "key: value" text, one object per
# file. Each kind declares its keys once, key -> (type, default). A type
# turns a value's text into the value or raises ValueError; a default is
# the text a missing key reads as, _REQUIRED, or None to leave the key out.

class FileFormatError(ValueError):
    """Raised for malformed profile/spec files, with line numbers."""


def parse_kv_text(text: str, source: str = "<text>") -> dict[str, str]:
    """Parse 'key: value' lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FileFormatError(f"{source}:{lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise FileFormatError(f"{source}:{lineno}: empty key or value")
        if key in out:
            raise FileFormatError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def kv_text(fields: dict) -> str:
    """The file text parse_kv_text reads back as fields, a line per key in
    order: a float as its repr, which reads back exactly, another value as
    its str. FileFormatError for a value that would not read back."""
    lines = []
    for key, value in fields.items():
        text = repr(float(value)) if isinstance(value, float) else str(value)
        if "#" in text or text.strip().splitlines() != [text]:
            raise FileFormatError(
                f"key {key!r}: {text!r} does not read back as written")
        lines.append(f"{key}: {text}\n")
    return "".join(lines)


def parse_number(raw: str, finite: bool = True) -> float:
    """The number raw gives; ValueError when it is not a number or, unless
    finite is False, is inf or nan."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError("not a number") from None
    if finite and not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def parse_int(raw: str) -> int:
    """A finite number whose text has an integral exact decimal value, so 5,
    5.0 and 5e0 all read as 5 and 2.5 or 9007199254740993.5 fail. Read
    exactly, past 2**53 too."""
    parse_number(raw)
    try:
        return int(raw)
    except ValueError:
        pass
    # decimal is imported only for text that is not integer text
    from decimal import Decimal, InvalidOperation
    try:
        exact = Decimal(raw)
    except InvalidOperation:  # an exponent of more than 18 digits
        exact = None
    if exact is None or exact != exact.to_integral_value():
        raise ValueError("not an integer")
    return int(exact)


def _limit(*words: str):
    """A bandwidth limit's type: a finite number, or None for a word."""
    return lambda raw: None if raw in words else parse_number(raw)


def _list(item):
    """The type of a comma-separated list of item values."""
    return lambda raw: tuple(item(tok.strip()) for tok in raw.split(","))


_REQUIRED = object()  # the default of a key every file must give
_NO_LIMIT = ("unlimited", "none")  # the words that leave a limit unset

_PROFILE_FLOAT_FIELDS = (
    "cpu_work", "mem_accesses", "miss_min", "miss_max", "miss_shape",
    "mem_stream_rate", "footprint", "disk_bytes", "net_tx_bytes",
    "net_rx_bytes", "smt_efficiency", "qos_multiplier",
)
_PROFILE_KEYS = {"name": (str, _REQUIRED),
                 **dict.fromkeys(_PROFILE_FLOAT_FIELDS, (parse_number, None)),
                 "service_dist": (str, "deterministic"),
                 "service_cv": (parse_number, "0")}
_PLATFORM_KEYS = {"llc_total_ways": (parse_int, None),
                  **dict.fromkeys(("llc_way_capacity", "mem_bw_capacity",
                                   "disk_bw_capacity"), (parse_number, None)),
                  "cache_line": (parse_int, None)}
# An experiment spec's keys; experiments.load_experiment_spec gives them
# their meaning and adds the target_* and threshold_* keys. A warmup may be
# inf or nan here: its range check names the range.
_SPEC_KEYS = {
    "name": (str, None), "profile": (str, _REQUIRED),
    "topology": (str, "ONE_ST"), "mode": (str, "open_loop"),
    "duration": (parse_number, _REQUIRED), "rtt": (parse_number, "0.0001"),
    "qps_min": (parse_number, None), "qps_max": (parse_number, None),
    "n_clients": (parse_int, "1"), "sessions_min": (parse_int, "1"),
    "sessions_max": (parse_int, None), "think_time": (parse_number, "0"),
    "llc_ways": (parse_int, None),
    "mem_bw_limit": (_limit(*_NO_LIMIT), "unlimited"),
    "disk_bw_limit": (_limit("default", *_NO_LIMIT), "default"),
    "arrival": (str, "zipf"), "zipf_alpha": (parse_number, "1.0"),
    "zipf_support": (parse_int, "1000"), "seed": (parse_int, "1"),
    "warmup": (partial(parse_number, finite=False), None),
    "points": (parse_int, "12"), "lqos_override": (parse_number, None),
    "override_reason": (str, None), "ways_list": (_list(parse_int), None),
    "bw_limits": (_list(_limit(*_NO_LIMIT)), None),
}


def read_fields(fields: dict[str, str], keys: dict, kind: str,
                source: str) -> dict:
    """A file's values by key, read through its kind's key table: every
    field parsed by its key's type, then the defaults of the missing keys
    that have one. FileFormatError names an unknown key, a missing
    required key or a value its type rejects."""
    for key in fields:
        if key not in keys:
            raise FileFormatError(f"{source}: unknown {kind} key {key!r}")
    out = {}
    for key, (parse, default) in keys.items():
        raw = fields.get(key, default)
        if raw is _REQUIRED:
            raise FileFormatError(f"{source}: missing required key {key!r}")
        if raw is not None:
            try:
                out[key] = parse(raw)
            except ValueError as exc:
                raise FileFormatError(f"{source}: key {key!r}: {exc}")
    return out


def profile_from_mapping(fields: dict[str, str],
                         source: str = "<mapping>") -> WorkloadProfile:
    values = read_fields(fields, _PROFILE_KEYS, "profile", source)
    try:
        dist = ServiceDist(values.pop("service_dist"),
                           values.pop("service_cv"))
        return WorkloadProfile(service_dist=dist, **values)
    except ModelError as exc:
        raise FileFormatError(f"{source}: {exc}")


def load_profile(path: str | Path) -> WorkloadProfile:
    path = Path(path)
    fields = parse_kv_text(path.read_text(), source=str(path))
    return profile_from_mapping(fields, source=str(path))


def profile_to_text(profile: WorkloadProfile) -> str:
    """Profile file text that load_profile reads back; service_cv is
    written for a lognormal, the one kind that reads it."""
    dist = profile.service_dist
    fields = {"name": profile.name,
              **{key: getattr(profile, key) for key in _PROFILE_FLOAT_FIELDS},
              "service_dist": dist.kind}
    if dist.kind == "lognormal":
        fields["service_cv"] = dist.cv
    return kv_text(fields)


def save_profile(profile: WorkloadProfile, path: str | Path) -> None:
    Path(path).write_text(profile_to_text(profile))


def platform_to_text(platform: PlatformConfig) -> str:
    """Platform file text that load_platform reads back exactly."""
    return kv_text({key: getattr(platform, key) for key in _PLATFORM_KEYS})


def load_platform(path: str | Path) -> PlatformConfig:
    return platform_from_text(Path(path).read_text(), str(path))


def platform_from_text(text: str, source: str) -> PlatformConfig:
    fields = parse_kv_text(text, source=source)
    try:
        return PlatformConfig(**read_fields(fields, _PLATFORM_KEYS,
                                            "platform", source))
    except ModelError as exc:
        raise FileFormatError(f"{source}: {exc}")


def shipped_profile_path(name: str) -> Path:
    """Path of a profile shipped with the package."""
    root = Path(__file__).parent / "profiles"
    path = root / f"{name}.profile"
    if not path.exists():
        raise FileNotFoundError(f"no shipped profile named {name!r}")
    return path


def shipped_profile(name: str) -> WorkloadProfile:
    return load_profile(shipped_profile_path(name))
