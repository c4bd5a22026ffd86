"""Domain types and configuration handling for load-balanced server clusters.

A cluster is a large pool of servers with finite queues. Each server belongs
to a type, defined by its share of the fleet, a queue-length dependent
service rate curve, and an optional multiprogramming level (doubling as the
JBT availability threshold). Jobs arrive at rate ``lam`` per server and are
routed by a load-balancing policy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

GAMMA_SUM_TOL = 1e-12
GAMMA_RENORM_LIMIT = 1e-9

POLICY_KINDS = ("random", "jiq", "jsq", "jsqd", "jbt")


def left_sum(values) -> float:
    """Sum of floats, left to right from 0.0.

    This is what the builtin ``sum`` did before CPython 3.12 made it
    compensated, so the analytic outputs keep their bits on every Python.
    """
    total = 0.0
    for v in values:
        total += v
    return total


class ConfigError(ValueError):
    """Malformed or out-of-schema configuration document."""


class ValidationError(ValueError):
    """Model invariants violated; carries the list of violations."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)

    @classmethod
    def check(cls, violations):
        """Raise on a nonempty list of violations."""
        if violations:
            raise cls(violations)


class ConvergenceError(RuntimeError):
    """A numerical solve failed to reach its tolerance."""

    def __init__(self, message, residual=None, state=None):
        super().__init__(message)
        self.residual = residual
        self.state = state


@dataclass(frozen=True)
class ServiceRateCurve:
    """Total service rate by queue length, ``rates[0] == 0`` through ``rates[B]``."""

    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))

    @classmethod
    def from_mu(cls, mu) -> "ServiceRateCurve":
        """Build from the rates at lengths 1..B; the zero rate at length 0 is implicit."""
        return cls((0.0, *mu))

    @property
    def buffer(self) -> int:
        return len(self.rates) - 1


@dataclass(frozen=True)
class ServerType:
    gamma: float
    curve: ServiceRateCurve
    mpl: int | None = None

    @property
    def buffer(self) -> int:
        return self.curve.buffer


@dataclass(frozen=True)
class ClusterSpec:
    """Arrival rate per server and the server type mix."""

    lam: float
    types: tuple

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))

    @property
    def k(self) -> int:
        return len(self.types)

    @cached_property
    def buffers(self) -> tuple:
        return tuple(t.buffer for t in self.types)

    def gammas(self) -> np.ndarray:
        return np.array([t.gamma for t in self.types])

    @cached_property
    def rates(self) -> np.ndarray:
        """Service rates laid out like an occupancy: ``rates[k, i]`` for
        type k at length i, zero past each type's buffer."""
        return Occupancy([t.curve.rates for t in self.types]).array

    def capacity(self, i) -> float:
        """Service rate per server with every queue at length i, or at its buffer."""
        return left_sum(t.gamma * t.curve.rates[min(i, t.buffer)] for t in self.types)


@dataclass(frozen=True)
class Policy:
    """Load-balancing rule; ``control`` < 1 routes the complement randomly."""

    kind: str
    d: int | None = None
    control: float = 1.0

    def label(self) -> str:
        base = f"jsqd({self.d})" if self.kind == "jsqd" else self.kind
        if self.control < 1.0:
            return f"{base}@p={self.control:g}"
        return base


@dataclass(frozen=True)
class RunParams:
    horizon: float
    dt: float
    sample_interval: float
    n_servers: int | None = None
    seed: int | None = None


def unpad(array, buffers) -> tuple:
    """Per-type views ``array[k, ..., :B_k + 1]`` of a padded type-by-length array."""
    return tuple(row[..., :b + 1] for row, b in zip(array, buffers))


class Occupancy:
    """Normalized queue-length distribution of a cluster.

    ``array[k, i]`` is the fraction of all servers that are of type k and
    hold i jobs. It is one (K, B_max + 1) array for all types, so that array
    code can work on the whole state at once; entries past a type's buffer
    ``buffers[k]`` are exactly zero. ``parts[k]`` views type k's lengths
    0..B_k, which sum to that type's fleet share. The ODE step and the
    dispatch fields work on ``array.tolist()``, the same padded entries as
    one list of Python floats per type.
    """

    __slots__ = ("array", "buffers")

    def __init__(self, parts):
        parts = [np.asarray(p, dtype=float) for p in parts]
        self.buffers = np.array([len(p) - 1 for p in parts])
        self.array = np.zeros((len(parts), self.buffers.max() + 1))
        for row, p in zip(self.array, parts):
            row[:len(p)] = p

    @classmethod
    def from_array(cls, array, buffers) -> "Occupancy":
        """Wrap a padded array, without copying it."""
        x = cls.__new__(cls)
        x.array, x.buffers = array, buffers
        return x

    @classmethod
    def empty(cls, spec: ClusterSpec) -> "Occupancy":
        x = cls([np.zeros(b + 1) for b in spec.buffers])
        x.array[:, 0] = spec.gammas()
        return x

    @property
    def parts(self) -> tuple:
        return unpad(self.array, self.buffers)


@dataclass(frozen=True)
class Trajectory:
    """Occupancy snapshots on a uniform time grid (shared by simulator and ODE)."""

    times: np.ndarray
    parts: tuple  # per type: array of shape (len(times), B_k + 1)


def _serving(k, t) -> list:
    """Type k's violation of the serving rule: the chains divide by its
    rates from length 1, so they must be positive, and not NaN."""
    return [] if all(r > 0 for r in t.curve.rates[1:]) else [
        f"type {k}: service rates must be positive from length 1"]


def serving_violations(spec: ClusterSpec) -> list:
    """The serving rule over every type of ``spec``."""
    return [v for k, t in enumerate(spec.types) for v in _serving(k, t)]


def _whole(x) -> bool:
    """An integer, not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def mpl_violations(spec: ClusterSpec, what: str) -> list:
    """The rule that ``what`` (jbt, or lps system times) needs an integer
    ``mpl`` on every type of ``spec``."""
    return [f"{what} requires mpl on every type; type {k} has "
            + ("none" if t.mpl is None else f"{t.mpl!r}, not an integer")
            for k, t in enumerate(spec.types) if not _whole(t.mpl)]


def policy_violations(spec: ClusterSpec, policy: Policy) -> list:
    """A known kind, an integer ``d`` >= 1 for jsqd only, an integer ``mpl``
    on every type of ``spec`` for jbt, and ``control`` in (0, 1]."""
    out = []
    if policy.kind not in POLICY_KINDS:
        out.append(f"unknown policy kind {policy.kind!r}")
    if policy.kind == "jsqd":
        if policy.d is not None and not _whole(policy.d):
            out.append(f"jsqd requires an integer d, got {policy.d!r}")
        elif policy.d is None or policy.d < 1:
            out.append(f"jsqd requires d >= 1, got {policy.d}")
    elif policy.d is not None:
        out.append(f"policy {policy.kind} takes no d")
    if policy.kind == "jbt":
        out += mpl_violations(spec, "jbt")
    if not (0 < policy.control <= 1):
        out.append(f"control must be in (0, 1], got {policy.control}")
    return out


def run_violations(**lengths) -> list:
    """The rule for a run's lengths of time (horizon, sample_interval, dt):
    each is positive and finite."""
    return [f"{name} must be positive and finite, got {value!r}"
            for name, value in lengths.items() if not 0.0 < value < math.inf]


def size_violations(spec: ClusterSpec, **sizes) -> list:
    """The rule for a cluster's server count (n, n_servers): one server of
    every type of ``spec`` at least; None means the caller's default."""
    return [f"{name}={n} leaves some of the {spec.k} types without a server"
            for name, n in sizes.items() if n is not None and n < spec.k]


def layout_violations(spec: ClusterSpec, v: Occupancy) -> list:
    """The rule for a state of ``spec``: laid out for the spec's buffers."""
    buffers = tuple(map(int, v.buffers))
    return [] if buffers == spec.buffers else [
        f"state buffers {buffers} do not match the spec's buffers {spec.buffers}"]


def validate(spec: ClusterSpec, policy: Policy) -> list:
    """Check every model invariant; return human-readable violations."""
    if not spec.types:
        return ["types: empty"]
    out = []
    if not (spec.lam > 0):
        out.append(f"lambda must be > 0, got {spec.lam}")
    for k, t in enumerate(spec.types):
        rates = t.curve.rates
        b = t.buffer
        if b < 1:
            out.append(f"type {k}: buffer must be >= 1")
            continue
        if rates[0] != 0.0:
            out.append(f"type {k}: rates[0] must be 0, got {rates[0]}")
        for i in range(b):
            if rates[i] > rates[i + 1]:
                out.append(f"type {k}: total rate decreases at i={i}")
        for i in range(1, b):
            if rates[i] / i < rates[i + 1] / (i + 1) - 1e-15:
                out.append(f"type {k}: per-job rate increases at i={i}")
        out += _serving(k, t)
        if not (0 < t.gamma <= 1):
            out.append(f"type {k}: gamma must be in (0, 1], got {t.gamma}")
        if t.mpl is not None and not _whole(t.mpl):
            out.append(f"type {k}: mpl must be an integer, got {t.mpl!r}")
        elif t.mpl is not None and not (1 <= t.mpl <= b):
            out.append(f"type {k}: mpl must be in [1, {b}], got {t.mpl}")
    gsum = left_sum(t.gamma for t in spec.types)
    if abs(gsum - 1.0) > GAMMA_SUM_TOL:
        out.append(f"type fractions sum to {gsum!r}, expected 1")
    cap = spec.capacity(max(spec.buffers))
    if not (spec.lam < cap):
        out.append(f"stability: lambda {spec.lam} not strictly below capacity {cap}")
    return out + policy_violations(spec, policy)


def _number(x, where) -> float:
    """A finite number, not a bool; JSON's reader also parses NaN, Infinity
    and integer literals past the float range."""
    try:
        finite = isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{where}: expected a finite number, got {x!r}")
    return float(x)


def _count(x, where, least):
    """An optional integer (not a bool), at least ``least``."""
    if x is not None and (not _whole(x) or x < least):
        raise ConfigError(f"{where}: expected an integer >= {least}, got {x!r}")
    return x


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing key {key!r}")


def parse_config(text):
    """Parse a JSON config into validated ``(ClusterSpec, Policy, RunParams)``.

    Service rates are listed from queue length 1 upward; the zero rate of an
    empty queue is implicit and must not appear in the file. Type fractions
    off by less than 1e-9 are renormalized, anything worse is rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e}") from e
    _require_keys(doc, {"lambda", "types", "policy", "run"},
                  {"lambda", "types", "policy", "run"}, "config")
    lam = _number(doc["lambda"], "lambda")
    if not isinstance(doc["types"], list) or not doc["types"]:
        raise ConfigError("types: expected a nonempty array")

    types = []
    for k, td in enumerate(doc["types"]):
        _require_keys(td, {"gamma", "mu", "mpl"}, {"gamma", "mu"}, f"types[{k}]")
        mu = td["mu"]
        if not isinstance(mu, list) or not mu:
            raise ConfigError(f"types[{k}].mu: expected a nonempty array")
        if mu and mu[0] == 0 and len(mu) > 1:
            # Catch the common mistake of writing the implicit zero rate.
            raise ConfigError(f"types[{k}].mu: starts at queue length 1; drop the leading 0")
        types.append(ServerType(
            gamma=_number(td["gamma"], f"types[{k}].gamma"),
            curve=ServiceRateCurve.from_mu([_number(r, f"types[{k}].mu") for r in mu]),
            mpl=_count(td.get("mpl"), f"types[{k}].mpl", 1)))

    gsum = left_sum(t.gamma for t in types)
    if abs(gsum - 1.0) > GAMMA_RENORM_LIMIT:
        raise ConfigError(f"type fractions sum to {gsum!r}; rejecting (off by more than 1e-9)")
    if abs(gsum - 1.0) > GAMMA_SUM_TOL:
        types = [ServerType(t.gamma / gsum, t.curve, t.mpl) for t in types]

    pd = doc["policy"]
    _require_keys(pd, {"kind", "d", "p"}, {"kind"}, "policy")
    policy = Policy(kind=pd["kind"], d=_count(pd.get("d"), "policy.d", 1),
                    control=_number(pd.get("p", 1.0), "policy.p"))

    rd = doc["run"]
    _require_keys(rd, {"n_servers", "horizon", "dt", "seed", "sample_interval"},
                  {"horizon", "dt", "sample_interval"}, "run")
    run = RunParams(horizon=_number(rd["horizon"], "run.horizon"),
                    dt=_number(rd["dt"], "run.dt"),
                    sample_interval=_number(rd["sample_interval"], "run.sample_interval"),
                    n_servers=_count(rd.get("n_servers"), "run.n_servers", 1),
                    seed=_count(rd.get("seed"), "run.seed", 0))
    spec = ClusterSpec(lam=lam, types=tuple(types))
    ValidationError.check(validate(spec, policy) + run_violations(
        horizon=run.horizon, dt=run.dt, sample_interval=run.sample_interval)
        + size_violations(spec, n_servers=run.n_servers))
    return spec, policy, run


def serialize_config(spec: ClusterSpec, policy: Policy, run: RunParams) -> str:
    """Inverse of parse_config; round-trips valid configurations."""
    doc = {
        "lambda": spec.lam,
        "types": [],
        "policy": {"kind": policy.kind},
        "run": {"horizon": run.horizon, "dt": run.dt,
                "sample_interval": run.sample_interval},
    }
    for t in spec.types:
        td = {"gamma": t.gamma, "mu": list(t.curve.rates[1:])}
        if t.mpl is not None:
            td["mpl"] = t.mpl
        doc["types"].append(td)
    if policy.d is not None:
        doc["policy"]["d"] = policy.d
    if policy.control != 1.0:
        doc["policy"]["p"] = policy.control
    if run.n_servers is not None:
        doc["run"]["n_servers"] = run.n_servers
    if run.seed is not None:
        doc["run"]["seed"] = run.seed
    return json.dumps(doc, indent=2)
