"""Dispatch probabilities for each load-balancing policy.

Every policy is captured twice: as a field over the normalized occupancy
(the routing probabilities seen by the deterministic limit) and as a
finite-N sampling rule used by the event simulator. Mass a policy would
send to full queues is reported on a separate loss channel, so field
entries at a type's buffer level are always zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ClusterSpec, Occupancy, Policy

# Occupancy entries below this are treated as empty levels; ODE states carry
# roundoff that would otherwise flip the discontinuous policies.
ZERO_MASS = 1e-12


@dataclass
class DispatchField:
    """Probability that an arrival joins a type-k queue of length i, plus loss."""

    parts: tuple
    loss: float

    def total(self) -> float:
        return float(sum(p.sum() for p in self.parts))

    def at(self, k: int, i: int) -> float:
        return float(self.parts[k][i])


def _clipped(x: Occupancy):
    return [np.maximum(p, 0.0) for p in x.parts]


def _zero_parts(xs):
    return [np.zeros_like(p) for p in xs]


def f_random(x: Occupancy) -> DispatchField:
    """Uniform assignment: the field is the occupancy itself, full queues lose."""
    xs = _clipped(x)
    parts, loss = [], 0.0
    for p in xs:
        q = p.copy()
        loss += q[-1]
        q[-1] = 0.0
        parts.append(q)
    return DispatchField(tuple(parts), float(loss))


def f_jiq(x: Occupancy) -> DispatchField:
    """All arrivals to idle servers; falls back to random when none are idle."""
    xs = _clipped(x)
    y0 = sum(p[0] for p in xs)
    if y0 <= ZERO_MASS:
        return f_random(x)
    parts = _zero_parts(xs)
    for q, p in zip(parts, xs):
        q[0] = p[0] / y0
    return DispatchField(tuple(parts), 0.0)


def f_jsq(x: Occupancy) -> DispatchField:
    """All arrivals to the minimal occupied queue length, split by type mass."""
    xs = _clipped(x)
    max_b = max(len(p) - 1 for p in xs)
    istar = None
    for i in range(max_b + 1):
        if sum(p[i] for p in xs if i < len(p)) > ZERO_MASS:
            istar = i
            break
    parts = _zero_parts(xs)
    if istar is None:
        return DispatchField(tuple(parts), float(sum(p.sum() for p in xs)))
    denom = sum(p[istar] for p in xs if istar < len(p))
    loss = 0.0
    for q, p in zip(parts, xs):
        b = len(p) - 1
        if istar > b:
            continue
        share = p[istar] / denom
        if istar < b:
            q[istar] = share
        else:
            loss += share
    return DispatchField(tuple(parts), float(loss))


def jsqd_bracket(parts, d: int):
    """Mass m[i] at each queue length over all types, and the chance
    z[i]**d - z[i+1]**d that the best of d draws sits at length i, with z the
    tail masses. ``parts`` are non-negative per-type occupancies."""
    max_b = max(len(p) - 1 for p in parts)
    m = np.zeros(max_b + 1)
    for p in parts:
        m[: len(p)] += p
    z = np.zeros(max_b + 2)
    z[: max_b + 1] = m[::-1].cumsum()[::-1]
    return m, z[: max_b + 1] ** d - z[1:] ** d


def f_jsqd_limit(x: Occupancy, d: int) -> DispatchField:
    """Large-cluster limit of uniformly sampling d queues and joining the shortest.

    The chance of landing at level i is the chance that the best of d
    independent draws sits there, expressed through tail masses; within a
    level the type is picked proportionally to its mass.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        return f_random(x)
    xs = _clipped(x)
    m, bracket = jsqd_bracket(xs, d)
    parts, loss = _zero_parts(xs), 0.0
    for q, p in zip(parts, xs):
        b = len(p) - 1
        for i in range(b + 1):
            if m[i] <= 0.0:
                continue
            val = p[i] / m[i] * bracket[i]
            if i < b:
                q[i] = val
            else:
                loss += val
    return DispatchField(tuple(parts), float(loss))


def f_jbt(x: Occupancy, thresholds) -> DispatchField:
    """Uniform over servers below their type threshold; random when none qualify."""
    xs = _clipped(x)
    y = sum(p[: mk].sum() for p, mk in zip(xs, thresholds))
    if y <= ZERO_MASS:
        return f_random(x)
    parts = _zero_parts(xs)
    for q, p, mk in zip(parts, xs, thresholds):
        q[:mk] = p[:mk] / y
    return DispatchField(tuple(parts), 0.0)


def f_partial(inner: DispatchField, x: Occupancy, p: float) -> DispatchField:
    """Mix a policy with random routing: weight p on the policy, 1-p random."""
    if not (0 < p <= 1):
        raise ValueError(f"control must be in (0, 1], got {p}")
    if p == 1.0:
        return inner
    rnd = f_random(x)
    parts = tuple(p * a + (1 - p) * b for a, b in zip(inner.parts, rnd.parts))
    return DispatchField(parts, p * inner.loss + (1 - p) * rnd.loss)


def field(x: Occupancy, spec: ClusterSpec, policy: Policy) -> DispatchField:
    """Dispatch field of ``policy`` on state ``x``."""
    kind = policy.kind
    if kind == "random":
        inner = f_random(x)
    elif kind == "jiq":
        inner = f_jiq(x)
    elif kind == "jsq":
        inner = f_jsq(x)
    elif kind == "jsqd":
        inner = f_jsqd_limit(x, policy.d)
    elif kind == "jbt":
        inner = f_jbt(x, [t.mpl for t in spec.types])
    else:
        raise ValueError(f"unknown policy kind {kind!r}")
    return f_partial(inner, x, policy.control)


def sample_target(lengths, types, spec: ClusterSpec, policy: Policy, rng):
    """Pick the server an arrival joins in a finite cluster, or None if lost.

    ``lengths`` and ``types`` give each server's queue length and type index.
    Ties are broken uniformly; JSQ(d) samples d distinct servers (clamped to
    the cluster size). This is the reference rule; the simulator reimplements
    it on aggregated state for speed.
    """
    lengths = np.asarray(lengths)
    types = np.asarray(types)
    n = len(lengths)
    buffers = spec.buffers

    def full(j):
        return lengths[j] >= buffers[types[j]]

    def uniform_all():
        j = int(rng.integers(n))
        return None if full(j) else j

    kind = policy.kind
    if policy.control < 1.0 and rng.random() >= policy.control:
        kind = "random"

    if kind == "random":
        return uniform_all()
    if kind == "jiq":
        idle = np.flatnonzero(lengths == 0)
        if len(idle):
            return int(rng.choice(idle))
        return uniform_all()
    if kind == "jsq":
        m = lengths.min()
        cand = np.flatnonzero(lengths == m)
        j = int(rng.choice(cand))
        return None if full(j) else j
    if kind == "jsqd":
        d = min(policy.d, n)
        picked = rng.choice(n, size=d, replace=False)
        m = lengths[picked].min()
        cand = picked[lengths[picked] == m]
        j = int(rng.choice(cand))
        return None if full(j) else j
    if kind == "jbt":
        mpls = np.array([t.mpl for t in spec.types])
        avail = np.flatnonzero(lengths < mpls[types])
        if len(avail):
            return int(rng.choice(avail))
        return uniform_all()
    raise ValueError(f"unknown policy kind {kind!r}")
