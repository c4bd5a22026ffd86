"""Dispatch probabilities for each load-balancing policy.

Each policy's field gives, for the deterministic limit, the probability
that an arrival joins a queue of each type and length. A field takes the
state as padded type-by-length rows of Python floats
(``Occupancy.array.tolist()``, the form the ODE step keeps) plus each
type's buffer, and returns rows laid out the same way. Mass a policy would
send to full queues is reported on a separate loss channel, so field
entries at a type's buffer level are always zero. The finite-cluster
simulator picks targets by the same rules on server counts.

The ODE calls a field twice per sub-step, at most 64 sub-steps per step
(about 12 calls per step for jsq and jiq on the heterogeneous cluster at
horizon 3, 2 for smooth fields), on a few dozen entries, so the fields
loop over floats rather than pay numpy's per-call overhead.
Their rounding is fixed, so that recorded trajectories and CLI outputs
keep their bits: sums over types run left to right from 0.0, as numpy adds
fewer than eight entries, and the JSQ(d) tail powers are one numpy call,
since numpy's ``power`` and Python's ``**`` round differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ClusterSpec, Policy, unpad

# Occupancy entries below this are treated as empty levels; ODE states carry
# roundoff that would otherwise flip the discontinuous policies.
ZERO_MASS = 1e-12


@dataclass
class DispatchField:
    """Probability ``rows[k][i]`` that an arrival joins a type-k queue of
    length i, zero past each type's buffer, plus the loss probability."""

    rows: list
    loss: float
    buffers: np.ndarray

    @property
    def parts(self) -> tuple:
        return unpad(np.array(self.rows), self.buffers)


def _clip(rows):
    """Rows with negative roundoff raised to zero, as ``np.maximum(x, 0.0)``."""
    return [[v if v > 0.0 else 0.0 for v in row] for row in rows]


def _level_mass(q):
    """Mass at each queue length, summed over types in order."""
    m = [0.0] * len(q[0])
    for row in q:
        m = [a + b for a, b in zip(m, row)]
    return m


def _lose_full(f, buffers) -> DispatchField:
    """Field rows f with each type's entry at its buffer moved to the loss channel."""
    loss = 0.0
    for row, b in zip(f, buffers):
        loss += row[b]
        row[b] = 0.0
    return DispatchField(f, loss, buffers)


def f_random(x: list, buffers) -> DispatchField:
    """Uniform assignment: the field is the occupancy itself, full queues lose."""
    return _lose_full(_clip(x), buffers)


def f_jiq(x: list, buffers) -> DispatchField:
    """All arrivals to idle servers; falls back to random when none are idle."""
    idle = [row[0] if row[0] > 0.0 else 0.0 for row in x]
    y0 = 0.0
    for v in idle:
        y0 += v
    if y0 <= ZERO_MASS:
        return f_random(x, buffers)
    pad = [0.0] * (len(x[0]) - 1)
    return DispatchField([[v / y0] + pad for v in idle], 0.0, buffers)


def f_jsq(x: list, buffers) -> DispatchField:
    """All arrivals to the minimal occupied queue length, split by type mass.

    One pass from length 0 up: each level's positive entries are summed over
    types (adding the others' clipped 0.0 would change no bit) until a level
    holds more than ``ZERO_MASS``, and only that column is filled; a type
    whose buffer is that level sends its share to loss.
    """
    for i in range(len(x[0])):
        mass = 0.0
        for row in x:
            if row[i] > 0.0:
                mass += row[i]
        if mass > ZERO_MASS:
            break
    f = [[0.0] * len(x[0]) for _ in x]
    if mass <= ZERO_MASS:
        # only a direct call on rows of total mass at most (B + 1) * ZERO_MASS gets
        # here, never an integrator state (mass 1); all is lost, as numpy's pairwise sum
        return DispatchField(f, float(np.sum(_clip(x))), buffers)
    loss = 0.0
    for row, xr, b in zip(f, x, buffers):
        v = xr[i] if xr[i] > 0.0 else 0.0
        if b == i:
            loss += v / mass
        else:
            row[i] = v / mass
    return DispatchField(f, loss, buffers)


def f_jsqd_limit(x: list, buffers, d: int) -> DispatchField:
    """Large-cluster limit of uniformly sampling d queues and joining the shortest.

    The chance of landing at level i is the chance z[i]**d - z[i+1]**d that
    the best of d independent draws sits there, with z the tail masses over
    all types; within a level the type is picked proportionally to its mass.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        return f_random(x, buffers)
    q = _clip(x)
    m = _level_mass(q)
    z = [0.0] * (len(m) + 1)
    for i in range(len(m) - 1, -1, -1):
        z[i] = z[i + 1] + m[i]
    zd = [v * v for v in z] if d == 2 else (np.array(z) ** d).tolist()
    best = [a - b for a, b in zip(zd, zd[1:])]
    return _lose_full([[(v / mass if mass > 0.0 else 0.0) * p
                        for v, mass, p in zip(row, m, best)] for row in q], buffers)


def f_jbt(x: list, buffers, thresholds) -> DispatchField:
    """Uniform over servers below their type threshold; random when none qualify."""
    q = _clip(x)
    y = 0.0
    for row, t in zip(q, thresholds):
        below = row[0]
        for v in row[1:t]:
            below += v
        y += below
    if y <= ZERO_MASS:
        return f_random(x, buffers)
    return DispatchField([[v / y if i < t else 0.0 for i, v in enumerate(row)]
                          for row, t in zip(q, thresholds)], 0.0, buffers)


def f_partial(inner: DispatchField, x: list, p: float) -> DispatchField:
    """Mix a policy with random routing: weight p on the policy, 1-p random."""
    if not (0 < p <= 1):
        raise ValueError(f"control must be in (0, 1], got {p}")
    if p == 1.0:
        return inner
    rnd = f_random(x, inner.buffers)
    c = 1 - p
    return DispatchField([[p * a + c * b for a, b in zip(ra, rb)]
                          for ra, rb in zip(inner.rows, rnd.rows)],
                         p * inner.loss + c * rnd.loss, inner.buffers)


def field(x: list, spec: ClusterSpec, policy: Policy) -> DispatchField:
    """Dispatch field of ``policy`` on the padded state rows ``x`` of ``spec``."""
    kind, buffers = policy.kind, spec.buffers
    if kind == "random":
        inner = f_random(x, buffers)
    elif kind == "jiq":
        inner = f_jiq(x, buffers)
    elif kind == "jsq":
        inner = f_jsq(x, buffers)
    elif kind == "jsqd":
        inner = f_jsqd_limit(x, buffers, policy.d)
    elif kind == "jbt":
        inner = f_jbt(x, buffers, [t.mpl for t in spec.types])
    else:
        raise ValueError(f"unknown policy kind {kind!r}")
    return f_partial(inner, x, policy.control)
