"""Dispatch probabilities for each load-balancing policy.

Each policy's field gives, for the deterministic limit, the probability
that an arrival joins a queue of each type and length, as a padded
type-by-length array laid out like the ``Occupancy`` it is computed from.
Mass a policy would send to full queues is reported on a separate loss
channel, so field entries at a type's buffer level are always zero. The
finite-cluster simulator picks targets by the same rules on server counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ClusterSpec, Occupancy, Policy, unpad

# Occupancy entries below this are treated as empty levels; ODE states carry
# roundoff that would otherwise flip the discontinuous policies.
ZERO_MASS = 1e-12


@dataclass
class DispatchField:
    """Probability ``array[k, i]`` that an arrival joins a type-k queue of
    length i, zero past each type's buffer, plus the loss probability."""

    array: np.ndarray
    loss: float
    buffers: np.ndarray

    @property
    def parts(self) -> tuple:
        return unpad(self.array, self.buffers)


def _lose_full(f, buffers) -> DispatchField:
    """Field f with each type's entry at its buffer moved to the loss channel."""
    full = np.arange(0, f.size, f.shape[1]) + buffers  # flat index of (k, B_k)
    flat = f.reshape(-1)
    loss = float(flat[full].sum())
    flat[full] = 0.0
    return DispatchField(f, loss, buffers)


def f_random(x: Occupancy) -> DispatchField:
    """Uniform assignment: the field is the occupancy itself, full queues lose."""
    return _lose_full(np.maximum(x.array, 0.0), x.buffers)


def f_jiq(x: Occupancy) -> DispatchField:
    """All arrivals to idle servers; falls back to random when none are idle."""
    idle = np.maximum(x.array[:, 0], 0.0)
    y0 = idle.sum()
    if y0 <= ZERO_MASS:
        return f_random(x)
    f = np.zeros(x.array.shape)
    f[:, 0] = idle / y0
    return DispatchField(f, 0.0, x.buffers)


def f_jsq(x: Occupancy) -> DispatchField:
    """All arrivals to the minimal occupied queue length, split by type mass."""
    q = np.maximum(x.array, 0.0)
    m = q.sum(axis=0)
    occupied = m > ZERO_MASS
    istar = occupied.argmax()
    f = np.zeros(q.shape)
    if not occupied[istar]:
        return DispatchField(f, float(q.sum()), x.buffers)
    f[:, istar] = q[:, istar] / m[istar]
    return _lose_full(f, x.buffers)


def f_jsqd_limit(x: Occupancy, d: int) -> DispatchField:
    """Large-cluster limit of uniformly sampling d queues and joining the shortest.

    The chance of landing at level i is the chance z[i]**d - z[i+1]**d that
    the best of d independent draws sits there, with z the tail masses over
    all types; within a level the type is picked proportionally to its mass.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        return f_random(x)
    q = np.maximum(x.array, 0.0)
    m = q.sum(axis=0)
    z = np.zeros(len(m) + 1)
    z[:-1] = m[::-1].cumsum()[::-1]
    return _lose_full(np.divide(q, m, out=np.zeros(q.shape), where=m > 0.0)
                      * (z[:-1] ** d - z[1:] ** d), x.buffers)


def f_jbt(x: Occupancy, thresholds) -> DispatchField:
    """Uniform over servers below their type threshold; random when none qualify."""
    q = np.maximum(x.array, 0.0)
    thresholds = np.asarray(thresholds)
    # cumsum adds each type's levels left to right, as a per-type sum does
    y = np.cumsum(q, axis=1)[np.arange(len(q)), thresholds - 1].sum()
    if y <= ZERO_MASS:
        return f_random(x)
    below = np.arange(q.shape[1]) < thresholds[:, None]
    return DispatchField(np.where(below, q / y, 0.0), 0.0, x.buffers)


def f_partial(inner: DispatchField, x: Occupancy, p: float) -> DispatchField:
    """Mix a policy with random routing: weight p on the policy, 1-p random."""
    if not (0 < p <= 1):
        raise ValueError(f"control must be in (0, 1], got {p}")
    if p == 1.0:
        return inner
    rnd = f_random(x)
    return DispatchField(p * inner.array + (1 - p) * rnd.array,
                         p * inner.loss + (1 - p) * rnd.loss, x.buffers)


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
