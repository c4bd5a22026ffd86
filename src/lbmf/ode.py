"""Transient integration of the deterministic cluster limit.

The right-hand side combines policy dispatch with queue-length service flow.
Dispatch fields jump where a policy's preferred level empties, which makes
the boundary of the occupancy simplex the hard part:

* steps are cut exactly where an entry would cross zero, and the field is
  re-evaluated from the boundary, so the resulting on/off switching carries
  the correct time-averaged (sliding) dynamics;
* each step is a midpoint rule, demoted to its first-order stage whenever
  the two stage fields disagree about which levels receive arrivals - a
  full midpoint step across such a jump can cancel its own boundary flux
  and freeze the trajectory.

Fields are evaluated verbatim on the current state (no sliding-mode
construction); near a discontinuous attractor the trajectory hovers within
O(dt) of it, and the pointwise derivative does not vanish there.

The state is the occupancy's padded (K, B_max + 1) type-by-length array, so
each step works on all types at once. Rates and fields are zero past each
type's buffer, so those entries have zero derivative and stay exactly zero.
Trajectories are handed back per type.
"""

from __future__ import annotations

import math

import numpy as np

from . import dispatch
from .model import (ClusterSpec, ConvergenceError, Occupancy, Policy, Trajectory,
                    unpad)

DUST = 1e-13


def _deriv(spec, x, f):
    flow_out = spec.lam * f
    flow_in = np.zeros(x.shape)
    flow_in[:, 1:] = flow_out[:, :-1]
    srv_out = spec.rates * x
    srv_in = np.zeros(x.shape)
    srv_in[:, :-1] = srv_out[:, 1:]
    return flow_in - flow_out + srv_in - srv_out


def rhs(v: Occupancy, spec: ClusterSpec, policy: Policy):
    """Time derivative of the occupancy, as a padded array like
    ``v.array``; each type's row sums to zero."""
    return _deriv(spec, v.array, dispatch.field(v, spec, policy).array)


def _support(f):
    return (f.array > 1e-12).tobytes()


def _row_sums(a):
    """Each row's sum, added strictly left to right. numpy adds up to seven
    entries the same way, so this matches summing each type's few residues
    on their own; ``a.sum(axis=1)`` would regroup a padded row."""
    return np.cumsum(a, axis=1)[:, -1]


def _settle(x):
    """Clear sub-dust residue (including roundoff negatives) into each
    type's largest entry, keeping type masses exact."""
    tiny = (x < DUST) & (x != 0.0)
    if tiny.any():
        x[np.arange(len(x)), x.argmax(axis=1)] += _row_sums(np.where(tiny, x, 0.0))
        x[tiny] = 0.0
    return x


def _clamp(x):
    """Zero negative overshoot, paying for it out of the largest entry."""
    neg = x < 0.0
    if neg.any():
        deficit = _row_sums(np.where(neg, x, 0.0))
        x[neg] = 0.0
        x[np.arange(len(x)), x.argmax(axis=1)] += deficit
    return x


def _advance(x, buffers, spec, policy, dt):
    """Move the padded state x forward by dt with boundary-exact sub-steps."""
    remaining = dt
    for _ in range(64):
        x = _settle(x)
        f1 = dispatch.field(Occupancy.from_array(x, buffers), spec, policy)
        k1 = _deriv(spec, x, f1.array)
        h = remaining
        falling = k1 < -1e-300
        if falling.any():
            h = min(h, float(np.min(x[falling] / -k1[falling])))
        if h <= 0.0:
            h = remaining  # only zero entries fall; clamp below handles them
        mid = x + 0.5 * h * k1
        f2 = dispatch.field(Occupancy.from_array(mid, buffers), spec, policy)
        k = _deriv(spec, mid, f2.array) if _support(f1) == _support(f2) else k1
        x = _clamp(x + h * k)
        remaining -= h
        if remaining <= 1e-12 * dt:
            return _settle(x)
    return _settle(x)


def integrate(v0: Occupancy, spec: ClusterSpec, policy: Policy, horizon: float,
              dt: float = 1e-3, sample_interval: float = 0.1) -> Trajectory:
    """Trajectory from v0, sampled every ``sample_interval``.

    ``dt`` is snapped so an integer number of steps fits each sample.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    per_sample = max(1, round(sample_interval / dt))
    dt = sample_interval / per_sample
    n_samples = int(horizon / sample_interval + 1e-9) + 1
    times = np.arange(n_samples) * sample_interval
    x = v0.array.copy()
    traj = np.empty((n_samples,) + x.shape)
    traj[0] = x
    for s in range(1, n_samples):
        for _ in range(per_sample):
            x = _advance(x, v0.buffers, spec, policy, dt)
        if not np.isfinite(x).all():
            raise ConvergenceError(f"non-finite state at t={times[s]:g}")
        traj[s] = x
    return Trajectory(times=times, parts=unpad(traj.swapaxes(0, 1), v0.buffers))


def solve_to_stationarity(v0: Occupancy, spec: ClusterSpec, policy: Policy,
                          tol: float = 1e-9, t_max: float = 1e4,
                          dt: float = 1e-2, check_interval: float = 1.0) -> Occupancy:
    """Integrate until the derivative is below tol in sup norm.

    Raises ConvergenceError past ``t_max``, carrying the last state and
    residual. Policies whose dispatch field jumps at the attractor never
    settle pointwise and are expected to fail here; their stationary points
    come from the regime-specific balance solvers instead.
    """
    steps = max(1, round(check_interval / dt))
    dt = check_interval / steps
    x = v0.array.copy()
    t = 0.0
    residual = math.inf
    while t < t_max:
        for _ in range(steps):
            x = _advance(x, v0.buffers, spec, policy, dt)
        t += check_interval
        if not np.isfinite(x).all():
            raise ConvergenceError(f"non-finite state at t={t:g}")
        state = Occupancy.from_array(x, v0.buffers)
        residual = float(np.max(np.abs(rhs(state, spec, policy))))
        if residual < tol:
            return state
    raise ConvergenceError(
        f"no stationary point within t_max={t_max:g} (residual {residual:.3e})",
        residual=residual, state=Occupancy.from_array(x, v0.buffers),
    )
