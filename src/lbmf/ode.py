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
"""

from __future__ import annotations

import math

import numpy as np

from . import dispatch
from .model import ClusterSpec, ConvergenceError, Occupancy, Policy, Trajectory

DUST = 1e-13


def _deriv(spec, parts, f):
    out = []
    for t, p, fp in zip(spec.types, parts, f.parts):
        mu = np.asarray(t.curve.rates)
        flow_in = spec.lam * np.concatenate(([0.0], fp[:-1]))
        flow_out = spec.lam * fp
        srv_in = np.concatenate((mu[1:] * p[1:], [0.0]))
        srv_out = mu * p
        out.append(flow_in - flow_out + srv_in - srv_out)
    return out


def rhs(v: Occupancy, spec: ClusterSpec, policy: Policy):
    """Time derivative of the occupancy; per-type sums are conserved."""
    return _deriv(spec, v.parts, dispatch.field(v, spec, policy))


def _support(f):
    return tuple((fp > 1e-12).tobytes() for fp in f.parts)


def _settle(parts):
    """Clear sub-dust residue (including roundoff negatives) into each
    type's largest entry, keeping type masses exact."""
    for p in parts:
        tiny = (p < DUST) & (p != 0.0)
        if tiny.any():
            p[p.argmax()] += p[tiny].sum()
            p[tiny] = 0.0
    return parts


def _clamp(parts):
    """Zero negative overshoot, paying for it out of the largest entry."""
    for p in parts:
        neg = p < 0.0
        if neg.any():
            deficit = p[neg].sum()
            p[neg] = 0.0
            p[p.argmax()] += deficit
    return parts


def _advance(parts, spec, policy, dt):
    """Move the state forward by dt with boundary-exact sub-steps."""
    remaining = dt
    for _ in range(64):
        parts = _settle(parts)
        f1 = dispatch.field(Occupancy(parts), spec, policy)
        k1 = _deriv(spec, parts, f1)
        h = remaining
        for p, k in zip(parts, k1):
            falling = k < -1e-300
            if falling.any():
                h = min(h, float(np.min(p[falling] / -k[falling])))
        if h <= 0.0:
            h = remaining  # only zero entries fall; clamp below handles them
        mid = [p + 0.5 * h * k for p, k in zip(parts, k1)]
        f2 = dispatch.field(Occupancy(mid), spec, policy)
        k = _deriv(spec, mid, f2) if _support(f1) == _support(f2) else k1
        parts = _clamp([p + h * k for p, k in zip(parts, k)])
        remaining -= h
        if remaining <= 1e-12 * dt:
            return _settle(parts)
    return _settle(parts)


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
    traj = [np.empty((n_samples, t.buffer + 1)) for t in spec.types]

    parts = [p.copy() for p in v0.parts]
    for row, p in zip(traj, parts):
        row[0] = p
    for s in range(1, n_samples):
        for _ in range(per_sample):
            parts = _advance(parts, spec, policy, dt)
        if not all(np.isfinite(p).all() for p in parts):
            raise ConvergenceError(f"non-finite state at t={times[s]:g}")
        for row, p in zip(traj, parts):
            row[s] = p
    return Trajectory(times=times, parts=tuple(traj))


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
    parts = [p.copy() for p in v0.parts]
    t = 0.0
    residual = math.inf
    while t < t_max:
        for _ in range(steps):
            parts = _advance(parts, spec, policy, dt)
        t += check_interval
        state = Occupancy(parts)
        if not all(np.isfinite(p).all() for p in parts):
            raise ConvergenceError(f"non-finite state at t={t:g}")
        residual = max(float(np.max(np.abs(d))) for d in rhs(state, spec, policy))
        if residual < tol:
            return state
    raise ConvergenceError(
        f"no stationary point within t_max={t_max:g} (residual {residual:.3e})",
        residual=residual, state=Occupancy(parts),
    )
