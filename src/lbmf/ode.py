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
  and freeze the trajectory;
* one boundary sweep clears negative overshoot, then residue below DUST,
  into each type's largest entry, keeping type masses exact, in rows
  holding either: once on ``v0``, then after each sub-step.

Fields are evaluated verbatim on the current state (no sliding-mode
construction); near a discontinuous attractor the trajectory hovers within
O(dt) of it, and the pointwise derivative does not vanish there.
``solve_to_stationarity`` runs ``integrate`` one check interval at a time
until that derivative falls below its tolerance.

The state is the occupancy's padded type-by-length rows, one list of
Python floats per type (``Occupancy.array.tolist()``), and the dispatch
fields read those rows as they are. Each step loops over those few dozen
entries directly, since numpy's per-call overhead would outweigh the
arithmetic. Every sum and product runs in a fixed order, which the
trajectory digests in the tests pin to the bit. Rates and fields are zero
past each type's buffer, so those entries have zero derivative and stay
exactly zero. Trajectories are handed back per type.
"""

from __future__ import annotations

import math

import numpy as np

from . import dispatch
from .model import (ClusterSpec, ConvergenceError, Occupancy, Policy, Trajectory,
                    ValidationError, layout_violations, policy_violations, run_violations, unpad)

DUST = 1e-13


def _deriv(rates, lam, x, f):
    """Derivative rows of state rows x under field rows f and rate rows paired
    as (r, r[1:] + [0.0]): arrivals move mass one level up, service one down."""
    out = []
    for (r, r_up), xr, fr in zip(rates, x, f):
        out.append([lam * f_in - lam * f_out + r_in * x_in - r_out * x_out
                    for f_in, f_out, r_in, x_in, r_out, x_out
                    in zip([0.0] + fr, fr, r_up, xr[1:] + [0.0], r, xr)])
    return out


def rhs(v: Occupancy, spec: ClusterSpec, policy: Policy):
    """Time derivative of the occupancy, as a padded array like ``v.array``;
    each type's row sums to zero. Refuses a policy or ``v`` as ``integrate`` does."""
    ValidationError.check(policy_violations(spec, policy) + layout_violations(spec, v))
    x = v.array.tolist()
    rates = [(r, r[1:] + [0.0]) for r in spec.rates.tolist()]
    f = dispatch.field(x, spec, policy)
    return np.array(_deriv(rates, spec.lam, x, f.rows))


def _same_support(f1, f2):
    """Whether f1 and f2 exceed ZERO_MASS at the same entries, read to the first difference."""
    zero = dispatch.ZERO_MASS
    for r1, r2 in zip(f1.rows, f2.rows):
        for a, b in zip(r1, r2):
            if (a > zero) != (b > zero):
                return False
    return True


def _clear(row, lo):
    """Clear the row's nonzero entries below lo, in place, into its largest
    entry as it stood, summed left to right from 0.0; a row with none keeps its bits."""
    top = row.index(max(row))
    s = 0.0
    for i, w in enumerate(row):
        if w < lo and w != 0.0:
            s += w
            row[i] = 0.0
    if s:
        row[top] += s


def _sweep_dust(x):
    """Clear negatives, then residue below DUST, in rows with a nonzero entry below DUST."""
    for row in x:
        for v in row:
            if v < DUST and v != 0.0:
                if min(row) < 0.0:
                    _clear(row, 0.0)
                _clear(row, DUST)
                break
    return x


def _advance(x, rates, spec, policy, dt):
    """Move rows x, swept below DUST, by dt in boundary-exact sub-steps that keep them so."""
    lam = spec.lam
    remaining = dt
    for _ in range(64):
        f1 = dispatch.field(x, spec, policy)
        k1 = _deriv(rates, lam, x, f1.rows)
        h = remaining
        cuts = [v / -g for xr, kr in zip(x, k1) for v, g in zip(xr, kr) if g < -1e-300]
        if cuts:
            h = min(h, min(cuts))
        if h <= 0.0:
            h = remaining  # only zero entries fall; the sweeps below clear them
        half = 0.5 * h
        mid = [[v + half * g for v, g in zip(xr, kr)] for xr, kr in zip(x, k1)]
        f2 = dispatch.field(mid, spec, policy)
        k = _deriv(rates, lam, mid, f2.rows) if _same_support(f1, f2) else k1
        x = _sweep_dust([[v + h * g for v, g in zip(xr, kr)] for xr, kr in zip(x, k)])
        remaining -= h
        if remaining <= 1e-12 * dt:
            break
    return x


def integrate(v0: Occupancy, spec: ClusterSpec, policy: Policy, horizon: float,
              dt: float = 1e-3, sample_interval: float = 0.1) -> Trajectory:
    """Trajectory from v0, sampled every ``sample_interval``.

    ``dt`` is snapped so an integer number of steps fits each sample. A
    policy that ``model.policy_violations`` refuses, a horizon, ``dt`` or
    ``sample_interval`` that ``model.run_violations`` refuses, or a ``v0``
    that ``model.layout_violations`` refuses raises ValidationError.
    """
    ValidationError.check(policy_violations(spec, policy) + layout_violations(spec, v0)
                          + run_violations(horizon=horizon, dt=dt, sample_interval=sample_interval))
    per_sample = max(1, round(sample_interval / dt))
    dt = sample_interval / per_sample
    n_samples = int(horizon / sample_interval + 1e-9) + 1
    times = np.arange(n_samples) * sample_interval
    x = _sweep_dust(v0.array.tolist())
    rates = [(r, r[1:] + [0.0]) for r in spec.rates.tolist()]
    traj = np.empty((n_samples,) + v0.array.shape)
    traj[0] = v0.array
    for s in range(1, n_samples):
        for _ in range(per_sample):
            x = _advance(x, rates, spec, policy, dt)
        traj[s] = x
        if not np.isfinite(traj[s]).all():
            raise ConvergenceError(f"non-finite state at t={times[s]:g}")
    return Trajectory(times=times, parts=unpad(traj.swapaxes(0, 1), v0.buffers))


def solve_to_stationarity(v0: Occupancy, spec: ClusterSpec, policy: Policy,
                          tol: float = 1e-9, t_max: float = 1e4,
                          dt: float = 1e-2, check_interval: float = 1.0) -> Occupancy:
    """Integrate one ``check_interval`` at a time until the derivative is
    below tol in sup norm. A policy or ``v0`` that ``integrate`` refuses, or a
    refused ``t_max``, ``dt`` or ``check_interval``, raises ValidationError;
    passing ``t_max`` raises ConvergenceError carrying the last state and residual."""
    ValidationError.check(run_violations(t_max=t_max, dt=dt, check_interval=check_interval))
    state, t, residual = v0, 0.0, math.inf
    while t < t_max:
        traj = integrate(state, spec, policy, check_interval, dt, check_interval)
        state = Occupancy([part[-1] for part in traj.parts])
        t += check_interval
        residual = float(np.max(np.abs(rhs(state, spec, policy))))
        if residual < tol:
            return state
    raise ConvergenceError(
        f"no stationary point within t_max={t_max:g} (residual {residual:.3e})",
        residual=residual, state=state)
