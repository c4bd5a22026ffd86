"""Stationary occupancy of the deterministic limit, per policy.

Every stationary state is a set of per-type birth-death chains: a type-k
queue of length j receives jobs at rate ``arrivals[k, j]``, and a completion
at the ``floor`` length is refilled at once. ``_chains`` builds the
distribution and ``_report`` the loss and effective arrival rates, so each
solver only finds its rates. Random assignment sends lam everywhere. JIQ,
JSQ and JBT each reduce to one monotone scalar balance, solved by
``_bisect``. Below a covering capacity, JSQ sends w to its floor i0 - 1 and
holds its mass there and at i0 (``_two_level``); subcritical JIQ is that
state at i0 = 1. At a covering capacity nothing arrives and all mass sits
at the floor i0 (``_critical``). Supercritical JIQ balances its refill rate
``z0`` at its floor 1 against the residual rate lam - z0 above it, and JBT
the mass y below the thresholds, which receive lam / y. JSQ(d) balances the
arrival rate per server at each length, which all types share: bisection on
the idle mass of one pooled type with the capacity curve, whose shoot stops
once its chain runs out, then Newton stages of a homotopy from the pooled
rates to each type's own. ``solve`` refuses what ``model.validate``
refuses; a solver called on its own refuses a type that does not serve
(``model.serving_violations``) and its own limits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dispatch
from .model import (ClusterSpec, ConvergenceError, Occupancy, Policy,
                    ValidationError, left_sum, mpl_violations,
                    serving_violations, validate)

CRITICAL_BAND = 1e-10
# JSQ(d) homotopy stages: Newton converges at |T(alpha) - alpha| <= NEWTON_TOL
# lam d and fails after NEWTON_ITER iterations or HALVINGS tries of a step;
# a stage that took at most QUICK_ITER doubles, one that failed halves.
# Over 3270 random-spec and sweep solves, no step of a stage that converged
# needed more than 8 tries, while a stage that fails shaves little off its
# residual per halving: a longer search only delays its failure.
NEWTON_TOL, NEWTON_ITER, HALVINGS, QUICK_ITER = 1e-14, 20, 8, 3
STAGE_FLOOR = 1e-6


@dataclass
class StationaryReport:
    """Distribution, regime tag, loss probability and per-type effective
    arrival rates of a stationary state, with the arrival rates
    ``arrivals[k, j]`` (laid out like ``nu``, lost at each buffer) and the
    refilled ``floor`` length of the chains it was built from."""

    nu: Occupancy
    regime: str
    loss_prob: float
    lambda_eff: tuple
    arrivals: np.ndarray
    floor: int
    z0: float = 0.0
    i0: int | None = None
    y0: float | None = None

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "nu": [list(p) for p in self.nu.parts],
            "z0": self.z0,
            "i0": self.i0,
            "y0": self.y0,
            "loss_prob": self.loss_prob,
            "lambda_eff": list(self.lambda_eff),
        }


def _bisect(f, lo, hi):
    """Root of f in (lo, hi), where f changes sign once, from negative to
    positive; f is evaluated at midpoints only. Halves the bracket until its
    midpoint rounds to one of its ends."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _inside(spec):
    """Mask of each type's lengths 0..B_k in the padded type-by-length layout."""
    return np.arange(max(spec.buffers) + 1) <= np.array(spec.buffers)[:, None]


def _chains(spec, arrivals, floor) -> np.ndarray:
    """Per-type chains above ``floor``, padded like ``arrivals``: nu_k[j] is
    proportional to the product of arrivals[k, l] / mu_k(l + 1) over
    floor <= l < j, for floor <= j <= B_k, with mass gamma_k. Python floats,
    since bisections call this some 55 times per solve."""
    rows = []
    for t, a in zip(spec.types, arrivals.tolist()):
        mu, u = t.curve.rates, [1.0]
        for j in range(floor, t.buffer):
            u.append(u[-1] * a[j] / mu[j + 1])
        total = left_sum(u)
        rows.append([0.0] * floor + [t.gamma * x / total for x in u]
                    + [0.0] * (len(a) - 1 - t.buffer))
    return np.array(rows)


def _report(spec, regime, arrivals, floor, **extra) -> StationaryReport:
    """Report of the chains that ``arrivals`` drive above ``floor``. Type k
    admits the arrivals below its buffer and the refills at the floor; the
    arrivals at its buffer are lost."""
    nu = _chains(spec, arrivals, floor)
    k, buffers = np.arange(spec.k), np.array(spec.buffers)
    flow = arrivals * nu
    lost = flow[k, buffers]
    flow[k, buffers] = 0.0
    admitted = flow.sum(axis=1) + spec.rates[:, floor] * nu[:, floor]
    return StationaryReport(Occupancy.from_array(nu, buffers), regime,
                            float(lost.sum()) / spec.lam,
                            tuple((admitted / spec.gammas()).tolist()), arrivals, floor, **extra)


def solve(spec: ClusterSpec, policy: Policy) -> StationaryReport:
    """Route to the policy's solver."""
    ValidationError.check(validate(spec, policy))
    if policy.control < 1.0:
        raise ValidationError(["stationary solvers cover fully controlled policies only "
                               "(p = 1); use the transient integrator for partial control"])
    if policy.kind == "random":
        return solve_random(spec)
    if policy.kind == "jiq":
        return solve_jiq(spec)
    if policy.kind == "jsq":
        return solve_jsq(spec)
    if policy.kind == "jsqd":
        return solve_jsqd(spec, policy.d)
    return solve_jbt(spec)  # validate admits no other kind


def solve_random(spec: ClusterSpec) -> StationaryReport:
    """Closed form: each type is an independent birth-death chain."""
    ValidationError.check(serving_violations(spec))
    return _report(spec, "random", spec.lam * _inside(spec), 0)


def solve_jiq(spec: ClusterSpec) -> StationaryReport:
    """JIQ splits into three regimes against the idle-capacity rate."""
    ValidationError.check(serving_violations(spec))
    crit = spec.capacity(1)
    if spec.lam < crit - CRITICAL_BAND:
        return replace(_two_level(spec, 1, "jiq-subcritical"), i0=None)
    if spec.lam <= crit + CRITICAL_BAND:
        return replace(_critical(spec, 1, "jiq-critical"), i0=None)
    return _solve_jiq_supercritical(spec)


def _two_level(spec, i0: int, regime) -> StationaryReport:
    """Mass on lengths {i0-1, i0}: servers at i0 - 1, the floor, receive
    arrivals at rate w each.

    Type k then keeps p_k = gamma_k mu_k(i0) / (w + mu_k(i0)) at the lower
    level, and the throughput sum(p_k (w + mu_k(i0-1))) rises in w from the
    capacity at i0 - 1 to the one at i0; w solves throughput = lam, by
    bisection on Python floats. Also serves subcritical JIQ and JSQ (i0 = 1,
    where mu(0) = 0).
    """
    lam = spec.lam
    gammas = spec.gammas()
    mu_lo, mu_hi = spec.rates[:, i0 - 1], spec.rates[:, i0]
    per_type = list(zip(gammas.tolist(), mu_lo.tolist(), mu_hi.tolist()))

    def excess(w):
        # (p * (w + mu_lo)).sum() with p as below, on floats, in the same order:
        # numpy adds fewer than eight entries, one per type, left to right from 0.0
        return left_sum(g * hi / (w + hi) * (w + lo) for g, lo, hi in per_type) - lam

    # throughput >= cap(i0) - sum(gamma mu_hi (mu_hi - mu_lo)) / w bounds the root
    w_max = float((gammas * mu_hi * (mu_hi - mu_lo)).sum()) / (spec.capacity(i0) - lam)
    w = _bisect(excess, 0.0, w_max)
    p = gammas * mu_hi / (w + mu_hi)
    arrivals = np.zeros(spec.rates.shape)
    arrivals[:, i0 - 1] = w
    return _report(spec, regime, arrivals, i0 - 1,
                   z0=float((mu_lo * p).sum()), i0=i0, y0=float(p.sum()))


def _critical(spec, i0: int, regime) -> StationaryReport:
    """All mass at length i0, whose capacity equals the load: every
    completion is refilled at once, so the refill rate z0 is lam."""
    return _report(spec, regime, np.zeros(spec.rates.shape), i0, z0=spec.lam, i0=i0, y0=0.0)


def _solve_jiq_supercritical(spec) -> StationaryReport:
    """No idle servers in the limit; the refill rate z0 balances the
    completions at length 1, the floor, of the chain that the residual rate
    lam - z0 drives above it."""
    above = _inside(spec)
    above[:, 0] = False

    def excess(z):
        nu = _chains(spec, (spec.lam - z) * above, 1)
        return z - float((spec.rates[:, 1] * nu[:, 1]).sum())

    z0 = _bisect(excess, 0.0, spec.capacity(1))
    return _report(spec, "jiq-supercritical", (spec.lam - z0) * above, 1, z0=z0, y0=0.0)


def solve_jsq(spec: ClusterSpec) -> StationaryReport:
    """Mass on the two lengths around the covering level i0, the smallest
    queue length whose aggregate service capacity covers the load, or all of
    it at i0 when the load equals that level's capacity."""
    ValidationError.check(serving_violations(spec))
    for i0 in range(1, max(spec.buffers) + 1):
        if spec.capacity(i0) >= spec.lam:
            break
    else:
        raise ValidationError(["stability violated: no queue length covers the load"])
    if any(i0 > b for b in spec.buffers):
        raise ValidationError(
            [f"jsq target level {i0} exceeds the buffer of some type; "
             "unequal buffers this tight are not supported"]
        )
    if spec.lam > spec.capacity(i0) - CRITICAL_BAND:
        return _critical(spec, i0, "jsq-critical")
    return _two_level(spec, i0, "jsq-subcritical" if i0 == 1 else "jsq")


def jsqd_balance_residual(spec: ClusterSpec, d: int, nu: Occupancy) -> float:
    """Sup-norm defect of the JSQ(d) balance equations plus type-mass constraints."""
    f = dispatch.f_jsqd_limit(nu.array.tolist(), nu.buffers, d)
    flow = spec.rates[:, 1:] * nu.array[:, 1:] - spec.lam * np.array(f.rows)[:, :-1]
    mass = nu.array.sum(axis=1) - spec.gammas()
    return float(max(np.abs(flow).max(), np.abs(mass).max()))


def _dd(a, b, d):
    """(a**d - b**d) / (a - b) as sum_{j<d} a**j b**(d-1-j), which does not
    cancel when a and b are close; floats or arrays."""
    h = p = 1.0
    for _ in range(d - 1):
        p = p * a
        h = h * b + p
    return h


def _pooled_rates(lam, cap, d):
    """Level arrival rates of one type with rates cap[i], shooting up from
    the largest idle mass whose chain does not run out before the buffer.
    A shoot in the bisection stops at the level where its chain runs out:
    from there z is 0 and m stays >= 0, so the mass it wants at the buffer
    beyond what is left, m - z, is >= 0 whatever the levels above compute.
    One last shoot at the root keeps the rates. ``cap`` is a list: the shoot
    runs about twice as fast on Python floats as on numpy scalars, with the
    same IEEE operations."""
    def excess(m0):
        z, m = 1.0, m0
        for c in cap:
            nz = z - m
            if nz <= 0.0:  # run out, so m - z >= 0; a NaN shoots on
                return 0.0
            z, m = nz, m * (lam * _dd(z, nz, d)) / c
        return m - z

    z, m, alpha = 1.0, _bisect(excess, 0.0, 1.0), []
    for c in cap:
        nz = max(z - m, 0.0)
        alpha.append(lam * _dd(z, nz, d))
        z, m = nz, m * alpha[-1] / c
    return np.array(alpha)


def _newton(f, x, tol):
    """Newton on f(x) = 0, x >= 0, with a forward-difference Jacobian; each
    step is halved until |f|_inf falls, at most HALVINGS tries, so a start
    outside the basin gives up after a few evaluations instead of a long
    search for small gains. Returns the root, or None where it stops short
    of tol, with the iterations taken and the residual."""
    r = f(x)
    res = np.abs(r).max()
    for it in range(NEWTON_ITER):
        if res <= tol:
            return x, it, res
        h = 1e-7 * np.maximum(x, 1.0)
        step = np.linalg.solve((f(x + np.diag(h)) - r).T / h, -r)
        for _ in range(HALVINGS):
            cand = np.maximum(x + step, 0.0)
            if np.abs(rc := f(cand)).max() < res:
                break
            step /= 2
        else:
            break
        x, r, res = cand, rc, np.abs(rc).max()
    return (x if res <= tol else None), NEWTON_ITER, res


def solve_jsqd(spec: ClusterSpec, d: int) -> StationaryReport:
    """Balance in the level arrival rates alpha[i] = lam (z[i]**d -
    z[i+1]**d) / m[i], which every type's birth-death chain shares.

    One pooled type with the capacity curve is solved by bisection. Its
    rates are then carried to each type's by mu_k(t) = (1 - t) cap + t mu_k,
    a level past the type's buffer fading out at rate cap / (1 - t), in
    stages of t from 0 to 1, each solving alpha = T_t(alpha) by Newton.
    The pooled rates already solve one type, or identical ones. A stage
    that fails, such as t = 1 straight from the pooled rates on the shipped
    heterogeneous cluster at d = 2, stops at the first step whose HALVINGS
    tries all fail to lower the residual; the stage is then halved.
    """
    ValidationError.check(serving_violations(spec))
    lam, inside, gammas = spec.lam, _inside(spec)[:, 1:], spec.gammas()[:, None]
    cap = np.array([spec.capacity(i) for i in range(1, inside.shape[1] + 1)])

    def weights(t):
        """alpha[i] times weights(t)[k, i] is type k's chain ratio u[i+1] / u[i]."""
        return (np.where(inside, 1.0, 1.0 - t)
                / np.where(inside, (1 - t) * cap + t * spec.rates[:, 1:], cap))

    def state(alpha, w):
        u = np.cumprod(alpha[..., None, :] * w, axis=-1)
        u = np.concatenate((np.ones(u.shape[:-1] + (1,)), u), axis=-1)
        return gammas * u / u.sum(axis=-1, keepdims=True)

    def excess(alpha, w):
        z = np.cumsum(state(alpha, w).sum(axis=-2)[..., ::-1], axis=-1)[..., ::-1]
        return lam * _dd(z[..., :-1], z[..., 1:], d) - alpha

    alpha, t, stage = _pooled_rates(lam, cap.tolist(), d), 0.0, 1.0
    while t < 1.0:
        nxt = min(1.0, t + stage)
        w = weights(nxt)
        found, its, res = _newton(lambda a: excess(a, w), alpha, NEWTON_TOL * lam * d)
        if found is not None:
            alpha, t, stage = found, nxt, stage * (2 if its <= QUICK_ITER else 1)
        elif (stage := stage / 2) < STAGE_FLOOR:
            raise ConvergenceError(f"jsqd({d}) at lambda {lam}: the rate homotopy stalls "
                                   f"at t = {t:.6g}, residual {res:.3g}", residual=res)
    # past the longest buffer z[B + 1] = 0, so the lost rate there is lam z[B]**(d-1)
    rates = np.append(alpha, lam * state(alpha, weights(1.0))[:, -1].sum() ** (d - 1))
    return _report(spec, "jsqd", rates * _inside(spec), 0)


def solve_jbt(spec: ClusterSpec) -> StationaryReport:
    """Balance in the availability mass y, the mass below the thresholds:
    arrivals reach those servers at rate lam / y each, and each type's chain
    ends at its threshold."""
    ValidationError.check(serving_violations(spec) + mpl_violations(spec, "jbt"))
    lam = spec.lam
    cap = left_sum(t.gamma * t.curve.rates[t.mpl] for t in spec.types)
    if not (lam < cap):
        raise ValidationError([f"jbt threshold capacity {cap} does not exceed lambda {lam}; "
                               "outside the analyzed regime"])

    below = np.arange(max(spec.buffers) + 1) < np.array([t.mpl for t in spec.types])[:, None]

    def excess(y):
        return y - float((_chains(spec, lam / y * below, 0) * below).sum())

    y = _bisect(excess, 0.0, 1.0)
    return _report(spec, "jbt", lam / y * below, 0, y0=y)


def little(spec: ClusterSpec, policy: Policy, report: StationaryReport):
    """Per-type and overall mean system times from queue lengths and throughput.

    Per-type values are mean length over effective arrival rate; the overall
    value weighs types by the arrivals they actually admit. Every type admits
    at a positive rate: arrivals reach a length that holds mass, or refills
    the floor.
    """
    per_type, weights = [], []
    for t, p, lam_k in zip(spec.types, report.nu.parts, report.lambda_eff):
        per_type.append(float(np.arange(len(p)) @ p) / p.sum() / lam_k)
        weights.append(t.gamma * lam_k)
    overall = left_sum(w * h for w, h in zip(weights, per_type)) / left_sum(weights)
    return tuple(per_type), float(overall)
