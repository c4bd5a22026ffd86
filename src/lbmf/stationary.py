"""Stationary occupancy of the deterministic limit, per policy.

Random assignment has a closed form. JIQ, JSQ and JBT each reduce to one
monotone scalar balance, solved by ``_bisect`` until its bracket stops
shrinking. Below a covering capacity, JSQ holds its mass on lengths i0 - 1
and i0 (``_two_level``, balanced in w, the arrival rate per server at the
lower level); subcritical JIQ is that state at i0 = 1. At a covering
capacity all mass sits at i0 (``_critical``) and every completion there is
refilled at once, so the refill rate ``z0`` is the load. Supercritical JIQ
balances its refill rate ``z0`` at length 1, and JBT its mass y below the
thresholds. JSQ(d) balances the arrival rate per server at each length,
which all types share: bisection on the idle mass of one pooled type with
the capacity curve, then Newton stages of a homotopy from the pooled rates
to each type's own. Every solver returns a StationaryReport with the
distribution, regime tag, loss probability and per-type effective arrival
rates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dispatch
from .model import (ClusterSpec, ConvergenceError, Occupancy, Policy,
                    ValidationError, validate)

CRITICAL_BAND = 1e-10
# JSQ(d) homotopy stages: Newton converges at |T(alpha) - alpha| <= NEWTON_TOL
# lam d and fails after NEWTON_ITER iterations or HALVINGS halvings of a step;
# a stage that took at most QUICK_ITER doubles, one that failed halves.
NEWTON_TOL, NEWTON_ITER, HALVINGS, QUICK_ITER = 1e-14, 20, 30, 3
STAGE_FLOOR = 1e-6

CONTINUOUS_REGIMES = ("random", "jsqd", "jbt", "jiq-subcritical", "jsq-subcritical")


@dataclass
class StationaryReport:
    nu: Occupancy
    regime: str
    loss_prob: float
    lambda_eff: tuple
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


def _report_continuous(spec, policy, nu, regime, **extra):
    f = dispatch.field(nu, spec, policy)
    lam_eff = tuple(spec.lam * float(fp.sum()) / t.gamma for t, fp in zip(spec.types, f.parts))
    return StationaryReport(nu=nu, regime=regime, loss_prob=f.loss, lambda_eff=lam_eff, **extra)


def _check_supported(spec, policy):
    violations = validate(spec, policy)
    if violations:
        raise ValidationError(violations)
    if policy.control < 1.0:
        raise ValidationError(
            ["stationary solvers cover fully controlled policies only (p = 1); "
             "use the transient integrator for partial control"]
        )


def solve(spec: ClusterSpec, policy: Policy) -> StationaryReport:
    """Route to the policy's solver."""
    _check_supported(spec, policy)
    if policy.kind == "random":
        return solve_random(spec)
    if policy.kind == "jiq":
        return solve_jiq(spec)
    if policy.kind == "jsq":
        return solve_jsq(spec)
    if policy.kind == "jsqd":
        return solve_jsqd(spec, policy.d)
    if policy.kind == "jbt":
        return solve_jbt(spec)
    raise ValueError(f"unknown policy kind {policy.kind!r}")


def solve_random(spec: ClusterSpec) -> StationaryReport:
    """Closed form: each type is an independent birth-death chain."""
    parts = []
    for t in spec.types:
        u = np.ones(t.buffer + 1)
        for i in range(1, t.buffer + 1):
            u[i] = u[i - 1] * spec.lam / t.curve.rates[i]
        parts.append(t.gamma * u / u.sum())
    nu = Occupancy(parts)
    return _report_continuous(spec, Policy("random"), nu, "random")


def _capacity(spec, i) -> float:
    """Service rate per server with every queue at length i, or at its buffer."""
    return sum(t.gamma * t.curve.rates[min(i, t.buffer)] for t in spec.types)


def solve_jiq(spec: ClusterSpec) -> StationaryReport:
    """JIQ splits into three regimes against the idle-capacity rate."""
    crit = _capacity(spec, 1)
    if spec.lam < crit - CRITICAL_BAND:
        rep = _two_level(spec, 1)
        return _report_continuous(spec, Policy("jiq"), rep.nu, "jiq-subcritical", y0=rep.y0)
    if spec.lam <= crit + CRITICAL_BAND:
        return replace(_critical(spec, 1), regime="jiq-critical", i0=None)
    return _solve_jiq_supercritical(spec)


def _two_level(spec, i0: int) -> StationaryReport:
    """Mass on lengths {i0-1, i0}, as a two-level jsq report.

    Servers at i0 - 1 receive arrivals at rate w each, so type k keeps
    p_k = gamma_k mu_k(i0) / (w + mu_k(i0)) at the lower level, and the
    throughput sum(p_k (w + mu_k(i0-1))) rises in w from the capacity at
    i0 - 1 to the one at i0; w solves throughput = lam. Also serves
    subcritical JIQ and JSQ (i0 = 1, where mu(0) = 0).
    """
    lam = spec.lam
    gammas = spec.gammas()
    mu_lo = np.array([t.curve.rates[i0 - 1] for t in spec.types])
    mu_hi = np.array([t.curve.rates[i0] for t in spec.types])

    def lower(w):
        return gammas * mu_hi / (w + mu_hi)

    # throughput >= cap(i0) - sum(gamma mu_hi (mu_hi - mu_lo)) / w bounds the root
    w_max = float((gammas * mu_hi * (mu_hi - mu_lo)).sum()) / (_capacity(spec, i0) - lam)
    w = _bisect(lambda w: float((lower(w) * (w + mu_lo)).sum()) - lam, 0.0, w_max)
    p = lower(w)
    parts = []
    for t, gm, pk in zip(spec.types, gammas, p):
        v = np.zeros(t.buffer + 1)
        v[i0 - 1] = pk
        v[i0] = gm - pk
        parts.append(v)
    lam_eff = tuple(p * (mu_lo + w) / gammas)
    return StationaryReport(Occupancy(parts), "jsq", 0.0, lam_eff,
                            z0=float((mu_lo * p).sum()), i0=i0, y0=float(p.sum()))


def _critical(spec, i0: int) -> StationaryReport:
    """All mass at length i0, whose capacity equals the load: every
    completion is refilled at once, so the refill rate z0 is lam."""
    parts = []
    for t in spec.types:
        v = np.zeros(t.buffer + 1)
        v[i0] = t.gamma
        parts.append(v)
    lam_eff = tuple(t.curve.rates[i0] for t in spec.types)
    return StationaryReport(Occupancy(parts), "jsq-critical", 0.0, lam_eff,
                            z0=spec.lam, i0=i0, y0=0.0)


def _solve_jiq_supercritical(spec) -> StationaryReport:
    """No idle servers in the limit; the refill rate z0 balances the
    completions at length 1 of the chain that the residual rate lam - z0
    drives above it."""
    lam = spec.lam
    gammas = spec.gammas()
    mu1 = np.array([t.curve.rates[1] for t in spec.types])

    def shapes(r):
        out = []
        for t in spec.types:
            s = np.ones(t.buffer)  # index m corresponds to queue length m+1
            for i in range(2, t.buffer + 1):
                s[i - 1] = s[i - 2] * r / t.curve.rates[i]
            out.append(s)
        return out

    def excess(z):
        nu1 = np.array([gm / s.sum() for gm, s in zip(gammas, shapes(lam - z))])
        return z - float((mu1 * nu1).sum())

    z0 = _bisect(excess, 0.0, _capacity(spec, 1))
    parts = []
    for t, gm, s in zip(spec.types, gammas, shapes(lam - z0)):
        v = np.zeros(t.buffer + 1)
        v[1:] = gm * s / s.sum()
        parts.append(v)
    nu = Occupancy(parts)
    loss = (1 - z0 / lam) * sum(p[-1] for p in nu.parts)
    lam_eff = []
    for t, p in zip(spec.types, nu.parts):
        lam_eff.append((t.curve.rates[1] * p[1] + (lam - z0) * p[1:-1].sum()) / t.gamma)
    return StationaryReport(nu, "jiq-supercritical", float(loss), tuple(lam_eff), z0=z0, y0=0.0)


def jsq_target_level(spec: ClusterSpec) -> int:
    """Smallest queue length whose aggregate service capacity covers the load."""
    for i in range(1, max(spec.buffers) + 1):
        if _capacity(spec, i) >= spec.lam:
            return i
    raise ValidationError(["stability violated: no queue length covers the load"])


def solve_jsq(spec: ClusterSpec) -> StationaryReport:
    """Mass on the two lengths around the covering level i0, or all of it at
    i0 when the load equals that level's capacity."""
    i0 = jsq_target_level(spec)
    if any(i0 > b for b in spec.buffers):
        raise ValidationError(
            [f"jsq target level {i0} exceeds the buffer of some type; "
             "unequal buffers this tight are not supported"]
        )
    if spec.lam > _capacity(spec, i0) - CRITICAL_BAND:
        return _critical(spec, i0)
    rep = _two_level(spec, i0)
    if i0 == 1:
        return _report_continuous(spec, Policy("jsq"), rep.nu, "jsq-subcritical",
                                  i0=1, y0=rep.y0)
    return rep


def jsqd_balance_residual(spec: ClusterSpec, d: int, nu: Occupancy) -> float:
    """Sup-norm defect of the JSQ(d) balance equations plus type-mass constraints."""
    f = dispatch.f_jsqd_limit(nu, d)
    flow = spec.rates[:, 1:] * nu.array[:, 1:] - spec.lam * f.array[:, :-1]
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
    the largest idle mass whose chain does not run out before the buffer."""
    def shoot(m0):
        z, m, alpha = 1.0, m0, []
        for c in cap:
            nz = max(z - m, 0.0)
            alpha.append(lam * _dd(z, nz, d))
            z, m = nz, m * alpha[-1] / c
        return m - z, alpha  # mass wanted at the buffer beyond what is left

    return np.array(shoot(_bisect(lambda m0: shoot(m0)[0], 0.0, 1.0))[1])


def _newton(f, x, tol):
    """Newton on f(x) = 0, x >= 0, with a forward-difference Jacobian; each
    step is halved until |f|_inf falls. Returns the root, or None where it
    stops short of tol, with the iterations taken and the residual."""
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
    The pooled rates already solve one type, or identical ones.
    """
    lam, buffers = spec.lam, np.array(spec.buffers)
    cap = np.array([_capacity(spec, i) for i in range(1, buffers.max() + 1)])
    inside = np.arange(1, buffers.max() + 1) <= buffers[:, None]

    def state(alpha, t):
        w = (np.where(inside, 1.0, 1.0 - t)
             / np.where(inside, (1 - t) * cap + t * spec.rates[:, 1:], cap))
        u = np.insert(np.cumprod(alpha[..., None, :] * w, axis=-1), 0, 1.0, axis=-1)
        return spec.gammas()[:, None] * u / u.sum(axis=-1, keepdims=True)

    def excess(alpha, t):
        z = np.cumsum(state(alpha, t).sum(axis=-2)[..., ::-1], axis=-1)[..., ::-1]
        return lam * _dd(z[..., :-1], z[..., 1:], d) - alpha

    alpha, t, stage = _pooled_rates(lam, cap, d), 0.0, 1.0
    while t < 1.0:
        nxt = min(1.0, t + stage)
        found, its, res = _newton(lambda a: excess(a, nxt), alpha, NEWTON_TOL * lam * d)
        if found is not None:
            alpha, t, stage = found, nxt, stage * (2 if its <= QUICK_ITER else 1)
        elif (stage := stage / 2) < STAGE_FLOOR:
            raise ConvergenceError(f"jsqd({d}) at lambda {lam}: the rate homotopy stalls "
                                   f"at t = {t:.6g}, residual {res:.3g}", residual=res)
    nu = Occupancy.from_array(state(alpha, 1.0), buffers)
    return _report_continuous(spec, Policy("jsqd", d=d), nu, "jsqd")


def solve_jbt(spec: ClusterSpec) -> StationaryReport:
    """Balance in the availability mass y, the mass below the thresholds:
    arrivals reach those servers at rate lam / y each, and each type's chain
    ends at its threshold."""
    lam = spec.lam
    for k, t in enumerate(spec.types):
        if t.mpl is None:
            raise ValidationError([f"jbt requires mpl on every type; type {k} has none"])
    cap = sum(t.gamma * t.curve.rates[t.mpl] for t in spec.types)
    if not (lam < cap):
        raise ValidationError(
            [f"jbt threshold capacity {cap} does not exceed lambda {lam}; "
             "outside the analyzed regime"]
        )

    def chain(y):
        parts = []
        for t in spec.types:
            u = np.zeros(t.buffer + 1)
            u[0] = 1.0
            for i in range(1, t.mpl + 1):
                u[i] = u[i - 1] * lam / (y * t.curve.rates[i])
            parts.append(t.gamma * u / u.sum())
        return parts

    def excess(y):
        return y - sum(p[: t.mpl].sum() for t, p in zip(spec.types, chain(y)))

    y = _bisect(excess, 0.0, 1.0)
    nu = Occupancy(chain(y))
    return _report_continuous(spec, Policy("jbt"), nu, "jbt", y0=y)


def little(spec: ClusterSpec, policy: Policy, report: StationaryReport):
    """Per-type and overall mean system times from queue lengths and throughput.

    Per-type values are mean length over effective arrival rate; the overall
    value weighs types by the arrivals they actually admit. Types receiving
    no arrivals report None.
    """
    per_type = []
    weights = []
    for t, p, lam_k in zip(spec.types, report.nu.parts, report.lambda_eff):
        mass = p.sum()
        mean_len = float(np.arange(len(p)) @ p) / mass
        if lam_k <= 0:
            per_type.append(None)
            weights.append(0.0)
        else:
            per_type.append(mean_len / lam_k)
            weights.append(t.gamma * lam_k)
    total_w = sum(weights)
    overall = sum(w * h for w, h in zip(weights, per_type) if h is not None) / total_w
    return tuple(per_type), float(overall)
