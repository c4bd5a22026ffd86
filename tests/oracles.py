"""Independent reference computations used as test oracles.

Everything here is deliberately written from first principles (enumeration,
direct linear algebra, textbook formulas) rather than through the package's
own code paths, so tests compare two independent routes to the same number.
The last few functions are the small state checks that only tests need.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from lbmf import dispatch
from lbmf.model import Occupancy

# Regimes whose dispatch field is continuous at the stationary point.
CONTINUOUS_REGIMES = ("random", "jsqd", "jbt", "jiq-subcritical", "jsq-subcritical")


def brute_force_choice_of_two(parts):
    """Dispatch probabilities for 'sample two queues independently, join the
    shorter' by enumerating ordered pairs of (type, level) categories.

    ``parts`` is the per-type occupancy. Ties pick either sample with equal
    probability. Returns (field parts, loss) with full levels counted as loss.
    """
    cats = []
    for k, p in enumerate(parts):
        for i, mass in enumerate(p):
            if mass > 0:
                cats.append((k, i, float(mass)))
    out = [np.zeros_like(np.asarray(p, dtype=float)) for p in parts]
    loss = 0.0
    for (k1, i1, m1), (k2, i2, m2) in itertools.product(cats, cats):
        prob = m1 * m2
        if i1 < i2:
            win = [(k1, i1, prob)]
        elif i2 < i1:
            win = [(k2, i2, prob)]
        else:
            win = [(k1, i1, prob / 2), (k2, i2, prob / 2)]
        for k, i, pr in win:
            if i == len(parts[k]) - 1:
                loss += pr
            else:
                out[k][i] += pr
    return out, loss


def mm1b_mean_system_time(lam, mu, b):
    """Mean system time in a single finite-buffer queue with constant rate,
    via the textbook truncated-geometric distribution."""
    rho = lam / mu
    if abs(rho - 1.0) < 1e-12:
        pi = np.ones(b + 1) / (b + 1)
    else:
        pi = rho ** np.arange(b + 1)
        pi /= pi.sum()
    mean_len = float(np.arange(b + 1) @ pi)
    lam_eff = lam * (1.0 - pi[b])
    return mean_len / lam_eff


def enumerate_states(n, b):
    """All occupancy count vectors (n_0..n_b) of n homogeneous servers."""
    states = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            states.append(tuple(prefix + [remaining]))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], n, b + 1)
    return states


def _arrival_split(state, n, policy, d=None, mpl=None):
    """Probability that an arrival targets a queue of each length."""
    b = len(state) - 1
    probs = np.zeros(b + 1)
    if policy == "random":
        probs = np.array(state) / n
    elif policy == "jiq":
        if state[0] > 0:
            probs[0] = 1.0
        else:
            probs = np.array(state) / n
    elif policy == "jsq":
        m = next(i for i in range(b + 1) if state[i] > 0)
        probs[m] = 1.0
    elif policy == "jsqd":
        dd = min(d, n)
        tails = [sum(state[i:]) for i in range(b + 2)]
        denom = math.comb(n, dd)
        for i in range(b + 1):
            probs[i] = (math.comb(tails[i], dd) - math.comb(tails[i + 1], dd)) / denom
    elif policy == "jbt":
        avail = sum(state[:mpl])
        if avail > 0:
            for i in range(mpl):
                probs[i] = state[i] / avail
        else:
            probs = np.array(state) / n
    else:
        raise ValueError(policy)
    return probs


def _stationary(q):
    """Stationary distribution of the chain whose off-diagonal rates are
    ``q`` (its diagonal is overwritten)."""
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    # pi Q = 0 with normalization replacing the last column
    a = q.T.copy()
    a[-1, :] = 1.0
    rhs = np.zeros(len(q))
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def ctmc_stationary_occupancy(n, lam, mu, policy, d=None, mpl=None):
    """Exact stationary mean occupancy fractions of a finite homogeneous
    cluster, from the full generator of the count process.

    ``mu`` is the service rate curve indexed by queue length (mu[0] = 0).
    """
    b = len(mu) - 1
    states = enumerate_states(n, b)
    index = {s: j for j, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for s in states:
        row = index[s]
        for i in range(1, b + 1):
            if s[i] > 0:
                rate = s[i] * mu[i]
                dst = list(s)
                dst[i] -= 1
                dst[i - 1] += 1
                q[row][index[tuple(dst)]] += rate
        probs = _arrival_split(s, n, policy, d=d, mpl=mpl)
        for i in range(b):  # level b targets are lost, no transition
            if probs[i] > 0 and s[i] > 0:
                dst = list(s)
                dst[i] -= 1
                dst[i + 1] += 1
                q[row][index[tuple(dst)]] += n * lam * probs[i]
    pi = _stationary(q)
    occ = np.zeros(b + 1)
    for s, p in zip(states, pi):
        occ += p * np.array(s) / n
    return occ


def labeled_ctmc_occupancy(lam, rates, policy, d=None):
    """Exact stationary occupancy of each server in a finite cluster, from
    the full generator over every server's own queue length.

    ``rates[j]`` is server j's service rate curve indexed by queue length
    (rates[j][0] = 0); every server has the same buffer. An arrival (rate
    ``n * lam``) joins a shortest server among all of them (``"jsq"``), or
    among d distinct servers drawn uniformly (``"jsqd"``); ties are split
    evenly over the tied servers, and an arrival whose pick is full is
    lost. Returns an (n, B + 1) array whose row j is the stationary
    probability of server j at each length, divided by n, so summing a
    type's rows gives its occupancy fractions.
    """
    n, b = len(rates), len(rates[0]) - 1
    subsets = ([tuple(range(n))] if policy == "jsq"
               else list(itertools.combinations(range(n), d)))
    states = list(itertools.product(range(b + 1), repeat=n))
    index = {s: j for j, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for s in states:
        row = index[s]
        for j in range(n):
            if s[j] > 0:
                dst = list(s)
                dst[j] -= 1
                q[row][index[tuple(dst)]] += rates[j][s[j]]
        for sub in subsets:
            m = min(s[j] for j in sub)
            ties = [j for j in sub if s[j] == m]
            if m < b:
                for j in ties:
                    dst = list(s)
                    dst[j] += 1
                    q[row][index[tuple(dst)]] += n * lam / len(subsets) / len(ties)
    pi = _stationary(q)
    occ = np.zeros((n, b + 1))
    for s, p in zip(states, pi):
        occ[range(n), s] += p / n
    return occ


def per_type_field(parts, thresholds, policy):
    """Dispatch field of the deterministic limit computed one type at a time.

    The loop form of the padded-array fields in ``lbmf.dispatch``, with the
    same arithmetic in the same order, so the two agree exactly. Returns
    (per-type field parts, loss).
    """
    xs = [np.maximum(np.asarray(p, dtype=float), 0.0) for p in parts]
    levels = max(len(p) for p in xs)
    m = np.zeros(levels)
    for p in xs:
        m[:len(p)] += p

    def random():
        out, loss = [p.copy() for p in xs], 0.0
        for q in out:
            loss += q[-1]
            q[-1] = 0.0
        return out, loss

    out, loss = [np.zeros_like(p) for p in xs], 0.0
    kind = policy.kind
    y = {"jiq": sum(p[0] for p in xs),
         "jbt": sum(p[:mk].sum() for p, mk in zip(xs, thresholds))}.get(kind)
    if kind == "random" or (y is not None and y <= 1e-12):
        out, loss = random()
    elif kind == "jiq":
        for q, p in zip(out, xs):
            q[0] = p[0] / y
    elif kind == "jbt":
        for q, p, mk in zip(out, xs, thresholds):
            q[:mk] = p[:mk] / y
    elif kind == "jsq":
        istar = next(i for i in range(levels) if m[i] > 1e-12)
        for q, p in zip(out, xs):
            if istar < len(p) - 1:
                q[istar] = p[istar] / m[istar]
            elif istar == len(p) - 1:
                loss += p[istar] / m[istar]
    elif kind == "jsqd":
        z = np.zeros(levels + 1)
        z[:levels] = m[::-1].cumsum()[::-1]
        bracket = z[:levels] ** policy.d - z[1:] ** policy.d
        for q, p in zip(out, xs):
            for i in range(len(p)):
                if m[i] > 0:
                    val = p[i] / m[i] * bracket[i]
                    if i < len(p) - 1:
                        q[i] = val
                    else:
                        loss += val
    c = policy.control
    if c < 1.0:
        rnd, rnd_loss = random()
        out = [c * a + (1 - c) * b for a, b in zip(out, rnd)]
        loss = c * loss + (1 - c) * rnd_loss
    return out, loss


def ks_distance(samples, cdf_grid_t, cdf_grid_f):
    """Kolmogorov distance between an empirical sample and a gridded CDF."""
    xs = np.sort(np.asarray(samples))
    f = np.interp(xs, cdf_grid_t, cdf_grid_f, left=0.0, right=float(cdf_grid_f[-1]))
    n = len(xs)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(n) / n
    return float(np.max(np.maximum(np.abs(upper - f), np.abs(f - lower))))


def sample_target(lengths, types, spec, policy, rng):
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


def reference_queues(spec, policy, report):
    """Per type, the arrival rates a[0..B] that a single queue receives (0
    at the buffer), the floor and the entry weights {j: w}, derived regime
    by regime from the report's occupancy, z0, i0 and y0.

    Continuous regimes take a[j] = lam f[j] / nu[j] from the stationary
    dispatch field f, with the weights f[j - 1]. Two-level jsq sees
    (lam - z0) / y0 at its floor i0 - 1, the critical regimes see nothing
    and refill at i0 (1 for jiq), and supercritical jiq sees lam - z0 from
    its floor 1 to below the buffer; refills at the floor enter there.
    """
    lam, z0 = spec.lam, report.z0
    if report.regime in CONTINUOUS_REGIMES:
        f = dispatch.field(report.nu.array.tolist(), spec, policy)
    out = []
    for k, (t, p) in enumerate(zip(spec.types, report.nu.parts)):
        b, mu = t.buffer, t.curve.rates
        a, lo = np.zeros(b + 1), 0
        if report.regime in CONTINUOUS_REGIMES:
            fp = f.parts[k]
            for j in range(b):
                if p[j] > 0:
                    a[j] = lam * fp[j] / p[j]
            levels = {j: float(fp[j - 1]) for j in range(1, b + 1) if fp[j - 1]}
        elif report.regime == "jsq":
            lo = report.i0 - 1
            a[lo] = (lam - z0) / report.y0
            levels = {lo: mu[lo] * p[lo] / lam, lo + 1: (1.0 - z0 / lam) * p[lo] / report.y0}
        else:
            lo = report.i0 or 1
            levels = {lo: mu[lo] * p[lo] / lam}
            if report.regime == "jiq-supercritical":
                a[1:b] = lam - z0
                levels.update({j: (1.0 - z0 / lam) * p[j - 1] for j in range(2, b + 1)})
        out.append((a, lo, levels))
    return out


def lps_transform_dense(spec, policy, report, s, block=256):
    """The system-time transform under limited processor sharing at the 1-D
    complex points ``s``, from the tagged job's generator as one dense
    linear system per type and point.

    A state (i, j) is the job at position i of a length-j queue. Positions
    1..mpl are in service and exchangeable, so (1, j) stands for all of
    them. In service at length j the job is one of k = min(j, mpl) jobs: it
    completes at rate mu[j] / k, goes to (1, j - 1) at rate
    mu[j] (k - 1) / k and to (1, j + 1) at rate a[j]. Waiting at i > mpl it
    goes to (i - 1, j - 1), or (1, j - 1) from mpl + 1, at rate mu[j] and to
    (i, j + 1) at rate a[j]. The transform solves (s + rate out) x - moves x
    = completion rate, stacked over ``block`` points at a time.
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    out = np.zeros(len(s), dtype=complex)
    for t, (a, _, levels) in zip(spec.types, reference_queues(spec, policy, report)):
        mu, m, b = t.curve.rates, int(t.mpl), t.buffer
        states = [(1, j) for j in range(1, b + 1)]
        states += [(i, j) for j in range(m + 1, b + 1) for i in range(m + 1, j + 1)]
        index = {state: n for n, state in enumerate(states)}
        gen, done = np.zeros((len(states), len(states))), np.zeros(len(states))
        for (i, j), n in index.items():
            moves = [((i, j + 1), a[j])] if j < b else []
            if i == 1:
                k = min(j, m)
                done[n] = mu[j] / k
                if k > 1:
                    moves.append(((1, j - 1), mu[j] * (k - 1) / k))
            else:
                moves.append(((1 if i == m + 1 else i - 1, j - 1), mu[j]))
            gen[n, n] = done[n] + sum(rate for _, rate in moves)
            for state, rate in moves:
                gen[n, index[state]] -= rate
        entry = [(index[(1, j) if j <= m else (j, j)], w) for j, w in levels.items()]
        diag = np.arange(len(states))
        for lo in range(0, len(s), block):
            chunk = s[lo:lo + block]
            mats = np.repeat(gen[None].astype(complex), len(chunk), axis=0)
            mats[:, diag, diag] += chunk[:, None]
            sol = np.linalg.solve(mats, np.tile(done, (len(chunk), 1))[..., None])[..., 0]
            for n, w in entry:
                out[lo:lo + block] += w * sol[:, n]
    return out


def pooled_rates_every_level(lam, cap, d):
    """Level arrival rates of one pooled JSQ(d) type with rates ``cap[i]``,
    each shoot running to the buffer: z[i + 1] = max(z[i] - m[i], 0),
    alpha[i] = lam (z[i]**d - z[i+1]**d) / (z[i] - z[i+1]) as the sum of
    z[i]**j z[i+1]**(d-1-j), and m[i + 1] = m[i] alpha[i] / cap[i]. The idle
    mass m[0] is bisected, at midpoints only, until the midpoint rounds to
    an end of its bracket; a shoot that wants more mass at the buffer than
    is left raises it."""
    def dd(a, b):
        h = p = 1.0
        for _ in range(d - 1):
            p = p * a
            h = h * b + p
        return h

    def shoot(m0):
        z, m, alpha = 1.0, m0, []
        for c in cap:
            nz = max(z - m, 0.0)
            alpha.append(lam * dd(z, nz))
            z, m = nz, m * alpha[-1] / c
        return m - z, alpha

    lo, hi = 0.0, 1.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if shoot(mid)[0] < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return np.array(shoot(mid)[1])


def jsq_by_columns(x, buffers):
    """JSQ field of padded rows x as the column-list form computes it: each
    level's clipped column is built as a list and summed left to right from
    0.0 until a level holds more than ZERO_MASS; only that column is filled,
    and a type whose buffer is that level sends its share to loss."""
    f = [[0.0] * len(x[0]) for _ in x]
    for i in range(len(x[0])):
        col = [row[i] if row[i] > 0.0 else 0.0 for row in x]
        mass = 0.0
        for v in col:
            mass += v
        if mass > dispatch.ZERO_MASS:
            break
    else:
        clipped = [[v if v > 0.0 else 0.0 for v in row] for row in x]
        return dispatch.DispatchField(f, float(np.sum(clipped)), buffers)
    loss = 0.0
    for row, v, b in zip(f, col, buffers):
        if b == i:
            loss += v / mass
        else:
            row[i] = v / mass
    return dispatch.DispatchField(f, loss, buffers)


def sojourn_weights(spec, policy, report):
    """Entry weights (k, entry length, weight) of the system-time recursion
    in the report's regime."""
    return [(k, j, w) for k, (_, _, levels) in enumerate(reference_queues(spec, policy, report))
            for j, w in levels.items()]


def field_total(f):
    """Probability that a dispatch field sends an arrival to some queue."""
    return float(np.sum(f.rows))


def occupancy_violations(x, spec, tol=1e-9):
    """Invariant violations of occupancy ``x`` (empty list when valid)."""
    out = []
    for k, (t, p) in enumerate(zip(spec.types, x.parts)):
        if len(p) != t.buffer + 1:
            out.append(f"type {k}: occupancy length {len(p)} != buffer+1 {t.buffer + 1}")
            continue
        if abs(p.sum() - t.gamma) > tol:
            out.append(f"type {k}: mass {p.sum()!r} != gamma {t.gamma!r}")
        if (p < -tol).any() or (p > 1 + tol).any():
            out.append(f"type {k}: entries outside [0, 1]")
    return out


def occupancy_at(traj, idx):
    """Occupancy of trajectory ``traj`` at sample ``idx``."""
    return Occupancy([p[idx] for p in traj.parts])


def sup_distance(a, b):
    """Largest entrywise gap between two trajectories on the same grid."""
    if len(a.times) != len(b.times):
        raise ValueError("trajectories sampled on different grids")
    return max(float(np.max(np.abs(p - q))) for p, q in zip(a.parts, b.parts))
