"""System-time (sojourn) analysis in the stationary regime.

Follows a tagged job at position i of a queue holding j jobs. Watching for
the next change in that queue gives, per server type, a triangular system
for the mean remaining times H[i, j], and the same system over Laplace
transforms for the full distribution. The per-queue arrival rate depends on
the regime: the stationary dispatch field for continuous policies, the
residual rate ``lam - z0`` where a refill boundary exists, and zero above
levels that receive no arrivals. Entry weights mirror how arriving jobs are
spread over queue lengths; their total is the admitted fraction.

``mean_sojourn_lps`` covers limited processor sharing, where up to ``mpl``
jobs split a server's capacity evenly: positions in service are
exchangeable, so the system collapses in i there, but couples neighbouring
queue lengths both ways and is solved as a dense linear system.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import partial

import numpy as np

from . import dispatch, ilt
from .model import ClusterSpec, Policy
from .stationary import CONTINUOUS_REGIMES, StationaryReport

RATE_FLOOR = 1e-14


def _check_regime(policy: Policy, report: StationaryReport):
    kind = policy.kind
    regime = report.regime
    ok = (
        (kind == "random" and regime == "random")
        or (kind == "jiq" and regime.startswith("jiq"))
        or (kind == "jsq" and regime.startswith("jsq") and not regime.startswith("jsqd"))
        or (kind == "jsqd" and regime == "jsqd")
        or (kind == "jbt" and regime == "jbt")
    )
    if not ok:
        raise ValueError(f"report regime {regime!r} does not match policy {kind!r}")


def _arrival_rates(spec, policy, report):
    """Per-type, per-length arrival rate seen by a single queue.

    Index j in 1..B; the buffer level never receives arrivals. Returns None
    entries where the regime needs its own assembly.
    """
    regime = report.regime
    if regime in CONTINUOUS_REGIMES:
        f = dispatch.field(report.nu, spec, policy)
        rates = []
        for t, fp, np_ in zip(spec.types, f.parts, report.nu.parts):
            a = np.zeros(t.buffer + 1)
            for j in range(1, t.buffer):
                fj, nj = fp[j], np_[j]
                if nj > RATE_FLOOR:
                    a[j] = spec.lam * fj / nj
                elif fj > RATE_FLOOR:
                    raise ValueError(
                        f"dispatch mass on level {j} with no stationary mass; "
                        "the continuous assembly does not apply"
                    )
            rates.append(a)
        return rates
    if regime in ("jiq-critical", "jsq-critical"):
        return [np.zeros(t.buffer + 1) for t in spec.types]
    if regime == "jiq-supercritical":
        rates = []
        for t in spec.types:
            a = np.full(t.buffer + 1, spec.lam - report.z0)
            a[0] = 0.0
            a[t.buffer] = 0.0
            rates.append(a)
        return rates
    if regime == "jsq":
        return None  # dedicated assembly below
    raise ValueError(f"unknown regime {report.regime!r}")


def _entry_weights(spec, policy, report):
    """Weight of each entry state (k, j): an admitted job starts at position j
    of a type-k queue of length j. Weights sum to one minus the loss."""
    regime = report.regime
    out = []
    if regime in CONTINUOUS_REGIMES:
        f = dispatch.field(report.nu, spec, policy)
        for k, (t, fp) in enumerate(zip(spec.types, f.parts)):
            for j in range(1, t.buffer + 1):
                w = float(fp[j - 1])
                if w:
                    out.append((k, j, w))
        return out
    if regime in ("jiq-critical", "jsq-critical"):
        for k, t in enumerate(spec.types):
            w = t.curve.rates[1] * float(report.nu.parts[k][1]) / spec.lam
            out.append((k, 1, w))
        return out
    if regime == "jiq-supercritical":
        rest = 1.0 - report.z0 / spec.lam
        for k, t in enumerate(spec.types):
            p = report.nu.parts[k]
            out.append((k, 1, t.curve.rates[1] * float(p[1]) / spec.lam))
            for j in range(2, t.buffer + 1):
                w = rest * float(p[j - 1])
                if w:
                    out.append((k, j, w))
        return out
    if regime == "jsq":
        i0, y0 = report.i0, report.y0
        rest = 1.0 - report.z0 / spec.lam
        for k, t in enumerate(spec.types):
            p = report.nu.parts[k]
            out.append((k, i0 - 1, t.curve.rates[i0 - 1] * float(p[i0 - 1]) / spec.lam))
            out.append((k, i0, rest * float(p[i0 - 1]) / y0))
        return out
    raise ValueError(f"unknown regime {report.regime!r}")


def _mean_table(mu, a):
    """Back-substitute the one-step system for the means of one type.

    ``mu`` and ``a`` are indexed by queue length 0..B; row i=0 is the
    zero boundary (a served job has no remaining time).
    """
    b = len(mu) - 1
    h = np.zeros((b + 1, b + 2))
    for i in range(1, b + 1):
        for j in range(b, i - 1, -1):
            num = 1.0 + mu[j] * h[i - 1][j - 1]
            if j < b:
                num += a[j] * h[i][j + 1]
            h[i][j] = num / (a[j] + mu[j])
    return h


def _add_laplace(mu, a, levels, s, acc):
    """Same recursion over Laplace transforms, at every point of the 1-D
    complex array ``s``; adds the entry-weighted diagonal into ``acc``.

    Only one row of the table is kept, overwritten going down in j: H[i, j]
    reads H[i-1, j-1], not yet overwritten, and H[i, j+1], already new.
    ``levels`` maps an entry length j to its weight; H[j, j] is final once
    row j is done.
    """
    b = len(mu) - 1
    den = s + a[:, None] + mu[:, None]
    row = np.ones((b + 1, len(s)), dtype=complex)
    for i in range(1, b + 1):
        for j in range(b, i - 1, -1):
            num = mu[j] * row[j - 1]
            if j < b:
                num += a[j] * row[j + 1]
            np.divide(num, den[j], out=row[j])
        if i in levels:
            acc += levels[i] * row[i]


def _mean_table_jsq(mu, a_boundary, i0):
    """Means for the two-level regime: below the boundary queues fill back
    instantly, above it they only drain."""
    b = len(mu) - 1
    h = np.zeros((b + 1, b + 2))
    for i in range(1, b + 1):
        for j in range(b, max(i0, i) - 1, -1):
            h[i][j] = 1.0 / mu[j] + h[i - 1][j - 1]
        if i <= i0 - 1:
            num = 1.0 + a_boundary * h[i][i0]
            if i >= 2:
                num += mu[i0 - 1] * h[i - 1][i0 - 1]
            h[i][i0 - 1] = num / (a_boundary + mu[i0 - 1])
            for j in range(i0 - 2, i - 1, -1):
                h[i][j] = h[i][j + 1]
    return h


def _add_laplace_jsq(mu, a_boundary, i0, levels, s, acc):
    """Transform counterpart of ``_mean_table_jsq``, kept to one row in the
    same way as ``_add_laplace``."""
    b = len(mu) - 1
    drain = mu[1:, None] / (s + mu[1:, None])  # row j - 1 drains length j
    den = s + a_boundary + mu[i0 - 1]
    row = np.ones((b + 1, len(s)), dtype=complex)
    for i in range(1, b + 1):
        for j in range(b, max(i0, i) - 1, -1):
            np.multiply(drain[j - 1], row[j - 1], out=row[j])
        if i <= i0 - 1:
            num = a_boundary * row[i0] + mu[i0 - 1] * row[i0 - 1]
            np.divide(num, den, out=row[i0 - 1])
            row[i:i0 - 1] = row[i0 - 1]
        if i in levels:
            acc += levels[i] * row[i]


def sojourn_weights(spec: ClusterSpec, policy: Policy, report: StationaryReport):
    """Expose the entry weights (k, entry length, weight) for inspection."""
    _check_regime(policy, report)
    return _entry_weights(spec, policy, report)


def mean_sojourn(spec: ClusterSpec, policy: Policy, report: StationaryReport):
    """Mean system time of admitted jobs, plus the per-type H tables."""
    _check_regime(policy, report)
    tables = _tables_mean(spec, policy, report)
    weights = _entry_weights(spec, policy, report)
    total = sum(w for _, _, w in weights)
    mean = sum(w * tables[k][j][j] for k, j, w in weights) / total
    return float(mean), tables


def _tables_mean(spec, policy, report):
    if report.regime == "jsq":
        w = (spec.lam - report.z0) / report.y0
        return [
            _mean_table_jsq(np.asarray(t.curve.rates), w, report.i0)
            for t in spec.types
        ]
    rates = _arrival_rates(spec, policy, report)
    return [
        _mean_table(np.asarray(t.curve.rates), a) for t, a in zip(spec.types, rates)
    ]


def _levels(spec, weights):
    """Entry weights per type, as {entry length: weight}."""
    levels = [{} for _ in spec.types]
    for k, j, w in weights:
        levels[k][j] = levels[k].get(j, 0.0) + w
    return levels


def _pointwise(parts):
    """Evaluator over s summing the contributions ``part(flat_s, acc)``.

    ``s`` may be a complex scalar, which gives a Python complex back, or an
    ndarray of complex points, which gives an array of the same shape.
    """

    def evaluate(s):
        points = np.asarray(s, dtype=complex)
        flat = points.reshape(-1)
        acc = np.zeros(flat.shape, dtype=complex)
        for part in parts:
            part(flat, acc)
        out = acc.reshape(points.shape)
        return complex(out) if np.isscalar(s) else out

    return evaluate


def transform(spec: ClusterSpec, policy: Policy, report: StationaryReport):
    """Build a reusable evaluator of the admitted-job system-time transform.

    The evaluator takes s as a complex scalar, returning a Python complex, or
    as an ndarray of complex points, returning the transform at each in the
    same shape. The recursion runs once per call over all the points, so its
    working set grows with the number of points; ``ilt`` calls it one block
    of time points at a time. At s = 0 the transform equals one minus the
    loss probability; divide by that mass for the proper density.
    """
    _check_regime(policy, report)
    levels = _levels(spec, _entry_weights(spec, policy, report))
    mus = [np.asarray(t.curve.rates) for t in spec.types]
    if report.regime == "jsq":
        wb = (spec.lam - report.z0) / report.y0
        return _pointwise([
            partial(_add_laplace_jsq, mu, wb, report.i0, lv)
            for mu, lv in zip(mus, levels)
        ])
    rates = _arrival_rates(spec, policy, report)
    return _pointwise([
        partial(_add_laplace, mu, a, lv) for mu, a, lv in zip(mus, rates, levels)
    ])


@dataclass
class DensityResult:
    t: np.ndarray
    density: np.ndarray
    flagged: np.ndarray
    checked: list = dataclass_field(default_factory=list)

    def mass(self) -> float:
        """Trapezoid mass including the initial strip down to t = 0."""
        head = float(self.density[0]) * float(self.t[0])
        return head + float(np.trapezoid(self.density, self.t))


def invert(evaluator, t_grid, nodes: int = 64, check_points: int = 10,
           check_tol: float = 1e-6) -> DensityResult:
    """Invert a transform on a positive time grid with the Talbot rule.

    A handful of grid points are re-inverted with the Euler method; points
    where the two disagree beyond ``check_tol`` are flagged as unreliable
    rather than rejected.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (np.diff(t_grid) <= 0).any() or (t_grid <= 0).any():
        raise ValueError("t_grid must be strictly positive and increasing")
    density = ilt.talbot(evaluator, t_grid, nodes=nodes)
    flagged = np.zeros(len(t_grid), dtype=bool)
    checked = []
    rng = np.random.default_rng(0)
    idx = sorted(set(rng.integers(0, len(t_grid), size=min(check_points, len(t_grid)))))
    other = ilt.euler(evaluator, t_grid[idx])
    for i, val in zip(idx, other):
        gap = abs(val - density[i])
        checked.append((float(t_grid[i]), gap))
        if gap > check_tol * max(1.0, abs(density[i])):
            flagged[i] = True
    return DensityResult(t=t_grid, density=density, flagged=flagged, checked=checked)


@dataclass
class SojournDistribution:
    """Mean, loss, transform evaluator and density access for one policy."""

    mean: float
    loss_prob: float
    laplace: object

    def normalized_laplace(self, s) -> complex:
        return self.laplace(s) / (1.0 - self.loss_prob)

    def density(self, t_grid, nodes: int = 64, normalized: bool = True) -> DensityResult:
        res = invert(self.laplace, t_grid, nodes=nodes)
        if normalized:
            res.density = res.density / (1.0 - self.loss_prob)
        return res


def distribution(spec: ClusterSpec, policy: Policy, report: StationaryReport) -> SojournDistribution:
    mean, _ = mean_sojourn(spec, policy, report)
    return SojournDistribution(mean=mean, loss_prob=report.loss_prob,
                               laplace=transform(spec, policy, report))


def mean_sojourn_lps(spec: ClusterSpec, policy: Policy, report: StationaryReport):
    """Transform evaluator under limited processor sharing.

    The evaluator takes s the way ``transform``'s does: a complex scalar, or
    an ndarray of complex points evaluated with one stacked linear solve.
    Requires a multiprogramming level on every type and a regime where the
    dispatch field is continuous at the stationary point; the discontinuous
    regimes are not covered.
    """
    if report.regime not in CONTINUOUS_REGIMES:
        raise ValueError(
            f"lps system times are only defined for continuous regimes, not {report.regime!r}"
        )
    _check_regime(policy, report)
    for k, t in enumerate(spec.types):
        if t.mpl is None:
            raise ValueError(f"lps requires mpl on every type; type {k} has none")
    rates = _arrival_rates(spec, policy, report)
    levels = _levels(spec, _entry_weights(spec, policy, report))
    systems = [
        _LpsSystem(np.asarray(t.curve.rates), a, t.mpl)
        for t, a in zip(spec.types, rates)
    ]
    return _pointwise([partial(system.add, lv) for system, lv in zip(systems, levels)])


class _LpsSystem:
    """Per-type processor-sharing system; entry j maps to the tagged job's
    start state (in service if j <= mpl, else waiting at position j).

    The matrix is stored without s, which only adds to its diagonal.
    """

    def __init__(self, mu, a, mpl):
        m = int(mpl)
        b = len(mu) - 1
        index = {}
        for j in range(1, b + 1):
            index[(1, j)] = len(index)
        for j in range(m + 1, b + 1):
            for i in range(m + 1, j + 1):
                index[(i, j)] = len(index)
        n = len(index)
        mat = np.zeros((n, n))
        rhs = np.zeros(n)
        for (i, j), row in index.items():
            mat[row][row] = a[j] + mu[j]
            if j < b:
                mat[row][index[(i, j + 1)]] -= a[j]
            if i == 1:
                share = m if j >= m else j
                if j > 1:
                    mat[row][index[(1, j - 1)]] -= mu[j] * (share - 1) / share
                rhs[row] = mu[j] / share
            elif i == m + 1:
                mat[row][index[(1, j - 1)]] -= mu[j]
            else:
                mat[row][index[(i - 1, j - 1)]] -= mu[j]
        self.mat, self.rhs = mat, rhs
        self.entry = {j: index[(1, j) if j <= m else (j, j)] for j in range(1, b + 1)}

    def add(self, levels, s, acc):
        """Solve at every point of the 1-D complex array ``s`` with one
        stacked solve, and add the entry-weighted solutions into ``acc``.
        The stack holds len(s) dense n x n matrices."""
        n = len(self.rhs)
        mats = np.empty((len(s), n, n), dtype=complex)
        mats[:] = self.mat
        diag = np.arange(n)
        mats[:, diag, diag] += s[:, None]
        sol = np.linalg.solve(mats, self.rhs)
        for j, w in levels.items():
            acc += w * sol[:, self.entry[j]]
