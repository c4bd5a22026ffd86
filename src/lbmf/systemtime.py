"""System-time (sojourn) analysis in the stationary regime.

Follows a tagged job at position i of a queue holding j jobs. Watching for
the next change in that queue gives, per server type, one triangular
recursion

    H[i, j] = (c + mu[j] H[i-1, max(j-1, lo)] + a[j] H[i, j+1]) / (s + a[j] + mu[j])

with c = 1, s = 0 and H[0, .] = 0 for the mean remaining times, and c = 0
and H[0, .] = 1 for their Laplace transforms at s. Every stationary state
is a set of per-type chains, so the recursion reads it straight from the
report: the arrival rates a[j] that a single queue of length j receives,
and the floor lo, the length at which a completion is refilled at once, so
that shorter queues are never reached. Arrivals at the buffer are lost, so
a[B] counts as 0. A job joins a length-j queue at position j with weight

    w_j = (a[j-1] nu[j-1] + [j = lo] mu[lo] nu[lo]) / lam,

arrivals at length j - 1 plus, at the floor, refills; the weights over all
types sum to the admitted fraction.

``mean_sojourn_lps`` covers limited processor sharing, where up to ``mpl``
jobs split a server's capacity evenly. A job in service at length j is one
of k = min(j, mpl) jobs sharing it: it completes at rate mu[j] / k, moves
to length j - 1 at rate mu[j] (k - 1) / k and to j + 1 at rate a[j]. Its
row H1 is tridiagonal in j: one elimination going up in j and one back
substitution going down solve it, with no pivoting and no matrix. A job
waiting at position i > mpl moves as under FIFO and enters service at
mpl + 1, so the waiting rows are the recursion started from H1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import ilt
from .model import ClusterSpec, Policy, ValidationError, left_sum, mpl_violations
from .stationary import StationaryReport

# Talbot points re-inverted with Euler, and the relative gap that flags one.
CHECK_POINTS = 10
CHECK_TOL = 1e-6


def _check_regime(policy: Policy, report: StationaryReport):
    """A regime tag starts with its policy kind, as in ``jiq-critical``."""
    if report.regime.partition("-")[0] != policy.kind:
        raise ValueError(f"report regime {report.regime!r} does not match policy {policy.kind!r}")


@dataclass(frozen=True)
class _Queue:
    """One server type as the recursion sees it: service rates ``mu`` and
    arrival rates ``a`` indexed by queue length 0..B, the floor level ``lo``,
    and ``levels`` mapping an entry length j to its weight (an admitted job
    starts at position j of a length-j queue)."""

    mu: tuple
    a: list
    lo: int
    levels: dict

    def add_transform(self, s, acc, mpl=0):
        """Add the entry-weighted diagonal H[j, j] of the transform recursion
        at the complex points ``s``, an array of any shape, into ``acc`` of
        that shape; H[j, j] is final after row j. Under limited processor
        sharing at level ``mpl`` a job that enters at j <= mpl is in
        service, and its entry is H1[j]."""
        row, start = [1.0] * len(self.mu) + [0.0], 1
        if mpl:
            row, start = _service_row(self, mpl, s), mpl + 1
            for j, w in self.levels.items():
                if j <= mpl:
                    acc += w * row[j]
        for i, row in _rows(self, 0.0, row, s, start):
            if i in self.levels:
                acc += self.levels[i] * row[i]


def _queues(spec, report):
    """Per-type recursion inputs from the report's arrival rates and floor."""
    lo, lam = report.floor, spec.lam
    queues = []
    for t, a, p in zip(spec.types, report.arrivals.tolist(), report.nu.array.tolist()):
        b, mu = t.buffer, t.curve.rates
        a = a[:b] + [0.0]
        levels = {}
        for j in range(max(lo, 1), b + 1):
            if w := a[j - 1] * p[j - 1] + (mu[lo] * p[lo] if j == lo else 0.0):
                levels[j] = w / lam
        queues.append(_Queue(mu, a, lo, levels))
    return queues


def _rows(q: _Queue, c, row, s, start=1):
    """Run the recursion for one type from row ``start - 1``, yielding
    (i, row) once row i is final.

    ``row`` has B + 2 entries and is overwritten in place, going down in j:
    H[i, j] reads H[i-1, max(j-1, lo)], not yet overwritten, and H[i, j+1],
    already new; ``row[B + 1]`` is a zero pad, since a[B] = 0. After row i,
    ``row[j]`` holds H[i, j] for max(i, lo) <= j <= B; lower entries are left
    over from earlier rows. Entries are floats for a float ``s`` and arrays
    over the points of an array ``s``.
    """
    mu, a, lo = q.mu, q.a, q.lo
    b = len(mu) - 1
    den = [s + a[j] + mu[j] for j in range(b + 1)]
    for i in range(start, b + 1):
        for j in range(b, max(i, lo) - 1, -1):
            row[j] = (c + mu[j] * row[max(j - 1, lo)] + a[j] * row[j + 1]) / den[j]
        yield i, row


def mean_sojourn(spec: ClusterSpec, policy: Policy, report: StationaryReport):
    """Mean system time of admitted jobs, plus the per-type H tables.

    Each type's queue is the report's chain: arrival rates
    ``report.arrivals`` above the refilled length ``lo = report.floor``.
    Table k has shape (B+1, B+2). Entry [i, j] is the mean remaining time of
    a job at position i of a length-j queue, defined for max(i, lo) <= j <= B;
    every other entry is zero.
    """
    _check_regime(policy, report)
    queues = _queues(spec, report)
    tables = []
    for q in queues:
        b = len(q.mu) - 1
        h = np.zeros((b + 1, b + 2))
        for i, row in _rows(q, 1.0, [0.0] * (b + 2), 0.0):
            start = max(i, q.lo)
            h[i, start:b + 1] = row[start:b + 1]
        tables.append(h)
    weights = [(k, j, w) for k, q in enumerate(queues) for j, w in q.levels.items()]
    total = left_sum(w for _, _, w in weights)
    mean = left_sum(w * tables[k][j][j] for k, j, w in weights) / total
    return float(mean), tables


def _pointwise(queues, mpls):
    """Evaluator over s summing each type's ``add_transform`` at its ``mpl``.

    ``s`` may be a complex scalar, which gives a Python complex back, or an
    ndarray of complex points, which gives an array of the same shape.
    """

    def evaluate(s):
        points = np.asarray(s, dtype=complex)
        acc = np.zeros(points.shape, dtype=complex)
        for q, mpl in zip(queues, mpls):
            q.add_transform(points, acc, mpl)
        return complex(acc) if np.isscalar(s) else acc

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
    return _pointwise(_queues(spec, report), [0] * spec.k)


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


def invert(evaluator, t_grid) -> DensityResult:
    """Invert a transform on a positive time grid with the Talbot rule.

    ``CHECK_POINTS`` grid points are re-inverted with the Euler method;
    points where the two disagree beyond ``CHECK_TOL``, or where the gap is
    NaN, are flagged as unreliable rather than rejected, and so is every
    point whose Talbot value is not finite.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (np.diff(t_grid) <= 0).any() or (t_grid <= 0).any():
        raise ValueError("t_grid must be strictly positive and increasing")
    density = ilt.talbot(evaluator, t_grid)
    flagged = ~np.isfinite(density)
    checked = []
    rng = np.random.default_rng(0)
    idx = sorted(set(rng.integers(0, len(t_grid), size=min(CHECK_POINTS, len(t_grid)))))
    other = ilt.euler(evaluator, t_grid[idx])
    for i, val in zip(idx, other):
        gap = abs(val - density[i])
        checked.append((float(t_grid[i]), gap))
        if not gap <= CHECK_TOL * max(1.0, abs(density[i])):  # a NaN gap flags too
            flagged[i] = True
    return DensityResult(t=t_grid, density=density, flagged=flagged, checked=checked)


@dataclass
class SojournDistribution:
    """Mean, loss, transform evaluator and density access for one policy."""

    mean: float
    loss_prob: float
    laplace: object

    def density(self, t_grid) -> DensityResult:
        """Admitted jobs' system-time density: ``invert``'s over 1 - loss_prob."""
        res = invert(self.laplace, t_grid)
        res.density = res.density / (1.0 - self.loss_prob)
        return res


def distribution(spec: ClusterSpec, policy: Policy, report: StationaryReport) -> SojournDistribution:
    mean, _ = mean_sojourn(spec, policy, report)
    return SojournDistribution(mean=mean, loss_prob=report.loss_prob,
                               laplace=transform(spec, policy, report))


def mean_sojourn_lps(spec: ClusterSpec, policy: Policy, report: StationaryReport):
    """Transform evaluator under limited processor sharing.

    The evaluator takes s the way ``transform``'s does: a complex scalar, or
    an ndarray of complex points, all swept at once. Requires a
    multiprogramming level on every type and a regime where the dispatch
    field is continuous at the stationary point, which are those with floor
    0; the discontinuous regimes are not covered.
    """
    if report.floor != 0:
        raise ValueError(
            f"lps system times are only defined for continuous regimes, not {report.regime!r}"
        )
    _check_regime(policy, report)
    ValidationError.check(mpl_violations(spec, "lps"))
    return _pointwise(_queues(spec, report), [int(t.mpl) for t in spec.types])


def _service_row(q: _Queue, mpl, s):
    """H1[1..B], the transform of a job in service, as a recursion row.

    At length j the job is one of k = min(j, mpl) in service, so
    (s + a[j] + mu[j]) H1[j] = mu[j] / k + mu[j] (k - 1) / k H1[j-1] + a[j] H1[j+1].
    Eliminating H1[j-1] going up leaves H1[j] = (r[j] + a[j] H1[j+1]) / d[j],
    solved going down; at mpl = 1 that is row 1 of the FIFO recursion, bit
    for bit.
    """
    mu, a = q.mu, q.a
    b = len(mu) - 1
    d, r = [None] * (b + 1), [None] * (b + 1)
    for j in range(1, b + 1):
        k = min(j, mpl)
        d[j], r[j] = s + a[j] + mu[j], mu[j] / k
        if k > 1:
            down = mu[j] * (k - 1) / k / d[j - 1]
            d[j], r[j] = d[j] - down * a[j - 1], r[j] + down * r[j - 1]
    row = [1.0] * (b + 1) + [0.0]
    for j in range(b, 0, -1):
        row[j] = (r[j] + a[j] * row[j + 1]) / d[j]
    return row
