"""Numerical inverse Laplace transforms.

Two classic fixed-parameter methods working in double precision:

* ``talbot`` - the fixed Talbot contour (Abate & Valko 2004). The contour
  radius is capped at 12 instead of the textbook 2M/5 coupling: beyond that
  the e^r amplification eats double-precision mantissa faster than the extra
  nodes help. Suited to rational transforms with poles on the negative real
  axis, which is exactly what the sojourn-time systems produce.
* ``euler`` - Bromwich trapezoid with Euler summation (Abate & Whitt),
  used as an independent cross-check.

Both take a transform ``F`` and an array of strictly positive times. ``F``
is called with an ndarray of complex points and returns the transform at
each, in the same shape. Each call covers the nodes of up to ``BLOCK`` time
points, which bounds the working set of the transform; per time point the
nodes are summed in the same order as the textbook loop.
"""

from __future__ import annotations

import math

import numpy as np

# Time points per transform call: 512 Talbot nodes at the default 64. Blocks
# of 16 raised the peak memory of a density followed by a simulation above
# that of the one-point-at-a-time loop; blocks of 8 did not.
BLOCK = 8


def talbot(transform, ts, nodes: int = 64, r: float | None = None) -> np.ndarray:
    """Invert ``transform`` on the time grid ``ts`` with the fixed Talbot rule."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if (ts <= 0).any():
        raise ValueError("talbot requires strictly positive times")
    m = int(nodes)
    if r is None:
        r = min(2.0 * m / 5.0, 12.0)
    theta = np.arange(1, m) * math.pi / m
    cot = 1.0 / np.tan(theta)
    # Contour direction factors; the theta -> 0 limit of the bracket is 1.
    bracket = 1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot
    shape = theta * (cot + 1j)
    out = np.empty(len(ts))
    for lo in range(0, len(ts), BLOCK):
        t = ts[lo:lo + BLOCK, None]
        p0 = r / t
        p = p0 * shape
        f = transform(np.concatenate((p0 + 0j, p), axis=1))
        acc = 0.5 * math.exp(r) * f[:, 0]
        terms = np.exp(t * p) * bracket * f[:, 1:]
        for term in terms.T:
            acc += term
        out[lo:lo + BLOCK] = (r / (m * t[:, 0])) * acc.real
    return out


def _euler_xi(n: int) -> np.ndarray:
    xi = np.zeros(2 * n + 1)
    xi[0] = 0.5
    xi[1:n + 1] = 1.0
    xi[2 * n] = 2.0 ** -n
    for k in range(1, n):
        xi[2 * n - k] = xi[2 * n - k + 1] + 2.0 ** -n * math.comb(n, k)
    return xi


def euler(transform, ts, terms: int = 37) -> np.ndarray:
    """Invert ``transform`` on ``ts`` with the Euler-summation method.

    ``terms`` is the number of transform evaluations per time point (2n+1).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if (ts <= 0).any():
        raise ValueError("euler requires strictly positive times")
    n = (int(terms) - 1) // 2
    if n < 1:
        raise ValueError("terms must be at least 3")
    xi = _euler_xi(n)
    k = np.arange(2 * n + 1)
    eta = (-1.0) ** k * xi
    a = n * math.log(10.0) / 3.0
    scale = 10.0 ** (n / 3.0)
    out = np.empty(len(ts))
    for lo in range(0, len(ts), BLOCK):
        t = ts[lo:lo + BLOCK, None]
        s = np.empty((len(t), len(k)), dtype=complex)
        s.real = a / t
        s.imag = math.pi * k / t
        f = transform(s).real
        acc = np.zeros(len(t))
        for col, e in zip(f.T, eta):
            acc += e * col
        out[lo:lo + BLOCK] = scale * acc / t[:, 0]
    return out
