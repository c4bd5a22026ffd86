import math

import numpy as np
import pytest

from lbmf import ilt


def test_exponential_oracle():
    mu = 1.5
    ts = np.linspace(0.01, 10, 400)
    exact = mu * np.exp(-mu * ts)
    got = ilt.talbot(lambda s: mu / (s + mu), ts)
    assert np.max(np.abs(got - exact)) < 1e-8


def test_two_pole_rational():
    ts = np.linspace(0.05, 12, 300)
    exact = 2 * (np.exp(-ts) - np.exp(-2 * ts))
    f = lambda s: 2.0 / ((s + 1) * (s + 2))
    assert np.max(np.abs(ilt.talbot(f, ts) - exact)) < 1e-9
    assert np.max(np.abs(ilt.euler(f, ts) - exact)) < 1e-8


def test_methods_agree():
    f = lambda s: (s + 3) / ((s + 1) * (s + 2) * (s + 4))
    ts = np.geomspace(0.05, 20, 40)
    a = ilt.talbot(f, ts)
    b = ilt.euler(f, ts)
    assert np.max(np.abs(a - b)) < 1e-6


def test_positive_times_required():
    with pytest.raises(ValueError):
        ilt.talbot(lambda s: 1 / s, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ilt.euler(lambda s: 1 / s, np.array([-1.0]))


def talbot_reference(f, ts, m=64):
    """Fixed Talbot one time point and one node at a time."""
    r = min(2.0 * m / 5.0, 12.0)
    theta = np.arange(1, m) * math.pi / m
    cot = 1.0 / np.tan(theta)
    bracket = 1.0 + 1j * theta * (1.0 + cot * cot) - 1j * cot
    shape = theta * (cot + 1j)
    out = []
    for t in ts:
        p0 = r / t
        acc = 0.5 * math.exp(r) * f(complex(p0))
        for pk, bk in zip(p0 * shape, bracket):
            acc += np.exp(t * pk) * bk * f(complex(pk))
        out.append((r / (m * t)) * acc.real)
    return np.array(out)


def euler_reference(f, ts, n=18):
    """Euler summation one time point and one term at a time."""
    binom = [math.comb(n, k) for k in range(n + 1)]
    xi = [0.5] + [1.0] * n + [0.0] * n
    xi[2 * n] = 2.0 ** -n
    for k in range(1, n):
        xi[2 * n - k] = xi[2 * n - k + 1] + 2.0 ** -n * binom[k]
    a = n * math.log(10.0) / 3.0
    out = []
    for t in ts:
        acc = 0.0
        for k in range(2 * n + 1):
            acc += (-1.0) ** k * xi[k] * f(complex(a / t, math.pi * k / t)).real
        out.append(10.0 ** (n / 3.0) * acc / t)
    return np.array(out)


@pytest.mark.parametrize("length", [1, ilt.BLOCK - 1, ilt.BLOCK + 1, 300])
def test_blocked_inversion_matches_pointwise_loop(length):
    """Same nodes summed in the same order; array and scalar complex
    arithmetic may round differently, and one rounding of a term moves the
    result by up to eps times the method's gain: e^r for Talbot, 10^(n/3)
    for Euler."""
    eps = np.finfo(float).eps
    f = lambda s: (s + 3) / ((s + 1) * (s + 2) * (s + 4))
    ts = np.linspace(0.05, 20, length)
    calls = []

    def counted(s):
        calls.append(s.size)
        return f(s)

    got = ilt.talbot(counted, ts)
    assert calls == [64 * len(ts[lo:lo + ilt.BLOCK]) for lo in range(0, length, ilt.BLOCK)]
    assert np.max(np.abs(got - talbot_reference(f, ts))) <= math.exp(12.0) * eps
    assert np.max(np.abs(ilt.euler(f, ts) - euler_reference(f, ts))) <= 1e6 * eps
