import json

import numpy as np
import pytest

from lbmf import ode, stationary
from lbmf.model import (ClusterSpec, Occupancy, Policy, ServerType,
                        ServiceRateCurve, ValidationError)

from conftest import ALL_POLICIES
from oracles import mm1b_mean_system_time


def test_random_truncated_geometric():
    spec = ClusterSpec(lam=0.6, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0] * 6)),))
    rep = stationary.solve_random(spec)
    expect = 0.6 ** np.arange(7)
    expect /= expect.sum()
    assert np.allclose(rep.nu.parts[0], expect, atol=1e-14)


def test_random_loss_probability(hom_spec):
    rep = stationary.solve_random(hom_spec)
    assert rep.loss_prob == pytest.approx(0.0438, abs=5e-4)


def test_jiq_subcritical_closed_form(hom_spec):
    spec = ClusterSpec(lam=0.95, types=hom_spec.types)
    rep = stationary.solve_jiq(spec)
    assert rep.regime == "jiq-subcritical"
    assert rep.nu.parts[0][1] == pytest.approx(0.95, abs=1e-12)
    assert rep.nu.parts[0][0] == pytest.approx(0.05, abs=1e-12)
    assert rep.loss_prob == 0.0


def test_jiq_critical(hom_spec):
    spec = ClusterSpec(lam=1.0, types=hom_spec.types)
    rep = stationary.solve_jiq(spec)
    assert rep.regime == "jiq-critical"
    assert rep.nu.parts[0][1] == pytest.approx(1.0)


def test_jiq_supercritical_balance(hom_spec):
    rep = stationary.solve_jiq(hom_spec)
    assert rep.regime == "jiq-supercritical"
    nu = rep.nu.parts[0]
    assert nu[0] == 0.0
    r = hom_spec.lam - rep.z0
    mu = hom_spec.types[0].curve.rates
    for i in range(1, 10):
        assert r * nu[i] == pytest.approx(mu[i + 1] * nu[i + 1], abs=1e-12)
    assert rep.z0 == pytest.approx(mu[1] * nu[1], abs=1e-13)
    assert rep.loss_prob == pytest.approx((1 - rep.z0 / hom_spec.lam) * nu[10], abs=1e-13)


def test_jsq_two_point_mass(hom_spec):
    rep = stationary.solve_jsq(hom_spec)
    assert rep.i0 == 4
    assert rep.nu.parts[0][3] == pytest.approx(0.5, abs=1e-10)
    assert rep.nu.parts[0][4] == pytest.approx(0.5, abs=1e-10)
    assert rep.loss_prob == 0.0


def test_jsq_reduces_to_two_level_when_one_level_suffices():
    spec = ClusterSpec(lam=0.6, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0] * 6)),))
    rep = stationary.solve_jsq(spec)
    jiq = stationary.solve_jiq(spec)
    assert rep.regime == "jsq-subcritical" and rep.i0 == 1
    assert np.allclose(rep.nu.parts[0], jiq.nu.parts[0], atol=1e-12)


def test_jsq_heterogeneous_levels(het_spec):
    rep = stationary.solve_jsq(het_spec)
    assert rep.i0 == 5
    for p in rep.nu.parts:
        assert p[np.r_[0:4, 6:11]].sum() == pytest.approx(0.0, abs=1e-12)


def test_jsqd_one_equals_random(hom_spec):
    a = stationary.solve_jsqd(hom_spec, 1)
    b = stationary.solve_random(hom_spec)
    assert np.allclose(a.nu.parts[0], b.nu.parts[0], atol=1e-14)


def test_jsqd_balance_residuals(hom_spec, het_spec):
    for spec in (hom_spec, het_spec):
        for d in (2, 5):
            rep = stationary.solve_jsqd(spec, d)
            assert stationary.jsqd_balance_residual(spec, d, rep.nu) < 1e-10


def test_jbt_threshold_one_equals_jiq_subcritical():
    spec = ClusterSpec(lam=0.8, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0] * 6), mpl=1),))
    a = stationary.solve_jbt(spec)
    b = stationary.solve_jiq(spec)
    assert np.allclose(a.nu.parts[0], b.nu.parts[0], atol=1e-10)


def test_jbt_rejects_threshold_overload():
    # capacity at the thresholds is 0.8 < lambda although full capacity is 2
    spec = ClusterSpec(lam=1.0, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([0.8, 2.0, 2.0]), mpl=1),))
    with pytest.raises(ValidationError, match="threshold capacity"):
        stationary.solve_jbt(spec)


def test_jbt_support_ends_at_threshold(hom_spec):
    rep = stationary.solve_jbt(hom_spec)
    nu = rep.nu.parts[0]
    assert nu[6:].sum() == 0.0
    assert nu[5] > 0
    assert rep.y0 == pytest.approx(nu[:5].sum(), abs=1e-12)


def test_partial_control_not_solved(hom_spec):
    with pytest.raises(ValidationError, match="transient integrator"):
        stationary.solve(hom_spec, Policy("jsq", control=0.5))


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label())
def test_balance_residual_or_rhs(hom_spec, het_spec, policy):
    """Continuous regimes zero the transient derivative; two-point regimes
    satisfy their refill balance instead."""
    for spec in (hom_spec, het_spec):
        rep = stationary.solve(spec, policy)
        if rep.regime in stationary.CONTINUOUS_REGIMES:
            res = max(np.max(np.abs(d)) for d in ode.rhs(rep.nu, spec, policy))
            assert res < 1e-8, rep.regime
        else:
            lam = spec.lam
            z0 = rep.z0
            for t, p in zip(spec.types, rep.nu.parts):
                mu = t.curve.rates
                if rep.regime == "jiq-supercritical":
                    for i in range(1, t.buffer):
                        assert abs((lam - z0) * p[i] - mu[i + 1] * p[i + 1]) < 1e-10
                elif rep.regime == "jsq":
                    i0 = rep.i0
                    assert abs(mu[i0] * p[i0] - (lam - z0) * p[i0 - 1] / rep.y0) < 1e-10
                assert abs(p.sum() - t.gamma) < 1e-12


@pytest.mark.parametrize("policy,kind", [(Policy("random"), "random"),
                                         (Policy("jsqd", d=2), "jsqd"),
                                         (Policy("jbt"), "jbt")])
def test_solvers_agree_with_transient_limit(hom_spec, policy, kind):
    rep = stationary.solve(hom_spec, policy)
    nu = ode.solve_to_stationarity(Occupancy.empty(hom_spec), hom_spec, policy,
                                   tol=1e-8, dt=0.01)
    assert max(np.max(np.abs(a - b)) for a, b in zip(nu.parts, rep.nu.parts)) < 1e-6


def test_little_matches_single_queue_oracle():
    spec = ClusterSpec(lam=0.7, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0] * 8)),))
    rep = stationary.solve_random(spec)
    _, overall = stationary.little(spec, Policy("random"), rep)
    assert overall == pytest.approx(mm1b_mean_system_time(0.7, 1.0, 8), abs=1e-12)


def test_little_per_type_heterogeneous(het_spec):
    rep = stationary.solve_random(het_spec)
    per_type, overall = stationary.little(het_spec, Policy("random"), rep)
    assert per_type[0] == pytest.approx(8.425, abs=5e-3)
    assert per_type[1] == pytest.approx(1.274, abs=5e-3)
    assert overall == pytest.approx(5.933, abs=5e-3)


def test_jbt_per_type_means(het_spec):
    rep = stationary.solve_jbt(het_spec)
    per_type, _ = stationary.little(het_spec, Policy("jbt"), rep)
    assert per_type[0] == pytest.approx(1.000, abs=5e-3)
    assert per_type[1] == pytest.approx(1.250, abs=5e-3)


def test_report_serialization(hom_spec):
    rep = stationary.solve_jsq(hom_spec)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["i0"] == 4 and doc["regime"] == "jsq"
    assert doc["nu"][0][3] == pytest.approx(0.5)
    assert set(doc) == {"regime", "nu", "z0", "i0", "y0", "loss_prob", "lambda_eff"}
