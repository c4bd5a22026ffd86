import json

import numpy as np
import pytest

from lbmf import ode, stationary, systemtime
from lbmf.model import (ClusterSpec, ConvergenceError, Occupancy, Policy,
                        ServerType, ServiceRateCurve, ValidationError)

from conftest import ALL_POLICIES
from oracles import CONTINUOUS_REGIMES, mm1b_mean_system_time, reference_queues


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


def test_jsq_direct_call_refuses_uncovered_load():
    """Called without ``solve``'s validation, solve_jsq still refuses a
    load that no queue length's capacity covers."""
    spec = ClusterSpec(lam=2.0, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0, 1.5])),))
    with pytest.raises(ValidationError, match="no queue length covers the load"):
        stationary.solve_jsq(spec)


@pytest.mark.parametrize("solver", [
    stationary.solve_random, stationary.solve_jiq, stationary.solve_jsq,
    stationary.solve_jbt, lambda spec: stationary.solve_jsqd(spec, 2)],
    ids=["random", "jiq", "jsq", "jbt", "jsqd"])
def test_direct_call_refuses_zero_service_rate(solver):
    """Called without ``solve``'s validation, each solver names the type
    that does not serve instead of dividing by its zero rate."""
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(0.5, ServiceRateCurve.from_mu([0.0, 0.0]), mpl=1),
        ServerType(0.5, ServiceRateCurve.from_mu([1.0, 2.0]), mpl=1)))
    with pytest.raises(ValidationError, match="^type 0: service rates must be positive"):
        solver(spec)


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


@pytest.mark.parametrize("lam,d", [(0.5, 2), (0.9, 2), (0.7, 3), (0.9, 20)])
def test_jsqd_unit_rate_tails_closed_form(lam, d):
    """One type with rate 1: the tails are lam**((d**i - 1) / (d - 1))
    (Vvedenskaya, Dobrushin & Karpelevich 1996; Mitzenmacher 2001); at
    buffer 12 the truncation is far below roundoff."""
    spec = ClusterSpec(lam=lam, types=(ServerType(1.0, ServiceRateCurve.from_mu([1.0] * 12)),))
    nu = stationary.solve_jsqd(spec, d).nu.parts[0]
    tails = np.cumsum(nu[::-1])[::-1]
    i = np.arange(13.0)
    assert np.abs(tails - lam ** ((d ** i - 1) / (d - 1))).max() <= 1e-14


@pytest.mark.parametrize("cluster,rho", [("hom_spec", 0.9999), ("het_spec", 0.999),
                                         ("b266_spec", 0.999)])
def test_jsqd_near_critical(request, cluster, rho):
    """d = 20 close to full capacity, where the mass piles up below a
    double-exponential front that moves as the load rises; with unequal
    buffers the pooled start differs most from the types' own balance."""
    types = request.getfixturevalue(cluster).types
    spec = ClusterSpec(lam=rho * capacity(types, max(t.buffer for t in types)), types=types)
    rep = stationary.solve_jsqd(spec, 20)
    assert stationary.jsqd_balance_residual(spec, 20, rep.nu) <= 1e-12


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
        if rep.regime in CONTINUOUS_REGIMES:
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


def test_jsqd_stalled_homotopy_names_its_stage(het_spec, monkeypatch):
    """With no Newton iterations allowed every stage fails; the error names
    the policy, the load, the stage reached and the residual."""
    monkeypatch.setattr(stationary, "NEWTON_ITER", 0)
    with pytest.raises(ConvergenceError, match=r"jsqd\(2\) at lambda 1\.6: .* t = 0, residual") as err:
        stationary.solve_jsqd(het_spec, 2)
    assert err.value.residual > 0


@pytest.mark.parametrize("policy,kind", [(Policy("random"), "random"),
                                         (Policy("jsqd", d=2), "jsqd"),
                                         (Policy("jbt"), "jbt"),
                                         (Policy("jsqd", d=2), "jsqd-het"),
                                         (Policy("jsqd", d=5), "jsqd-het")])
def test_solvers_agree_with_transient_limit(request, policy, kind):
    spec = request.getfixturevalue("het_spec" if kind.endswith("-het") else "hom_spec")
    rep = stationary.solve(spec, policy)
    nu = ode.solve_to_stationarity(Occupancy.empty(spec), spec, policy, tol=1e-8, dt=0.01)
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


def random_spec(rng):
    """One to three types with buffers 1..6, thresholds, and rate curves
    that are sometimes flat, always with nonincreasing per-job rates."""
    k = int(rng.integers(1, 4))
    types = []
    for gamma in rng.dirichlet(np.full(k, 2.0)):
        b = int(rng.integers(1, 7))
        mu = [float(rng.uniform(0.3, 2.0))]
        for i in range(1, b):
            step = 1.0 if rng.random() < 0.3 else rng.uniform(1.0, (i + 1) / i)
            mu.append(mu[-1] * step)
        types.append(ServerType(float(gamma), ServiceRateCurve.from_mu(mu),
                                mpl=int(rng.integers(1, b + 1))))
    return types


def capacity(types, i):
    return sum(t.gamma * t.curve.rates[min(i, t.buffer)] for t in types)


SWEEP_POLICIES = {"jiq": [Policy("jiq")], "jbt": [Policy("jbt")], "jsq": [Policy("jsq")],
                  "jsqd": [Policy("jsqd", d=d) for d in (2, 5, 20)]}


def sweep_loads(rng, types):
    """Random loads across each policy's stability region, loads exactly at
    each covering capacity, and loads just either side of sum(gamma mu(1))."""
    full = capacity(types, max(t.buffer for t in types))
    limits = {"jiq": full, "jbt": sum(t.gamma * t.curve.rates[t.mpl] for t in types),
              "jsq": capacity(types, min(t.buffer for t in types)), "jsqd": full}
    loads = []
    for kind, limit in limits.items():
        for rho in (*rng.uniform(0.0, 1.0, 3), 1 - 10 ** -rng.uniform(2, 6)):
            loads.append(rho * limit)
    loads += [capacity(types, i) for i in range(1, max(t.buffer for t in types) + 1)]
    loads += [capacity(types, 1) * (1 + e) for e in (-1e-9, 1e-9)]
    return [(lam, policy) for lam in loads for kind, limit in limits.items()
            if 0 < lam < full and (lam <= limit if kind == "jsq" else lam < limit)
            for policy in SWEEP_POLICIES[kind]]


def sweep_cases():
    """(spec, policy) over twelve seeded random specs and their sweep loads."""
    rng = np.random.default_rng(2024)
    for _ in range(12):
        types = random_spec(rng)
        for lam, policy in sweep_loads(rng, types):
            yield ClusterSpec(lam=float(lam), types=types), policy


def balance_residual(spec, policy, rep):
    """Sup-norm defect of the report's stationary equations and type masses."""
    lam, z0 = spec.lam, rep.z0
    res = [abs(p.sum() - t.gamma) for t, p in zip(spec.types, rep.nu.parts)]
    if rep.regime in CONTINUOUS_REGIMES:
        res += [np.max(np.abs(d)) for d in ode.rhs(rep.nu, spec, policy)]
    elif rep.regime == "jsq":
        i0, w = rep.i0, (lam - z0) / rep.y0
        lower = np.array([p[i0 - 1] for p in rep.nu.parts])
        res += [abs(t.curve.rates[i0] * p[i0] - w * p[i0 - 1])
                for t, p in zip(spec.types, rep.nu.parts)]
        res += [abs(rep.y0 - lower.sum()),
                abs(z0 - sum(t.curve.rates[i0 - 1] * p for t, p in zip(spec.types, lower)))]
    elif rep.regime == "jiq-supercritical":
        res.append(abs(z0 - sum(t.curve.rates[1] * p[1] for t, p in zip(spec.types, rep.nu.parts))))
        for t, p in zip(spec.types, rep.nu.parts):
            res += [abs((lam - z0) * p[i] - t.curve.rates[i + 1] * p[i + 1])
                    for i in range(1, t.buffer)]
    else:  # critical: all mass at i0, whose capacity is the load
        i0 = rep.i0 or 1
        res.append(abs(capacity(spec.types, i0) - lam))
        res += [abs(p[i0] - t.gamma) for t, p in zip(spec.types, rep.nu.parts)]
    return max(res)


def test_random_specs_balance_little_and_mass():
    """Seeded sweep over random specs: every jiq/jsq/jbt/jsqd(2, 5, 20) solve
    satisfies its balance equations, its mean sojourn agrees with Little's
    law, and its transform at 0 carries the admitted mass (the C08 identity)."""
    regimes = set()
    for spec, policy in sweep_cases():
        rep = stationary.solve(spec, policy)
        regimes.add(rep.regime)
        where = (policy.label(), spec.lam, rep.regime, spec.types)
        assert balance_residual(spec, policy, rep) <= 1e-12, where
        mean, _ = systemtime.mean_sojourn(spec, policy, rep)
        _, little = stationary.little(spec, policy, rep)
        assert abs(mean - little) <= 1e-10 * little, where
        mass = systemtime.transform(spec, policy, rep)(0j).real
        assert abs(mass + rep.loss_prob - 1.0) < 1e-9, where
    assert regimes == {"jiq-subcritical", "jiq-critical", "jiq-supercritical",
                       "jsq-subcritical", "jsq-critical", "jsq", "jbt", "jsqd"}


def assert_rates_match_reference(spec, policy, rep):
    """The report's arrival rates, zero below the floor and past each
    buffer, carry the flows a[j] nu[j] below each buffer, the floor, the
    effective arrival rates and the loss that the oracle derives regime by
    regime from the dispatch field. Flows, not rates: where a length holds
    little mass, the field fixes its rate only loosely. The bound 2e-13 lam
    is the one that the JSQ(d) solver's stop at |T(alpha) - alpha| <=
    1e-14 lam d sets at d = 20."""
    where = (policy.label(), spec.lam, rep.regime, spec.types)
    inside = np.arange(rep.arrivals.shape[1]) <= rep.nu.buffers[:, None]
    assert rep.arrivals.shape == rep.nu.array.shape and not rep.arrivals[~inside].any(), where
    admitted = 0.0
    for t, nu, a_k, lam_k, (a, lo, levels) in zip(
            spec.types, rep.nu.parts, rep.arrivals, rep.lambda_eff,
            reference_queues(spec, policy, rep)):
        b, w = t.buffer, sum(levels.values())
        assert rep.floor == lo and not a_k[:lo].any(), where
        assert np.abs((a_k[:b] - a[:b]) * nu[:b]).max() <= 2e-13 * spec.lam, where
        assert abs(lam_k - spec.lam * w / t.gamma) <= 2e-13 * spec.lam, where
        admitted += w
    assert abs(rep.loss_prob - (1.0 - admitted)) <= 2e-13, where


def test_report_rates_match_dispatch_reference(hom_spec, het_spec, b5_spec):
    """Every policy on the benchmark clusters, then the random-spec sweep."""
    for spec in (hom_spec, het_spec, b5_spec):
        for policy in ALL_POLICIES:
            assert_rates_match_reference(spec, policy, stationary.solve(spec, policy))
    for spec, policy in sweep_cases():
        assert_rates_match_reference(spec, policy, stationary.solve(spec, policy))
