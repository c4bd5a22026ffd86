import numpy as np
import pytest

from lbmf import ilt, stationary, systemtime
from lbmf.model import ClusterSpec, Policy, ServerType, ServiceRateCurve, ValidationError

from conftest import ALL_POLICIES
from oracles import lps_transform_dense, reference_queues, sojourn_weights


def closed_form_b5(s):
    return (24 * s + 65) ** 4 / (5 * (2 * s + 5) ** 3 * (10 * s + 13) ** 4)


def reference_boundary(spec, rep):
    """(arrival rate at the lower level, i0) of the two-level jsq regime, or
    None. Critical jsq at i0 is the two-level regime one level up with no
    arrivals at its lower level: completions there are refilled at once."""
    if rep.regime == "jsq":
        return (spec.lam - rep.z0) / rep.y0, rep.i0
    if rep.regime == "jsq-critical":
        return 0.0, rep.i0 + 1
    return None


def reference_means(spec, policy, rep):
    """The per-type mean tables, one entry at a time; the two-level jsq
    regime fills back instantly below its boundary and only drains above."""
    tables = []
    for k, t in enumerate(spec.types):
        mu = t.curve.rates
        b = t.buffer
        h = np.zeros((b + 1, b + 2))
        if boundary := reference_boundary(spec, rep):
            wb, i0 = boundary
            for i in range(1, b + 1):
                for j in range(b, max(i0, i) - 1, -1):
                    h[i][j] = 1.0 / mu[j] + h[i - 1][j - 1]
                if i <= i0 - 1:
                    num = 1.0 + wb * h[i][i0]
                    if i >= 2:
                        num += mu[i0 - 1] * h[i - 1][i0 - 1]
                    h[i][i0 - 1] = num / (wb + mu[i0 - 1])
                    for j in range(i0 - 2, i - 1, -1):
                        h[i][j] = h[i][j + 1]
        else:
            a = reference_queues(spec, policy, rep)[k][0]
            for i in range(1, b + 1):
                for j in range(b, i - 1, -1):
                    num = 1.0 + mu[j] * h[i - 1][j - 1]
                    if j < b:
                        num += a[j] * h[i][j + 1]
                    h[i][j] = num / (a[j] + mu[j])
        tables.append(h)
    return tables


def reference_transform(spec, policy, rep, s):
    """The transform at one point s from the full per-type tables, built one
    complex entry at a time."""
    tables = []
    for k, t in enumerate(spec.types):
        mu = t.curve.rates
        b = t.buffer
        h = np.zeros((b + 1, b + 2), dtype=complex)
        h[0, :] = 1.0
        if boundary := reference_boundary(spec, rep):
            wb, i0 = boundary
            for i in range(1, b + 1):
                for j in range(b, max(i0, i) - 1, -1):
                    h[i][j] = mu[j] / (s + mu[j]) * h[i - 1][j - 1]
                if i <= i0 - 1:
                    num = wb * h[i][i0] + mu[i0 - 1] * h[i - 1][i0 - 1]
                    h[i][i0 - 1] = num / (s + wb + mu[i0 - 1])
                    for j in range(i0 - 2, i - 1, -1):
                        h[i][j] = h[i][j + 1]
        else:
            a = reference_queues(spec, policy, rep)[k][0]
            for i in range(1, b + 1):
                for j in range(b, i - 1, -1):
                    num = mu[j] * h[i - 1][j - 1]
                    if j < b:
                        num += a[j] * h[i][j + 1]
                    h[i][j] = num / (s + a[j] + mu[j])
        tables.append(h)
    weights = sojourn_weights(spec, policy, rep)
    return complex(sum(w * tables[k][j][j] for k, j, w in weights))


def assert_means_match_reference(spec, policy, rep):
    """Defined entries (max(i, lo) <= j) match the reference to 1e-14
    relative, the rest are zero, and so does the weighted mean."""
    mean, tables = systemtime.mean_sojourn(spec, policy, rep)
    want = reference_means(spec, policy, rep)
    boundary = reference_boundary(spec, rep)
    lo = boundary[1] - 1 if boundary else 0
    for h, ref in zip(tables, want):
        assert h.shape == ref.shape
        i, j = np.indices(h.shape)
        defined = (i >= 1) & (j >= np.maximum(i, lo)) & (j < h.shape[0])
        assert np.all(np.abs(h - ref)[defined] <= 1e-14 * np.abs(ref[defined])), rep.regime
        assert not h[~defined].any()
    weights = sojourn_weights(spec, policy, rep)
    ref_mean = (sum(w * want[k][j][j] for k, j, w in weights)
                / sum(w for _, _, w in weights))
    assert mean == pytest.approx(ref_mean, rel=1e-14)


def sample_points(rng, shape):
    s = rng.uniform(0, 5, shape) + 1j * rng.uniform(-5, 5, shape)
    s.flat[:3] = (0.0, 1e-6, -1e-6)
    return s


def inversion_nodes(t_max, points=300):
    """Every point at which ``invert`` evaluates a transform on a grid of
    ``points`` times out to ``t_max``: the Talbot nodes, some in the left
    half-plane, then the Euler nodes."""
    nodes = []

    def record(s):
        nodes.append(s.reshape(-1))
        return np.ones(s.shape, dtype=complex)

    grid = np.linspace(t_max / points, t_max, points)
    ilt.talbot(record, grid)
    ilt.euler(record, grid)
    return np.concatenate(nodes)


def test_constant_rate_means_are_position_over_rate():
    spec = ClusterSpec(lam=0.7, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.3] * 6)),))
    rep = stationary.solve_random(spec)
    _, tables = systemtime.mean_sojourn(spec, Policy("random"), rep)
    h = tables[0]
    for j in range(1, 7):
        for i in range(1, j + 1):
            assert h[i][j] == pytest.approx(i / 1.3, rel=1e-12)


def test_closed_form_transform(b5_spec):
    rep = stationary.solve_jsq(b5_spec)
    ev = systemtime.transform(b5_spec, Policy("jsq"), rep)
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = complex(rng.uniform(0, 5), rng.uniform(-5, 5))
        assert abs(ev(s) - closed_form_b5(s)) <= 1e-9 * abs(closed_form_b5(s))


def assert_transform_matches_reference(spec, policy, rep, s):
    ev = systemtime.transform(spec, policy, rep)
    got = ev(s)
    assert got.shape == s.shape
    want = np.vectorize(lambda x: reference_transform(spec, policy, rep, x))(s)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), rep.regime
    one = ev(complex(s.flat[5]))
    assert type(one) is complex and abs(one - got.flat[5]) <= 1e-13 * abs(one)


def reference_specs(b5_spec, hom_spec, het_spec):
    """Cover the continuous, jiq/jsq critical, jiq supercritical and two-level
    jsq regimes; lam 0.95 and 1.0 sit below and at sum(gamma*mu(1))."""
    return (b5_spec, hom_spec, het_spec,
            ClusterSpec(lam=0.95, types=hom_spec.types),
            ClusterSpec(lam=1.0, types=hom_spec.types))


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label())
def test_transform_on_arrays_matches_reference(b5_spec, hom_spec, het_spec, policy):
    s = sample_points(np.random.default_rng(21), (4, 5))
    for spec in reference_specs(b5_spec, hom_spec, het_spec):
        rep = stationary.solve(spec, policy)
        assert_transform_matches_reference(spec, policy, rep, s)


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label())
def test_means_match_reference(b5_spec, hom_spec, het_spec, policy):
    for spec in reference_specs(b5_spec, hom_spec, het_spec):
        rep = stationary.solve(spec, policy)
        assert_means_match_reference(spec, policy, rep)


@pytest.mark.parametrize("cluster,lam,regime,i0", [
    ("hom", 1.05, "jsq", 2), ("hom", 1.25, "jsq", 4), ("hom", 1.35, "jsq", 5),
    ("hom", 1.4, "jsq-critical", 5), ("hom", 1.45, "jsq", 6),
    ("het", 0.5, "jsq-subcritical", 1), ("het", 0.9, "jsq-subcritical", 1)])
def test_jsq_regimes_match_reference(hom_spec, het_spec, cluster, lam, regime, i0):
    """The floor of the two-level regime at every boundary level i0 - 1 the
    homogeneous cluster reaches, the critical load mu(5) between two of
    them, and two types below the critical load."""
    spec = ClusterSpec(lam=lam, types=(hom_spec if cluster == "hom" else het_spec).types)
    rep = stationary.solve_jsq(spec)
    assert (rep.regime, rep.i0) == (regime, i0)
    assert_means_match_reference(spec, Policy("jsq"), rep)
    s = sample_points(np.random.default_rng(23), 12)
    assert_transform_matches_reference(spec, Policy("jsq"), rep, s)


@pytest.mark.parametrize("lam,i0", [(1.1, 2), (1.2, 3), (1.3, 4), (1.4, 5)])
def test_jsq_critical_sojourn_is_erlang(hom_spec, lam, i0):
    """At lam = mu(i0) every queue holds i0 jobs and each completion is
    refilled at once, so a job waits out i0 services at rate mu(i0)."""
    spec = ClusterSpec(lam=lam, types=hom_spec.types)
    rep = stationary.solve_jsq(spec)
    assert (rep.regime, rep.i0) == ("jsq-critical", i0)
    mu = spec.types[0].curve.rates[i0]
    mean, _ = systemtime.mean_sojourn(spec, Policy("jsq"), rep)
    assert mean == pytest.approx(i0 / mu, rel=1e-14)
    s = sample_points(np.random.default_rng(29), 12)
    got = systemtime.transform(spec, Policy("jsq"), rep)(s)
    want = (mu / (s + mu)) ** i0
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_jbt_near_threshold_capacity(het_spec):
    """At rho = 0.9999 of the threshold capacity some levels hold mass far
    below any absolute floor but still receive arrivals."""
    cap = sum(t.gamma * t.curve.rates[t.mpl] for t in het_spec.types)
    spec = ClusterSpec(lam=0.9999 * cap, types=het_spec.types)
    rep = stationary.solve_jbt(spec)
    mean, _ = systemtime.mean_sojourn(spec, Policy("jbt"), rep)
    _, little = stationary.little(spec, Policy("jbt"), rep)
    assert mean == pytest.approx(little, rel=1e-12)


def test_jsq_weights_touch_only_boundary_levels(hom_spec):
    rep = stationary.solve_jsq(hom_spec)
    weights = sojourn_weights(hom_spec, Policy("jsq"), rep)
    assert sorted((k, j) for k, j, _ in weights) == [(0, 3), (0, 4)]
    assert sum(w for _, _, w in weights) == pytest.approx(1.0)


def test_weights_sum_to_admitted_mass(hom_spec, het_spec):
    for spec in (hom_spec, het_spec):
        for policy in ALL_POLICIES:
            rep = stationary.solve(spec, policy)
            weights = sojourn_weights(spec, policy, rep)
            assert sum(w for _, _, w in weights) == pytest.approx(
                1.0 - rep.loss_prob, abs=1e-12)


def test_dependency_order_is_acyclic(hom_spec):
    """Every unknown must resolve from already-computed ones when sweeping
    positions upward and lengths downward."""
    b = hom_spec.types[0].buffer
    seen = set()
    for i in range(1, b + 1):
        for j in range(b, i - 1, -1):
            deps = []
            if j < b:
                deps.append((i, j + 1))
            if i >= 2:
                deps.append((i - 1, j - 1))
            for dep in deps:
                if dep[0] >= 1:
                    assert dep in seen, (i, j, dep)
            seen.add((i, j))


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label())
def test_little_consistency(hom_spec, het_spec, policy):
    for spec in (hom_spec, het_spec):
        rep = stationary.solve(spec, policy)
        mean, _ = systemtime.mean_sojourn(spec, policy, rep)
        _, little = stationary.little(spec, policy, rep)
        assert abs(mean - little) < 1e-8


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label())
def test_transform_identities(b5_spec, policy):
    rep = stationary.solve(b5_spec, policy)
    dist = systemtime.distribution(b5_spec, policy, rep)
    ev = dist.laplace
    assert abs(ev(0).real + rep.loss_prob - 1.0) < 1e-9
    h = 1e-6
    moment = -((ev(h) - ev(-h)) / (2 * h)).real / ev(0).real
    assert abs(moment - dist.mean) < 1e-6


def test_regime_mismatch_rejected(hom_spec):
    rep = stationary.solve_random(hom_spec)
    with pytest.raises(ValueError, match="does not match"):
        systemtime.mean_sojourn(hom_spec, Policy("jsq"), rep)


def test_density_inversion_flags_clean(b5_spec):
    rep = stationary.solve_random(b5_spec)
    dist = systemtime.distribution(b5_spec, Policy("random"), rep)
    grid = np.linspace(0.02, 40, 800)
    res = systemtime.invert(dist.laplace, grid)
    assert not res.flagged.any()
    assert res.density.min() > -1e-6
    assert res.mass() == pytest.approx(1.0 - rep.loss_prob, abs=1e-3)


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label())
def test_inversion_is_bit_identical_for_every_block_size(hom_spec, het_spec, policy,
                                                         monkeypatch):
    """Talbot and Euler sum each time point's nodes on their own, in the same
    order, so the number of time points per transform call moves no bit of
    the density, the flags or the checked gaps."""
    grid = np.linspace(0.05, 30, 100)
    for spec in (hom_spec, het_spec):
        laplace = systemtime.transform(spec, policy, stationary.solve(spec, policy))
        got = []
        for block in (1, 8, 32, len(grid)):
            monkeypatch.setattr(ilt, "BLOCK", block)
            res = systemtime.invert(laplace, grid)
            got.append((res.density.tobytes(), res.flagged.tobytes(), res.checked))
        assert all(g == got[0] for g in got[1:])


def test_density_matches_mpmath_oracle(b5_spec):
    mpmath = pytest.importorskip("mpmath")
    rep = stationary.solve_jsq(b5_spec)
    dist = systemtime.distribution(b5_spec, Policy("jsq"), rep)
    ts = np.array([0.05, 0.3, 1.0, 2.5, 5.0, 10.0, 20.0, 30.0])
    got = systemtime.invert(dist.laplace, ts).density
    with mpmath.workdps(40):
        want = np.array([float(mpmath.invertlaplace(closed_form_b5, t, method="talbot"))
                         for t in ts])
    assert np.max(np.abs(got - want)) < 1e-9


def test_inversion_flags_where_talbot_and_euler_disagree():
    """1 / sqrt(s^2 + 1), the transform of the Bessel function J0, has branch
    points at +-i: the Euler line passes right of them, but the Talbot
    contour crosses the cut. Exactly the checked points whose gap exceeds
    the tolerance are flagged."""
    grid = np.linspace(0.2, 3.0, 15)
    res = systemtime.invert(lambda s: 1.0 / np.sqrt(s * s + 1.0), grid)
    assert res.flagged.any()
    gaps = dict(res.checked)
    for i, t in enumerate(grid):
        over = t in gaps and gaps[t] > systemtime.CHECK_TOL * max(1.0, abs(res.density[i]))
        assert res.flagged[i] == over


def test_inversion_flags_nan_points():
    """exp(-s) / s overflows on the Talbot contour near t = 1, so the first
    nine densities read NaN, and so do seven of the eight checked gaps:
    every NaN density is flagged, t = 1.08 for its finite gap over the
    tolerance, and only t = 1.1, unchecked, is clean."""
    with np.errstate(all="ignore"):
        res = systemtime.invert(lambda s: np.exp(-s) / s, np.linspace(0.9, 1.1, 11))
    assert np.isnan(res.density).tolist() == [True] * 9 + [False] * 2
    assert sum(np.isnan(gap) for _, gap in res.checked) == 7
    assert res.flagged.tolist() == [True] * 10 + [False]


@pytest.mark.parametrize("grid", [[1.0, 1.0, 2.0], [2.0, 1.0], [0.0, 1.0], [-1.0, 1.0]],
                         ids=["repeated", "decreasing", "zero", "negative"])
def test_inversion_refuses_bad_grid(grid):
    with pytest.raises(ValueError, match="^t_grid must be strictly positive and increasing$"):
        systemtime.invert(lambda s: 1.0 / (s + 1.0), grid)


def test_jsq_density_vanishes_at_zero(b5_spec):
    rep = stationary.solve_jsq(b5_spec)
    dist = systemtime.distribution(b5_spec, Policy("jsq"), rep)
    res = dist.density(np.array([1e-3, 0.01]))
    assert abs(res.density[0]) < 1e-4


def test_random_density_positive_at_zero(b5_spec):
    rep = stationary.solve_random(b5_spec)
    dist = systemtime.distribution(b5_spec, Policy("random"), rep)
    res = dist.density(np.array([1e-3, 0.01]))
    assert res.density[0] > 0.05


# --- limited processor sharing -------------------------------------------------

def test_lps_mpl_one_reduces_to_fifo():
    spec = ClusterSpec(lam=1.25, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0, 1.1, 1.2, 1.3, 1.4]), mpl=1),))
    rep = stationary.solve_random(spec)
    fifo = systemtime.transform(spec, Policy("random"), rep)
    lps = systemtime.mean_sojourn_lps(spec, Policy("random"), rep)
    s = np.concatenate((inversion_nodes(10.0), sample_points(np.random.default_rng(12), 50)))
    assert lps(s).tobytes() == fifo(s).tobytes()
    assert lps(1 + 2j) == fifo(1 + 2j)


@pytest.mark.parametrize("policy", [Policy("random"), Policy("jsqd", d=2), Policy("jbt")],
                         ids=lambda p: p.label())
def test_lps_matches_dense_oracle(hom_spec, het_spec, b37_spec, policy):
    """The tridiagonal sweep and the recursion agree with the tagged job's
    dense generator solved point by point, at every node that inverting a
    300-point density out to 15 means reaches and at random points."""
    for spec in (hom_spec, het_spec, b37_spec):
        rep = stationary.solve(spec, policy)
        mean, _ = systemtime.mean_sojourn(spec, policy, rep)
        s = np.concatenate((inversion_nodes(15.0 * mean),
                            sample_points(np.random.default_rng(31), 200)))
        got = systemtime.mean_sojourn_lps(spec, policy, rep)(s)
        want = lps_transform_dense(spec, policy, rep, s)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("policy", [Policy("random"), Policy("jsqd", d=2), Policy("jbt")],
                         ids=lambda p: p.label())
def test_lps_on_arrays_matches_pointwise(hom_spec, het_spec, policy):
    s = sample_points(np.random.default_rng(22), 12)
    for spec in (hom_spec, het_spec):
        rep = stationary.solve(spec, policy)
        lps = systemtime.mean_sojourn_lps(spec, policy, rep)
        got = lps(s)
        want = np.array([lps(complex(x)) for x in s])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert type(lps(1j)) is complex


def test_lps_requires_mpl_on_every_type(het_spec):
    """The model's mpl rule, raised as a ValidationError naming the type."""
    spec = ClusterSpec(lam=het_spec.lam, types=(
        het_spec.types[0], ServerType(0.25, het_spec.types[1].curve)))
    rep = stationary.solve_random(spec)
    with pytest.raises(ValidationError, match="lps requires mpl on every type; type 1 has none"):
        systemtime.mean_sojourn_lps(spec, Policy("random"), rep)


def test_lps_mean_is_discipline_independent(hom_spec):
    rep = stationary.solve_jbt(hom_spec)
    lps = systemtime.mean_sojourn_lps(hom_spec, Policy("jbt"), rep)
    h = 1e-6
    mean = -((lps(h) - lps(-h)) / (2 * h)).real / lps(0).real
    fifo_mean, _ = systemtime.mean_sojourn(hom_spec, Policy("jbt"), rep)
    assert mean == pytest.approx(fifo_mean, abs=1e-3)
    assert mean == pytest.approx(2.993, abs=1e-3)


def test_lps_rejects_discontinuous_regime(hom_spec):
    """Every report with a floor above 0 is refused: two-level jsq, both
    critical regimes and supercritical jiq; below the idle capacity jiq and
    jsq have floor 0 and are accepted."""
    cases = [(1.25, "jsq", "jsq"), (1.1, "jsq", "jsq-critical"), (1.0, "jiq", "jiq-critical"),
             (1.25, "jiq", "jiq-supercritical")]
    for lam, kind, regime in cases:
        spec = ClusterSpec(lam=lam, types=hom_spec.types)
        rep = stationary.solve(spec, Policy(kind))
        assert rep.regime == regime
        with pytest.raises(ValueError, match="continuous"):
            systemtime.mean_sojourn_lps(spec, Policy(kind), rep)
    spec = ClusterSpec(lam=0.95, types=hom_spec.types)
    for kind in ("jsq", "jiq"):
        rep = stationary.solve(spec, Policy(kind))
        assert rep.regime == f"{kind}-subcritical"
        systemtime.mean_sojourn_lps(spec, Policy(kind), rep)
