import hashlib

import numpy as np
import pytest

from lbmf import dispatch, ode, sim, stationary
from lbmf.model import (ClusterSpec, ConvergenceError, Occupancy, Policy,
                        ServerType, ServiceRateCurve)

from conftest import ALL_POLICIES
from oracles import occupancy_at, sup_distance


def test_rhs_from_empty_state(hom_spec):
    v = Occupancy.empty(hom_spec)
    d = ode.rhs(v, hom_spec, Policy("jsq"))[0]
    lam = hom_spec.lam
    assert d[0] == pytest.approx(-lam)
    assert d[1] == pytest.approx(lam)
    assert d[2:].sum() == 0.0


def test_rhs_zero_at_random_stationary(hom_spec):
    rep = stationary.solve_random(hom_spec)
    d = ode.rhs(rep.nu, hom_spec, Policy("random"))[0]
    assert np.max(np.abs(d)) < 1e-12


def random_state(spec, rng):
    parts = []
    for t in spec.types:
        v = rng.random(t.buffer + 1)
        parts.append(t.gamma * v / v.sum())
    return Occupancy(parts)


def test_rhs_conserves_type_mass(het_spec, b37_spec):
    rng = np.random.default_rng(13)
    for spec in (het_spec, b37_spec):
        for _ in range(10):
            x = random_state(spec, rng)
            for policy in (Policy("random"), Policy("jsq"), Policy("jbt")):
                d = ode.rhs(x, spec, policy)
                for dk in d:
                    assert abs(dk.sum()) < 1e-14


def test_rhs_is_padded_array_and_field_exposes_parts(b37_spec):
    """``rhs`` hands back the padded (K, B_max + 1) array with each row
    summing to zero; a field on an Occupancy exposes per-type ``parts``
    arrays and a float ``loss``."""
    spec = b37_spec
    rng = np.random.default_rng(19)
    for policy in ALL_POLICIES:
        x = random_state(spec, rng)
        d = ode.rhs(x, spec, policy)
        assert isinstance(d, np.ndarray) and d.shape == x.array.shape == (2, 8)
        assert np.abs(d.sum(axis=1)).max() < 1e-14
        f = dispatch.field(x.array.tolist(), spec, policy)
        assert [p.shape for p in f.parts] == [(4,), (8,)]
        assert isinstance(f.loss, float)
        assert sum(p.sum() for p in f.parts) + f.loss == pytest.approx(1.0, abs=1e-12)


def test_unequal_buffers_rhs_and_padding(b37_spec, monkeypatch):
    """On buffers 3 and 7 the padded derivative equals the per-type formula
    exactly, and entries past a buffer stay exactly zero while integrating."""
    spec, lam = b37_spec, b37_spec.lam
    past = np.arange(8) > np.array(spec.buffers)[:, None]
    rng = np.random.default_rng(17)
    for policy in ALL_POLICIES:
        for _ in range(10):
            x = random_state(spec, rng)
            d = ode.rhs(x, spec, policy)
            f = dispatch.field(x.array.tolist(), spec, policy).parts
            for k, (t, p, fp) in enumerate(zip(spec.types, x.parts, f)):
                mu, b = t.curve.rates, t.buffer
                want = [(lam * fp[i - 1] if i else 0.0) - lam * fp[i]
                        + (mu[i + 1] * p[i + 1] if i < b else 0.0) - mu[i] * p[i]
                        for i in range(b + 1)]
                assert d[k, :b + 1].tolist() == want
            assert (d[past] == 0.0).all()

    seen = []
    field = dispatch.field

    def spy(x, spec, policy):
        f = field(x, spec, policy)
        seen.append(np.abs(np.array(x)[past]).max() + np.abs(np.array(f.rows)[past]).max())
        return f

    monkeypatch.setattr(dispatch, "field", spy)
    for policy in ALL_POLICIES:  # from a state with mass on every level
        ode.integrate(random_state(spec, rng), spec, policy, horizon=2, dt=0.01,
                      sample_interval=0.5)
    assert len(seen) > 1000 and max(seen) == 0.0


def test_zero_arrivals_constant_trajectory(hom_spec):
    frozen = ClusterSpec.__new__(ClusterSpec)  # bypass stability validation
    object.__setattr__(frozen, "lam", 0.0)
    object.__setattr__(frozen, "types", hom_spec.types)
    traj = ode.integrate(Occupancy.empty(frozen), frozen, Policy("random"),
                         horizon=5, dt=0.01, sample_interval=1.0)
    assert np.all(traj.parts[0][:, 0] == 1.0)


def test_mass_conserved_along_trajectory(het_spec):
    traj = ode.integrate(Occupancy.empty(het_spec), het_spec, Policy("jsq"),
                         horizon=15, dt=0.005, sample_interval=0.5)
    for t, part in zip(het_spec.types, traj.parts):
        drift = np.abs(part.sum(axis=1) - t.gamma)
        assert drift.max() < 1e-9
        assert part.min() >= 0.0


def test_jsqd_terminal_balance(hom_spec):
    traj = ode.integrate(Occupancy.empty(hom_spec), hom_spec, Policy("jsqd", d=2),
                         horizon=200, dt=0.01, sample_interval=10)
    res = stationary.jsqd_balance_residual(hom_spec, 2, occupancy_at(traj, -1))
    assert res < 1e-6


def test_jsq_levels_fill_in_order(hom_spec):
    """The shortest-queue trajectory walks the bulk through consecutive
    queue-length pairs without skipping."""
    traj = ode.integrate(Occupancy.empty(hom_spec), hom_spec, Policy("jsq"),
                         horizon=40, dt=0.005, sample_interval=0.5)
    mins = [int(np.flatnonzero(traj.parts[0][i] > 0.05)[0])
            for i in range(len(traj.times))]
    assert all(a <= b for a, b in zip(mins, mins[1:]))
    assert mins[0] == 0 and mins[-1] == 3
    end = traj.parts[0][-1]
    assert end[3] + end[4] > 0.99


def test_order_two_away_from_jumps(hom_spec):
    def terminal(dt):
        traj = ode.integrate(Occupancy.empty(hom_spec), hom_spec, Policy("random"),
                             horizon=10, dt=dt, sample_interval=10)
        return traj.parts[0][-1]

    delta = np.abs(terminal(0.02) - terminal(0.01)).max()
    assert delta < 4 * 0.02 ** 2


def test_stationarity_jiq_subcritical(hom_spec):
    spec = ClusterSpec(lam=0.95, types=hom_spec.types)
    nu = ode.solve_to_stationarity(Occupancy.empty(spec), spec, Policy("jiq"),
                                   tol=1e-9, dt=0.01)
    p = nu.parts[0]
    assert p[2:].sum() < 1e-9
    assert p[1] == pytest.approx(0.95, abs=1e-6)


def test_stationarity_jbt_below_threshold(hom_spec):
    nu = ode.solve_to_stationarity(Occupancy.empty(hom_spec), hom_spec,
                                   Policy("jbt"), tol=1e-9, dt=0.01)
    p = nu.parts[0]
    assert p[6:].sum() < 1e-9
    assert p[:5].sum() > 0.5  # availability stays positive


def test_stationarity_fails_at_discontinuous_attractor(hom_spec):
    with pytest.raises(ConvergenceError) as err:
        ode.solve_to_stationarity(Occupancy.empty(hom_spec), hom_spec,
                                  Policy("jsq"), tol=1e-9, t_max=60, dt=0.01)
    state = err.value.state.parts[0]
    assert err.value.residual > 1e-3
    assert state[3] + state[4] > 0.95  # parked at the two-point attractor


def test_integrate_stops_at_a_non_finite_state(hom_spec):
    """A NaN in the start state spreads through the step; the first sample
    that holds one raises, naming its time."""
    v0 = Occupancy([np.array([np.nan] + [0.0] * hom_spec.types[0].buffer)])
    with pytest.raises(ConvergenceError, match=r"^non-finite state at t=0.5$"):
        ode.integrate(v0, hom_spec, Policy("random"), horizon=1.0, dt=0.01,
                      sample_interval=0.5)


def test_partial_control_shifts_minimum_level(hom_spec):
    """Mixing in uncontrolled traffic lowers the bulk's starting level."""
    traj = ode.integrate(Occupancy.empty(hom_spec), hom_spec,
                         Policy("jsq", control=0.3), horizon=120, dt=0.005,
                         sample_interval=30)
    end = traj.parts[0][-1]
    assert end[0] < 1e-3 and end[1] < 0.02
    assert end[2] > 0.25  # bulk starts two levels up


def test_simulation_tracks_limit(hom_spec):
    mf = ode.integrate(Occupancy.empty(hom_spec), hom_spec, Policy("random"),
                       horizon=20, dt=0.002, sample_interval=0.25)
    res = sim.run(hom_spec, Policy("random"), n=10_000, horizon=20,
                  seed=42, sample_interval=0.25)
    assert sup_distance(res.trajectory, mf) < 5 / np.sqrt(10_000)


# SHA-256 over the bytes of each part of ode.integrate from the empty state
# at horizon 3, dt 0.002, recorded with the whole-array step that the float
# step replaced. jsqd is left out: its tail powers go through numpy's SIMD
# power, whose last bits may differ between CPUs.
TRAJECTORY_DIGESTS = {
    ("hom_spec", "random"):
        "97dcd4a95779a258ca1c771d63ca0364af0a4e1ca6bf9e005820752b69cd460e",
    ("hom_spec", "jiq"):
        "db5e57c8c39742c261b09e5f7dc618a8b29fdd534f911d634b432c3ad1eab47e",
    ("hom_spec", "jsq"):
        "3b7b2efd2d8742a6edd4c6fa69af821d899898ad75d81c2cc784bd906dd0ea2e",
    ("hom_spec", "jbt"):
        "ae7ba171a61959227714a4df55a76dde69bf559efd8bb17838a16c120e2fa2cf",
    ("hom_spec", "jsq@p=0.5"):
        "200af35c762d78fa1955d126b2ee700cdde09fbb6f70713bc8634cf0dc12ef1e",
    ("het_spec", "random"):
        "25e0a721b4467d7ee89402979f61f570cc1a7800a5208723c2c32bc9ddb25e5e",
    ("het_spec", "jiq"):
        "dc85e5b9d1bc427c8d6f12952947888aeb03b8cb548c409184be241800bd3a91",
    ("het_spec", "jsq"):
        "7c01bf09250746c79927644b5e190e06467d04a974f502ea005bce35f5d6ee2d",
    ("het_spec", "jbt"):
        "d31610602ac063cb6a8320efde465e512d9003fd80d5a397a08f60c4942097e5",
    ("het_spec", "jsq@p=0.5"):
        "557fc7ba5adcafc6835ff6da827128c7d3ca2ade521c213509ca5b477587b3b7",
    ("b37_spec", "random"):
        "bb650f321785a2eff8b2d1afb1f28ef544ed25e3ae5b6ff610c8f7d2297de20b",
    ("b37_spec", "jiq"):
        "17f2c61c7ae025525e33fbd6764a6ae95a0f18b12f75da370e071e587b82dbf4",
    ("b37_spec", "jsq"):
        "fd4a8454aad13ed9b4183fa649b2d8f296b2479ece8bb62d1ce3d4af2aa725c9",
    ("b37_spec", "jbt"):
        "88eefd20f2797c9abe72025ff3571775e9f86aef9acbb1a5fcd4ca0faeecbe66",
    ("b37_spec", "jsq@p=0.5"):
        "a5f5eade8b62bc1ecde501fa8f6247a988a23cefb7fd4fd5e6942356a02826ca",
    ("b266_spec", "random"):
        "29392fda803fa18651937f84cbc429f7dc8814ad65905260085f4afd7549c822",
    ("b266_spec", "jiq"):
        "0884463bff9666d95f56f2b1925283397245d7b190440ab944cadc0176a5d12a",
    ("b266_spec", "jsq"):
        "c0d951ec2316ad05fa5bb4779c8f0f2fdbc9861728ad3610a074ff231418dfbd",
    ("b266_spec", "jsq@p=0.5"):
        "30bb72a7c82de98ff42118eb2467c97abfcfde6e5f1a83e1919bde64f1bfa17b",
}
DIGEST_POLICIES = {p.label(): p for p in (Policy("random"), Policy("jiq"), Policy("jsq"),
                                           Policy("jbt"), Policy("jsq", control=0.5))}


@pytest.mark.parametrize("fixture, label", list(TRAJECTORY_DIGESTS))
def test_trajectory_matches_recorded_digest(fixture, label, request):
    spec = request.getfixturevalue(fixture)
    traj = ode.integrate(Occupancy.empty(spec), spec, DIGEST_POLICIES[label],
                         horizon=3, dt=0.002)
    digest = hashlib.sha256(b"".join(p.tobytes() for p in traj.parts)).hexdigest()
    assert digest == TRAJECTORY_DIGESTS[fixture, label]


def test_sweep_clears_below_the_floor_into_the_largest_entry():
    """``_sweep`` adds a row's nonzero entries below the floor, left to right
    from 0.0, to the row's largest entry as it stood before clearing; exact
    zeros of either sign, and rows with nothing below the floor, keep their bits."""
    # 2.1 + ((0.1 + 0.4) + 0.3) rounds up; the sum in reverse order, or the
    # entries added to 2.1 one by one, give 2.9
    x = [[0.1, 2.1, 0.4, 0.3], [0.0, 1.5, -0.0, 3.0]]
    clean = np.array(x[1]).tobytes()
    assert ode._sweep(x, 1.0) is x
    assert x[0] == [0.0, 2.9000000000000004, 0.0, 0.0]
    assert np.array(x[1]).tobytes() == clean
    x = [[0.25, -0.125, 0.5, -0.0]]
    ode._sweep(x, 0.0)
    assert np.array(x[0]).tobytes() == np.array([0.25, 0.0, 0.375, -0.0]).tobytes()
    # a row of dust only (a type share below (B + 1) * DUST): its mass stays
    # at its largest entry, which the sweep itself clears first
    x = [[0.0, 2e-14, 5e-14, -1e-15]]
    ode._sweep(x, ode.DUST)
    assert x == [[0.0, 0.0, 2e-14 + 5e-14 + -1e-15, 0.0]]


def test_integrate_sweeps_v0_once(het_spec):
    """Dust in ``v0`` is swept before the first step: sample 0 is ``v0`` as
    given, and the later samples match a digest recorded when ``_advance``
    swept at the top of every sub-step."""
    v0 = Occupancy.empty(het_spec)
    v0.array[0, 1] = 1e-14
    v0.array[1, 2] = -1e-15
    traj = ode.integrate(v0, het_spec, Policy("jsq"), horizon=1.0, dt=0.002,
                         sample_interval=0.25)
    assert [p[0].tobytes() for p in traj.parts] == [p.tobytes() for p in v0.parts]
    digest = hashlib.sha256(b"".join(p[1:].tobytes() for p in traj.parts)).hexdigest()
    assert digest == "06b1496fb0b753cff1937f8fac5b6624e37a47d04f95a54a470fd6bc372e2bc4"
