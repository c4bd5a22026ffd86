import numpy as np
import pytest

from lbmf import ode, sim, stationary
from lbmf.model import (ClusterSpec, ConvergenceError, Occupancy, Policy,
                        ServerType, ServiceRateCurve)


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


def test_rhs_conserves_type_mass(het_spec):
    rng = np.random.default_rng(13)
    for _ in range(10):
        parts = []
        for t in het_spec.types:
            v = rng.random(t.buffer + 1)
            parts.append(t.gamma * v / v.sum())
        for policy in (Policy("random"), Policy("jsq"), Policy("jbt")):
            d = ode.rhs(Occupancy(parts), het_spec, policy)
            for dk in d:
                assert abs(dk.sum()) < 1e-14


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
    res = stationary.jsqd_balance_residual(hom_spec, 2, traj.occupancy_at(-1))
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
    end = traj.occupancy_at(-1).parts[0]
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


def test_partial_control_shifts_minimum_level(hom_spec):
    """Mixing in uncontrolled traffic lowers the bulk's starting level."""
    traj = ode.integrate(Occupancy.empty(hom_spec), hom_spec,
                         Policy("jsq", control=0.3), horizon=120, dt=0.005,
                         sample_interval=30)
    end = traj.occupancy_at(-1).parts[0]
    assert end[0] < 1e-3 and end[1] < 0.02
    assert end[2] > 0.25  # bulk starts two levels up


def test_simulation_tracks_limit(hom_spec):
    mf = ode.integrate(Occupancy.empty(hom_spec), hom_spec, Policy("random"),
                       horizon=20, dt=0.002, sample_interval=0.25)
    res = sim.run(hom_spec, Policy("random"), n=10_000, horizon=20,
                  seed=42, sample_interval=0.25)
    assert res.trajectory.sup_distance(mf) < 5 / np.sqrt(10_000)
