import numpy as np
import pytest

from lbmf import sim, stationary
from lbmf.model import ClusterSpec, Policy, ServerType, ServiceRateCurve

from oracles import ctmc_stationary_occupancy


def small_spec(lam=1.0, mu=1.5, b=2, mpl=None):
    return ClusterSpec(lam=lam, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([mu] * b), mpl=mpl),))


def test_placement_largest_remainder(het_spec):
    assert sim.place_servers(het_spec, 1000) == [750, 250]
    assert sim.place_servers(het_spec, 10) == [8, 2]
    # every type keeps at least one server
    tiny = ClusterSpec(lam=0.5, types=(
        ServerType(0.99, ServiceRateCurve.from_mu([1.0] * 3)),
        ServerType(0.01, ServiceRateCurve.from_mu([1.0] * 3))))
    assert sim.place_servers(tiny, 5) == [4, 1]
    with pytest.raises(ValueError):
        sim.place_servers(het_spec, 1)


def test_no_arrivals_no_events(hom_spec):
    frozen = ClusterSpec.__new__(ClusterSpec)
    object.__setattr__(frozen, "lam", 0.0)
    object.__setattr__(frozen, "types", hom_spec.types)
    res = sim.run(frozen, Policy("random"), n=50, horizon=10, seed=0,
                  sample_interval=1.0)
    assert res.arrivals == 0 and res.completions == 0
    assert np.all(res.trajectory.parts[0][:, 0] == 1.0)


def test_deterministic_replay(hom_spec):
    a = sim.run(hom_spec, Policy("jsqd", d=2), n=200, horizon=30, seed=123,
                sample_interval=0.5)
    b = sim.run(hom_spec, Policy("jsqd", d=2), n=200, horizon=30, seed=123,
                sample_interval=0.5)
    assert np.array_equal(a.arrival_time, b.arrival_time)
    assert np.array_equal(a.departure_time, b.departure_time)
    assert np.array_equal(a.trajectory.parts[0], b.trajectory.parts[0])
    assert (a.arrivals, a.losses) == (b.arrivals, b.losses)


def test_counts_reconcile(het_spec):
    res = sim.run(het_spec, Policy("jsq"), n=300, horizon=40, seed=5,
                  sample_interval=1.0)
    assert res.admitted == res.completions + res.in_flight
    assert res.arrivals == res.admitted + res.losses
    # per-sample masses add to the type fractions
    for t, part, n_k in zip(het_spec.types, res.trajectory.parts,
                            sim.place_servers(het_spec, 300)):
        assert np.allclose(part.sum(axis=1), n_k / 300)


def test_fifo_departure_order_single_server():
    spec = small_spec(lam=0.8, mu=1.0, b=4)
    res = sim.run(spec, Policy("random"), n=1, horizon=500, seed=9,
                  sample_interval=10)
    order = np.argsort(res.arrival_time)
    assert np.all(np.diff(res.departure_time[order]) > 0)


def test_constant_rate_sojourn_expectation():
    """Under a constant service rate and FIFO, later arrivals never change a
    job's wait, so its mean sojourn is (position at arrival + 1) / mu."""
    spec = small_spec(lam=1.0, mu=1.5, b=4)
    res = sim.run(spec, Policy("random"), n=50, horizon=400, seed=21,
                  sample_interval=10)
    soj = res.departure_time - res.arrival_time
    for seen in range(3):
        mask = res.length_seen == seen
        sample = soj[mask]
        expect = (seen + 1) / 1.5
        se = sample.std(ddof=1) / np.sqrt(len(sample))
        assert abs(sample.mean() - expect) < 4 * se


def test_replicate_order_independent(hom_spec):
    serial = sim.replicate(hom_spec, Policy("jiq"), n=100, horizon=10, seed=7,
                           r=4, sample_interval=1.0, workers=1)
    parallel = sim.replicate(hom_spec, Policy("jiq"), n=100, horizon=10, seed=7,
                             r=4, sample_interval=1.0, workers=2)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.arrival_time, b.arrival_time)
        assert a.losses == b.losses


def test_replicate_single_is_plain_run(hom_spec):
    child = sim.replication_seeds(7, 1)[0]
    direct = sim.run(hom_spec, Policy("random"), n=100, horizon=10, seed=child,
                     sample_interval=1.0)
    reps = sim.replicate(hom_spec, Policy("random"), n=100, horizon=10, seed=7,
                         r=1, sample_interval=1.0, workers=1)
    assert np.array_equal(direct.arrival_time, reps[0].arrival_time)


def test_time_average_matches_exact_chain():
    """Tiny clusters against the exact count-process stationary solve."""
    spec = small_spec()
    cases = [
        (Policy("random"), dict(policy="random")),
        (Policy("jiq"), dict(policy="jiq")),
        (Policy("jsq"), dict(policy="jsq")),
        (Policy("jsqd", d=2), dict(policy="jsqd", d=2)),
    ]
    for policy, okw in cases:
        exact = ctmc_stationary_occupancy(3, spec.lam, spec.types[0].curve.rates,
                                          **okw)
        reps = []
        for k in range(10):
            res = sim.run(spec, policy, n=3, horizon=1500, seed=(17, k),
                          sample_interval=2.0)
            reps.append(res.trajectory.parts[0][150:].mean(axis=0))
        reps = np.array(reps)
        mean = reps.mean(axis=0)
        se = reps.std(axis=0, ddof=1) / np.sqrt(len(reps))
        z = np.abs(mean - exact) / np.maximum(se, 1e-9)
        assert z.max() < 4.0, (policy.label(), mean, exact)


@pytest.mark.slow
def test_random_policy_matches_closed_form(hom_spec):
    """Independent-queue closed form as the simulator's occupancy oracle."""
    rep = stationary.solve_random(hom_spec)
    runs = []
    for k in range(5):
        res = sim.run(hom_spec, Policy("random"), n=2000, horizon=150,
                      seed=(31, k), sample_interval=2.0)
        runs.append(res.trajectory.parts[0][40:].mean(axis=0))
    runs = np.array(runs)
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
    z = np.abs(mean - rep.nu.parts[0]) / np.maximum(se, 1e-9)
    assert z.max() < 4.0
