import dataclasses
import hashlib
import tracemalloc

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


def test_run_reports_null_events_and_wall_time(het_spec):
    res = sim.run(het_spec, Policy("jsqd", d=2), n=200, horizon=20, seed=4,
                  sample_interval=1.0)
    assert res.null_events == 0
    assert res.wall_time > 0.0


def test_records_after_last_sample_are_kept(hom_spec):
    """Records move into their stores at sample ticks; when the interval does
    not divide the horizon, the departures after the last tick still count."""
    res = sim.run(hom_spec, Policy("jsqd", d=2), n=100, horizon=10.3, seed=6,
                  sample_interval=1.0)
    assert res.trajectory.times[-1] == 10.0
    for records in (res.arrival_time, res.departure_time, res.server_type,
                    res.length_seen):
        assert len(records) == res.completions
    assert res.arrivals == res.losses + res.completions + res.in_flight
    assert res.departure_time.max() > res.trajectory.times[-1]


def test_horizon_just_below_a_tick_fills_its_sample(hom_spec):
    """A horizon within 1e-9 intervals below a tick still gets that tick, and
    its row holds the state at the horizon, not uninitialized memory."""
    res = sim.run(hom_spec, Policy("jsq"), n=50, horizon=2.9999999995, seed=1,
                  sample_interval=1.0)
    assert res.trajectory.times[-1] == 3.0
    assert np.allclose(res.trajectory.parts[0].sum(axis=1), 1.0)


@pytest.mark.slow
def test_run_memory_is_bounded_by_its_records(hom_spec):
    """A run's traced peak stays within 3x the bytes of the records it
    returns: finished jobs are not held as Python objects until the end.
    Tracing every allocation makes this run about 30x slower than untraced."""
    policy = Policy("jsqd", d=2)
    sim.run(hom_spec, policy, n=1000, horizon=60, seed=1)  # warm-up
    tracemalloc.start()
    try:
        res = sim.run(hom_spec, policy, n=1000, horizon=60, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    record_bytes = sum(a.nbytes for a in (res.arrival_time, res.departure_time,
                                          res.server_type, res.length_seen))
    assert peak < 3 * record_bytes, (peak, record_bytes)


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


def _draw_digest(res):
    """SHA-256 (first 16 hex digits) of one run's records and counters."""
    h = hashlib.sha256()
    for a in (res.arrival_time, res.departure_time, res.server_type,
              res.length_seen, *res.trajectory.parts):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((res.arrivals, res.losses, res.completions,
                   res.in_flight)).encode())
    return h.hexdigest()[:16]


GOLDEN_POLICIES = {
    "random": Policy("random"), "jiq": Policy("jiq"),
    "jsqd2": Policy("jsqd", d=2), "jsqd5": Policy("jsqd", d=5),
    "jsq": Policy("jsq"), "jbt": Policy("jbt"),
    "jsq@0.5": Policy("jsq", control=0.5),
    "jsqd2@0.7": Policy("jsqd", d=2, control=0.7),
    "jsqd200": Policy("jsqd", d=200),  # d >= n: full shortest queue
}

# (fixture, seed, horizon, lam): lam None keeps the fixture's arrival rate
GOLDEN_DIGESTS = {
    ("hom_spec", 3, 50, None): {
        "random": "8b514ed9f7a642cb", "jiq": "564b3597ea28ed9e",
        "jsqd2": "4ed6e92ef9f0bccb", "jsqd5": "452fd187c65fd0e8",
        "jsq": "06339a1c50075660", "jbt": "46ea6ceadad08998",
        "jsq@0.5": "8df9fa0119c5ae95", "jsqd2@0.7": "1db1299fb8728cfc",
        "jsqd200": "06339a1c50075660",
    },
    ("hom_spec", 11, 50, None): {
        "random": "11a34f65ab30bfa4", "jiq": "d7237bf1db7ef0fe",
        "jsqd2": "ec3d988d6ab180f4", "jsqd5": "5e45b3fdbce6f4b2",
        "jsq": "81bb4c98039959de", "jbt": "44bf02e193d4bc73",
        "jsq@0.5": "58f0afb5cd2dffc5", "jsqd2@0.7": "b88dce4e323c7d51",
        "jsqd200": "81bb4c98039959de",
    },
    ("het_spec", 3, 50, None): {
        "random": "74bce89ed40e53f1", "jiq": "c8638a352ea0be3f",
        "jsqd2": "c938d0f9bbd56547", "jsqd5": "4e6fc92548f08efe",
        "jsq": "df68c1bbeca31184", "jbt": "3ad7371c7c3ee15c",
        "jsq@0.5": "65b2c9561e90cdf3", "jsqd2@0.7": "decd4c477aaabd36",
        "jsqd200": "df68c1bbeca31184",
    },
    ("het_spec", 11, 50, None): {
        "random": "f41441bf54771fb6", "jiq": "51986e4fc3c722ec",
        "jsqd2": "7ac5d9f286a67945", "jsqd5": "ae40886b8c0aeebf",
        "jsq": "e6722a48da56443f", "jbt": "a285edad3eb07574",
        "jsq@0.5": "5b43f1b1f482d033", "jsqd2@0.7": "45d2ac9c40908250",
        "jsqd200": "e6722a48da56443f",
    },
    # unequal buffers, 3 and 7: the bucket rows differ in length
    ("b37_spec", 3, 50, None): {
        "random": "48d1f2cf6311d819", "jiq": "3fa147304dde925e",
        "jsqd2": "8c909737bc6b7217", "jsqd5": "aae9917675af5e2e",
        "jsq": "012b89eedaff6abc", "jbt": "3a2d50f8de9fc49b",
        "jsq@0.5": "5fcb910c951fb84d", "jsqd2@0.7": "404dcd70350490ea",
        "jsqd200": "012b89eedaff6abc",
    },
    # above the smaller buffer's capacity, so JSQ loses jobs; the horizon
    # falls between sample ticks, so records after the last tick count
    ("b37_spec", 5, 50.3, 1.7): {
        "random": "409cbcbb1c31bfa0", "jiq": "a86d186c8bd01037",
        "jsqd2": "a993ce8cc7dc4603", "jsqd5": "a7ed3f269452352b",
        "jsq": "288975cedeb1d776", "jbt": "f5e98a8765e72a06",
        "jsq@0.5": "33a844d35dc3468d", "jsqd2@0.7": "b0b4280235ed51f1",
        "jsqd200": "288975cedeb1d776",
    },
}


def _golden_id(case):
    """``seed-fixture``, then the horizon and rate where they are not 50 and
    the fixture's own."""
    fixture, seed, horizon, lam = case
    extra = ([] if horizon == 50 else [f"h{horizon}"]) + ([] if lam is None else [f"lam{lam}"])
    return "-".join([str(seed), fixture, *extra])


@pytest.mark.parametrize("case", GOLDEN_DIGESTS, ids=_golden_id)
def test_run_is_bit_identical_to_recorded_draws(request, case):
    """Each run's realization is pinned: n = 200 up to horizon 50 crosses at
    least one refill of both draw blocks, so block timing is pinned too."""
    fixture, seed, horizon, lam = case
    spec = request.getfixturevalue(fixture)
    if lam is not None:
        spec = dataclasses.replace(spec, lam=lam)
    got = {}
    for name, policy in GOLDEN_POLICIES.items():
        res = sim.run(spec, policy, n=200, horizon=horizon, seed=seed,
                      sample_interval=1.0)
        assert res.arrivals + res.completions > sim._BLOCK
        got[name] = _draw_digest(res)
    assert got == GOLDEN_DIGESTS[case]
