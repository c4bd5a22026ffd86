import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from lbmf import sim, stationary
from lbmf.model import ClusterSpec, Policy, ServerType, ServiceRateCurve, ValidationError

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


@pytest.mark.parametrize("mu", [[0.0, 0.0], [np.nan, 2.0]], ids=["zero", "nan"])
def test_run_refuses_a_type_that_does_not_serve(mu):
    """A type's slot is as wide as its top rate, so a type without a
    positive rate is refused by name, not divided by."""
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(0.5, ServiceRateCurve.from_mu(mu)),
        ServerType(0.5, ServiceRateCurve.from_mu([1.0, 2.0]))))
    with pytest.raises(ValidationError, match="^type 0: service rates must be positive"):
        sim.run(spec, Policy("random"), n=10, horizon=1.0, seed=0)


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
    """Arrivals, completions and null events are every tick of the clock,
    whose count up to the horizon is Poisson with mean rate * horizon."""
    n, horizon = 200, 20
    res = sim.run(het_spec, Policy("jsqd", d=2), n=n, horizon=horizon, seed=4,
                  sample_interval=1.0)
    rate = het_spec.lam * n + sum(
        c * max(t.curve.rates) for c, t in zip(sim.place_servers(het_spec, n), het_spec.types))
    ticks = res.arrivals + res.completions + res.null_events
    assert res.null_events > 0
    assert abs(ticks - rate * horizon) < 4 * np.sqrt(rate * horizon)
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


@pytest.mark.slow
def test_random_policy_matches_closed_form_per_type(het_spec):
    """Per-type occupancy on two types whose slots differ in width (top
    rates 1.0 and 4.0); a homogeneous cluster has one width and cannot show
    a wrong one."""
    rep = stationary.solve_random(het_spec)
    runs = []
    for k in range(6):
        res = sim.run(het_spec, Policy("random"), n=1000, horizon=100,
                      seed=(32, k), sample_interval=2.0)
        runs.append([part[20:].mean(axis=0) for part in res.trajectory.parts])
    for k, want in enumerate(rep.nu.parts):
        got = np.array([r[k] for r in runs])
        se = got.std(axis=0, ddof=1) / np.sqrt(len(got))
        z = np.abs(got.mean(axis=0) - want) / np.maximum(se, 1e-9)
        assert z.max() < 4.0, (k, got.mean(axis=0), want)


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

def test_every_policy_sees_the_same_tick_process(het_spec):
    """Tick times and marks are drawn apart from the state, so at one seed
    every policy, with or without control and with d >= n, has the same
    arrivals and the same ticks before the horizon."""
    seen = {}
    for name, policy in GOLDEN_POLICIES.items():
        res = sim.run(het_spec, policy, n=200, horizon=30, seed=8)
        seen[name] = (res.arrivals, res.arrivals + res.completions + res.null_events)
    assert len(set(seen.values())) == 1, seen


# (fixture, seed, horizon, lam): lam None keeps the fixture's arrival rate
GOLDEN_DIGESTS = {
    ("hom_spec", 3, 50, None): {
        "random": "b4a138ea68fa2e02", "jiq": "2ecd447174851036",
        "jsqd2": "08ed34f2d910b409", "jsqd5": "4a8518f0d7123d00",
        "jsq": "a325155d26c269db", "jbt": "953243f8db11d7eb",
        "jsq@0.5": "a93f827cb7e97608", "jsqd2@0.7": "8c04714588167c62",
        "jsqd200": "a325155d26c269db",
    },
    ("hom_spec", 11, 50, None): {
        "random": "8e7e60b99f34eacd", "jiq": "eaa9f9d9fc01d64f",
        "jsqd2": "a6e848555f945772", "jsqd5": "fbe9d466d0447388",
        "jsq": "dc777731dc9e8f0b", "jbt": "6a14b4ef34a93e8b",
        "jsq@0.5": "efe8aee85dcdeab0", "jsqd2@0.7": "4e0efd3de87f16b2",
        "jsqd200": "dc777731dc9e8f0b",
    },
    ("het_spec", 3, 50, None): {
        "random": "e4ea736a4c397bc6", "jiq": "5296ed930f568a49",
        "jsqd2": "a482ddbadbd66f61", "jsqd5": "f248a45fd4c056d3",
        "jsq": "4131f4af10b77154", "jbt": "f4938dd45936f0c9",
        "jsq@0.5": "1fbbf4b54eac55f1", "jsqd2@0.7": "2363cd3416e237c8",
        "jsqd200": "4131f4af10b77154",
    },
    ("het_spec", 11, 50, None): {
        "random": "f7d7d0b776444f6c", "jiq": "7b3ef3a6d4c3fe76",
        "jsqd2": "bb075765679fef94", "jsqd5": "1e0b143eab7e6614",
        "jsq": "144ee08eb8458d4c", "jbt": "d2a1506582d526f9",
        "jsq@0.5": "b4abc462895b344b", "jsqd2@0.7": "bebf0a7735da496d",
        "jsqd200": "144ee08eb8458d4c",
    },
    # unequal buffers, 3 and 7: the types' sample rows differ in length
    ("b37_spec", 3, 50, None): {
        "random": "ca048ad87d288052", "jiq": "cd49cc7eb8a8afa5",
        "jsqd2": "f2b80d02e965f5d0", "jsqd5": "8c8871a09514f2e2",
        "jsq": "bcbbefda9ce9876e", "jbt": "a71dc53d1062b11b",
        "jsq@0.5": "4e711442bd28f764", "jsqd2@0.7": "3f3cd9902ab8d62e",
        "jsqd200": "bcbbefda9ce9876e",
    },
    # above the smaller buffer's capacity, so JSQ loses jobs; the horizon
    # falls between sample ticks, so records after the last tick count
    ("b37_spec", 5, 50.3, 1.7): {
        "random": "2273fddfa78100be", "jiq": "8fcd4d84beb53b02",
        "jsqd2": "fbdc27399f40c492", "jsqd5": "890dae2a3c551817",
        "jsq": "4b2fcc0666aa2e8c", "jbt": "be5cd0193bbf6c40",
        "jsq@0.5": "c72a76a13d4d766c", "jsqd2@0.7": "37f3fc1393b9999c",
        "jsqd200": "4b2fcc0666aa2e8c",
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
    least one refill of the tick blocks, and of JSQ(d)'s candidate blocks,
    so block timing is pinned too."""
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
