import numpy as np
import pytest

from lbmf import dispatch
from lbmf.dispatch import (f_jbt, f_jiq, f_jsq, f_jsqd_limit, f_partial,
                           f_random, field)
from lbmf.model import ClusterSpec, Occupancy, Policy, ServerType, ServiceRateCurve

from conftest import ALL_POLICIES
from oracles import (brute_force_choice_of_two, field_total, per_type_field,
                     sample_target)


def state(x):
    """Occupancy x as the field functions take it: padded float rows and buffers."""
    return x.array.tolist(), x.buffers


def occ(*parts):
    return state(Occupancy([np.asarray(p, dtype=float) for p in parts]))


def random_states(spec, rng, count):
    """Valid occupancies, mixing interior points with sparse boundary ones."""
    out = []
    for _ in range(count):
        parts = []
        for t in spec.types:
            v = rng.random(t.buffer + 1)
            if rng.random() < 0.5:
                v *= rng.random(t.buffer + 1) < 0.4  # knock out levels
            if v.sum() == 0:
                v[rng.integers(t.buffer + 1)] = 1.0
            parts.append(t.gamma * v / v.sum())
        out.append(Occupancy(parts))
    return out


# --- random -----------------------------------------------------------------

def test_random_empty_cluster():
    f = f_random(*occ([1.0, 0, 0]))
    assert f.parts[0][0] == 1.0 and field_total(f) == 1.0 and f.loss == 0.0


def test_random_uniform_state_has_loss_channel():
    f = f_random(*occ(np.full(11, 1 / 11)))
    assert np.allclose(f.parts[0][:10], 1 / 11)
    assert f.parts[0][10] == 0.0
    assert f.loss == pytest.approx(1 / 11)


def test_random_full_type_is_all_loss():
    x = occ([0, 0, 0.6], [0.4, 0, 0])
    f = f_random(*x)
    assert f.loss == pytest.approx(0.6)
    assert f.parts[1][0] == pytest.approx(0.4)


# --- jiq ---------------------------------------------------------------------

def test_jiq_idle_share():
    x = occ([0.2, 0.3, 0, 0], [0.3, 0.2, 0, 0])
    f = f_jiq(*x)
    assert f.parts[0][0] == pytest.approx(0.4)
    assert f.parts[1][0] == pytest.approx(0.6)
    assert field_total(f) == pytest.approx(1.0)


def test_jiq_no_idle_falls_back_to_random():
    x = occ([0, 0.5, 0.5, 0])
    f = f_jiq(*x)
    g = f_random(*x)
    for a, b in zip(f.parts, g.parts):
        assert np.array_equal(a, b)
    assert f.loss == g.loss


def test_jiq_all_idle_gives_type_fractions():
    x = occ([0.7, 0, 0], [0.3, 0, 0])
    f = f_jiq(*x)
    assert f.parts[0][0] == pytest.approx(0.7)
    assert f.parts[1][0] == pytest.approx(0.3)


# --- jsq ---------------------------------------------------------------------

def test_jsq_targets_minimal_level():
    x = occ([0, 0, 0, 0.4, 0.6, 0, 0])
    f = f_jsq(*x)
    assert f.parts[0][3] == pytest.approx(1.0)
    assert f.parts[0][4] == 0.0


def test_jsq_empty_system_splits_by_gamma():
    x = occ([0.7, 0, 0], [0.3, 0, 0])
    f = f_jsq(*x)
    assert f.parts[0][0] == pytest.approx(0.7)
    assert f.parts[1][0] == pytest.approx(0.3)


def test_jsq_saturated_is_loss():
    f = f_jsq(*occ([0, 0, 1.0]))
    assert f.loss == pytest.approx(1.0) and field_total(f) == 0.0


def test_jsq_with_no_level_above_zero_mass_loses_everything():
    # every level's clipped mass, summed over types, is at most ZERO_MASS
    x = occ([4e-13, -3e-13, 5e-13], [2e-13, 0.0, 1e-13])
    f = f_jsq(*x)
    assert f.rows == [[0.0] * 3, [0.0] * 3]
    assert f.loss == float(np.sum(np.maximum(x[0], 0.0)))
    assert f.loss == pytest.approx(1.2e-12, rel=1e-12)


# --- jsqd --------------------------------------------------------------------

def test_jsqd_one_is_random(hom_spec):
    rng = np.random.default_rng(0)
    for x in random_states(hom_spec, rng, 20):
        f = f_jsqd_limit(*state(x), 1)
        g = f_random(*state(x))
        for a, b in zip(f.parts, g.parts):
            assert np.array_equal(a, b)


def test_jsqd_two_level_example():
    # two choices over a half-empty, half-single-job pool: the empty level
    # wins unless both draws miss it
    f = f_jsqd_limit(*occ([0.5, 0.5]), 2)
    assert f.parts[0][0] == pytest.approx(0.75)
    assert f.loss == pytest.approx(0.25)


def test_jsqd_matches_pair_enumeration(het_spec):
    rng = np.random.default_rng(1)
    for x in random_states(het_spec, rng, 10):
        f = f_jsqd_limit(*state(x), 2)
        ref_parts, ref_loss = brute_force_choice_of_two(x.parts)
        for a, b in zip(f.parts, ref_parts):
            assert np.allclose(a, b, atol=1e-12)
        assert f.loss == pytest.approx(ref_loss, abs=1e-12)


def test_jsqd_large_d_approaches_jsq():
    x = occ([0, 0, 0, 0.5, 0.5, 0, 0, 0, 0, 0, 0])
    f = f_jsqd_limit(*x, 10 ** 6)
    g = f_jsq(*x)
    for a, b in zip(f.parts, g.parts):
        assert np.allclose(a, b, atol=1e-9)


# --- jbt ---------------------------------------------------------------------

def test_jbt_threshold_one_is_jiq(het_spec):
    rng = np.random.default_rng(2)
    for x in random_states(het_spec, rng, 20):
        f = f_jbt(*state(x), [1, 1])
        g = f_jiq(*state(x))
        for a, b in zip(f.parts, g.parts):
            assert np.allclose(a, b, atol=1e-15)
        assert f.loss == pytest.approx(g.loss, abs=1e-15)


def test_jbt_threshold_at_buffer_is_random_when_available(het_spec):
    rng = np.random.default_rng(3)
    for x in random_states(het_spec, rng, 20):
        y = sum(p[:-1].sum() for p in x.parts)
        if y <= dispatch.ZERO_MASS:
            continue
        f = f_jbt(*state(x), [t.buffer for t in het_spec.types])
        g = f_random(*state(x))
        denom = y  # jbt renormalizes over available servers
        for a, b in zip(f.parts, g.parts):
            assert np.allclose(a * denom, b, atol=1e-12)


def test_jbt_all_above_threshold_falls_back():
    x = occ([0, 0, 0.6, 0.4])
    f = f_jbt(*x, [2])
    g = f_random(*x)
    for a, b in zip(f.parts, g.parts):
        assert np.array_equal(a, b)


# --- partial control ----------------------------------------------------------

def test_partial_identity_and_fixed_point(hom_spec):
    rng = np.random.default_rng(4)
    for x in random_states(hom_spec, rng, 10):
        inner = f_jsq(*state(x))
        assert f_partial(inner, x.array.tolist(), 1.0) is inner
        rnd = f_random(*state(x))
        mixed = f_partial(rnd, x.array.tolist(), 0.5)
        for a, b in zip(mixed.parts, rnd.parts):
            assert np.allclose(a, b, atol=1e-15)


def test_partial_is_convex_combination(hom_spec):
    x = occ([0, 0.4, 0.3, 0.2, 0.1, 0, 0, 0, 0, 0, 0])
    f = field(x[0], hom_spec, Policy("jsq", control=0.3))
    jsq_part = f_jsq(*x)
    rnd = f_random(*x)
    for a, b, c in zip(f.parts, jsq_part.parts, rnd.parts):
        assert np.allclose(a, 0.3 * b + 0.7 * c, atol=1e-15)


@pytest.mark.parametrize("call, match", [
    (lambda x, b, spec: f_jsqd_limit(x, b, 0), r"^d must be >= 1, got 0$"),
    (lambda x, b, spec: f_partial(f_random(x, b), x, 0.0),
     r"^control must be in \(0, 1\], got 0.0$"),
    (lambda x, b, spec: f_partial(f_random(x, b), x, 1.5),
     r"^control must be in \(0, 1\], got 1.5$"),
    (lambda x, b, spec: field(x, spec, Policy("lifo")), r"^unknown policy kind 'lifo'$")],
    ids=["jsqd-d0", "control-0", "control-1.5", "unknown-kind"])
def test_field_functions_refuse_bad_arguments(hom_spec, call, match):
    """Called directly, without ``validate``, the field functions refuse a
    choice count below 1, a control outside (0, 1] and an unknown policy
    kind, naming the value."""
    x, buffers = occ([0, 0.4, 0.3, 0.2, 0.1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=match):
        call(x, buffers, hom_spec)


# --- generic invariants --------------------------------------------------------

@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label())
def test_mass_conservation_every_policy(het_spec, b37_spec, policy):
    rng = np.random.default_rng(5)
    for spec in (het_spec, b37_spec):
        for x in random_states(spec, rng, 30):
            f = field(x.array.tolist(), spec, policy)
            assert all((p >= 0).all() for p in f.parts)
            assert all(p[-1] == 0.0 for p in f.parts)
            assert field_total(f) <= 1 + 1e-12
            assert field_total(f) + f.loss == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("policy", ALL_POLICIES + [Policy("jsq", control=0.4),
                                    Policy("jsqd", d=2, control=0.7)],
                         ids=lambda p: p.label())
def test_field_matches_per_type_reference(het_spec, b37_spec, policy):
    """The padded-array fields equal the per-type loop form bit for bit."""
    rng = np.random.default_rng(11)
    for spec in (het_spec, b37_spec):
        thresholds = [t.mpl for t in spec.types]
        for x in random_states(spec, rng, 30):
            f = field(x.array.tolist(), spec, policy)
            ref, loss = per_type_field(x.parts, thresholds, policy)
            assert all(np.array_equal(a, b) for a, b in zip(f.parts, ref))
            assert f.loss == loss


# --- finite-N sampling rule -----------------------------------------------------

def test_sample_target_jiq_prefers_idle(hom_spec):
    rng = np.random.default_rng(6)
    lengths = np.array([0, 5])
    types = np.zeros(2, dtype=int)
    for _ in range(20):
        assert sample_target(lengths, types, hom_spec, Policy("jiq"), rng) == 0


def test_sample_target_jsq_tie_break(hom_spec):
    rng = np.random.default_rng(7)
    lengths = np.array([2, 2, 7])
    types = np.zeros(3, dtype=int)
    hits = np.zeros(3)
    for _ in range(4000):
        hits[sample_target(lengths, types, hom_spec, Policy("jsq"), rng)] += 1
    assert hits[2] == 0
    assert abs(hits[0] / 4000 - 0.5) < 3 * 0.5 / np.sqrt(4000)


def test_sample_target_loss_on_full():
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0, 1.0])),))
    rng = np.random.default_rng(8)
    lengths = np.array([2, 2])
    types = np.zeros(2, dtype=int)
    assert sample_target(lengths, types, spec, Policy("jsq"), rng) is None


@pytest.mark.parametrize("policy", ALL_POLICIES + [Policy("jsq", control=0.4)],
                         ids=lambda p: p.label())
def test_sampling_frequencies_match_field(het_spec, policy):
    """Frozen-state dispatch frequencies against the limit field, 3 sigma."""
    rng = np.random.default_rng(9)
    n = 10_000
    counts = []
    for t in het_spec.types:
        c = rng.multinomial(round(t.gamma * n), np.ones(t.buffer + 1) / (t.buffer + 1))
        counts.append(c)
    lengths = np.concatenate([np.repeat(np.arange(len(c)), c) for c in counts])
    types = np.concatenate([np.full(c.sum(), k) for k, c in enumerate(counts)])
    x = Occupancy([c / n for c in counts])
    f = field(x.array.tolist(), het_spec, policy)

    draws = 20_000
    freq = [np.zeros(t.buffer + 1) for t in het_spec.types]
    lost = 0
    for _ in range(draws):
        j = sample_target(lengths, types, het_spec, policy, rng)
        if j is None:
            lost += 1
        else:
            freq[types[j]][lengths[j]] += 1
    for k, t in enumerate(het_spec.types):
        for i in range(t.buffer + 1):
            p = f.parts[k][i]
            band = 3 * np.sqrt(max(p * (1 - p), 1e-9) / draws)
            assert abs(freq[k][i] / draws - p) < band + 2e-3, (k, i)
    p = f.loss
    band = 3 * np.sqrt(max(p * (1 - p), 1e-9) / draws)
    assert abs(lost / draws - p) < band + 2e-3


def test_sample_target_clamps_excess_choices(hom_spec):
    rng = np.random.default_rng(10)
    lengths = np.array([3, 1, 2])
    types = np.zeros(3, dtype=int)
    # more choices than servers degrades to full shortest-queue
    for _ in range(10):
        assert sample_target(lengths, types, hom_spec, Policy("jsqd", d=50), rng) == 1
