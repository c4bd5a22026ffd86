import json

import numpy as np
import pytest

from lbmf import ode, sim, stationary
from lbmf.model import (ClusterSpec, ConfigError, Occupancy, Policy,
                        ServerType, ServiceRateCurve, ValidationError,
                        parse_config, serialize_config, validate)

from conftest import HET_MU_2, HOM_MU
from oracles import occupancy_violations


def test_benchmark_curve_validates(hom_spec):
    assert validate(hom_spec, Policy("jsq")) == []


def test_stability_must_be_strict():
    spec = ClusterSpec(lam=1.5, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.5] * 10)),))
    out = validate(spec, Policy("random"))
    assert any("stability" in v for v in out)


def test_decreasing_total_rate_flagged():
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(1.0, ServiceRateCurve((0.0, 1.0, 0.9))),))
    out = validate(spec, Policy("random"))
    assert any("decreases at i=1" in v for v in out)


def test_zero_service_rate_flagged():
    # the second type never serves, although the first alone covers the load
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(0.5, ServiceRateCurve.from_mu([2.0, 2.0])),
        ServerType(0.5, ServiceRateCurve.from_mu([0.0, 0.0]))))
    assert any("type 1: service rates must be positive" in v
               for v in validate(spec, Policy("random")))


def test_nan_service_rate_flagged():
    # NaN compares false both ways, so a rate test must fail it explicitly
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0, np.nan, 2.0])),))
    assert "type 0: service rates must be positive from length 1" in validate(
        spec, Policy("random"))


def test_per_job_rate_must_not_increase():
    # total rate 1 then 3: per-job rate grows from 1 to 1.5
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(1.0, ServiceRateCurve((0.0, 1.0, 3.0))),))
    out = validate(spec, Policy("random"))
    assert any("per-job rate" in v for v in out)


def test_policy_validation():
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0, 1.0])),))
    assert any("jsqd requires d" in v for v in validate(spec, Policy("jsqd")))
    assert any("requires mpl" in v for v in validate(spec, Policy("jbt")))
    assert any("takes no d" in v for v in validate(spec, Policy("jsq", d=3)))
    assert any("control" in v for v in validate(spec, Policy("jsq", control=0.0)))


@pytest.mark.parametrize("layer", ["sim", "ode", "stationarity", "rhs", "solve"])
@pytest.mark.parametrize("policy,mpl,match", [
    (Policy("jsq", control=1.7), None, "control must be in"),
    (Policy("jsq", control=0.0), None, "control must be in"),
    (Policy("jsqd"), None, "jsqd requires d >= 1"),
    (Policy("jbt"), None, "jbt requires mpl on every type"),
    (Policy("lifo"), None, "unknown policy kind"),
    (Policy("jsqd", d=2.5), None, "jsqd requires an integer d, got 2.5"),
    (Policy("jsqd", d=2.0), None, "jsqd requires an integer d, got 2.0"),
    (Policy("jsqd", d=True), None, "jsqd requires an integer d, got True"),
    (Policy("jbt"), 2.0, "jbt requires mpl on every type; type 0 has 2.0, not an integer"),
    (Policy("jbt"), 1.5, "jbt requires mpl on every type; type 0 has 1.5, not an integer"),
    (Policy("jbt"), True, "jbt requires mpl on every type; type 0 has True, not an integer")],
    ids=["control-1.7", "control-0", "jsqd-no-d", "jbt-no-mpl", "unknown-kind",
         "jsqd-d-2.5", "jsqd-d-2.0", "jsqd-d-true", "jbt-mpl-2.0", "jbt-mpl-1.5", "jbt-mpl-true"])
def test_layers_refuse_invalid_policy(layer, policy, mpl, match):
    """The simulator, the ODE and the stationary solver refuse a policy by
    ``validate``'s own policy rules, before they start."""
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0, 1.0]), mpl=mpl),))
    v0 = Occupancy.empty(spec)
    call = {"sim": lambda: sim.run(spec, policy, n=10, horizon=1.0, seed=0),
            "ode": lambda: ode.integrate(v0, spec, policy, horizon=1.0),
            "stationarity": lambda: ode.solve_to_stationarity(v0, spec, policy),
            "rhs": lambda: ode.rhs(v0, spec, policy),
            "solve": lambda: stationary.solve(spec, policy)}[layer]
    with pytest.raises(ValidationError, match=match):
        call()


@pytest.mark.parametrize("layer,param,value", [
    ("sim", "horizon", 0.0), ("sim", "horizon", -1.0), ("sim", "horizon", np.inf),
    ("sim", "horizon", np.nan), ("sim", "sample_interval", 0.0),
    ("sim", "sample_interval", np.inf), ("ode", "horizon", np.inf),
    ("ode", "sample_interval", -0.5), ("ode", "dt", 0.0), ("ode", "dt", np.nan),
    ("stationarity", "dt", 0.0), ("stationarity", "dt", np.nan),
    ("stationarity", "check_interval", 0.0), ("stationarity", "t_max", np.inf),
    ("stationarity", "t_max", np.nan)],
    ids=lambda v: str(v))
def test_layers_refuse_bad_run_lengths(layer, param, value):
    """A horizon, sample interval, step, check interval or time limit that
    is not positive and finite is refused by name, where it would divide by
    zero, size an array by NaN or run for ever."""
    spec = ClusterSpec(lam=0.5, types=(
        ServerType(1.0, ServiceRateCurve.from_mu([1.0, 1.0])),))
    v0 = Occupancy.empty(spec)
    lengths = {} if layer == "stationarity" else {"horizon": 1.0, "sample_interval": 0.5}
    kwargs = {**lengths, param: value}
    call = {"sim": lambda: sim.run(spec, Policy("random"), n=10, seed=0, **kwargs),
            "ode": lambda: ode.integrate(v0, spec, Policy("random"), **kwargs),
            "stationarity": lambda: ode.solve_to_stationarity(v0, spec, Policy("random"),
                                                              **kwargs)}[layer]
    with pytest.raises(ValidationError, match=f"^{param} must be positive and finite"):
        call()


def test_parse_refuses_a_non_positive_run_length():
    doc = _hom_config()
    doc["run"]["sample_interval"] = 0
    with pytest.raises(ValidationError, match="^sample_interval must be positive"):
        parse_config(json.dumps(doc))


def _hom_config(**overrides):
    doc = {
        "lambda": 1.25,
        "types": [{"gamma": 1.0, "mu": HOM_MU, "mpl": 5}],
        "policy": {"kind": "jsq"},
        "run": {"n_servers": 1000, "horizon": 10.0, "dt": 0.01,
                "seed": 3, "sample_interval": 0.5},
    }
    doc.update(overrides)
    return doc


def test_parse_homogeneous():
    spec, policy, run = parse_config(json.dumps(_hom_config()))
    assert spec.k == 1 and spec.buffers == (10,)
    assert policy.kind == "jsq" and run.seed == 3


def test_parse_heterogeneous():
    doc = _hom_config(**{"lambda": 1.6})
    doc["types"] = [
        {"gamma": 0.75, "mu": [1.0] * 10, "mpl": 1},
        {"gamma": 0.25, "mu": HET_MU_2, "mpl": 5},
    ]
    spec, _, _ = parse_config(json.dumps(doc))
    assert spec.k == 2
    assert spec.types[1].curve.rates[3] == pytest.approx(2.4)


def test_empty_types_rejected():
    with pytest.raises(ConfigError):
        parse_config(json.dumps(_hom_config(types=[])))


def test_unknown_keys_rejected():
    doc = _hom_config()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(json.dumps(doc))
    doc = _hom_config()
    doc["types"][0]["color"] = "blue"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(json.dumps(doc))


def test_leading_zero_rate_rejected():
    doc = _hom_config()
    doc["types"][0]["mu"] = [0] + HOM_MU
    with pytest.raises(ConfigError, match="drop the leading 0"):
        parse_config(json.dumps(doc))


def test_gamma_renormalization_band():
    doc = _hom_config()
    doc["types"] = [
        {"gamma": 0.5 + 2e-10, "mu": HOM_MU},
        {"gamma": 0.5, "mu": HOM_MU},
    ]
    spec, _, _ = parse_config(json.dumps(doc))
    assert sum(t.gamma for t in spec.types) == pytest.approx(1.0, abs=1e-15)
    doc["types"][0]["gamma"] = 0.51  # way off, rejected
    with pytest.raises(ConfigError, match="rejecting"):
        parse_config(json.dumps(doc))


def test_validation_error_carries_violations():
    doc = _hom_config(**{"lambda": 2.0})  # above capacity 1.5
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    assert any("stability" in v for v in err.value.violations)


def test_roundtrip_identity():
    doc = _hom_config()
    spec, policy, run = parse_config(json.dumps(doc))
    spec2, policy2, run2 = parse_config(serialize_config(spec, policy, run))
    assert spec2 == spec and policy2 == policy and run2 == run


def test_roundtrip_jsqd_partial():
    doc = _hom_config(policy={"kind": "jsqd", "d": 2, "p": 0.5})
    spec, policy, run = parse_config(json.dumps(doc))
    assert policy.d == 2 and policy.control == 0.5
    assert parse_config(serialize_config(spec, policy, run))[1] == policy


def test_occupancy_invariants(hom_spec):
    v = Occupancy.empty(hom_spec)
    assert occupancy_violations(v, hom_spec) == []
    bad = Occupancy([np.full(11, 0.2)])
    assert any("mass" in msg for msg in occupancy_violations(bad, hom_spec))
    again = Occupancy.from_array(v.array.copy(), v.buffers)
    assert np.array_equal(again.parts[0], v.parts[0])


def test_occupancy_pads_unequal_buffers():
    v = Occupancy([[0.1, 0.2], [0.3, 0.2, 0.1, 0.1]])
    assert v.array.shape == (2, 4) and list(v.buffers) == [1, 3]
    assert np.array_equal(v.array[0], [0.1, 0.2, 0.0, 0.0])
    assert [len(p) for p in v.parts] == [2, 4]
    v.parts[0][1] = 0.5  # parts are views into the padded array
    assert v.array[0, 1] == 0.5


def test_model_types_hashable_and_frozen(hom_spec):
    with pytest.raises(AttributeError):
        hom_spec.types[0].gamma = 0.5  # frozen dataclass
    hash(hom_spec.types[0])


@pytest.mark.parametrize("where,value", [
    ("d", 2.5), ("d", True), ("mpl", 2.5), ("gamma", "x"), ("mu", ["a"]),
    ("n_servers", 2.5), ("n_servers", -3), ("seed", 1.5),
    ("mu", [1.0, np.nan, 2.0]), ("mu", [1.0, np.inf]), ("gamma", np.nan),
    ("gamma", np.inf), ("horizon", np.inf), ("horizon", np.nan)])
def test_non_numeric_and_non_integer_fields_rejected(where, value):
    """d, mpl, n_servers and seed are integers (not booleans); every other
    value is a finite JSON number, though the JSON reader parses NaN and
    Infinity."""
    doc = _hom_config(policy={"kind": "jsqd", "d": 2})
    if where == "d":
        doc["policy"]["d"] = value
    elif where in doc["run"]:
        doc["run"][where] = value
    else:
        doc["types"][0][where] = value
    with pytest.raises(ConfigError, match=f"{where}: expected"):
        parse_config(json.dumps(doc))


def _curve(*mu):
    return ServiceRateCurve.from_mu(mu)


@pytest.mark.parametrize("lam,types,message", [
    (0.5, (), "types: empty"),
    (0.0, ((1.0, _curve(1.0, 1.0)),), "lambda must be > 0, got 0.0"),
    (0.5, ((1.0, ServiceRateCurve((0.0,))),), "type 0: buffer must be >= 1"),
    (0.5, ((1.0, ServiceRateCurve((0.5, 1.0, 1.0))),), "type 0: rates[0] must be 0, got 0.5"),
    (0.5, ((1.5, _curve(1.0, 1.0)), (-0.5, _curve(1.0, 1.0))),
     "type 0: gamma must be in (0, 1], got 1.5"),
    (0.5, ((1.0, _curve(1.0, 1.0), 3),), "type 0: mpl must be in [1, 2], got 3"),
    (0.5, ((0.5, _curve(1.0, 1.0)), (0.4, _curve(1.0, 1.0))),
     "type fractions sum to 0.9, expected 1"),
    (0.5, ((1.0, _curve(1.0, 1.0), 2.0),), "type 0: mpl must be an integer, got 2.0"),
    (0.5, ((1.0, _curve(1.0, 1.0), 1.5),), "type 0: mpl must be an integer, got 1.5"),
    (0.5, ((1.0, _curve(1.0, 1.0), True),), "type 0: mpl must be an integer, got True")],
    ids=["no-types", "lambda-0", "buffer-0", "rates0", "gamma-1.5", "mpl-3", "gamma-sum",
         "mpl-2.0", "mpl-1.5", "mpl-true"])
def test_validate_names_each_broken_rule(lam, types, message):
    spec = ClusterSpec(lam=lam, types=tuple(ServerType(*t) for t in types))
    assert message in validate(spec, Policy("random"))


def test_validate_sums_the_fractions_of_every_type():
    """A type with no buffer still counts toward the fractions' sum, as in
    ``parse_config``, so only its buffer is reported."""
    spec = ClusterSpec(lam=0.25, types=(ServerType(0.5, ServiceRateCurve((0.0,))),
                                        ServerType(0.5, _curve(1.0, 1.0))))
    assert validate(spec, Policy("random")) == ["type 0: buffer must be >= 1"]


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.update(policy=["jsq"]), "policy: expected an object"),
    (lambda doc: doc["run"].pop("dt"), "run: missing key 'dt'"),
    (lambda doc: doc["types"][0].update(mu=1.0), "types[0].mu: expected a nonempty array")],
    ids=["section-not-object", "missing-key", "mu-not-list"])
def test_parse_names_each_malformed_section(edit, message):
    doc = _hom_config()
    edit(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert str(err.value) == message
