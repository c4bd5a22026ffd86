import builtins
import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from lbmf import cli, stationary
from lbmf.model import ConvergenceError, ValidationError, parse_config, validate

from conftest import HOM_MU

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def hom_config(tmp_path, **overrides):
    doc = {
        "lambda": 1.25,
        "types": [{"gamma": 1.0, "mu": HOM_MU, "mpl": 5}],
        "policy": {"kind": "jsq"},
        "run": {"n_servers": 200, "horizon": 20.0, "dt": 0.01,
                "seed": 11, "sample_interval": 1.0},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_transient_writes_trajectory(tmp_path):
    cfg = hom_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["transient", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "mf_trajectory.csv")
    assert header == ["t", "k", "i", "fraction"]
    assert len(rows) == 21 * 11  # samples x levels


def test_transient_rerun_is_byte_identical(tmp_path):
    cfg = hom_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["transient", "--config", str(cfg), "--out", str(out1), "--overlay-sim"])
    cli.main(["transient", "--config", str(cfg), "--out", str(out2), "--overlay-sim"])
    for name in ("mf_trajectory.csv", "sim_trajectory.csv", "sim_sojourns.csv",
                 "sim_loss.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_transient_zero_arrival_columns_constant(tmp_path):
    # boundary case: arrival rate epsilon, start empty, nothing moves visibly
    cfg = hom_config(tmp_path, **{"lambda": 1e-12})
    out = tmp_path / "out"
    assert cli.main(["transient", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "mf_trajectory.csv")
    level0 = [float(r[3]) for r in rows if r[2] == "0"]
    assert all(abs(x - 1.0) < 1e-9 for x in level0)


def test_table_single_analytic_cell(tmp_path):
    cfg = hom_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["table", "--config", str(cfg), "--out", str(out),
                   "--policies", "random", "--n", "inf"])
    assert rc == 0
    header, rows = read_csv(out / "table.csv")
    assert header == ["policy", "scope", "n", "mean", "stderr", "loss"]
    entire = [r for r in rows if r[1] == "entire"]
    assert len(entire) == 1
    assert float(entire[0][3]) == pytest.approx(3.565, abs=2e-3)


def test_table_simulation_cell_with_error_cell(tmp_path):
    cfg = hom_config(tmp_path, run={"n_servers": 150, "horizon": 60.0,
                                    "dt": 0.01, "seed": 2, "sample_interval": 1.0})
    out = tmp_path / "out"
    # jbt on a config whose mpl is fine plus a policy that fails analytically:
    # jsqd:0 is rejected per cell, the run continues
    rc = cli.main(["table", "--config", str(cfg), "--out", str(out),
                   "--policies", "random,jsqd:0", "--n", "150,inf",
                   "--replications", "2"])
    assert rc == 0
    _, rows = read_csv(out / "table.csv")
    good = [r for r in rows if r[0] == "random" and r[1] == "entire" and r[2] == "150"]
    assert len(good) == 1 and float(good[0][4]) >= 0
    bad = [r for r in rows if r[0] == "jsqd(0)" and r[1] == "entire"]
    assert all(r[3].startswith("ERROR") for r in bad)


def test_table_error_cell_with_comma_stays_one_field(tmp_path):
    """An error message holding a comma is quoted into one CSV cell."""
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(CONFIGS / "homogeneous.json"),
                     "--out", str(out), "--n", "inf",
                     "--policies", "jsqd:0,random"]) == 0
    header, rows = read_csv(out / "table.csv")
    assert all(len(r) == 6 for r in [header] + rows)
    bad = [r for r in rows if r[0] == "jsqd(0)"]
    assert bad and all(r[3] == "ERROR: jsqd requires d >= 1, got 0" for r in bad)


def test_table_jsq_tight_unequal_buffers_is_an_error_cell(tmp_path):
    """A spec that ``validate`` accepts but whose jsq target level 2 is
    above one type's buffer of 1: ``stationary.solve`` refuses it, so
    ``table`` writes an error cell for jsq, a number for random, and exits 0.
    This pins the documented gap in ``stationary.solve_jsq``."""
    doc = {"lambda": 1.5,
           "types": [{"gamma": 0.3, "mu": [2.0]},
                     {"gamma": 0.3, "mu": [1.0, 2.0, 3.0, 3.0]},
                     {"gamma": 0.4, "mu": [1.0, 1.5, 2.0, 2.5, 3.0, 3.0]}],
           "policy": {"kind": "jsq"},
           "run": {"n_servers": 100, "horizon": 10.0, "dt": 0.01, "seed": 1,
                   "sample_interval": 1.0}}
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(doc))
    spec, policy, _ = parse_config(cfg.read_text())
    assert validate(spec, policy) == []
    message = "jsq target level 2 exceeds the buffer of some type"
    with pytest.raises(ValidationError, match=message):
        stationary.solve(spec, policy)
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out), "--n", "inf",
                     "--policies", "jsq,random"]) == 0
    _, rows = read_csv(out / "table.csv")
    assert [r[1] for r in rows] == ["entire", "type0", "type1", "type2"] * 2
    assert all(r[3].startswith(f"ERROR: {message}") for r in rows if r[0] == "jsq")
    assert all(math.isfinite(float(r[3])) for r in rows if r[0] == "random")


def test_table_malformed_thread_count_names_the_variable(tmp_path, monkeypatch, capsys):
    """A worker count that is not an integer stops a table with simulated
    cells before it writes anything, naming the variable; a table of
    limits alone does not read it."""
    monkeypatch.setenv("LBMF_THREADS", "two")
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(CONFIGS / "homogeneous.json"),
                     "--out", str(out), "--n", "20,inf", "--replications", "2",
                     "--policies", "random"]) == 1
    assert capsys.readouterr().err == "error: LBMF_THREADS takes an integer, got 'two'\n"
    assert not out.exists()
    assert cli.main(["table", "--config", str(CONFIGS / "homogeneous.json"),
                     "--out", str(out), "--n", "inf", "--policies", "random"]) == 0


def test_seed_option_replaces_the_config_seed(tmp_path):
    """``--seed 5`` writes the bytes of the same config with seed 5, which
    differ from those of the config's own seed."""
    def table(name, seed, *extra):
        run = {"n_servers": 200, "horizon": 20.0, "dt": 0.01, "seed": seed,
               "sample_interval": 1.0}
        cfg = hom_config(tmp_path, run=run)
        assert cli.main(["table", "--config", str(cfg), "--out", str(tmp_path / name),
                         "--n", "20", "--replications", "2", "--policies", "random",
                         *extra]) == 0
        return (tmp_path / name / "table.csv").read_bytes()

    override = table("override", 11, "--seed", "5")
    assert override == table("config", 5)
    assert override != table("own", 11)


def test_table_computes_each_size_once(tmp_path, monkeypatch):
    """A repeated size, and 'inf' beside 'mf', is one size: each cell is
    computed once per policy and written once, at its first place."""
    calls = {"replicate": 0, "solve": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(cli.sim, "replicate")
    spy(cli.stationary, "solve")
    args = ["table", "--config", str(CONFIGS / "homogeneous.json"),
            "--replications", "2", "--policies", "random,jbt"]
    assert cli.main([*args, "--out", str(tmp_path / "rep"), "--n", "20,20,inf,mf"]) == 0
    assert calls == {"replicate": 2, "solve": 2}
    assert cli.main([*args, "--out", str(tmp_path / "once"), "--n", "20,inf"]) == 0
    assert ((tmp_path / "rep" / "table.csv").read_bytes()
            == (tmp_path / "once" / "table.csv").read_bytes())


def test_table_per_type_stderr_skips_replications_without_the_type(tmp_path):
    """A per-type mean and stderr run over the same replications, those with
    a window job of that type; at this seed 5 of the 8 have a type-1 job."""
    doc = {
        "lambda": 0.3,
        "types": [{"gamma": 0.9, "mu": [1.0, 1.0, 1.0], "mpl": 1},
                  {"gamma": 0.1, "mu": [1.0, 1.0, 1.0], "mpl": 1}],
        "policy": {"kind": "random"},
        "run": {"n_servers": 10, "horizon": 10.0, "dt": 0.01, "seed": 1,
                "sample_interval": 1.0},
    }
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out), "--n", "10",
                     "--replications", "8", "--policies", "random"]) == 0
    _, rows = read_csv(out / "table.csv")
    row = next(r for r in rows if r[1] == "type1")
    spec, policy, _ = parse_config(json.dumps(doc))
    results = cli.sim.replicate(spec, policy, n=10, horizon=10.0, seed=1, r=8,
                                sample_interval=10.0, window=cli._window(10.0))
    means = [(res.departure_time - res.arrival_time)[res.server_type == 1].mean()
             for res in results if (res.server_type == 1).any()]
    assert len(means) == 5
    assert float(row[3]) == pytest.approx(np.mean(means), rel=1e-15)
    assert float(row[4]) == pytest.approx(np.std(means, ddof=1) / np.sqrt(5), rel=1e-12)
    # at horizon 3 and seed 3 neither replication has a type-1 window job
    doc["run"].update(horizon=3.0, seed=3)
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy mean of no value
        assert cli.main(["table", "--config", str(cfg), "--out", str(out), "--n", "10",
                         "--replications", "2", "--policies", "random"]) == 0
    _, rows = read_csv(out / "table.csv")
    assert [r[3:5] for r in rows if r[1] == "type1"] == [["nan", "nan"]]


def test_dist_outputs(tmp_path, b5_spec):
    doc = {
        "lambda": 1.25,
        "types": [{"gamma": 1.0, "mu": HOM_MU[:5], "mpl": 5}],
        "policy": {"kind": "jsq"},
        "run": {"n_servers": 400, "horizon": 60.0, "dt": 0.01,
                "seed": 4, "sample_interval": 1.0},
    }
    cfg = tmp_path / "b5.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = cli.main(["dist", "--config", str(cfg), "--out", str(out),
                   "--t-max", "30", "--points", "400", "--bins", "30"])
    assert rc == 0
    header, rows = read_csv(out / "density.csv")
    assert header == ["t", "density", "flagged"]
    # shortest-queue density climbs from zero (cubic onset at this grid scale)
    assert float(rows[0][1]) < 5e-3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "talbot" and summary["nodes"] == 64
    assert summary["mass_check"] == pytest.approx(1.0 - summary["loss_prob"], abs=2e-3)
    _, hist = read_csv(out / "hist.csv")
    assert len(hist) == 30


def test_table_empty_steady_window_is_an_error_cell(tmp_path):
    # at horizon 0.05 no job that arrives in [0.025, 0.0375] has departed
    cfg = hom_config(tmp_path, run={"n_servers": 20, "horizon": 0.05, "dt": 0.01,
                                    "seed": 1, "sample_interval": 0.5})
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out),
                     "--n", "20", "--replications", "2"]) == 0
    _, rows = read_csv(out / "table.csv")
    assert len(rows) == 2
    for row in rows:
        assert row[3].startswith("ERROR: no job both arrived in the steady window")
        assert "run.horizon 0.05" in row[3] and row[4:] == ["", ""]


def test_dist_empty_steady_window_exits_with_error_line(tmp_path, capsys):
    # as in the table case; at n = 1000 a quarter of the seeds leave a job
    # in the window, at n = 20 about one seed in 200 does
    cfg = hom_config(tmp_path, run={"n_servers": 20, "horizon": 0.05, "dt": 0.01,
                                    "seed": 1, "sample_interval": 0.5})
    out = tmp_path / "out"
    assert cli.main(["dist", "--config", str(cfg), "--out", str(out),
                     "--points", "20"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no job both arrived in the steady window")
    assert not out.exists()  # no partial output: not even density.csv


def test_dist_histogram_is_zero_when_no_sojourn_is_in_range(tmp_path):
    # no window job's sojourn is at or below this --t-max, so every bin holds
    # zero jobs: zeros, not numpy's 0/0 density with its warning
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["dist", "--config", str(CONFIGS / "small_buffer.json"),
                         "--out", str(out), "--t-max", "0.0001", "--points", "20",
                         "--bins", "4"]) == 0
    _, rows = read_csv(out / "hist.csv")
    assert [float(r[2]) for r in rows] == [0.0] * 4


def test_dist_exponential_sanity(tmp_path):
    # single-slot buffers: every admitted job gets a fresh server, so the
    # normalized density is the bare service exponential
    doc = {
        "lambda": 0.9,
        "types": [{"gamma": 1.0, "mu": [1.5]}],
        "policy": {"kind": "random"},
        "run": {"n_servers": 300, "horizon": 60.0, "dt": 0.01,
                "seed": 4, "sample_interval": 1.0},
    }
    cfg = tmp_path / "b1.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["dist", "--config", str(cfg), "--out", str(out),
                     "--t-max", "8", "--points", "300"]) == 0
    _, rows = read_csv(out / "density.csv")
    ts = np.array([float(r[0]) for r in rows])
    dens = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(dens - 1.5 * np.exp(-1.5 * ts))) < 1e-6


def test_jsqd_sweep_monotone_toward_jsq(tmp_path):
    cfg = hom_config(tmp_path, run={"n_servers": 100, "horizon": 30.0,
                                    "dt": 0.01, "seed": 1,
                                    "sample_interval": 0.5})
    out = tmp_path / "out"
    rc = cli.main(["jsqd-sweep", "--config", str(cfg), "--out", str(out),
                   "--d-list", "1,2,5,20,100"])
    assert rc == 0

    def load(name):
        _, rows = read_csv(out / name)
        return np.array([float(r[3]) for r in rows])

    ref = load("traj_jsq.csv")
    sups = [np.max(np.abs(load(f"traj_jsqd_{d}.csv") - ref))
            for d in (2, 5, 20, 100)]
    assert all(a > b for a, b in zip(sups, sups[1:])), sups

    # d=1 coincides with plain random assignment
    out2 = tmp_path / "rnd"
    cli.main(["transient", "--config", str(cfg), "--out", str(out2),
              "--policy", "random"])
    assert np.allclose(load("traj_jsqd_1.csv"),
                       np.array([float(r[3]) for r in
                                 read_csv(out2 / "mf_trajectory.csv")[1]]))


def test_policy_override_and_exit_codes(tmp_path):
    cfg = hom_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["transient", "--config", str(cfg), "--out", str(out),
                     "--policy", "jsqd:3"]) == 0
    # validation failure -> 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambda": 99.0, "types": [
        {"gamma": 1.0, "mu": HOM_MU}], "policy": {"kind": "jsq"},
        "run": {"horizon": 1.0, "dt": 0.01, "sample_interval": 0.5}}))
    assert cli.main(["transient", "--config", str(bad), "--out", str(out)]) == 1
    # malformed json -> 1
    ugly = tmp_path / "ugly.json"
    ugly.write_text("{nope")
    assert cli.main(["transient", "--config", str(ugly), "--out", str(out)]) == 1
    # unwritable output -> 3
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert cli.main(["transient", "--config", str(cfg), "--out", str(blocker)]) == 3


def test_numeric_failure_exit_code(monkeypatch, tmp_path):
    cfg = hom_config(tmp_path)

    def boom(*a, **kw):
        raise ConvergenceError("stalled", residual=1.0)

    monkeypatch.setattr(cli.ode, "integrate", boom)
    assert cli.main(["transient", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


def test_shipped_configs_parse():
    from lbmf.model import parse_config
    for name in ("homogeneous", "heterogeneous", "small_buffer"):
        spec, policy, run = parse_config((CONFIGS / f"{name}.json").read_text())
        assert spec.lam > 0 and run.horizon > 0


def test_table_heterogeneous_per_type_rows(tmp_path):
    doc = {
        "lambda": 1.6,
        "types": [
            {"gamma": 0.75, "mu": [1.0] * 10, "mpl": 1},
            {"gamma": 0.25, "mu": [0.8, 1.6, 2.4, 3.2, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0],
             "mpl": 5},
        ],
        "policy": {"kind": "random"},
        "run": {"horizon": 10.0, "dt": 0.01, "sample_interval": 1.0},
    }
    cfg = tmp_path / "het.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out),
                     "--n", "inf"]) == 0
    _, rows = read_csv(out / "table.csv")
    by_scope = {r[1]: float(r[3]) for r in rows}
    assert by_scope["type0"] == pytest.approx(8.425, abs=5e-3)
    assert by_scope["type1"] == pytest.approx(1.274, abs=5e-3)
    assert by_scope["entire"] == pytest.approx(5.933, abs=5e-3)


TWO_TYPES = [{"gamma": 0.5, "mu": HOM_MU, "mpl": 5}, {"gamma": 0.5, "mu": HOM_MU, "mpl": 5}]


@pytest.mark.parametrize("argv,doc", [
    (["table", "--policies", "jsqd:x"], {}),
    (["table", "--policies", "jsqd:2.5"], {}),
    (["table", "--n", "1e3"], {}),
    (["table"], {"policy": {"kind": "jsqd", "d": 2.5}}),
    (["transient"], {"policy": {"kind": "jsqd", "d": 2.5}}),
    (["table"], {"policy": {"kind": "jsqd", "d": True}}),
    (["table"], {"types": [{"gamma": 1.0, "mu": HOM_MU, "mpl": 2.5}]}),
    (["table"], {"types": [{"gamma": "x", "mu": HOM_MU}]}),
    (["table"], {"types": [{"gamma": 1.0, "mu": ["a"]}]}),
    (["transient", "--overlay-sim"], {"run": {"n_servers": 2.5, "horizon": 1.0, "dt": 0.01,
                                              "sample_interval": 0.5}}),
    (["jsqd-sweep", "--d-list", "2.5"], {}),
    (["jsqd-sweep", "--d-list", "0"], {}),
    (["dist", "--points", "0"], {}),
    (["dist", "--bins", "0"], {}),
    (["transient", "--overlay-sim", "--seed", "-1"], {}),
    (["dist", "--seed", "-1"], {}),
    (["table", "--n", "150", "--seed", "-1"], {}),
    (["dist", "--t-max", "-1"], {}),
    (["dist", "--t-max", "0"], {}),
    (["table", "--n", "150", "--replications", "0"], {}),
    (["table", "--n", "0,inf"], {}),
    (["transient"], {"run": {"horizon": float("inf"), "dt": 0.01, "sample_interval": 1.0}}),
    (["table", "--n", "10"], {"run": {"horizon": 20.0, "dt": 0.01, "sample_interval": 0.0}}),
    (["table", "--n", "10"], {"types": [{"gamma": 1.0, "mu": [1.0, float("nan"), 2.0]}]}),
    (["table"], {"lambda": 10 ** 400}),
    (["table", "--policies", "jsq:2"], {}),
    (["table", "--policies", "jsqd"], {}),
    (["dist"], {"types": TWO_TYPES, "run": {"n_servers": 1, "horizon": 20.0, "dt": 0.01,
                                           "sample_interval": 1.0}}),
    (["transient", "--overlay-sim"], {"types": TWO_TYPES, "run": {
        "n_servers": 1, "horizon": 1.0, "dt": 0.01, "sample_interval": 0.5}})],
    ids=["policies-jsqd:x", "policies-jsqd:2.5", "n-1e3", "table-d-2.5", "transient-d-2.5",
         "d-true", "mpl-2.5", "gamma-x", "mu-a", "n_servers-2.5",
         "d-list-2.5", "d-list-0", "points-0", "bins-0",
         "transient-seed--1", "dist-seed--1", "table-seed--1", "t-max--1", "t-max-0",
         "replications-0", "n-0", "horizon-inf", "sample_interval-0", "mu-nan",
         "lambda-1e400", "policies-jsq:2", "policies-jsqd", "dist-n_servers-1",
         "transient-n_servers-1"])
def test_bad_input_exits_with_error_line(tmp_path, capsys, argv, doc):
    """Malformed policies, config fields and option values exit 1 with an
    error line, not a traceback or ERROR cells, before anything is computed."""
    cfg = hom_config(tmp_path, **doc)
    out = tmp_path / "out"
    assert cli.main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# SHA-256 (first 16 hex digits) of CLI outputs on the shipped configs. The
# jsqd limit cells are left out: their Newton solve goes through LAPACK,
# whose last bits may differ between builds. Simulated cells make no LAPACK
# call, so the simulated table keeps jsqd:2.
GOLDEN_CLI_DIGESTS = {
    "transient": {
        "random": "cfea3583d3c19a6c", "jiq": "3adfeca718b1483b",
        "jsqd:2": "0726a2da0f26efd0", "jsqd:5": "9c18d5dd220dc640",
        "jsq": "36f85529fb469fa9", "jbt": "caea0153e0c47782",
    },
    "table": "43b424526358b692",
    "table-sim": "1495c11582cae7b2",
    "dist": {
        "random": "8092216a2d1e6fa9", "jiq": "e73b9b5a819755e3",
        "jsq": "3747b58bbc71557b", "jbt": "9ec07f1f818923fb",
    },
    "overlay": {
        "jiq": {"sim_trajectory.csv": "9ec71ef09d297df7",
                "sim_sojourns.csv": "c5d05a20a898ed9e", "sim_loss.csv": "44df6abeb3d1d108"},
        "jsqd:2": {"sim_trajectory.csv": "3d3024c466ac1275",
                   "sim_sojourns.csv": "ec7abd30f5c95394", "sim_loss.csv": "84ecb6a78763c33f"},
    },
}


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def test_cli_outputs_match_recorded_digests(tmp_path):
    """``transient`` on the heterogeneous cluster to horizon 3, per policy,
    ``table`` on the homogeneous one, at ``--n inf`` and simulated at
    ``--n 200``, and the simulated histogram of ``dist`` on the buffer-5
    cluster to horizon 40, per policy, are pinned byte for byte, and so are
    the simulated files of ``transient --overlay-sim`` on 100 servers of
    that cluster to horizon 10, where some jobs are lost. The histogram's
    bins come from ``--t-max``, not from the solved mean, so no LAPACK call
    moves them; ``density.csv`` is not pinned, for that reason."""
    doc = json.loads((CONFIGS / "heterogeneous.json").read_text())
    doc["run"]["horizon"] = 3.0
    cfg = tmp_path / "het.json"
    cfg.write_text(json.dumps(doc))
    got = {"transient": {}}
    for policy in GOLDEN_CLI_DIGESTS["transient"]:
        out = tmp_path / policy.replace(":", "")
        assert cli.main(["transient", "--config", str(cfg), "--out", str(out),
                         "--policy", policy]) == 0
        got["transient"][policy] = _digest(out / "mf_trajectory.csv")
    out = tmp_path / "table"
    assert cli.main(["table", "--config", str(CONFIGS / "homogeneous.json"),
                     "--out", str(out), "--n", "inf",
                     "--policies", "random,jiq,jsq,jbt"]) == 0
    got["table"] = _digest(out / "table.csv")
    out = tmp_path / "table-sim"
    assert cli.main(["table", "--config", str(CONFIGS / "homogeneous.json"),
                     "--out", str(out), "--n", "200", "--replications", "2",
                     "--policies", "random,jiq,jsqd:2,jsq,jbt"]) == 0
    got["table-sim"] = _digest(out / "table.csv")
    doc = json.loads((CONFIGS / "small_buffer.json").read_text())
    doc["run"]["horizon"] = 40.0
    cfg = tmp_path / "b5.json"
    cfg.write_text(json.dumps(doc))
    got["dist"] = {}
    for policy in GOLDEN_CLI_DIGESTS["dist"]:
        out = tmp_path / f"dist-{policy}"
        assert cli.main(["dist", "--config", str(cfg), "--out", str(out), "--policy", policy,
                         "--points", "50", "--t-max", "12"]) == 0
        got["dist"][policy] = _digest(out / "hist.csv")
    doc["run"].update(horizon=10.0, n_servers=100)
    cfg.write_text(json.dumps(doc))
    got["overlay"] = {}
    for policy, files in GOLDEN_CLI_DIGESTS["overlay"].items():
        out = tmp_path / f"overlay-{policy.replace(':', '')}"
        assert cli.main(["transient", "--config", str(cfg), "--out", str(out),
                         "--policy", policy, "--overlay-sim"]) == 0
        got["overlay"][policy] = {name: _digest(out / name) for name in files}
    assert got == GOLDEN_CLI_DIGESTS


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of CPython 3.12 and later, in Python: exact over
    ints, then Neumaier-compensated over floats, then plain ``+`` from the
    first item that is neither."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for x in items:
            if type(x) is not int:
                total = total + x
                break
            total += x
        else:
            return total
    if type(total) is float:
        f, c = total, 0.0
        for x in items:
            if type(x) is float:
                t = f + x
                c += (f - t) + x if abs(f) >= abs(x) else (x - t) + f
                f = t
            elif type(x) is int and -2 ** 63 <= x < 2 ** 63:
                f += float(x)
            else:
                total = (f + c if c and math.isfinite(c) else f) + x
                break
        else:
            return f + c if c and math.isfinite(c) else f
    for x in items:
        total = total + x
    return total


def test_table_digest_holds_under_a_compensated_sum(tmp_path, monkeypatch):
    """Python 3.12 made the builtin ``sum`` of floats compensated, which
    moves the analytic table's bits where it sums; those sums run left to
    right through ``model.left_sum``, so the recorded digest holds under
    either ``sum``."""
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    out = tmp_path / "table"
    assert cli.main(["table", "--config", str(CONFIGS / "homogeneous.json"),
                     "--out", str(out), "--n", "inf",
                     "--policies", "random,jiq,jsq,jbt"]) == 0
    assert _digest(out / "table.csv") == GOLDEN_CLI_DIGESTS["table"]
