import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lbmf import cli
from lbmf.model import ConvergenceError

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
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
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
    (["table"], {"lambda": 10 ** 400})],
    ids=["policies-jsqd:x", "policies-jsqd:2.5", "n-1e3", "table-d-2.5", "transient-d-2.5",
         "d-true", "mpl-2.5", "gamma-x", "mu-a", "n_servers-2.5",
         "d-list-2.5", "d-list-0", "points-0", "bins-0",
         "transient-seed--1", "dist-seed--1", "table-seed--1", "t-max--1", "t-max-0",
         "replications-0", "n-0", "horizon-inf", "sample_interval-0", "mu-nan",
         "lambda-1e400"])
def test_bad_input_exits_with_error_line(tmp_path, capsys, argv, doc):
    """Malformed policies, config fields and option values exit 1 with an
    error line, not a traceback or ERROR cells, before anything is computed."""
    cfg = hom_config(tmp_path, **doc)
    out = tmp_path / "out"
    assert cli.main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# SHA-256 (first 16 hex digits) of CLI outputs on the shipped configs. The
# jsqd table cells are left out: their Newton solve goes through LAPACK,
# whose last bits may differ between builds.
GOLDEN_CLI_DIGESTS = {
    "transient": {
        "random": "cfea3583d3c19a6c", "jiq": "3adfeca718b1483b",
        "jsqd:2": "0726a2da0f26efd0", "jsqd:5": "9c18d5dd220dc640",
        "jsq": "36f85529fb469fa9", "jbt": "caea0153e0c47782",
    },
    "table": "43b424526358b692",
}


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def test_cli_outputs_match_recorded_digests(tmp_path):
    """``transient`` on the heterogeneous cluster to horizon 3, per policy,
    and ``table --n inf`` on the homogeneous one are pinned byte for byte."""
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
    assert got == GOLDEN_CLI_DIGESTS
