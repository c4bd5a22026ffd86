"""The four benchmark workloads: their inputs, their items and the checks.

Each workload is a closed loop with one caller: it runs one item at a time,
waits for it, and checks its output before the next one starts. An item is a
table cell, a trajectory, a density or a sweep point. Only the item's own call
into lbmf is timed; writing inputs and checking outputs are not.

Deterministic outputs are compared with reference outputs recorded from the
package (``reference/<workload>.json``) to 1e-9 relative to the largest
reference value. Simulated outputs are checked statistically against the
deterministic limit of the same policy, and sweep points are checked for
self-consistency, so that any seed can be checked.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lbmf import cli, model, stationary, systemtime

POLICIES = ("random", "jiq", "jsqd:2", "jsqd:5", "jsq", "jbt")
SWEEP_POLICIES = POLICIES + ("jsqd:20",)
RTOL = 1e-9

TABLE_HORIZON = 60.0     # window [30, 45] of a run from empty, N = 1000
TABLE_SIM_RTOL = 0.08    # simulated cell vs the limit: bias ~1.5%, sd ~1.5%
TRANSIENT_HORIZON = 3.0
DIST_HORIZON = 40.0
DIST_POINTS = 300
DIST_HIST_TV = 0.15      # total variation, histogram vs density: seen <= 0.075
LITTLE_GAP = 1e-8        # as acceptance criterion 7
JSQD_RESIDUAL = 1e-10    # tolerance of stationary.solve_jsqd


class CheckError(Exception):
    """An item ran but its output is wrong."""


@dataclass
class Item:
    label: str
    run: object    # () -> output; the timed call into lbmf
    check: object  # (output) -> None; reads what the call wrote, raises CheckError


def close(actual, expected, what):
    """Raise unless ``actual`` matches ``expected`` to RTOL of its largest entry."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        raise CheckError(f"{what}: shape {a.shape} != reference {e.shape}")
    scale = max(float(np.max(np.abs(e), initial=0.0)), 1e-300)
    gap = float(np.max(np.abs(a - e), initial=0.0)) / scale
    if not gap <= RTOL:
        raise CheckError(f"{what}: relative gap {gap:.3e} to reference > {RTOL:g}")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def lbmf(*argv):
    """Run one lbmf CLI command in this process."""
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckError(f"lbmf {argv[0]} exited with code {code}")


def derived_config(shipped: Path, out: Path, **run) -> Path:
    """Copy of a shipped config with some run parameters replaced."""
    doc = json.loads(shipped.read_text())
    doc["run"].update(run)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2))
    return out


class Workload:
    name = ""
    configs: tuple = ()   # shipped configs the workload reads

    def __init__(self, root: Path, workdir: Path, seed: int, reference: dict | None):
        self.root = root
        self.workdir = workdir
        self.seed = seed % 2**32  # the simulator's generator takes no negative seeds
        self.ref = reference
        self.inputs = workdir / "inputs"

    def config(self, name):
        return self.root / "configs" / name

    def items(self) -> list[Item]:
        raise NotImplementedError

    def _out(self, policy):
        return self.workdir / policy.replace(":", "")

    def record(self) -> dict:
        """Reference outputs of the deterministic items: by default one CLI
        call per policy, its outputs as ``_read`` returns them."""
        ref = {}
        for p in POLICIES:
            self._run(p)()
            ref[p] = self._read(p)
        return ref

    def reference(self, key):
        if self.ref is None or key not in self.ref:
            raise CheckError(f"no reference output for {key}")
        return self.ref[key]


class TableHom(Workload):
    """``lbmf table`` on the homogeneous cluster, one cell per call."""

    name = "table-hom"
    configs = ("homogeneous.json",)

    def __init__(self, *a):
        super().__init__(*a)
        self.cfg = derived_config(self.config("homogeneous.json"),
                                  self.inputs / "homogeneous.json", horizon=TABLE_HORIZON)

    def _out(self, policy, n):
        return self.workdir / f"{policy.replace(':', '')}-{n}"

    def _run(self, policy, n):
        return lambda: lbmf("table", "--config", self.cfg, "--out", self._out(policy, n),
                            "--policies", policy, "--n", n, "--replications", 1,
                            "--seed", self.seed)

    def _read(self, policy, n):
        return read_csv(self._out(policy, n) / "table.csv")

    def items(self):
        return [Item(f"{p}@{n}", self._run(p, n), self._checker(p, n))
                for p in POLICIES for n in ("inf", "1000")]

    def _checker(self, policy, n):
        def check(_):
            rows = self._read(policy, n)
            for row in rows:
                if row["mean"].startswith("ERROR:"):
                    raise CheckError(f"{row['scope']}: {row['mean']}")
            ref = self.reference(policy)
            got = {r["scope"]: r for r in rows}
            if set(got) != set(ref):
                raise CheckError(f"scopes {sorted(got)} != reference {sorted(ref)}")
            for scope, r in got.items():
                mean, limit = float(r["mean"]), ref[scope]["mean"]
                if n == "inf":
                    close([mean, float(r["loss"])], [limit, ref[scope]["loss"]],
                          f"{scope} mean and loss")
                elif not abs(mean - limit) <= TABLE_SIM_RTOL * limit:
                    raise CheckError(f"{scope}: simulated mean {mean:.4f} is more than "
                                     f"{TABLE_SIM_RTOL:.0%} from the limit {limit:.4f}")
        return check

    def record(self):
        ref = {}
        for p in POLICIES:
            self._run(p, "inf")()
            ref[p] = {r["scope"]: {"mean": float(r["mean"]), "loss": float(r["loss"])}
                      for r in self._read(p, "inf")}
        return ref


class TransientHet(Workload):
    """``lbmf transient`` on the heterogeneous cluster, once per policy."""

    name = "transient-het"
    configs = ("heterogeneous.json",)

    def __init__(self, *a):
        super().__init__(*a)
        self.cfg = derived_config(self.config("heterogeneous.json"),
                                  self.inputs / "heterogeneous.json",
                                  horizon=TRANSIENT_HORIZON)

    def _run(self, policy):
        return lambda: lbmf("transient", "--config", self.cfg, "--out", self._out(policy),
                            "--policy", policy)

    def _read(self, policy):
        return [float(r["fraction"]) for r in read_csv(self._out(policy) / "mf_trajectory.csv")]

    def items(self):
        def checker(policy):
            return lambda _: close(self._read(policy), self.reference(policy), "trajectory")
        return [Item(p, self._run(p), checker(p)) for p in POLICIES]


class DistB5(Workload):
    """``lbmf dist`` on the buffer-5 cluster, once per policy."""

    name = "dist-b5"
    configs = ("small_buffer.json",)

    def __init__(self, *a):
        super().__init__(*a)
        self.cfg = derived_config(self.config("small_buffer.json"),
                                  self.inputs / "small_buffer.json", horizon=DIST_HORIZON)

    def _run(self, policy):
        return lambda: lbmf("dist", "--config", self.cfg, "--out", self._out(policy),
                            "--policy", policy, "--points", DIST_POINTS, "--seed", self.seed)

    def _read(self, policy):
        out = self._out(policy)
        dens = read_csv(out / "density.csv")
        return {
            "t": [float(r["t"]) for r in dens],
            "density": [float(r["density"]) for r in dens],
            "flagged": [int(r["flagged"]) for r in dens],
            "summary": json.loads((out / "summary.json").read_text()),
        }

    def items(self):
        def checker(policy):
            def check(_):
                got, ref = self._read(policy), self.reference(policy)
                close(got["t"], ref["t"], "time grid")
                close(got["density"], ref["density"], "density")
                if got["flagged"] != ref["flagged"]:
                    raise CheckError("Talbot/Euler flags differ from the reference")
                for key in ("mean", "loss_prob", "mass_check"):
                    close(got["summary"][key], ref["summary"][key], f"summary {key}")
                hist = [[float(r["bin_lo"]), float(r["bin_hi"]), float(r["density"])]
                        for r in read_csv(self._out(policy) / "hist.csv")]
                tv = hist_distance(hist, got["t"], got["density"])
                if not tv <= DIST_HIST_TV:
                    raise CheckError(f"simulated histogram is {tv:.3f} (total variation) "
                                     f"from the density, above {DIST_HIST_TV}")
            return check
        return [Item(p, self._run(p), checker(p)) for p in POLICIES]


def hist_distance(hist, t, density):
    """Total variation between histogram bins and the density's bin masses,
    both conditioned on the histogram's window [0, t_max]."""
    t = np.concatenate(([0.0], t))
    f = np.concatenate(([density[0]], density))
    grid = np.linspace(0.0, t[-1], 20 * len(hist) + 1)
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * 0.5 * (
        np.interp(grid[1:], t, f) + np.interp(grid[:-1], t, f)))))
    edges = np.array([lo for lo, _, _ in hist] + [hist[-1][1]])
    p = np.diff(np.interp(edges, grid, cdf))
    q = np.array([h * (hi - lo) for lo, hi, h in hist])
    return 0.5 * float(np.abs(p / p.sum() - q / q.sum()).sum())


class SweepLoad(Workload):
    """The analytic cell at seeded loads on both 10-level clusters.

    Every (cluster, policy) pair gets one point in each of eight load slots
    spread over (0, 1). The seed places each point inside its slot; slots
    are narrow, so that the sweep's cost is much the same for every seed.
    """

    name = "sweep-load"
    configs = ("homogeneous.json", "heterogeneous.json")

    def __init__(self, *a):
        super().__init__(*a)
        self.specs = [model.parse_config(self.config(c).read_text())[0] for c in self.configs]
        self.points = draw_points(self.specs, self.seed)

    def items(self):
        return [Item(label, _cell(spec, policy), _point_checker(spec, policy))
                for label, spec, policy in self.points]

    def record(self):
        return {}


def _cell(spec, policy):
    def run():
        report = stationary.solve(spec, policy)
        mean, _ = systemtime.mean_sojourn(spec, policy, report)
        _, little = stationary.little(spec, policy, report)
        return report, mean, little
    return run


def _point_checker(spec, policy):
    def check(out):
        report, mean, little = out
        if not (math.isfinite(mean) and mean > 0):
            raise CheckError(f"mean sojourn {mean!r}")
        gap = abs(mean - little)
        if not gap < LITTLE_GAP:
            raise CheckError(f"|mean - Little| = {gap:.2e} >= {LITTLE_GAP:g}")
        if policy.kind == "jsqd":
            res = stationary.jsqd_balance_residual(spec, policy.d, report.nu)
            if not res <= JSQD_RESIDUAL:
                raise CheckError(f"jsqd balance residual {res:.2e} > {JSQD_RESIDUAL:g}")
    return check


def draw_points(specs, seed):
    """(label, spec, policy) for every cluster x policy x load slot.

    Loads are fractions of the policy's stability limit: capacity
    sum(gamma mu(B)), or sum(gamma mu(mpl)) for jbt. Slots sit at rho about
    0.15, 0.4, 0.8 and 0.95, just either side of the JIQ rate
    sum(gamma mu(1)), and at 1 - rho about 0.009 and 0.004.
    """
    rng = np.random.default_rng(seed)
    points = []
    for c, spec in enumerate(specs):
        cap = sum(t.gamma * t.curve.rates[t.buffer] for t in spec.types)
        jiq = sum(t.gamma * t.curve.rates[1] for t in spec.types)
        for name in SWEEP_POLICIES:
            policy = cli.parse_policy_name(name)
            limit = cap
            if policy.kind == "jbt":
                limit = sum(t.gamma * t.curve.rates[t.mpl] for t in spec.types)
            lams = [
                limit * 0.15 * rng.uniform(0.9, 1.1),
                limit * 0.40 * rng.uniform(0.95, 1.05),
                jiq * (1 - 0.005 * rng.uniform(0.9, 1.1)),
                jiq * (1 + 0.005 * rng.uniform(0.9, 1.1)),
                limit * 0.80 * rng.uniform(0.98, 1.02),
                limit * (1 - 0.05 * rng.uniform(0.9, 1.1)),
                limit * (1 - 0.009 * rng.uniform(0.95, 1.05)),
                limit * (1 - 0.004 * rng.uniform(0.95, 1.05)),
            ]
            for lam in lams:
                s = replace(spec, lam=float(lam))
                violations = model.validate(s, policy)
                if violations:
                    raise ValueError(f"drew an invalid sweep point: {violations}")
                points.append((f"c{c}/{name}/rho={lam / limit:.5f}", s, policy))
    return points


WORKLOADS = {w.name: w for w in (TableHom, TransientHet, DistB5, SweepLoad)}

# The layer that should do most of each workload's work (see README.md).
INTENDED = {
    "table-hom": ("sim",),
    "transient-het": ("ode", "dispatch"),
    "dist-b5": ("systemtime", "ilt"),
    "sweep-load": ("stationary",),
}
