"""Command-line front end.

Subcommands cover the experiment axes: ``transient`` writes mean-field (and
optionally simulated) occupancy trajectories, ``table`` builds the
mean-system-time comparison across policies and cluster sizes, ``dist``
produces the theoretical system-time density next to a simulated histogram,
and ``jsqd-sweep`` tracks power-of-d trajectories toward the full
shortest-queue limit.

All outputs are CSV with 17 significant digits, so reruns with the same
config and seed are byte-identical. Exit codes: 0 ok, 1 invalid
configuration, 2 numerical non-convergence, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import ilt, ode, sim, stationary, systemtime
from .model import (ConfigError, ConvergenceError, Occupancy, Policy,
                    ValidationError, parse_config, validate)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _trajectory_rows(traj):
    for s, t in enumerate(traj.times):
        for k, part in enumerate(traj.parts):
            for i, frac in enumerate(part[s]):
                yield (float(t), k, i, float(frac))


def write_trajectory_csv(path: Path, traj):
    _write_csv(path, ["t", "k", "i", "fraction"], _trajectory_rows(traj))


def write_sojourns_csv(path: Path, result: sim.SimResult):
    rows = zip(result.arrival_time, result.departure_time,
               result.server_type, result.length_seen)
    _write_csv(path, ["arrival", "departure", "type", "length_seen"],
               ((float(a), float(d), int(k), int(s)) for a, d, k, s in rows))


def write_loss_csv(path: Path, result: sim.SimResult):
    frac = result.losses / result.arrivals if result.arrivals else 0.0
    _write_csv(path, ["arrivals", "admitted", "lost", "loss_fraction"],
               [(result.arrivals, result.admitted, result.losses, frac)])


def parse_policy_name(text: str) -> Policy:
    """Accept 'random', 'jiq', 'jsq', 'jbt', or 'jsqd:<d>'."""
    if ":" in text:
        kind, _, arg = text.partition(":")
        if kind != "jsqd":
            raise ConfigError(f"only jsqd takes an argument, got {text!r}")
        try:
            return Policy("jsqd", d=int(arg))
        except ValueError:
            raise ConfigError(f"jsqd:<d> needs an integer d, got {text!r}") from None
    if text == "jsqd":
        raise ConfigError("jsqd needs a choice count, e.g. jsqd:2")
    return Policy(text)


def _at_least(least, *options):
    """Reject the first (option, value) pair whose value is below ``least``."""
    for option, value in options:
        if value < least:
            raise ConfigError(f"{option} must be >= {least}, got {value}")


def _load(args):
    spec, policy, run = parse_config(Path(args.config).read_text())
    if args.policy:
        policy = replace(parse_policy_name(args.policy), control=policy.control)
        violations = validate(spec, policy)
        if violations:
            raise ValidationError(violations)
    if args.seed is not None:
        _at_least(0, ("--seed", args.seed))
        run = replace(run, seed=args.seed)
    return spec, policy, run


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_transient(args) -> int:
    spec, policy, run = _load(args)
    out = _outdir(args)
    traj = ode.integrate(Occupancy.empty(spec), spec, policy,
                         horizon=run.horizon, dt=run.dt,
                         sample_interval=run.sample_interval)
    write_trajectory_csv(out / "mf_trajectory.csv", traj)
    if args.overlay_sim:
        n = run.n_servers or 1000
        res = sim.run(spec, policy, n=n, horizon=run.horizon,
                      seed=run.seed, sample_interval=run.sample_interval)
        write_trajectory_csv(out / "sim_trajectory.csv", res.trajectory)
        write_sojourns_csv(out / "sim_sojourns.csv", res)
        write_loss_csv(out / "sim_loss.csv", res)
    return EXIT_OK


def _analytic_cell(spec, policy):
    report = stationary.solve(spec, policy)
    overall, _ = systemtime.mean_sojourn(spec, policy, report)
    per_type, _ = stationary.little(spec, policy, report)
    return overall, per_type, report.loss_prob


def _steady_window(res, horizon):
    """Sojourn times and server types of the jobs that arrived in the
    steady-state window [horizon / 2, horizon - margin]; the margin leaves
    the jobs that arrived in the window time to depart before the run ends."""
    margin = min(50.0, horizon / 4)
    mask = (res.arrival_time >= horizon / 2) & (res.arrival_time <= horizon - margin)
    return res.departure_time[mask] - res.arrival_time[mask], res.server_type[mask]


def _sim_cell(spec, policy, n, run, replications):
    results = sim.replicate(spec, policy, n=n, horizon=run.horizon,
                            seed=run.seed, r=replications,
                            sample_interval=run.sample_interval)
    overall, per_type = [], []
    for res in results:
        soj, types = _steady_window(res, run.horizon)
        overall.append(float(soj.mean()))
        per_type.append([float(soj[types == k].mean()) if (types == k).any() else np.nan
                         for k in range(spec.k)])
    losses = sum(r.losses for r in results) / max(1, sum(r.arrivals for r in results))
    per_type = np.array(per_type)
    se = lambda v: float(np.std(v, ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0
    return ((float(np.mean(overall)), se(overall)),
            [(float(np.nanmean(per_type[:, k])), se(per_type[:, k])) for k in range(spec.k)],
            losses)


def cmd_table(args) -> int:
    spec, policy, run = _load(args)
    policies = ([parse_policy_name(p) for p in args.policies.split(",")]
                if args.policies else [policy])
    _at_least(1, ("--replications", args.replications))
    try:
        ns = [(None if x in ("inf", "mf") else int(x)) for x in args.n.split(",")]
        if any(n is not None and n < 1 for n in ns):
            raise ValueError
    except ValueError:
        raise ConfigError(f"--n takes sizes >= 1 or 'inf', got {args.n!r}") from None
    out = _outdir(args)
    rows = []
    for pol in policies:
        cells = {"entire": {}, **{f"type{k}": {} for k in range(spec.k)}}
        for n in ns:
            label = "inf" if n is None else str(n)
            try:
                if n is None:
                    overall, per_type, loss = _analytic_cell(spec, pol)
                    cells["entire"][label] = (overall, None, loss)
                    for k, h in enumerate(per_type):
                        cells[f"type{k}"][label] = (h, None, loss)
                else:
                    (ov, ov_se), per_type, loss = _sim_cell(spec, pol, n, run,
                                                            args.replications)
                    cells["entire"][label] = (ov, ov_se, loss)
                    for k, (h, h_se) in enumerate(per_type):
                        cells[f"type{k}"][label] = (h, h_se, loss)
            except (ValidationError, ConvergenceError, ValueError) as e:
                for scope in cells:
                    cells[scope][label] = (f"ERROR: {e}", None, None)
        for scope, by_n in cells.items():
            for label, (val, se_, loss) in by_n.items():
                rows.append((pol.label(), scope, label,
                             val if isinstance(val, str) else float(val),
                             "" if se_ is None else se_,
                             "" if loss is None else loss))
    _write_csv(out / "table.csv",
               ["policy", "scope", "n", "mean", "stderr", "loss"], rows)
    return EXIT_OK


def cmd_dist(args) -> int:
    spec, policy, run = _load(args)
    _at_least(1, ("--points", args.points), ("--bins", args.bins))
    if args.t_max is not None and not 0.0 < args.t_max < np.inf:
        raise ConfigError(f"--t-max must be a positive finite number, got {args.t_max}")
    out = _outdir(args)
    report = stationary.solve(spec, policy)
    dist = systemtime.distribution(spec, policy, report)
    t_max = 15.0 * dist.mean if args.t_max is None else args.t_max
    grid = np.linspace(t_max / args.points, t_max, args.points)
    dens = dist.density(grid, normalized=True)
    _write_csv(out / "density.csv", ["t", "density", "flagged"],
               ((float(t), float(h), int(f)) for t, h, f in
                zip(dens.t, dens.density, dens.flagged)))

    n = run.n_servers or 1000
    res = sim.run(spec, policy, n=n, horizon=run.horizon, seed=run.seed,
                  sample_interval=run.sample_interval)
    soj, _ = _steady_window(res, run.horizon)
    edges = np.linspace(0.0, t_max, args.bins + 1)
    hist, _ = np.histogram(soj, bins=edges, density=True)
    scale = (soj <= t_max).mean()  # histogram density over the window only
    _write_csv(out / "hist.csv", ["bin_lo", "bin_hi", "density"],
               ((float(lo), float(hi), float(h * scale))
                for lo, hi, h in zip(edges[:-1], edges[1:], hist)))

    summary = {
        "mean": dist.mean,
        "loss_prob": dist.loss_prob,
        "mass_check": dens.mass() * (1.0 - dist.loss_prob),
        "method": "talbot",
        "nodes": ilt.TALBOT_NODES,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_jsqd_sweep(args) -> int:
    spec, policy, run = _load(args)
    try:
        ds = [int(x) for x in args.d_list.split(",")]
        if min(ds) < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"--d-list takes integers >= 1, got {args.d_list!r}") from None
    out = _outdir(args)
    for d in ds:
        traj = ode.integrate(Occupancy.empty(spec), spec, Policy("jsqd", d=d),
                             horizon=run.horizon, dt=run.dt,
                             sample_interval=run.sample_interval)
        write_trajectory_csv(out / f"traj_jsqd_{d}.csv", traj)
    ref = ode.integrate(Occupancy.empty(spec), spec, Policy("jsq"),
                        horizon=run.horizon, dt=run.dt,
                        sample_interval=run.sample_interval)
    write_trajectory_csv(out / "traj_jsq.csv", ref)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbmf",
        description="Load-balancing cluster analysis: simulation and mean-field limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run seed")
        p.add_argument("--policy", default=None,
                       help="override policy (random|jiq|jsq|jbt|jsqd:<d>)")

    p = sub.add_parser("transient", help="mean-field trajectory, optional sim overlay")
    common(p)
    p.add_argument("--overlay-sim", action="store_true")
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("table", help="mean system times across policies and sizes")
    common(p)
    p.add_argument("--policies", default=None,
                   help="comma list, e.g. random,jiq,jsqd:2,jsqd:5,jsq,jbt")
    p.add_argument("--n", default="inf", help="comma list of sizes, 'inf' for the limit")
    p.add_argument("--replications", type=int, default=8)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("dist", help="system-time density and simulated histogram")
    common(p)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--points", type=int, default=1500)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("jsqd-sweep", help="power-of-d trajectories toward jsq")
    common(p)
    p.add_argument("--d-list", default="2,5,20,100")
    p.set_defaults(func=cmd_jsqd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
