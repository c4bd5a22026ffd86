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
import csv
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


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([format(x, ".17g") if isinstance(x, float) else str(x) for x in row]
                      for row in rows)


def write_trajectory_csv(path: Path, traj):
    parts = [part.tolist() for part in traj.parts]
    _write_csv(path, ["t", "k", "i", "fraction"],
               ((t, k, i, frac) for s, t in enumerate(traj.times.tolist())
                for k, part in enumerate(parts) for i, frac in enumerate(part[s])))


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
        ValidationError.check(validate(spec, policy))
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
        _write_csv(out / "sim_sojourns.csv", ["arrival", "departure", "type", "length_seen"],
                   zip(res.arrival_time.tolist(), res.departure_time.tolist(),
                       res.server_type.tolist(), res.length_seen.tolist()))
        _write_csv(out / "sim_loss.csv", ["arrivals", "admitted", "lost", "loss_fraction"],
                   [(res.arrivals, res.admitted, res.losses,
                     res.losses / res.arrivals if res.arrivals else 0.0)])
    return EXIT_OK


def _analytic_cell(spec, policy):
    report = stationary.solve(spec, policy)
    overall, _ = systemtime.mean_sojourn(spec, policy, report)
    per_type, _ = stationary.little(spec, policy, report)
    return [(h, "") for h in (overall, *per_type)], report.loss_prob


def _window(horizon):
    """The steady-state window [horizon / 2, horizon - margin]; the margin
    leaves the jobs that arrived in it time to depart before the run ends."""
    return horizon / 2, horizon - min(50.0, horizon / 4)


def _steady_window(res):
    """Sojourn times and server types of the jobs of a run under the steady
    window, whose records are those jobs alone. An empty window raises: its
    mean and histogram would be NaN."""
    if not len(res.arrival_time):
        lo, hi = res.window
        raise ConfigError(f"no job both arrived in the steady window from t = {lo:g} "
                          f"to {hi:g} and departed by run.horizon {res.horizon:g}; "
                          f"lengthen the horizon")
    return res.departure_time - res.arrival_time, res.server_type


def _sim_cell(spec, policy, n, run, replications):
    # the cell reads the window's records and the counters only: sampling
    # at 0 and the horizon skips the trajectory's sample ticks, and the
    # window skips the warm-up's records; neither changes a record kept
    results = sim.replicate(spec, policy, n=n, horizon=run.horizon,
                            seed=run.seed, r=replications,
                            sample_interval=run.horizon, window=_window(run.horizon))
    means = []  # per replication: the window's mean, then each type's
    for res in results:
        soj, types = _steady_window(res)
        means.append([soj.mean(), *(soj[types == k].mean() if (types == k).any() else np.nan
                                    for k in range(spec.k))])
    losses = (sum(r.window_losses for r in results)
              / max(1, sum(r.window_arrivals for r in results)))
    se = lambda v: (float(np.std(v, ddof=1) / np.sqrt(len(v))) if len(v) > 1
                    else 0.0 if len(v) else np.nan)
    # each scope over the replications with a job in it
    columns = [v[~np.isnan(v)] for v in np.array(means).T]
    return [(float(np.mean(v)) if len(v) else np.nan, se(v)) for v in columns], losses


def cmd_table(args) -> int:
    spec, policy, run = _load(args)
    policies = ([parse_policy_name(p) for p in args.policies.split(",")]
                if args.policies else [policy])
    _at_least(1, ("--replications", args.replications))
    try:
        # a repeated size, and 'inf' beside 'mf', is one size at its first place
        ns = list(dict.fromkeys(None if x in ("inf", "mf") else int(x)
                                for x in args.n.split(",")))
        if any(n is not None and n < 1 for n in ns):
            raise ValueError
    except ValueError:
        raise ConfigError(f"--n takes sizes >= 1 or 'inf', got {args.n!r}") from None
    if any(n is not None for n in ns):
        sim.workers()  # a malformed LBMF_THREADS stops the run, not each cell
    out = _outdir(args)
    scopes = ["entire"] + [f"type{k}" for k in range(spec.k)]
    rows = []
    for pol in policies:
        cells = []  # per size: a (mean, stderr) pair per scope, and the loss
        for n in ns:
            try:
                cells.append(_analytic_cell(spec, pol) if n is None
                             else _sim_cell(spec, pol, n, run, args.replications))
            except (ValueError, ConvergenceError) as e:
                cells.append(([(f"ERROR: {e}", "")] * len(scopes), ""))
        rows += [(pol.label(), scope, "inf" if n is None else n, *pairs[j], loss)
                 for j, scope in enumerate(scopes) for n, (pairs, loss) in zip(ns, cells)]
    _write_csv(out / "table.csv",
               ["policy", "scope", "n", "mean", "stderr", "loss"], rows)
    return EXIT_OK


def cmd_dist(args) -> int:
    spec, policy, run = _load(args)
    _at_least(1, ("--points", args.points), ("--bins", args.bins))
    if args.t_max is not None and not 0.0 < args.t_max < np.inf:
        raise ConfigError(f"--t-max must be a positive finite number, got {args.t_max}")
    report = stationary.solve(spec, policy)
    dist = systemtime.distribution(spec, policy, report)
    t_max = 15.0 * dist.mean if args.t_max is None else args.t_max
    grid = np.linspace(t_max / args.points, t_max, args.points)
    dens = dist.density(grid)
    n = run.n_servers or 1000
    # the histogram reads the window's records only, as in _sim_cell
    res = sim.run(spec, policy, n=n, horizon=run.horizon, seed=run.seed,
                  sample_interval=run.horizon, window=_window(run.horizon))
    soj, _ = _steady_window(res)

    # every step that can fail has run, so a failed run leaves no output behind
    out = _outdir(args)
    _write_csv(out / "density.csv", ["t", "density", "flagged"],
               ((float(t), float(h), int(f)) for t, h, f in
                zip(dens.t, dens.density, dens.flagged)))
    edges = np.linspace(0.0, t_max, args.bins + 1)
    scale = (soj <= t_max).mean()  # histogram density over the window only
    # with no sojourn in range, numpy's density would divide 0 by 0
    hist = np.histogram(soj, bins=edges, density=True)[0] if scale else np.zeros(args.bins)
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
    for name, pol in [(f"jsqd_{d}", Policy("jsqd", d=d)) for d in ds] + [("jsq", Policy("jsq"))]:
        traj = ode.integrate(Occupancy.empty(spec), spec, pol, horizon=run.horizon,
                             dt=run.dt, sample_interval=run.sample_interval)
        write_trajectory_csv(out / f"traj_{name}.csv", traj)
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
