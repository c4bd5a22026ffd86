"""Benchmark of the lbmf package: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Run from the root of a source checkout; the package is imported from
``src/``. One caller runs one item at a time in this process, with
``LBMF_THREADS=1``. The run repeats the workload until ``--seconds`` is
spent and reports medians. With ``--trace 1`` it runs untraced for half the
time, then once more with spans around every layer, and reports the layer
metrics. The last line of standard output is the result as JSON; the lines
before it name every metric with its unit. See README.md.
"""

import os

# One caller on one thread, in the package and in numpy's BLAS.
for _var in ("LBMF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"
PROBES = 7          # set-up probes per run
CAL_REF_S = 0.010   # the calibration loop's duration at the reference speed
CAL_EXPONENT = 0.75  # share of the loop's slow-down taken out of each time (see to_ref)
EXACT = ("sim.events", "ode.steps", "dispatch.field_calls", "systemtime.transform_evals")


def unit(name):
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, u in (("_s", "s"), ("_us", "us"), ("_ms", "ms")):
        if name.endswith(suffix) or f"{suffix}_p" in name:
            return u
    if name.endswith(("share", "frac", "per_step")):
        return "ratio"
    return "count"


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the package sources, which names the code measured when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lbmf").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def calibrate():
    """Seconds taken by a fixed mix of interpreter and small-array numpy work,
    the kind lbmf does; about CAL_REF_S on an idle 2.1 GHz Xeon core."""
    import numpy as np

    t0 = perf_counter()
    s, x = 0, np.zeros(11)
    for i in range(6000):
        x[i % 11] += 1.0
        s += (i * i) % 7
        np.concatenate(([0.0], x[:-1]))
    return perf_counter() - t0


def to_ref(seconds, cal_before, cal_after):
    """Rescale a wall time to reference seconds, using the calibration loop
    timed just before and just after it.

    On a shared host the speed of the same code drifts by up to 2x within
    minutes. Times are divided by (loop time / CAL_REF_S) ** CAL_EXPONENT:
    with exponent 1 the loop would stand in fully for the host's speed, but
    lbmf's code slows less than the loop does and the loop samples the speed
    only at the item's ends. Over 24 passes of each workload the quartile
    spread of 3-pass medians was lowest near 0.75 for all four together.
    """
    return seconds / (0.5 * (cal_before + cal_after) / CAL_REF_S) ** CAL_EXPONENT


def probe_setup(configs):
    """Set-up time in reference seconds: the median over fresh interpreters
    of the time from process start until numpy and lbmf are imported and the
    configs parsed. Also the plain median and the median parse time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           *[str(ROOT / "configs" / c) for c in configs]]
    walls, walls_ref, parses = [], [], []
    cal_before = calibrate()
    for _ in range(PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
            line = proc.stdout.readline()
            walls.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        cal_after = calibrate()
        walls_ref.append(to_ref(walls[-1], cal_before, cal_after))
        cal_before = cal_after
        parses.append(float(line.split()[1]))
    return (statistics.median(walls_ref), statistics.median(walls),
            statistics.median(parses))


def run_items(items, tracer=None):
    """One pass over the workload: (label, seconds, reference seconds, error
    or None) per item, the calibration loop timed between items."""
    from workloads import CheckError

    results = []
    cal_before = calibrate()
    for item in items:
        out, err = None, None
        if tracer:
            tracer.enabled = True
        t0 = perf_counter()
        try:
            out = item.run()
        except Exception as e:  # an item that raises counts as failed
            err = f"{type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        finally:
            dt = perf_counter() - t0
            if tracer:
                tracer.enabled = False
        cal_after = calibrate()
        dt_ref = to_ref(dt, cal_before, cal_after)
        cal_before = cal_after
        if err is None:
            try:
                item.check(out)
            except CheckError as e:
                err = str(e)
            except Exception as e:  # unreadable output also fails the item
                err = f"{type(e).__name__}: {e}"
        if err:
            print(f"FAILED {item.label}: {err}", file=sys.stderr)
        results.append((item.label, dt, dt_ref, err))
    return results


def measure(name, seed, seconds, trace):
    import numpy as np

    import workloads
    from tracer import Tracer

    env = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "commit": git_commit(), "source_sha256": source_digest(),
           "python": platform.python_version(),
           "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
           "LBMF_THREADS": os.environ["LBMF_THREADS"], "loadavg_start": loadavg()}
    cls = workloads.WORKLOADS[name]
    setup_s, setup_wall_s, parse_s = probe_setup(cls.configs)

    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    ref_path = REFERENCE / f"{name}.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else None
    items = cls(ROOT, workdir, seed, reference).items()

    passes = []
    budget = seconds / 2 if trace else seconds
    t_start = perf_counter()
    while True:
        passes.append(run_items(items))
        spent = perf_counter() - t_start
        if spent + spent / len(passes) > budget:
            break
    # Each item's median over the passes; a pass's time is their sum.
    item_s, item_ref_s = np.median([[r[1:3] for r in p] for p in passes], axis=0).T
    wall_ref_s = float(item_ref_s.sum())

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_items(items, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        metrics = tracer.layer_metrics(sum(r[1] for r in traced))
        metrics["model.parse_s"] = parse_s
        metrics["trace.wall_ref_s"] = sum(r[2] for r in traced)
        metrics["trace.overhead_frac"] = metrics["trace.wall_ref_s"] / wall_ref_s - 1.0
        metrics["split.intended_share"] = sum(
            metrics[f"{layer}.share"] for layer in workloads.INTENDED[name])
    else:
        lat_ms = item_ref_s * 1e3
        metrics = {
            "wall_ref_s": wall_ref_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "point_p50_ref_ms": float(np.percentile(lat_ms, 50)),
            "point_p90_ref_ms": float(np.percentile(lat_ms, 90)),
        }

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r[3])
    env.update(loadavg_end=loadavg(), passes=len(passes), items_per_pass=len(items),
               wall_s=float(item_s.sum()), setup_wall_s=setup_wall_s,
               failed_frac=failed / attempted)
    record = {"env": env, "metrics": metrics, "items": passes}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))

    print("env", json.dumps(env))
    print(f"{name}: {attempted} items in {len(passes)} passes, {failed} failed "
          f"(failed_frac {failed / attempted:.4g}); untraced wall_s {env['wall_s']:.4g} s")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:>16.6g} {unit(key)}")
    if trace:
        intended = "+".join(workloads.INTENDED[name])
        share = metrics["split.intended_share"]
        print(f"  layer split: {intended} does {share:.1%} of the traced wall "
              f"({'PASS' if share > 0.5 else 'FAIL'}: should be most of it)")
        print(f"  unattributed {metrics['trace.unattributed_frac']:+.2%} of the traced wall, "
              f"tracing overhead {metrics['trace.overhead_frac']:+.2%}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}


def child(workload, seed, seconds, trace):
    """Run one workload in its own process; return its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed, seconds, trace):
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        res = child(name, seed, seconds, trace)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    return combined


def self_test():
    """Exact counts repeat at one seed; another seed draws other sweep points
    and passes every check; the metrics printed are the ones BENCHMARK.json
    declares, with the same units; each workload's intended layer does most
    of its work."""
    import workloads
    from lbmf import model

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {group: {m["name"]: m["unit"] for m in bench[group]}
                for group in ("end_to_end", "per_layer")}
    problems = []
    for name in workloads.WORKLOADS:
        runs = {(seed, trace): child(name, seed, 1, trace)
                for seed, trace in ((1, 1), (2, 1), (2, 0))}
        first = child(name, 1, 1, 1)
        for (seed, trace), res in runs.items():
            if not res["correct"]:
                problems.append(f"{name} seed {seed} trace {trace}: {res['failed']} failed")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            group = "per_layer" if trace else "end_to_end"
            if units != declared[group]:
                problems.append(f"{name}: printed {group} metrics differ from BENCHMARK.json")
        traced = runs[1, 1]["metrics"]
        counts = [{k: r["metrics"][k]["value"] for k in EXACT} for r in (first, runs[1, 1])]
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between two runs at seed 1: {counts}")
        share = traced["split.intended_share"]["value"]
        if not share > 0.5:
            problems.append(f"{name}: the intended layer does {share:.1%} of the work")
    specs = [model.parse_config((ROOT / "configs" / c).read_text())[0]
             for c in workloads.SweepLoad.configs]
    labels = [[label for label, _, _ in workloads.draw_points(specs, s)] for s in (1, 2)]
    if labels[0] == labels[1]:
        problems.append("sweep-load draws the same points at seeds 1 and 2")
    for problem in problems:
        print("SELF-TEST FAIL:", problem)
    print("SELF-TEST", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def record_reference():
    import workloads

    REFERENCE.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        ref = cls(ROOT, OUT / "record" / name, 1, None).record()
        if ref:
            (REFERENCE / f"{name}.json").write_text(json.dumps(ref) + "\n")
            print(f"recorded {REFERENCE / f'{name}.json'}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "lbmf" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not an lbmf source checkout (no src/lbmf or configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.workload in workloads.WORKLOADS:
        result = measure(args.workload, args.seed, max(1, args.seconds), args.trace)
    else:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
