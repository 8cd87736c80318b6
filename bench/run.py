"""Benchmark of the milburnsim command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload eigen-curves --seed 1 --seconds 25 --trace 0

It imports ``milburnsim`` from the checkout's ``src`` and drives the public
entry point ``milburnsim.cli.main(argv)`` in this one warm process, as a
closed loop: one client, each invocation starting after the previous one
returned.  A pass makes every invocation of the workload once; passes
repeat until the next one would end after ``--seconds`` (three at least).
BLAS is pinned to one thread before numpy loads.  Every invocation's
output is checked (see ``checks.py``) outside the timed region; a failed
check or a non-zero exit counts as a failed invocation and makes the run
exit 1.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` (sum over invocations of the median seconds spent in
``cli.main``), ``setup_s`` (median seconds a fresh interpreter takes to
import ``milburnsim.cli``), ``values_per_s`` (observable values written to
CSV per second of ``wall_s``) and ``peak_rss_mb``.  With ``--trace 1``
untraced and traced passes alternate, and it reports the per-layer
metrics: calls, self time and counters per module function, recorded by
``tracer.py``, as medians over the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
record the environment, the seed, the drawn parameters, each check's
largest deviation and every metric with its unit.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

if not (SRC / "milburnsim" / "__init__.py").is_file():
    sys.exit(f"error: no milburnsim sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checks import CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5          # timed fresh-interpreter imports, after one untimed
MIN_PASSES = 3
MIN_TRACED_PASSES = 2   # one untraced and one traced
LAYER_MODULES = ("fock", "dynamics", "observables", "cli")

IMPORT_CODE = ("import time; t = time.perf_counter(); import milburnsim.cli; "
               "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_children(reps, importtime):
    """Import milburnsim.cli in ``reps`` fresh interpreters after one
    untimed warm-up.  Returns the import seconds of each, or with
    ``importtime`` the cumulative ``-X importtime`` seconds per module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", IMPORT_CODE]
    results = []
    for _ in range(reps + 1):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        if importtime:
            cumulative = {}
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[1].strip().isdigit():
                    cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
            results.append(cumulative)
        else:
            results.append(float(proc.stdout.strip().splitlines()[-1]))
    return results[1:]


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "milburnsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_pin": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_pass(cli, invocations, checked, sink):
    """One closed-loop pass.  Returns (seconds per invocation, failures);
    ``checked`` collects each label's largest deviation, inf once failed."""
    seconds, failures = [], 0
    for inv in invocations:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(inv.argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            traceback.print_exc()
            code = None
        seconds.append(time.perf_counter() - start)
        sink.seek(0)
        sink.truncate()
        try:
            if code != 0:
                raise CheckFailed(f"{inv.label}: exit code {code}")
            err = inv.check()
        except (CheckFailed, OSError) as e:
            print(f"FAILED {e}", file=sys.stderr)
            failures += 1
            err = math.inf
        checked[inv.label] = max(err, checked.get(inv.label, 0.0))
    return seconds, failures


def layer_values(tracer, pass_wall, curves):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    values = {f"{name}.calls": n for name, n in tracer.calls.items()}
    values.update({f"{name}.self_s": s for name, s in tracer.self_s.items()})
    values.update(tracer.counts)
    flop = values.pop("dynamics.SpectralPropagator.evolve.flop", 0)
    evolve_s = values.get("dynamics.SpectralPropagator.evolve.self_s", 0.0)
    values["dynamics.SpectralPropagator.evolve.gflop_per_s"] = (
        flop / evolve_s * 1e-9 if evolve_s else 0.0)
    values["fock.atom_field.calls_per_curve"] = (
        values.get("fock.atom_field.calls", 0) / curves)
    values["trace.wall_s"] = pass_wall
    return values


def measure(cli, invocations, seconds, trace):
    """Closed-loop passes until the next would end after ``seconds``.

    Returns (seconds per invocation of each untraced pass, layer values of
    each traced pass, failed invocations, largest deviation per check)."""
    tracer = Tracer()
    curves = sum(inv.curves for inv in invocations)
    sink = io.StringIO()
    walls, traced, checked = [], [], {}
    failed = 0
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    deadline = time.perf_counter() + seconds
    last = 0.0
    while (len(walls) + len(traced) < min_passes
           or time.perf_counter() + last <= deadline):
        start = time.perf_counter()
        if trace and len(traced) < len(walls):
            tracer.reset()
            with tracer:
                times, fails = run_pass(cli, invocations, checked, sink)
            traced.append(layer_values(tracer, sum(times), curves))
        else:
            times, fails = run_pass(cli, invocations, checked, sink)
            walls.append(times)
        failed += fails
        last = time.perf_counter() - start
    return walls, traced, failed, checked


def end_to_end_metrics(invocations, walls, setup):
    wall = sum(statistics.median(col) for col in zip(*walls))
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "values_per_s": sum(inv.values for inv in invocations) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(per_layer, walls, traced, importtimes):
    """Medians over the traced passes; named self times are summed to show
    how much of the traced wall time the named spans account for."""
    values = {key: statistics.median(v.get(key, 0) for v in traced)
              for key in set().union(*traced)}
    named_self = sum(values.get(m["name"], 0.0) for m in per_layer
                     if m["name"].endswith(".self_s"))
    values["trace.named_share"] = named_self / values["trace.wall_s"]
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(map(sum, walls)))
    for mod in LAYER_MODULES:
        values[f"{mod}.import_s"] = statistics.median(
            t.get(f"milburnsim.{mod}", 0.0) for t in importtimes)
    return values


def main(argv=None, tiny=False):
    """Run one benchmark; ``tiny`` shrinks every grid (smoke self-test)."""
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    children = import_children(SETUP_REPS, importtime=bool(args.trace))

    from milburnsim import cli, params
    category = getattr(params, "DispersiveValidityWarning", None)
    if category is not None:
        warnings.simplefilter("ignore", category)

    print("env " + json.dumps(environment(args.seed)))
    WORK_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
            invocations = WORKLOADS[args.workload](
                np.random.default_rng(args.seed), workdir, tiny=tiny)
            for inv in invocations:
                print(f"invocation {inv.label}: {' '.join(inv.argv)}")
            walls, traced, failed, checked = measure(
                cli, invocations, args.seconds, args.trace)
    finally:
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    if args.trace:
        names = spec["per_layer"]
        computed = layer_metrics(names, walls, traced, children)
    else:
        names = spec["end_to_end"]
        computed = end_to_end_metrics(invocations, walls, children)
    metrics = {m["name"]: {"value": computed.get(m["name"], 0),
                           "unit": m["unit"]} for m in names}
    attempted = len(invocations) * (len(walls) + len(traced))

    for label, err in checked.items():
        print(f"check {label}: " + ("FAILED" if err == math.inf
                                    else f"ok, max deviation {err:.3e}"))
    print(f"workload {args.workload}: {len(walls)} untraced and "
          f"{len(traced)} traced passes")
    for inv, col in zip(invocations, zip(*walls)):
        print(f"  seconds {inv.label} {[round(t, 4) for t in col]}")
    print(f"  fail_frac {failed / attempted:.4g} 1")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
