"""kyano benchmark: closed-loop workloads timed from outside the package.

    python3 perfbench/run.py --workload report|geodesic|curved|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; kyano is imported from ``src/``.  One
process, no extra threads: each task starts when the previous one has
finished.  Every output is checked against the expectations in
``oracles.py``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count checks.  A human summary goes to standard error.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
Their times are normalized to a reference host speed (see
``hostspeed.py``): the reference kernel runs between consecutive tasks,
and each task's wall time is rescaled by the mean of the kernel times on
either side of it.  ``task_s`` is the median rescaled task time and
``units_per_s`` the median of each task's units over its rescaled time.  ``setup_s`` is the median over SETUP_PROBES fresh
processes of the time to import kyano and build the workload, each
rescaled by kernel runs just before and after it; the probes are spread
evenly through the timed run.  The line before the result is
``{"tasks", "wall", "meta"}``: the number of tasks the medians cover,
the unscaled wall-time medians with the host's median speed factor, and
the run metadata.

``--trace 1`` reports the per-layer metrics: it runs each task twice,
untraced and then with every public kyano function wrapped in a span
(see ``spans.py``).  Counts and self times are per traced task.

``--workload all`` runs the three workloads one after another, each in
its own process, and prints a table.
"""

import os
import sys
import time

# Pin BLAS/OpenMP pools to one thread before numpy is imported, here or in
# a child process, which inherits the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Measure the checkout's kyano, never an installed copy.
if not (ROOT / "src" / "kyano" / "__init__.py").is_file():
    sys.exit(f"perfbench: no kyano package under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402 -- imports numpy and kyano, inside the timed set-up

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


def run_task(wl, k: int) -> tuple[float, int, list]:
    """Task ``k``: (call seconds, units, checks)."""
    inputs = wl.prepare(k)
    elapsed = None
    t0 = time.perf_counter()
    try:
        out = wl.call(inputs)
        elapsed = time.perf_counter() - t0
        units, checks = wl.check(k, inputs, out)
    except Exception:  # a crash is a failed check, not a lost run
        traceback.print_exc()
        if elapsed is None:
            elapsed = time.perf_counter() - t0
        units, checks = 0, [("task ran without exception", False)]
    return elapsed, units, checks


def task_indices(wl, seconds: float):
    """Closed loop: task indices from 0 until ``seconds`` have passed and
    the round is whole."""
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or k % wl.round_size:
        yield k
        k += 1


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of one fresh process: (wall, normalized)."""
    before = hostspeed.kernel_seconds()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    wall = float(proc.stdout.split()[-1])
    after = hostspeed.kernel_seconds()
    return wall, wall * hostspeed.REFERENCE_S / ((before + after) / 2.0)


def end_to_end(wl, seed: int, seconds: float):
    """Probe ``i`` runs before the first task that starts at least
    ``i * seconds / SETUP_PROBES`` into the run; probes are not task time.
    ``kernel[k]`` and ``kernel[k + 1]`` bracket task ``k``."""
    hostspeed.kernel_seconds()  # warm-up: numpy loads its linalg paths lazily
    start = time.perf_counter()
    probes, tasks, kernel = [], [], [hostspeed.kernel_seconds()]
    for k in task_indices(wl, seconds):
        if len(probes) < SETUP_PROBES and time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(setup_probe(wl.name, seed))
        tasks.append(run_task(wl, k))
        kernel.append(hostspeed.kernel_seconds())
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(wl.name, seed))
    speed = [hostspeed.REFERENCE_S / ((a + b) / 2.0) for a, b in zip(kernel, kernel[1:])]
    scaled = [t * f for (t, _, _), f in zip(tasks, speed)]
    checks = [c for _, _, cs in tasks for c in cs]
    values = {
        "setup_s": statistics.median(n for _, n in probes),
        "task_s": statistics.median(scaled),
        "units_per_s": statistics.median(u / t for (_, u, _), t in zip(tasks, scaled)),
        "pass_ratio": sum(ok for _, ok in checks) / len(checks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "setup_s": statistics.median(w for w, _ in probes),
        "task_s": statistics.median(t for t, _, _ in tasks),
        "host_speed": statistics.median(speed),
    }
    return values, checks, len(tasks), wall


def per_layer(wl, seconds: float, names):
    """Each task runs untraced, then traced; interleaving keeps the host's
    drifting speed out of the overhead ratio."""
    tracer = Tracer()
    untraced, traced = [], []
    for k in task_indices(wl, seconds):
        untraced.append(run_task(wl, k))
        tracer.install()
        try:
            traced.append(run_task(wl, k))
        finally:
            tracer.uninstall()
    n = len(traced)
    counts = tracer.counts
    attempts = counts["geometry.sample.attempts"]
    values = {
        "trace.overhead_ratio": statistics.median(
            t / u for (t, _, _), (u, _, _) in zip(traced, untraced)),
        "geometry.sample.attempts": attempts / n,
        "geometry.sample.acceptance": counts["geometry.sample.accepted"] / attempts if attempts else 0.0,
        "dynamics.steps_completed": counts["dynamics.steps_completed"] / n,
    }
    for name in names:
        kind, _, stat = name.rpartition(".")
        if stat == "calls":
            values.setdefault(name, tracer.calls[kind] / n)
        elif stat == "self_s":
            values.setdefault(name, tracer.self_s[kind] / n)
        elif stat == "s":
            values.setdefault(name, tracer.total_s[kind] / n)
    checks = [c for _, _, cs in untraced + traced for c in cs]
    return values, checks, n


def git_commit():
    """HEAD of the checkout, or None outside a git repository.  The
    ceiling keeps git from reading a repository that encloses it."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_metadata() -> dict:
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": sum(p.read_text().count("\n") for p in (ROOT / "src" / "kyano").glob("*.py")),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def summarize(workload, metrics, checks, n_tasks, wall, trace, meta):
    err = sys.stderr
    print(f"perfbench {workload} trace={trace} meta={json.dumps(meta)}", file=err)
    for name, m in metrics.items():
        extra = f"  (median of {n_tasks} tasks)" if name == "task_s" else ""
        print(f"  {name:40} {m['value']:.6g} {m['unit']}{extra}", file=err)
    if wall:
        print(f"  unscaled wall medians: setup_s {wall['setup_s']:.6g} s, task_s {wall['task_s']:.6g} s;"
              f" host speed {wall['host_speed']:.4g}", file=err)
    failed = {}
    for name, ok in checks:
        failed[name] = failed.get(name, 0) + (not ok)
    for name, count in failed.items():
        if count:
            tag = f"known defect: {oracles.KNOWN_DEFECTS[name]}" if name in oracles.KNOWN_DEFECTS else "UNEXPECTED"
            print(f"  failed {count}x: {name} [{tag}]", file=err)


def run_all(args) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60, check=True,
        )
        info, result = proc.stdout.strip().splitlines()[-2:]
        results[name] = json.loads(result)
        info = json.loads(info)
        results[name]["tasks"], results[name]["wall"] = info["tasks"], info["wall"]
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} checks failed {res['failed']}/{res['attempted']}"
              f" over {res['tasks']} tasks")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, None)
        print(time.perf_counter() - _T0)
        return 0
    declared = declared["per_layer" if args.trace else "end_to_end"]
    wall = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        wl = cls(args.seed, outdir)
        if args.trace:
            values, checks, n_tasks = per_layer(wl, args.seconds, [m["name"] for m in declared])
        else:
            values, checks, n_tasks, wall = end_to_end(wl, args.seed, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = [name for name, ok in checks if not ok]
    meta = run_metadata()
    summarize(args.workload, metrics, checks, n_tasks, wall, args.trace, meta)
    print(json.dumps({"tasks": n_tasks, "wall": wall, "meta": meta}))
    print(json.dumps({
        "correct": all(name in oracles.KNOWN_DEFECTS for name in failed),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
