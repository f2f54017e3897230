"""Benchmark of the nmkraus solvers.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
of that checkout and nowhere else.  NAME is one of the workloads in
``workloads.py`` or ``all``.  Each workload runs in fresh worker
processes with one BLAS/OpenMP thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
five cold ``import nmkraus`` plus first-input builds, each in a fresh
process), ``wall_s`` (median time of one round of solves); both are
scaled to the reference speed of ``calibration.py``,
``peak_rss_mb`` (peak resident set of the worker) and ``ref_err_frac``
(largest deviation from a reference over its tolerance; below 1 when
every check passes).  ``--trace 1`` runs the workload for half the
time untraced and half with every layer wrapped in spans, each in its
own process, and prints the per-layer metrics.  The last line of the output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it repeat the metrics for people.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("jc_bitemporal", "generic_bitemporal", "two_level_long", "frequency_domain")
SETUP_PROBES = 5
WORKER_TIMEOUT = 150.0

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
from tracing import COUNTS, LAYERS, SIZES  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("NMKRAUS_THREADS", None)
    return env


def _worker_cmd(workload, seed, seconds, mode, workdir):
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--workdir", str(workdir),
    ]


def _probe(workload, seed, workdir):
    """Seconds from process start to the first solve call."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        _worker_cmd(workload, seed, 0, "probe", workdir) + ["--t0", repr(t0)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT,
    )
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        sys.stderr.write(proc.stderr[-4000:])
        raise HarnessError(f"set-up probe for {workload} exited {proc.returncode}")
    return float(words[1])


def _run_worker(workload, seed, seconds, mode, workdir):
    workdir.mkdir(parents=True)
    log = workdir / "worker.log"
    with open(log, "w") as fh:
        try:
            rc = subprocess.run(
                _worker_cmd(workload, seed, seconds, mode, workdir),
                env=_env(),
                stdout=fh,
                stderr=subprocess.STDOUT,
                timeout=WORKER_TIMEOUT,
            ).returncode
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{mode} worker for {workload} timed out") from None
    if rc != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise HarnessError(f"{mode} worker for {workload} exited {rc}")
    with open(workdir / "result.json") as fh:
        return json.load(fh)


def _missed(dev, tol):
    return not dev <= tol  # a NaN deviation misses too


def _op_failed(op):
    return op["error"] is not None or any(_missed(dev, tol) for _, dev, tol in op["checks"])


def _tally(results):
    ops = [op for res in results for op in res["ops"]]
    for op in ops:
        if op["error"] is not None:
            sys.stderr.write(f"{op['name']} raised:\n{op['error']}")
        for label, dev, tol in op["checks"]:
            if _missed(dev, tol):
                sys.stderr.write(f"{op['name']} missed {label}: {dev:.3e} > {tol:.3e}\n")
    return len(ops), sum(_op_failed(op) for op in ops)


def _ref_err_frac(result):
    fracs = [
        dev / tol if dev == dev else math.inf
        for op in result["ops"]
        for _, dev, tol in op["checks"]
    ]
    return max(fracs, default=0.0)


def _end_to_end(workload, seed, seconds, workdir):
    setup = [_probe(workload, seed, workdir / f"probe{k}") for k in range(SETUP_PROBES)]
    res = _run_worker(workload, seed, seconds, "run", workdir / "run")
    # the probes run right before the worker, so they share its speed;
    # the mean over all its kernel runs is steadier than a few of their own
    kernel = [k for op in res["ops"] for k in op["calib"]]
    speed = calibration.REFERENCE_S * len(kernel) / sum(kernel)
    metrics = {
        "setup_s": (statistics.median(setup) * speed, "s"),
        "wall_s": (statistics.median(res["scaled_rounds"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "ref_err_frac": (_ref_err_frac(res), "1"),
    }
    print(f"{workload}: unscaled setup_s = {statistics.median(setup):.6g} s")
    print(f"{workload}: unscaled wall_s = {statistics.median(res['rounds']):.6g} s")
    return metrics, [res]


def _per_layer(workload, seed, seconds, workdir):
    # half the run untraced, half traced, so a traced run costs no more
    plain = _run_worker(workload, seed, seconds / 2, "run", workdir / "run")
    traced = _run_worker(workload, seed, seconds / 2, "trace", workdir / "trace")
    n = len(traced["rounds"])
    wall = sum(traced["rounds"]) / n
    metrics = {
        f"{layer}_s": (traced["self_times"].get(layer, 0.0) / n, "s") for layer in LAYERS
    }
    for name, unit in SIZES.items():
        metrics[name] = (traced["sizes"].get(name, 0.0), unit)
    for name, unit in COUNTS.items():
        metrics[name] = (traced["counts"].get(name, 0.0) / n, unit)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (wall - traced["root_time"] / n, "s")
    overhead = (
        statistics.median(traced["scaled_rounds"]) / statistics.median(plain["scaled_rounds"]) - 1
    )
    metrics["trace.overhead_frac"] = (overhead, "1")
    return metrics, [plain, traced]


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_workload(workload, seed, seconds, trace):
    """Metrics ``{name: (value, unit)}``, attempted and failed op counts."""
    workdir = WORK / f"{workload}-{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    measure = _per_layer if trace else _end_to_end
    metrics, results = measure(workload, seed, seconds, workdir)
    attempted, failed = _tally(results)
    prov = dict(results[-1]["provenance"], commit=_git_commit())
    print(f"{workload}: provenance {json.dumps(prov, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    print(f"{workload}: failed_frac = {failed / attempted:.6g} ({failed}/{attempted} ops)")
    return metrics, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nmkraus" / "__init__.py").is_file():
        print(f"no nmkraus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f = run_workload(name, args.seed, args.seconds, args.trace)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except HarnessError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
