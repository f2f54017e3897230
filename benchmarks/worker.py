"""One workload in one fresh process.

``run.py`` starts this script with the BLAS and OpenMP thread variables
already set and ``src`` on the path, so the cold import of nmkraus (by
``workloads``) is what a user pays, and the peak resident set belongs
to this workload alone.

Modes:

- ``probe``: import nmkraus, build the first round's inputs, print
  ``ready`` and the seconds since ``--t0`` (the parent's
  ``CLOCK_MONOTONIC`` at spawn, a system-wide clock) and exit.
- ``run``: run rounds until ``--seconds`` would be exceeded (at least
  one), timing each solve and checking it outside the timed region.
  The calibration kernel runs after each solve for a fifth of its time,
  so that each round's time can be scaled to the reference speed.
- ``trace``: as ``run``, with every layer wrapped in timing spans.

The result goes to ``result.json`` in ``--workdir``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import tracing
from workloads import ROUNDS


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _provenance():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
        "env_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _run_op(op, tracer):
    """Time ``op.call``, then the calibration kernel; check the output.

    Returns a record with the solve's seconds and the times of the
    kernel runs right after it.
    """
    rec = {"name": op.name, "seconds": 0.0, "calib": [], "checks": [], "error": None}
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception:
        rec["error"] = traceback.format_exc(limit=3)
        out = None
    finally:
        rec["seconds"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    rec["calib"] = calibration.sample(rec["seconds"])
    if rec["error"] is None:
        try:
            rec["checks"] = [
                [label, float(dev), float(tol)] for label, dev, tol in op.check(out)
            ]
        except Exception:
            rec["error"] = traceback.format_exc(limit=3)
    return rec


def run_rounds(name, seed, seconds, workdir, tracer=None):
    """Run rounds of workload ``name`` for about ``seconds``.

    A new round starts only while the elapsed time plus one average
    round stays within ``seconds``; the first round always runs.
    Returns the raw seconds of each round, the same at the reference
    speed (``calibration.scale``), and the op records.
    """
    rng = np.random.default_rng(seed)
    rounds, kernels, ops = [], [], []
    start = time.perf_counter()
    calibration.run_kernel()  # warm-up: FFT plans and caches
    while True:
        recs = [_run_op(op, tracer) for op in ROUNDS[name](rng, workdir)]
        rounds.append(sum(r["seconds"] for r in recs))
        kernels.append([k for r in recs for k in r["calib"]])
        ops += recs
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, calibration.scale(rounds, kernels), ops


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, help="CLOCK_MONOTONIC at spawn (probe)")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    if args.mode == "probe":
        ROUNDS[args.workload](np.random.default_rng(args.seed), workdir)
        print("ready", time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0)
        return 0

    tracer = tracing.install(tracing.Tracer()) if args.mode == "trace" else None
    rounds, scaled, ops = run_rounds(args.workload, args.seed, args.seconds, workdir, tracer)
    result = {
        "rounds": rounds,
        "scaled_rounds": scaled,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(),
    }
    if tracer is not None:
        result["self_times"] = dict(tracer.self_times())
        result["root_time"] = tracer.root_time()
        result["sizes"] = dict(tracer.sizes)
        result["counts"] = dict(tracer.counts)
        with open(workdir / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
