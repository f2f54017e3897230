"""The program interface that the benchmark under ``benchmarks/`` relies on.

The benchmark wraps public functions by name and builds systems through
the public constructors.  Its own self-test is slow and sits outside the
default test paths, so this runs the same calls in a fresh interpreter
with ``src/`` and ``benchmarks/`` on the path.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import numpy as np
    import tracing
    from nmkraus import dynamics as dy
    from nmkraus import jaynescummings as jc
    from nmkraus import kraus as kr
    from nmkraus import reservoir as rv

    # fails if any wrapped name is gone
    tr = tracing.install(tracing.Tracer())
    tr.active = True

    # the contour check of the frequency-domain workload
    w21 = 5.0
    sd = rv.SpectralDensity.flat_window(0.05, w21 - 2.0, w21 + 2.0)
    sys_ = kr.SystemSpec((0.0, w21), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
    assert len(sys_.kernel.slots) == 1

    # the dressed ladder through the traced two-time solve, whose hook
    # reads the slot count
    basis = jc.DressedBasis(0.0, 20.0, 0.3, 1)
    ladder = jc.build_dressed_system(basis, rv.SpectralDensity.flat_window(0.03, 18.0, 22.0))
    W = kr.solve_time_domain(ladder, 0.5, 0.05)
    rho0 = jc.dressed_initial_state(basis, jc.JCInitialState(np.diag([0.0, 1.0]), 1))
    dy.solve_bitemporal(ladder, W, rho0)
    assert tr.sizes["dynamics.bitemporal_slots"] == 36
    assert tr.self_times()["dynamics.bitemporal"] > 0
    print("ok")
    """
)


def test_benchmark_calls_still_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok"
