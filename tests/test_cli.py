"""Scenario runner: configs, artifacts, audits, exit codes, comparison."""

import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import nmkraus.cli as cli
import nmkraus.dynamics as dy
import nmkraus.jaynescummings as jc
import nmkraus.kraus as kr
import nmkraus.reservoir as rv

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

WW_BODY = """\
kind: TwoLevelWW
spectral:
  family: flat_window
  height_per_time: {height}
  omega_lo_per_time: 4.5
  omega_hi_per_time: 5.5
system:
  omega_2_per_time: 5.0
numerics:
  dt_time: {dt}
  t_final_time: {T}
"""

# A wide Lorentzian line: width * tau passes 709 at tau = 35.45, where
# exp(width * tau) alone overflows, so the kernel must come from
# e^z E1(z) as one quantity.  The trapezoid trace drift of a width-20
# line at dt 0.01 is 6.2e-6, so the audit takes 1e-5.
LORENTZ_WW_BODY = """\
kind: TwoLevelWW
spectral:
  family: lorentzian
  strength_per_time2: 0.5
  center_per_time: 5.0
  width_per_time: 20.0
system:
  omega_2_per_time: 5.0
numerics:
  dt_time: 0.01
  t_final_time: 40.0
audit:
  trace_tol: 1.0e-5
"""

JC_BODY = """\
kind: JaynesCummings
spectral:
  family: flat_window
  height_per_time: 0.0318
  omega_lo_per_time: 18.0
  omega_hi_per_time: 22.0
system:
  atom_omega_2_per_time: 20.0
  coupling_per_time: 0.3
  photon_cutoff: 1
initial:
  photon_number: {p}
numerics:
  solver: {solver}
  t_final_time: 12.0
  n_times: 65
{extra}"""

PLATEAU_BODY = """\
kind: PlateauFigure
photon_numbers: [{plist}]
grid:
  tau_max: {tau_max}
  dtau: {dtau}
"""

SCAN_BODY = """\
kind: EntropyScan
spectral:
  family: flat_window
  height_per_time: 0.0318
  omega_lo_per_time: 18.0
  omega_hi_per_time: 22.0
system:
  atom_omega_2_per_time: 20.0
  coupling_per_time: 0.3
  photon_cutoff: 1
exponents:
  alpha: {alpha}
  beta: 1.0
couplings: [0.4, 0.2, 0.1]
scaling:
  p_tilde: 2.0
  t_tilde: 40.0
"""

MARKOV_BODY = """\
kind: MarkovLimit
spectral:
  family: flat_window
  height_per_time: 0.6366197723675814
  omega_lo_per_time: 4.2
  omega_hi_per_time: 5.8
system:
  omega_2_per_time: 5.0
initial:
  rho11: {rho11}
  rho22: {rho22}
coupling:
  scale: 0.1
numerics:
  dt_time: 0.01
  t_final_time: 50.0
"""

GENERIC_BODY = """\
kind: GenericSystem
spectral:
  family: flat_window
  height_per_time: 0.05
  omega_lo_per_time: 2.0
  omega_hi_per_time: 4.0
system:
  energies_per_time: [0.0, 3.0]
  slots:
    - {{row: {row}, mid_out: 1, mid_in: 1, col: 2, weight_re: 1.0}}
initial:
  rho_re: [[0.2, 0.1], [0.1, 0.8]]
numerics:
  dt_time: 0.05
  t_final_time: 10.0
{extra}"""


def _run(tmp_path, name, text, out):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    outdir = tmp_path / out
    rc = cli.main(["run", str(path), "--out", str(outdir)])
    return rc, outdir


def _assert_refused_at_once(tmp_path, capsys, text):
    """A two-time run on 10^5 steps exits 2 on the memory guard.

    The guard runs before the O(n^2) Volterra solve, so the run stops
    at once, before anything large is allocated.
    """
    start = time.perf_counter()
    rc, _ = _run(tmp_path, "big.yaml", text, "out")
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "GiB" in capsys.readouterr().err


def _table(outdir, fname="trajectory.csv"):
    table = np.genfromtxt(outdir / fname, delimiter=",", names=True)
    return {name: np.atleast_1d(table[name]) for name in table.dtype.names}


def _summary(outdir):
    with open(outdir / "summary.json") as fh:
        return json.load(fh)


def _compare(capsys, a, b):
    capsys.readouterr()
    rc = cli.main(["compare", str(a / "summary.json"), str(b / "summary.json")])
    cap = capsys.readouterr()
    return rc, (json.loads(cap.out) if rc == 0 else None), cap.err


def test_module_entry_runs_once():
    # runpy warns when the package has already imported nmkraus.cli
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nmkraus.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr


FRESH_RUNS = [(p.stem, None) for p in sorted(CONFIG_DIR.glob("*.yaml"))]
FRESH_RUNS.append(("lorentzian_ww", LORENTZ_WW_BODY))


@pytest.mark.parametrize("name, body", FRESH_RUNS, ids=[name for name, _ in FRESH_RUNS])
def test_fresh_run_loads_no_scipy(tmp_path, name, body):
    # every shipped config, and a Lorentzian two-level run, whose kernel
    # is evaluated on numpy
    config = CONFIG_DIR / f"{name}.yaml"
    if body is not None:
        config = tmp_path / f"{name}.yaml"
        config.write_text(body)
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["run", str(config), "--out", str(tmp_path / "out")]
    code = ("import sys\nfrom nmkraus import cli\n"
            f"rc = cli.main({args!r})\n"
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 []"


def test_lorentzian_kernel_past_exp_overflow(tmp_path):
    # a NaN kernel would stop the run at step 3549 with a singular step
    # operator (exit 3)
    rc, outdir = _run(tmp_path, "lor.yaml", LORENTZ_WW_BODY, "out")
    assert rc == 0
    data = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape == (4001, 5) and np.all(np.isfinite(data))


def test_two_level_run_samples_the_kernel_once(tmp_path, monkeypatch):
    # the refill, and the two-time solve of a GenericSystem or a
    # bitemporal JaynesCummings run, read the samples the Volterra solve
    # integrated
    calls = []
    on_grid = rv.CorrelationKernel.on_grid
    monkeypatch.setattr(rv.CorrelationKernel, "on_grid",
                        lambda self, t: calls.append(len(t)) or on_grid(self, t))
    runs = [
        (WW_BODY.format(height=0.0318, dt=0.01, T=5.0), 501),
        (GENERIC_BODY.format(row=2, extra="audit:\n  trace_tol: 1.0e-2\n"), 201),
        (JC_BODY.format(p=1, solver="bitemporal", extra="audit:\n  trace_tol: 5.0e-3\n"), 65),
    ]
    for i, (text, points) in enumerate(runs):
        calls.clear()
        rc, _ = _run(tmp_path, f"run{i}.yaml", text, f"out{i}")
        assert rc == 0
        assert calls == [points]


def test_csv_bytes_match_savetxt(tmp_path, capsys):
    # more rows than one write chunk, and every kind of float
    rng = np.random.default_rng(7)
    n = 2 * cli._CSV_ROWS + 3
    table = {name: rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
             for name in ("t_time", "a", "b", "c")}
    special = [-0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1.0, -1.0]
    table["a"][: len(special)] = special
    table["b"][-len(special):] = special[::-1]
    assert cli._finish(tmp_path, "Kind", "trajectory", table, []) == 0
    ref = tmp_path / "ref.csv"
    np.savetxt(ref, np.column_stack(list(table.values())), fmt=cli._FMT,
               delimiter=",", header=",".join(table), comments="")
    assert (tmp_path / "trajectory.csv").read_bytes() == ref.read_bytes()


def _finish_matches_savetxt(outdir, data):
    """``_finish`` on the columns of ``data`` writes np.savetxt's bytes,
    without setting a floating-point flag on the way."""
    table = {f"c{i}": data[:, i] for i in range(data.shape[1])}
    with np.errstate(all="raise"):
        assert cli._finish(outdir, "Kind", "trajectory", table, []) == 0
    ref = outdir / "ref.csv"
    np.savetxt(ref, data, fmt=cli._FMT, delimiter=",", header=",".join(table),
               comments="")
    return (outdir / "trajectory.csv").read_bytes() == ref.read_bytes()


def _csv_edge_values(name, rng):
    if name == "bit_patterns":
        bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
        return np.concatenate([bits, [5e-324, -2.2e-308, 1e-310, np.nan, np.inf, -np.inf]])
    if name == "exact_ties":
        # odd k/8: from 1e14 to 1e15 the scaled value is 25k/2, exactly
        # halfway, and % rounds it to even
        return (rng.integers(2**49, 2**53, 20_000) | 1) / 8.0
    if name == "powers_of_ten":
        p = np.array([float(f"1e{i}") for i in range(-300, 300)])
        return np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])
    if name == "carries":
        return np.array([0.99999999999999995, 9.9999999999999995e10, 1e23, 9.999999999999999e22,
                         np.nextafter(1e23, np.inf), 1.0, np.nextafter(1.0, 0)])
    if name == "zeros":
        return np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0])
    ends = np.array([1e-280, 1e290])
    ends = np.concatenate([np.nextafter(ends, 0), ends, np.nextafter(ends, np.inf)])
    return np.concatenate([ends, -ends])


@pytest.mark.parametrize("name", ["bit_patterns", "exact_ties", "powers_of_ten", "carries",
                                  "zeros", "range_ends"])
def test_csv_edge_values_match_savetxt(tmp_path, name):
    v = _csv_edge_values(name, np.random.default_rng(11))
    v = np.concatenate([v, -v])
    v = np.resize(v, (-(-v.size // 3), 3))
    assert _finish_matches_savetxt(tmp_path, v)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=24),
       shape=st.sampled_from(["one_row", "one_column", "chunks"]))
def test_csv_bytes_of_any_float(tmp_path_factory, values, shape):
    v = np.array(values)
    if shape == "one_row":
        v = v[None, :]
    elif shape == "one_column":
        v = v[:, None]
    else:
        v = np.resize(v, (cli._CSV_ROWS + 3, 2))
    assert _finish_matches_savetxt(tmp_path_factory.mktemp("csv"), v)


def test_writer_loads_no_fractions_or_decimal(tmp_path):
    # the writer's powers of ten come from int arithmetic, so neither the
    # import nor a run pays for fractions and decimal
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["run", str(CONFIG_DIR / "two_level_ww.yaml"), "--out", str(tmp_path / "out")]
    loaded = "sorted(m for m in ('fractions', 'decimal') if m in sys.modules)"
    code = ("import sys\nfrom nmkraus import cli\n"
            f"print({loaded})\n"
            f"rc = cli.main({args!r})\n"
            f"print(rc, {loaded})\n")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


@pytest.mark.parametrize("text, path", [
    (WW_BODY.format(height=0.0318, dt=0.01, T=5.0) + "initial:\n  rho11: .nan\n",
     "initial.rho11"),
    (WW_BODY.format(height=".inf", dt=0.01, T=5.0), "spectral.height_per_time"),
    (GENERIC_BODY.format(row=2, extra="").replace("[0.0, 3.0]", "[0.0, .nan]"),
     "system.energies_per_time[1]"),
], ids=["nan_rho11", "inf_height", "nan_energy"])
def test_non_finite_number_names_the_field(tmp_path, capsys, text, path):
    rc, outdir = _run(tmp_path, "bad.yaml", text, "out")
    assert rc == 2
    assert f"{path} must be finite" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("text, message", [
    (GENERIC_BODY.format(row=2, extra="").replace("[0.0, 3.0]", "[false, 3.0]"),
     "system.energies_per_time[0] must be a number"),
    (GENERIC_BODY.format(row=2, extra="").replace("[[0.2, 0.1]", '[[0.2, "0.1"]'),
     "initial.rho_re[0][1] must be a number"),
    (GENERIC_BODY.format(row=2, extra="").replace(
        "initial:\n", "initial:\n  rho_im: [[0.0, 0.0], [true, 0.0]]\n"),
     "initial.rho_im[1][0] must be a number"),
    (SCAN_BODY.format(alpha=2.5).replace("[0.4, 0.2, 0.1]", "[0.4, true, 0.1]"),
     "couplings[1] must be a number"),
    (SCAN_BODY.format(alpha=2.5).replace("[0.4, 0.2, 0.1]", "[0.4, abc, 0.1]"),
     "couplings[1] must be a number"),
    (WW_BODY.format(height="1" + "0" * 400, dt=0.01, T=5.0),
     "spectral.height_per_time is beyond float range"),
], ids=["bool_energy", "string_rho_re", "bool_rho_im", "bool_coupling", "string_coupling",
        "huge_height"])
def test_rejected_entry_is_named(tmp_path, capsys, text, message):
    rc, outdir = _run(tmp_path, "bad.yaml", text, "out")
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


_WW = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)


@pytest.mark.parametrize("text, path", [
    (_WW.replace("  omega_hi_per_time: 5.5\n",
                 "  omega_hi_per_time: 5.5\n  temperature_per_time: 0.5\n"),
     "spectral.temperature_per_time"),
    (_WW + "initial:\n  rho21_imag: 0.4\n", "initial.rho21_imag"),
    (_WW + "audit:\n  trace_tl: 1.0e-30\n", "audit.trace_tl"),
    (GENERIC_BODY.format(row=2, extra="").replace("weight_re: 1.0}",
                                                  "weight_re: 1.0, weight_imag: 0.5}"),
     "system.slots[0].weight_imag"),
], ids=["temperature", "misspelt_coherence", "misspelt_audit", "slot_field"])
def test_unread_key_is_refused(tmp_path, capsys, text, path):
    # an ignored key would run at its default instead: zero temperature,
    # zero coherence, the default trace gate or a real slot weight
    rc, outdir = _run(tmp_path, "typo.yaml", text, "out")
    assert rc == 2
    assert f"config error: {path}: not read by" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("text, module, solver", [
    (_WW, kr, "solve_time_domain"),
    (MARKOV_BODY.format(rho11=0.0, rho22=1.0), kr, "solve_time_domain"),
    (GENERIC_BODY.format(row=2, extra=""), kr, "solve_time_domain"),
    (JC_BODY.format(p=1, solver="series", extra="  r_max: 2\n"), jc, "atomic_population_series"),
    (PLATEAU_BODY.format(plist="20", tau_max=90.0, dtau=0.1), jc, "plateau_oracle"),
    (SCAN_BODY.format(alpha=2.5), jc, "entropy_limit_scan"),
], ids=["TwoLevelWW", "MarkovLimit", "GenericSystem", "JaynesCummings", "PlateauFigure",
        "EntropyScan"])
def test_unread_key_is_refused_before_the_solve(tmp_path, capsys, monkeypatch,
                                                text, module, solver):
    # every key is read before the first solver call, so a misspelt one
    # costs no solve
    def refuse(*args, **kwargs):
        raise AssertionError(f"{solver} called")

    monkeypatch.setattr(module, solver, refuse)
    rc, outdir = _run(tmp_path, "typo.yaml", text + "audit2:\n  trace_tol: 1.0e-6\n", "out")
    assert rc == 2
    assert "config error: audit2.trace_tol: not read by" in capsys.readouterr().err
    assert not outdir.exists()


_RUN_BODIES = {
    "TwoLevelWW": _WW,
    "MarkovLimit": MARKOV_BODY.format(rho11=0.0, rho22=1.0),
    "GenericSystem": GENERIC_BODY.format(row=2, extra=""),
    "JaynesCummings-series": JC_BODY.format(p=1, solver="series", extra="  r_max: 2\n"),
    "JaynesCummings-bitemporal": JC_BODY.format(p=1, solver="bitemporal", extra=""),
    "PlateauFigure": PLATEAU_BODY.format(plist="20", tau_max=90.0, dtau=0.1),
    "EntropyScan": SCAN_BODY.format(alpha=2.5),
}
# each key that no config sets, with the runs that used to read it: the
# audit limits are fixed at their checks, and the ground energy is 0
# (only energy differences reach a solver)
_RETIRED_KEYS = [
    ("audit.eig_tol",
     ["TwoLevelWW", "MarkovLimit", "GenericSystem", "JaynesCummings-bitemporal"]),
    ("audit.solver_tol", ["TwoLevelWW", "GenericSystem", "JaynesCummings-bitemporal"]),
    ("audit.rate_rel_tol", ["MarkovLimit"]),
    ("audit.channel_dev_tol", ["MarkovLimit"]),
    ("audit.identity_tol", ["MarkovLimit"]),
    ("audit.truncation_tol", ["JaynesCummings-series"]),
    ("audit.plateau_tol", ["PlateauFigure"]),
    ("audit.tail_tol", ["PlateauFigure"]),
    ("channel.omega_bar_per_time", ["MarkovLimit"]),
    ("system.omega_1_per_time", ["TwoLevelWW", "MarkovLimit"]),
    ("system.atom_omega_1_per_time",
     ["JaynesCummings-series", "JaynesCummings-bitemporal", "EntropyScan"]),
]
RETIRED_RUNS = [pytest.param(key, _RUN_BODIES[run], id=f"{key}-{run}")
                for key, runs in _RETIRED_KEYS for run in runs]


@pytest.mark.parametrize("key, body", RETIRED_RUNS)
def test_retired_key_is_refused(tmp_path, capsys, key, body):
    cfg = yaml.safe_load(body)
    section, name = key.split(".")
    cfg.setdefault(section, {})[name] = 1.0
    rc, outdir = _run(tmp_path, "retired.yaml", yaml.safe_dump(cfg), "out")
    assert rc == 2
    assert f"config error: {key}: not read by {cfg['kind']}" in capsys.readouterr().err
    assert not outdir.exists()


# grids that kraus.step_count refuses, each a config error naming its
# keys: 10^7 steps, an infinite count, 10^12 steps (a 7.28 TiB tau
# array), and 2,999,999 steps of a ladder run on either solver (65 is
# the ladder body's n_times)
@pytest.mark.parametrize("text, keys", [
    (WW_BODY.format(height=0.0318, dt=0.001, T=1.0e4),
     "numerics.t_final_time / numerics.dt_time"),
    (WW_BODY.format(height=0.0318, dt=1.0e-300, T=1.0e10),
     "numerics.t_final_time / numerics.dt_time"),
    (PLATEAU_BODY.format(plist="20", tau_max=1.0e10, dtau=1.0e-300), "grid.tau_max / grid.dtau"),
    (PLATEAU_BODY.format(plist="20", tau_max=1.0e9, dtau=0.001), "grid.tau_max / grid.dtau"),
    (JC_BODY.format(p=1, solver="bitemporal", extra="").replace("65", "3000000"),
     "numerics.t_final_time / numerics.n_times"),
    (JC_BODY.format(p=1, solver="series", extra="  r_max: 2\n").replace("65", "3000000"),
     "numerics.t_final_time / numerics.n_times"),
], ids=["ww_cap", "ww_infinite", "plateau_infinite", "plateau_cap", "jc_bitemporal_cap",
        "jc_series_cap"])
def test_grid_outside_the_step_rule_is_a_config_error(tmp_path, capsys, text, keys):
    rc, outdir = _run(tmp_path, "grid.yaml", text, "out")
    assert rc == 2
    assert f"config error: {keys}: T/dt = " in capsys.readouterr().err
    assert not outdir.exists()


_GENERIC = GENERIC_BODY.format(row=2, extra="")
_JC = JC_BODY.format(p=1, solver="series", extra="  r_max: 2\n")
_PLATEAU = PLATEAU_BODY.format(plist="20", tau_max=90.0, dtau=0.1)
_CSV = "t_time,x\n0.0,1.0\n1.0,2.0\n"


def _finished_run(path, artifacts):
    """A run directory whose summary lists ``artifacts``; a None body writes no file."""
    path.mkdir()
    for name, body in artifacts.items():
        if body is not None:
            (path / f"{name}.csv").write_text(body)
    fnames = {name: f"{name}.csv" for name in artifacts}
    (path / "summary.json").write_text(json.dumps({"kind": "TwoLevelWW", "artifacts": fnames}))
    return str(path)


# a config text to run, or the artifacts of two finished runs to compare
@pytest.mark.parametrize("case, message", [
    (_WW + "initial:\n  rho11: -0.1\n", "initial.rho11 must be nonnegative"),
    (_JC.replace("photon_cutoff: 1", "photon_cutoff: 1.5"),
     "system.photon_cutoff must be an integer"),
    (_JC.replace("n_times: 65", "n_times: 1"), "numerics.n_times must be >= 2"),
    (_WW.replace("family: flat_window", "family: 3"), "spectral.family must be a string"),
    (_GENERIC.replace("  slots:\n    - {row: 2, mid_out: 1, mid_in: 1, col: 2, weight_re: 1.0}",
                      "  slots: []"), "system.slots must be a nonempty list"),
    (_WW.replace("omega_hi_per_time: 5.5", "omega_hi_per_time: 4.5"),
     "spectral.omega_hi_per_time must exceed spectral.omega_lo_per_time"),
    (_WW.replace("family: flat_window", "family: gaussian"), "spectral.family must be one of"),
    (_WW + "initial:\n  rho11: 0.5\n  rho22: 0.6\n", "initial: initial state must have unit"),
    (_GENERIC.replace("[[0.2, 0.1], [0.1, 0.8]]", "[[1.0]]"), "initial.rho_re must be a 2x2"),
    (_GENERIC.replace("[[0.2, 0.1], [0.1, 0.8]]", "[[0.2, 0.5], [0.5, 0.8]]"),
     "initial: initial state is not positive"),
    (_JC.replace("coupling_per_time: 0.3", "coupling_per_time: 30.0"),
     "system: need omega_a2 - omega_a1 > coupling"),
    (WW_BODY.format(height=0.0318, dt=0.1, T=0.1),
     "numerics.t_final_time must exceed numerics.dt_time"),
    (_GENERIC.replace("    - {row: 2, mid_out: 1, mid_in: 1, col: 2, weight_re: 1.0}", "    - 3"),
     "system.slots[0] must be a mapping"),
    (_JC.replace("solver: series", "solver: euler"), "numerics.solver must be series or"),
    (_PLATEAU.replace("[20]", "[0]"), "photon_numbers must be integers >= 1"),
    (_PLATEAU + "initial:\n  rho11: 0.5\n  rho22: 0.6\n", "initial populations must sum"),
    (({"trajectory": None}, {"trajectory": _CSV}), "artifact file missing"),
    (({"trajectory": "\n"}, {"trajectory": _CSV}), "no header row"),
    (({"trajectory": _CSV}, {"trajectory": _CSV.replace("1.0,2.0", "5.0,2.0")}),
     "first columns do not align"),
    (({"a": _CSV}, {"b": _CSV}), "runs share no artifact names"),
    ("- 1\n- 2\n", "config top level must be a mapping"),
], ids=["nonneg", "int_type", "int_minimum", "str", "list", "window_order", "family",
        "two_level_state", "matrix_shape", "matrix_state", "basis", "span_below_step",
        "slot_mapping", "solver", "photon_numbers", "population_sum", "missing_artifact",
        "header_row", "misaligned_rows", "shared_artifact", "top_level"])
def test_refusal_exits_2_and_names_the_field(tmp_path, capsys, case, message):
    if isinstance(case, str):
        rc, outdir = _run(tmp_path, "bad.yaml", case, "out")
        assert not outdir.exists()
    else:
        runs = [_finished_run(tmp_path / label, arts) for label, arts in zip("ab", case)]
        rc = cli.main(["compare", *runs])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_exponent_numbers_load_as_floats(tmp_path):
    # YAML 1.1 floats need a dot and a signed exponent; 1e-2 and 2e1
    # load as the numbers they spell, and the run matches the shipped one
    text = (CONFIG_DIR / "two_level_ww.yaml").read_text()
    edited = text.replace("dt_time: 0.01", "dt_time: 1e-2").replace(
        "t_final_time: 20.0", "t_final_time: 2e1")
    assert edited.count("e-2") == edited.count("2e1") == 1
    rc, out = _run(tmp_path, "exp.yaml", edited, "exp")
    assert rc == 0
    assert cli.main(["run", str(CONFIG_DIR / "two_level_ww.yaml"), "--out",
                     str(tmp_path / "ref")]) == 0
    assert (out / "trajectory.csv").read_bytes() == (
        tmp_path / "ref" / "trajectory.csv").read_bytes()


def test_loader_number_forms():
    text = ("[1e-3, 2e5, 1.0e5, -1E+2, .5e1, 1_0e1, 1.0e-3, 1.5, 7, "
            "1e, e5, 1e5x, .nan, .inf, true, abc]")
    got = yaml.load(text, Loader=cli._Loader)
    assert got[:8] == [1e-3, 2e5, 1e5, -100.0, 5.0, 100.0, 1e-3, 1.5]
    assert all(type(v) is float for v in got[:8])
    assert got[8] == 7 and type(got[8]) is int
    assert got[9:12] == ["1e", "e5", "1e5x"]
    assert np.isnan(got[12]) and got[13] == np.inf
    assert got[14:] == [True, "abc"]


def test_libyaml_loader_matches_the_python_parser():
    # the loader's resolvers on the pure-Python parser read every
    # shipped config and the number forms to equal objects (repr tells
    # 1 from 1.0 and compares nan), and refuse malformed documents with
    # the same error classes
    class PyLoader(yaml.SafeLoader):
        yaml_implicit_resolvers = cli._Loader.yaml_implicit_resolvers

    assert not yaml.__with_libyaml__ or issubclass(cli._Loader, yaml.CSafeLoader)
    docs = [p.read_text() for p in sorted(CONFIG_DIR.glob("*.yaml"))]
    assert len(docs) == 7
    docs.append("[1e-3, 2e5, 1.0e5, -1E+2, .nan, 1e400, 1e5x, 7, true]")
    for text in docs:
        assert repr(yaml.load(text, Loader=cli._Loader)) == repr(yaml.load(text, Loader=PyLoader))
    for bad in ["a: [1, 2", "a: b: c", "- a\nb: c", "x: 1\n\ty: 2", "a: *x"]:
        raised = []
        for loader in (cli._Loader, PyLoader):
            with pytest.raises(yaml.YAMLError) as err:
                yaml.load(bad, Loader=loader)
            raised.append(type(err.value))
        assert raised[0] is raised[1]


def test_markov_transition_outside_the_support_is_refused_before_the_solve(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_time_domain called")

    monkeypatch.setattr(kr, "solve_time_domain", refuse)
    text = MARKOV_BODY.format(rho11=0.0, rho22=1.0).replace(
        "omega_2_per_time: 5.0", "omega_2_per_time: 9.0")
    rc, outdir = _run(tmp_path, "off.yaml", text, "out")
    assert rc == 2
    err = capsys.readouterr().err
    assert "spectral weight vanishes at the transition frequency 9.0" in err
    assert not outdir.exists()


TABLE_WW_BODY = """\
kind: TwoLevelWW
spectral:
  family: tabulated
  table_path: {table}
system:
  omega_2_per_time: 5.0
numerics:
  dt_time: 0.01
  t_final_time: 5.0
"""


def _table_run(tmp_path, rows, header="omega,g2"):
    (tmp_path / "g2.csv").write_text(header + "\n" + "".join(r + "\n" for r in rows))
    return _run(tmp_path, "table.yaml", TABLE_WW_BODY.format(table="g2.csv"), "out")


class TestTableRuns:
    def test_table_run_passes_its_audits(self, tmp_path):
        omega = np.linspace(4.5, 5.5, 101)
        rc, outdir = _table_run(tmp_path, [f"{w:.17g},0.0318" for w in omega])
        assert rc == 0
        s = _summary(outdir)
        assert s["passed"] is True and all(a["passed"] for a in s["audits"].values())
        t = _table(outdir)
        assert t["rho22"][0] == 1.0 and t["rho22"][-1] < t["rho22"][0]

    @pytest.mark.parametrize("rows, header, message", [
        (["4.5,0.0318", "5.0,nan", "5.5,0.0318"], "omega,g2",
         "spectral: omega and g2 must be finite"),
        (["4.5,0.0318,1", "5.5,0.0318,1"], "omega,g2,x", "must hold two columns"),
    ], ids=["nan_entry", "three_columns"])
    def test_bad_table_is_a_config_error(self, tmp_path, capsys, rows, header, message):
        rc, outdir = _table_run(tmp_path, rows, header)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    def test_missing_table_is_a_config_error(self, tmp_path, capsys):
        text = TABLE_WW_BODY.format(table="absent.csv")
        rc, outdir = _run(tmp_path, "table.yaml", text, "out")
        assert rc == 2
        assert "spectral.table_path: no file at" in capsys.readouterr().err
        assert not outdir.exists()


class TestTwoLevelRuns:
    def test_trajectory_artifacts_and_audits(self, tmp_path):
        text = WW_BODY.format(height=0.0318, dt=0.01, T=20.0)
        rc, outdir = _run(tmp_path, "ww.yaml", text, "out")
        assert rc == 0
        s = _summary(outdir)
        assert s["kind"] == "TwoLevelWW"
        assert s["passed"] is True
        assert all(a["passed"] for a in s["audits"].values())
        t = _table(outdir)
        assert list(t) == ["t_time", "rho11", "rho22", "rho21_re", "rho21_im"]
        assert t["rho22"][0] == 1.0
        assert t["rho22"][-1] < 0.1
        assert np.max(np.abs(t["rho11"] + t["rho22"] - 1.0)) < 2e-6

    def test_byte_identical_reruns(self, tmp_path):
        text = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)
        _, out1 = _run(tmp_path, "a.yaml", text, "out1")
        _, out2 = _run(tmp_path, "b.yaml", text, "out2")
        for fname in ("trajectory.csv", "summary.json"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

    def test_silent_reservoir_constant_population(self, tmp_path):
        text = WW_BODY.format(height=0.0, dt=0.01, T=5.0)
        rc, outdir = _run(tmp_path, "silent.yaml", text, "out")
        assert rc == 0
        t = _table(outdir)
        assert np.max(np.abs(t["rho22"] - 1.0)) == 0.0
        assert np.max(np.abs(t["rho11"])) == 0.0

    def test_negative_dt_names_the_field(self, tmp_path, capsys):
        text = WW_BODY.format(height=0.0318, dt=-0.01, T=5.0)
        rc, outdir = _run(tmp_path, "bad.yaml", text, "out")
        assert rc == 2
        assert "numerics.dt_time" in capsys.readouterr().err
        assert not outdir.exists()

    def test_off_grid_final_time_names_both_fields(self, tmp_path, capsys):
        # T = 1.0 on dt = 0.3 used to end the trajectory at t = 0.9
        text = WW_BODY.format(height=0.0318, dt=0.3, T=1.0)
        rc, outdir = _run(tmp_path, "bad.yaml", text, "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerics.t_final_time" in err and "numerics.dt_time" in err
        assert not outdir.exists()

    def test_missing_field_names_the_path(self, tmp_path, capsys):
        text = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)
        text = text.replace("  omega_2_per_time: 5.0\n", "")
        rc, _ = _run(tmp_path, "gap.yaml", text, "out")
        assert rc == 2
        assert "system.omega_2_per_time is required" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, capsys):
        rc, _ = _run(tmp_path, "odd.yaml", "kind: Unheard\n", "out")
        assert rc == 2
        assert "kind" in capsys.readouterr().err

    def test_unparseable_config(self, tmp_path, capsys):
        rc, _ = _run(tmp_path, "broken.yaml", "kind: [unclosed\n", "out")
        assert rc == 2
        assert "parse" in capsys.readouterr().err

    def test_line_resolution_is_a_solver_error(self, tmp_path, capsys, monkeypatch):
        def runner(cfg, base):
            sd = rv.SpectralDensity.lorentzian(0.5, 200.0, 1.0)
            sys_ = kr.SystemSpec((0.0, 200.0), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
            kr.LaplaceKraus(sys_, 8).evaluate(200.0 + 0.5j)

        monkeypatch.setitem(cli._SCENARIOS, "TwoLevelWW", runner)
        text = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)
        rc, outdir = _run(tmp_path, "fine.yaml", text, "out")
        assert rc == 3
        assert "LineResolutionError" in capsys.readouterr().err
        assert not outdir.exists()

    def test_internal_error_has_its_own_exit_code(self, tmp_path, capsys, monkeypatch):
        def runner(cfg, base):
            return {}["missing"]

        monkeypatch.setitem(cli._SCENARIOS, "TwoLevelWW", runner)
        text = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)
        rc, _ = _run(tmp_path, "bug.yaml", text, "out")
        assert rc == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "KeyError: 'missing'" in err

    def test_output_directory_key_yields_to_out(self, tmp_path):
        path = tmp_path / "ww.yaml"
        path.write_text(_WW + f"output:\n  directory: {tmp_path / 'from_config'}\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "from_flag")]) == 0
        assert (tmp_path / "from_flag" / "summary.json").is_file()
        assert not (tmp_path / "from_config").exists()
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "from_config" / "summary.json").is_file()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["run", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert rc == 2
        assert "missing" in capsys.readouterr().err


class TestMarkovRuns:
    def test_weak_coupling_matches_channel(self, tmp_path):
        text = MARKOV_BODY.format(rho11=0.0, rho22=1.0)
        rc, outdir = _run(tmp_path, "markov.yaml", text, "out")
        assert rc == 0
        s = _summary(outdir)
        assert s["audits"]["rate_rel_error"]["value"] < 0.05
        assert s["audits"]["channel_max_dev"]["value"] < 0.05
        assert s["audits"]["channel_identity"]["value"] < 1e-12
        t = _table(outdir)
        assert "channel_rho22" in t
        assert np.max(np.abs(t["rho22"] - t["channel_rho22"])) < 0.05

    def test_ground_start_is_a_solver_error(self, tmp_path, capsys):
        text = MARKOV_BODY.format(rho11=1.0, rho22=0.0)
        rc, _ = _run(tmp_path, "flat.yaml", text, "out")
        assert rc == 3
        assert "solver error in MarkovLimit" in capsys.readouterr().err


class TestGenericRuns:
    def test_full_pipeline_with_tolerance_override(self, tmp_path):
        text = GENERIC_BODY.format(row=2, extra="audit:\n  trace_tol: 1.0e-4\n")
        rc, outdir = _run(tmp_path, "gen.yaml", text, "out")
        assert rc == 0
        t = _table(outdir)
        assert list(t) == ["t_time", "pop_1", "pop_2", "trace_re", "min_eigenvalue"]
        assert t["pop_2"][-1] < t["pop_2"][0]
        assert np.min(t["min_eigenvalue"]) > -1e-10

    def test_default_tolerance_fails_the_audit(self, tmp_path):
        rc, outdir = _run(
            tmp_path, "gen.yaml", GENERIC_BODY.format(row=2, extra=""), "out"
        )
        assert rc == 1
        s = _summary(outdir)
        assert s["passed"] is False
        assert s["audits"]["trace_max_error"]["passed"] is False
        assert s["audits"]["min_eigenvalue"]["passed"] is True

    def test_imaginary_slot_weight_reaches_the_kernel(self, tmp_path):
        # slot (2, 1, 1, 2) is its own Hermitian partner, so its weight
        # must be real: weight_im = 0.5 breaks Hermiticity, and the
        # fixed 1e-10 hermiticity audit fails the run
        text = GENERIC_BODY.format(row=2, extra="audit:\n  trace_tol: 1.0e-2\n").replace(
            "weight_re: 1.0}", "weight_re: 1.0, weight_im: 0.5}")
        rc, outdir = _run(tmp_path, "gen.yaml", text, "out")
        assert rc == 1
        herm = _summary(outdir)["audits"]["hermiticity_residual"]
        assert herm["limit"] == 1e-10 and herm["passed"] is False

    def test_non_numeric_initial_state(self, tmp_path, capsys):
        text = GENERIC_BODY.format(row=2, extra="").replace(
            "[[0.2, 0.1], [0.1, 0.8]]", "[[0.2, one], [0.1, 0.8]]")
        rc, _ = _run(tmp_path, "gen.yaml", text, "out")
        assert rc == 2
        assert "initial.rho_re" in capsys.readouterr().err

    def test_oversized_field_is_a_config_error(self, tmp_path, capsys):
        # a thermal absorption-emission pair, whose column loop stores
        # squares; a decay system stores none and passes the guard
        pair = "    - {row: 1, mid_out: 2, mid_in: 2, col: 1, weight_re: 1.0}\n"
        text = GENERIC_BODY.format(row=2, extra="").replace(
            "t_final_time: 10.0", "t_final_time: 5000.0").replace("initial:", pair + "initial:")
        _assert_refused_at_once(tmp_path, capsys, text)

    def test_off_grid_final_time_names_both_fields(self, tmp_path, capsys):
        # used to reach the two-time solver and exit 3
        text = GENERIC_BODY.format(row=2, extra="").replace(
            "dt_time: 0.05\n  t_final_time: 10.0", "dt_time: 0.3\n  t_final_time: 1.0")
        rc, outdir = _run(tmp_path, "gen.yaml", text, "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerics.t_final_time" in err and "numerics.dt_time" in err
        assert not outdir.exists()

    def test_bad_slot_label(self, tmp_path, capsys):
        rc, _ = _run(
            tmp_path, "gen.yaml", GENERIC_BODY.format(row=3, extra=""), "out"
        )
        assert rc == 2
        assert "system" in capsys.readouterr().err

    def test_slot_listed_twice(self, tmp_path, capsys):
        # a repeated slot must not silently keep its last weight
        slot = "    - {row: 2, mid_out: 1, mid_in: 1, col: 2, weight_re: 1.0}\n"
        text = GENERIC_BODY.format(row=2, extra="").replace(
            slot, slot + slot.replace("1.0}", "5.0}"))
        rc, _ = _run(tmp_path, "gen.yaml", text, "out")
        assert rc == 2
        assert "slot (2, 1, 1, 2) defined twice" in capsys.readouterr().err

    def test_slot_without_col_names_the_path(self, tmp_path, capsys):
        text = GENERIC_BODY.format(row=2, extra="").replace(", col: 2", "")
        rc, _ = _run(tmp_path, "gen.yaml", text, "out")
        assert rc == 2
        assert "system.slots[0].col is required" in capsys.readouterr().err

    def test_non_numeric_slot_weight_names_the_path(self, tmp_path, capsys):
        text = GENERIC_BODY.format(row=2, extra="").replace(
            "weight_re: 1.0", "weight_re: abc")
        rc, _ = _run(tmp_path, "gen.yaml", text, "out")
        assert rc == 2
        assert "system.slots[0].weight_re must be a number" in capsys.readouterr().err


class TestJaynesCummingsRuns:
    def test_oversized_field_is_a_config_error(self, tmp_path, capsys):
        text = JC_BODY.format(p=1, solver="bitemporal", extra="").replace(
            "n_times: 65", "n_times: 100001")
        _assert_refused_at_once(tmp_path, capsys, text)

    def test_series_run(self, tmp_path):
        text = JC_BODY.format(p=1, solver="series", extra="  r_max: 2\n")
        rc, outdir = _run(tmp_path, "jcs.yaml", text, "out")
        assert rc == 0
        s = _summary(outdir)
        assert s["audits"]["truncation_estimate"]["value"] == 0.0
        t = _table(outdir)
        assert np.max(np.abs(t["excited"] + t["ground"] - 1.0)) < 1e-12
        assert abs(t["excited"][0] - 1.0) < 5e-3

    def test_bitemporal_cross_check(self, tmp_path, capsys):
        text = JC_BODY.format(p=1, solver="series", extra="  r_max: 2\n")
        rc, out_s = _run(tmp_path, "jcs.yaml", text, "outs")
        assert rc == 0
        text = JC_BODY.format(
            p=1, solver="bitemporal", extra="audit:\n  trace_tol: 5.0e-3\n"
        )
        rc, out_b = _run(tmp_path, "jcb.yaml", text, "outb")
        assert rc == 0
        rc, rep, _ = _compare(capsys, out_s, out_b)
        assert rc == 0
        cols = rep["artifacts"]["trajectory"]["columns"]
        assert cols["t_time"]["max_abs"] == 0.0
        assert cols["excited"]["max_abs"] < 1e-2

    def test_oversized_ladder_line_is_a_solver_error(self, tmp_path, capsys):
        # T = 1e5 sets the line step to 5e-6, which would take the
        # series' ladder line to 23,769,707 points
        text = JC_BODY.format(p=1, solver="series", extra="  r_max: 2\n").replace(
            "t_final_time: 12.0", "t_final_time: 100000.0")
        rc, outdir = _run(tmp_path, "jcs.yaml", text, "out")
        assert rc == 3
        err = capsys.readouterr().err
        assert "LineResolutionError" in err and "23769707 points" in err
        assert not outdir.exists()

    def test_photon_number_above_cutoff(self, tmp_path, capsys):
        text = JC_BODY.format(p=2, solver="series", extra="  r_max: 2\n")
        rc, _ = _run(tmp_path, "jc.yaml", text, "out")
        assert rc == 2
        assert "photon_cutoff" in capsys.readouterr().err


class TestPlateauRuns:
    def test_figure_columns_and_audits(self, tmp_path):
        text = PLATEAU_BODY.format(plist="20, 50", tau_max=90.0, dtau=0.1)
        rc, outdir = _run(tmp_path, "fig.yaml", text, "out")
        assert rc == 0
        t = _table(outdir, "figure.csv")
        assert list(t) == ["tau", "F_p20", "F_p50"]
        assert t["F_p20"][0] == 1.0
        mid = (t["tau"] >= 6.0) & (t["tau"] <= 6.5)
        assert np.max(np.abs(t["F_p50"][mid] - 0.5)) < 1e-2

    def test_short_grid_rejected(self, tmp_path, capsys):
        text = PLATEAU_BODY.format(plist="100", tau_max=90.0, dtau=0.1)
        rc, _ = _run(tmp_path, "fig.yaml", text, "out")
        assert rc == 2
        assert "grid.tau_max" in capsys.readouterr().err

    def test_off_grid_tau_max_names_both_fields(self, tmp_path, capsys):
        # tau_max = 50.0 on dtau = 0.3 used to end the figure at tau = 50.1
        text = PLATEAU_BODY.format(plist="20", tau_max=50.0, dtau=0.3)
        rc, outdir = _run(tmp_path, "fig.yaml", text, "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "grid.tau_max" in err and "grid.dtau" in err
        assert not outdir.exists()


class TestEntropyScanRuns:
    def test_scan_rows(self, tmp_path):
        rc, outdir = _run(
            tmp_path, "scan.yaml", SCAN_BODY.format(alpha=2.5), "out"
        )
        assert rc == 0
        t = _table(outdir, "scan.csv")
        assert list(t["photon_number"]) == [5.0, 10.0, 20.0]
        assert np.all(np.diff(t["distance"]) < 0)
        assert _summary(outdir)["audits"]["min_distance_drop"]["passed"] is True

    def test_initial_coherence_sets_the_bound(self, tmp_path):
        text = SCAN_BODY.format(alpha=2.5) + (
            "initial:\n  rho11: 0.5\n  rho22: 0.5\n  rho21_re: 0.3\n  rho21_im: 0.4\n")
        rc, outdir = _run(tmp_path, "scan.yaml", text, "out")
        assert rc == 0
        t = _table(outdir, "scan.csv")
        # |rho21| e^(-tau/2) on every row
        ref = 0.5 * np.exp(-0.5 * t["tau"])
        assert np.all(t["tau"] > 0)
        assert np.max(np.abs(t["coherence_bound"] - ref) / ref) <= 1e-15

    def test_bad_exponent(self, tmp_path, capsys):
        rc, _ = _run(tmp_path, "scan.yaml", SCAN_BODY.format(alpha=2.0), "out")
        assert rc == 2
        assert "alpha must exceed 2" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, message", [
        ("0.1, 0.2]", "couplings: lams must be strictly decreasing"),
    ])
    def test_bad_coupling_names_the_field(self, tmp_path, capsys, entries, message):
        text = SCAN_BODY.format(alpha=2.5).replace("0.2, 0.1]", entries)
        rc, _ = _run(tmp_path, "scan.yaml", text, "out")
        assert rc == 2
        assert message in capsys.readouterr().err


class TestCompare:
    def _halving_runs(self, tmp_path):
        outs = []
        for dt in (0.02, 0.01, 0.005):
            text = WW_BODY.format(height=0.0318, dt=dt, T=10.0)
            text += "audit:\n  trace_tol: 1.0e-5\n"
            rc, outdir = _run(tmp_path, f"ww{dt}.yaml", text, f"out{dt}")
            assert rc == 0
            outs.append(outdir)
        return outs

    def test_self_compare_is_zero(self, tmp_path, capsys):
        text = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)
        _, outdir = _run(tmp_path, "ww.yaml", text, "out")
        rc, rep, _ = _compare(capsys, outdir, outdir)
        assert rc == 0
        cols = rep["artifacts"]["trajectory"]["columns"]
        assert all(c["max_abs"] == 0.0 for c in cols.values())

    def test_run_directory_stands_in_for_summary(self, tmp_path, capsys):
        text = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)
        _, outdir = _run(tmp_path, "ww.yaml", text, "out")
        capsys.readouterr()
        rc = cli.main(["compare", str(outdir), str(outdir)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kind"] == "TwoLevelWW"

    def test_relative_difference_is_symmetric(self, tmp_path, capsys):
        # run A has rho21 = 0 throughout, run B starts from rho21 = 0.3
        text = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)
        _, out_a = _run(tmp_path, "a.yaml", text, "outa")
        text += "initial:\n  rho11: 0.5\n  rho22: 0.5\n  rho21_re: 0.3\n"
        _, out_b = _run(tmp_path, "b.yaml", text, "outb")
        rc, ab, _ = _compare(capsys, out_a, out_b)
        assert rc == 0
        rc, ba, _ = _compare(capsys, out_b, out_a)
        assert rc == 0
        cols_ab = ab["artifacts"]["trajectory"]["columns"]
        assert cols_ab == ba["artifacts"]["trajectory"]["columns"]
        assert cols_ab["rho21_re"]["max_rel"] == 1.0
        for col in cols_ab.values():
            assert (col["max_rel"] > 0) == (col["max_abs"] > 0)

    def test_finer_run_first_reports_the_same(self, tmp_path, capsys):
        # the coarse grid nests in the fine one whichever run comes first
        coarse, _, fine = self._halving_runs(tmp_path)
        rc, fc, _ = _compare(capsys, fine, coarse)
        assert rc == 0
        rc, cf, _ = _compare(capsys, coarse, fine)
        assert rc == 0
        fc, cf = fc["artifacts"]["trajectory"], cf["artifacts"]["trajectory"]
        assert (fc["rows_a"], fc["rows_b"]) == (cf["rows_b"], cf["rows_a"]) == (2001, 501)
        assert fc["columns"] == cf["columns"]
        assert fc["columns"]["t_time"]["max_abs"] == 0.0
        assert fc["columns"]["rho22"]["max_abs"] > 0.0

    def test_step_halving_contracts_fourfold(self, tmp_path, capsys):
        coarse, mid, fine = self._halving_runs(tmp_path)
        rc, rep1, _ = _compare(capsys, coarse, mid)
        assert rc == 0
        rc, rep2, _ = _compare(capsys, mid, fine)
        assert rc == 0
        d1 = rep1["artifacts"]["trajectory"]["columns"]["rho22"]["max_abs"]
        d2 = rep2["artifacts"]["trajectory"]["columns"]["rho22"]["max_abs"]
        assert 3.5 < d1 / d2 < 4.5

    def test_kind_mismatch(self, tmp_path, capsys):
        text = WW_BODY.format(height=0.0318, dt=0.01, T=5.0)
        _, out_ww = _run(tmp_path, "ww.yaml", text, "outw")
        text = PLATEAU_BODY.format(plist="20", tau_max=90.0, dtau=0.1)
        _, out_fig = _run(tmp_path, "fig.yaml", text, "outf")
        rc, _, err = _compare(capsys, out_ww, out_fig)
        assert rc == 2
        assert "kinds differ" in err

    def test_column_mismatch(self, tmp_path, capsys):
        text = PLATEAU_BODY.format(plist="20, 50", tau_max=90.0, dtau=0.1)
        _, out_a = _run(tmp_path, "a.yaml", text, "outa")
        text = PLATEAU_BODY.format(plist="20", tau_max=90.0, dtau=0.1)
        _, out_b = _run(tmp_path, "b.yaml", text, "outb")
        rc, _, err = _compare(capsys, out_a, out_b)
        assert rc == 2
        assert "column names differ" in err

    def test_incompatible_grids(self, tmp_path, capsys):
        text = PLATEAU_BODY.format(plist="20", tau_max=90.0, dtau=0.1)
        _, out_a = _run(tmp_path, "a.yaml", text, "outa")
        text = PLATEAU_BODY.format(plist="20", tau_max=90.0, dtau=0.15)
        _, out_b = _run(tmp_path, "b.yaml", text, "outb")
        rc, _, err = _compare(capsys, out_a, out_b)
        assert rc == 2
        assert "do not nest" in err

    def test_missing_summary(self, tmp_path, capsys):
        rc = cli.main(
            ["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert rc == 2
        assert "summary file missing" in capsys.readouterr().err



def _expected_header(cfg):
    kind = cfg["kind"]
    if kind == "GenericSystem":
        dim = len(cfg["system"]["energies_per_time"])
        pops = [f"pop_{k}" for k in range(1, dim + 1)]
        return ["t_time", *pops, "trace_re", "min_eigenvalue"]
    if kind == "PlateauFigure":
        return ["tau"] + [f"F_p{p}" for p in cfg["photon_numbers"]]
    two_level = ["t_time", "rho11", "rho22", "rho21_re", "rho21_im"]
    return {
        "TwoLevelWW": two_level,
        "MarkovLimit": two_level + ["channel_rho22"],
        "JaynesCummings": ["t_time", "excited", "ground"],
        "EntropyScan": [
            "lam", "photon_number", "tau", "excited", "distance", "coherence_bound",
        ],
    }[kind]


# every audit limit but the trace's is fixed at its check; plateau_dev
# and tail_max carry a _p<photon number> suffix
FIXED_LIMITS = {
    "min_eigenvalue": -1e-10,
    "volterra_residual": 1e-8,
    "bitemporal_residual": 1e-8,
    "hermiticity_residual": 1e-10,
    "rate_rel_error": 0.05,
    "channel_max_dev": 0.05,
    "channel_identity": 1e-12,
    "truncation_estimate": 2e-2,
    "population_bound": 1.0 + 1e-9,
    "plateau_dev": 1e-2,
    "tail_max": 1e-2,
    "min_distance_drop": 1e-12,
}


@pytest.mark.parametrize(
    "config", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem
)
def test_time_domain_run_audits_its_volterra_residual(config, tmp_path, monkeypatch):
    # a run reports the Volterra residual exactly when it solves the
    # Volterra equation, and reports that solve's own residual; every
    # such run then takes the one two-time solve and reports its residual
    solves, fields = [], []
    solve = kr.solve_time_domain
    monkeypatch.setattr(kr, "solve_time_domain", lambda *a: solves.append(solve(*a)) or solves[-1])
    field = dy.solve_bitemporal
    monkeypatch.setattr(dy, "solve_bitemporal", lambda *a: fields.append(field(*a)) or fields[-1])
    outdir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(outdir)]) == 0
    audits = _summary(outdir)["audits"]
    if solves:
        (W,) = solves
        assert audits["volterra_residual"]["value"] == W.max_residual
        (xi,) = fields
        assert audits["bitemporal_residual"]["value"] == xi.max_residual
    else:
        assert "volterra_residual" not in audits
        assert not fields and "bitemporal_residual" not in audits
    kind = yaml.safe_load(config.read_text())["kind"]
    assert bool(solves) == (kind in {"TwoLevelWW", "MarkovLimit", "GenericSystem"}
                            or config.stem == "jc_bitemporal")


@pytest.mark.parametrize(
    "config", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem
)
def test_shipped_config_writes_its_artifact(config, tmp_path):
    cfg = yaml.safe_load(config.read_text())
    outdir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(outdir)]) == 0
    s = _summary(outdir)
    assert s["kind"] == cfg["kind"]
    assert s["passed"] is True
    (fname,) = s["artifacts"].values()
    assert sorted(p.name for p in outdir.iterdir()) == sorted([fname, "summary.json"])
    header = (outdir / fname).read_text().splitlines()[0]
    assert header.split(",") == _expected_header(cfg)
    trace_tol = cfg.get("audit", {}).get("trace_tol", 1e-6)
    for name, audit in s["audits"].items():
        limit = trace_tol if name == "trace_max_error" else FIXED_LIMITS[
            re.sub(r"_p\d+$", "", name)]
        assert audit["limit"] == limit, name
