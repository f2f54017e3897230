"""Scenario runner: configs, artifacts, audits, exit codes, comparison."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import nmkraus.cli as cli
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


@pytest.mark.parametrize("name, body", [
    ("jc_series", None),
    ("two_level_ww", None),
    ("lorentzian_ww", LORENTZ_WW_BODY),
], ids=["jc_series", "two_level_ww", "lorentzian_ww"])
def test_fresh_run_loads_no_scipy(tmp_path, name, body):
    # shipped configs that need no Schur step, and a Lorentzian
    # two-level run, whose kernel is evaluated on numpy
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
    # the refill reads the samples the Volterra solve integrated
    calls = []
    on_grid = rv.CorrelationKernel.on_grid
    monkeypatch.setattr(rv.CorrelationKernel, "on_grid",
                        lambda self, t: calls.append(len(t)) or on_grid(self, t))
    rc, _ = _run(tmp_path, "ww.yaml", WW_BODY.format(height=0.0318, dt=0.01, T=5.0), "out")
    assert rc == 0
    assert calls == [501]


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

    def test_non_numeric_initial_state(self, tmp_path, capsys):
        text = GENERIC_BODY.format(row=2, extra="").replace(
            "[[0.2, 0.1], [0.1, 0.8]]", "[[0.2, one], [0.1, 0.8]]")
        rc, _ = _run(tmp_path, "gen.yaml", text, "out")
        assert rc == 2
        assert "initial.rho_re" in capsys.readouterr().err

    def test_oversized_field_is_a_config_error(self, tmp_path, capsys):
        text = GENERIC_BODY.format(row=2, extra="").replace(
            "t_final_time: 10.0", "t_final_time: 5000.0")
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
