"""Scenario runner: configs in, CSV artifacts and audit summaries out.

Each run consumes one YAML config describing a scenario ``kind`` from
{TwoLevelWW, MarkovLimit, GenericSystem, JaynesCummings, PlateauFigure,
EntropyScan}.  Every kind has a runner, a function
``runner(cfg, base) -> (artifact, {column: values}, checks)`` of the
parsed config and the config's directory (``base`` resolves relative
table paths).  It returns the name of its one table, the table's
columns in order, and its audits in print order; it never touches the
output directory.  A runner reads every key it needs before its first
solver call and there calls ``_all_read``, which refuses a config
holding a key it never read, so a misspelt key costs no solve.
``_cmd_run`` creates the output directory only after the runner
returns, and ``_finish`` writes ``<artifact>.csv`` and
``summary.json``, a machine-readable audit report, so a run that stops
on a config or solver error writes nothing.  Dimensionful config keys
carry their unit in the name (``dt_time``, ``center_per_time``) so
rescaled inputs cannot be mixed up silently.

Exit codes: 0 all audits within tolerance, 1 an audit exceeded its
tolerance, 2 config or comparison-input error, 3 solver failure, 4 an
unexpected internal error (its traceback goes to stderr).

``compare`` diffs the artifacts of two finished runs column by column;
grids may differ by an integer subsampling factor, anything else is a
shape mismatch.  Per column it reports ``max_abs``, the largest absolute
difference, and ``max_rel``, that difference over the column's largest
magnitude in either run (0 when both columns vanish).  Identical configs
reproduce byte-identical artifacts: every summation order is fixed and
nothing depends on wall-clock state.

BLAS and OpenMP size their thread pools when numpy loads, so set
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` before launching to cap
them.
"""

import argparse
import json
import math
import re
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import yaml

from . import dynamics as dy
from . import jaynescummings as jc
from . import kraus as kr
from . import reservoir as rv

_FMT = "%.16e"
_CSV_ROWS = 2048
_MISSING = object()
# (id(mapping), key) of every config entry _fetch looked up in this run
_READ = set()


class ConfigError(ValueError):
    """Config rejected; the message names the offending field path."""


class ShapeMismatchError(ValueError):
    """Compared runs do not share kind, columns, or a nested grid."""


# ---------------------------------------------------------------------------
# config access with field paths


def _fetch(cfg, path, default=_MISSING):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _MISSING:
                raise ConfigError(f"{path} is required")
            return default
        _READ.add((id(node), part))
        node = node[part]
    return node


def _all_read(cfg):
    """Refuse the config if ``_fetch`` has not looked up each of its keys."""
    unread = list(_unread(cfg))
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by {cfg['kind']}")


def _unread(node, prefix=""):
    """Paths of the entries under ``node`` that no ``_fetch`` looked up.

    Mappings are walked; a leaf or a list is read once its key is, and
    a mapping inside a read list (a slot) is walked on its own.
    """
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _unread(value, path + ".")
        elif (id(node), key) not in _READ:
            yield path
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _unread(item, f"{path}[{i}].")


def _num(cfg, path, default=_MISSING):
    return _entry(_fetch(cfg, path, default), path)


def _entry(v, path):
    """``v`` as a finite float, else a ConfigError that names ``path``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        v = float(v)
    except OverflowError:
        raise ConfigError(f"{path} is beyond float range") from None
    if not math.isfinite(v):
        raise ConfigError(f"{path} must be finite")
    return v


def _pos(cfg, path, default=_MISSING):
    v = _num(cfg, path, default)
    if v <= 0:
        raise ConfigError(f"{path} must be positive")
    return v


def _nonneg(cfg, path, default=_MISSING):
    v = _num(cfg, path, default)
    if v < 0:
        raise ConfigError(f"{path} must be nonnegative")
    return v


def _int(cfg, path, default=_MISSING, minimum=0):
    v = _fetch(cfg, path, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path} must be an integer")
    if v < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return v


def _str(cfg, path, default=_MISSING):
    v = _fetch(cfg, path, default)
    if not isinstance(v, str):
        raise ConfigError(f"{path} must be a string")
    return v


def _list(cfg, path):
    v = _fetch(cfg, path)
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path} must be a nonempty list")
    return v


def _floats(cfg, path):
    return [_entry(x, f"{path}[{i}]") for i, x in enumerate(_list(cfg, path))]


def _build_spectral(cfg, base, scale2=1.0):
    fam = _str(cfg, "spectral.family").lower()
    try:
        if fam == "lorentzian":
            return rv.SpectralDensity.lorentzian(
                scale2 * _pos(cfg, "spectral.strength_per_time2"),
                _num(cfg, "spectral.center_per_time"),
                _pos(cfg, "spectral.width_per_time"),
            )
        if fam == "flat_window":
            lo = _num(cfg, "spectral.omega_lo_per_time")
            hi = _num(cfg, "spectral.omega_hi_per_time")
            if hi <= lo:
                raise ConfigError(
                    "spectral.omega_hi_per_time must exceed spectral.omega_lo_per_time"
                )
            return rv.SpectralDensity.flat_window(
                scale2 * _nonneg(cfg, "spectral.height_per_time"), lo, hi
            )
        if fam == "tabulated":
            rel = _str(cfg, "spectral.table_path")
            path = base / rel
            if not path.is_file():
                raise ConfigError(f"spectral.table_path: no file at {path}")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape[1] != 2:
                raise ConfigError(
                    "spectral.table_path must hold two columns omega,g2"
                )
            return rv.SpectralDensity.tabulated(data[:, 0], scale2 * data[:, 1])
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"spectral: {e}") from e
    raise ConfigError(
        "spectral.family must be one of lorentzian, flat_window, tabulated"
    )


def _initial_two_level(cfg):
    re = _num(cfg, "initial.rho21_re", 0.0)
    im = _num(cfg, "initial.rho21_im", 0.0)
    rho = np.array(
        [
            [_nonneg(cfg, "initial.rho11", 0.0), re - 1j * im],
            [re + 1j * im, _nonneg(cfg, "initial.rho22", 1.0)],
        ]
    )
    try:
        return dy.validate_density(rho, 2)
    except dy.StateValidationError as e:
        raise ConfigError(f"initial: {e}") from e


def _matrix(cfg, path, dim, default=_MISSING):
    rows = _fetch(cfg, path, default)
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(r, list) and len(r) == dim for r in rows)):
        raise ConfigError(f"{path} must be a {dim}x{dim} matrix")
    return np.array([[_entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(r)]
                     for i, r in enumerate(rows)])


def _initial_matrix(cfg, dim):
    re = _matrix(cfg, "initial.rho_re", dim)
    im = _matrix(cfg, "initial.rho_im", dim, [[0.0] * dim] * dim)
    try:
        return dy.validate_density(re + 1j * im, dim)
    except dy.StateValidationError as e:
        raise ConfigError(f"initial: {e}") from e


def _build_basis(cfg):
    try:
        return jc.DressedBasis(
            0.0,
            _num(cfg, "system.atom_omega_2_per_time"),
            _pos(cfg, "system.coupling_per_time"),
            _int(cfg, "system.photon_cutoff", minimum=1),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"system: {e}") from e


# ---------------------------------------------------------------------------
# artifacts


def _check(name, value, limit, sense="<="):
    ok = value <= limit if sense == "<=" else value >= limit
    return {
        "name": name,
        "value": float(value),
        "limit": float(limit),
        "sense": sense,
        "passed": bool(ok),
    }


def _trace_tol(cfg):
    """The one audit limit a config sets; every other one is fixed at its check."""
    return _pos(cfg, "audit.trace_tol", 1e-6)


def _audit(traj, trace_tol, **residuals):
    """Trace and positivity checks of ``traj``, then one per solver residual."""
    rep = dy.audit_conservation(traj)
    return [
        _check("trace_max_error", rep.max_trace_error, trace_tol),
        _check("min_eigenvalue", rep.min_eigenvalue, -1e-10, ">="),
    ] + [_check(name, v, 1e-8) for name, v in residuals.items()]


def _finish(outdir, kind, artifact, table, checks):
    fname = f"{artifact}.csv"
    data = np.column_stack([np.asarray(a, dtype=float) for a in table.values()])
    # the bytes of np.savetxt(fmt=_FMT, delimiter=",", comments=""), with
    # one %-format per chunk of rows instead of one per row
    row = ",".join([_FMT] * data.shape[1]) + "\n"
    with open(outdir / fname, "w") as fh:
        fh.write(",".join(table) + "\n")
        for a in range(0, len(data), _CSV_ROWS):
            chunk = data[a : a + _CSV_ROWS]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
    summary = {
        "kind": kind,
        "artifacts": {artifact: fname},
        "audits": {
            c["name"]: {k: c[k] for k in ("value", "limit", "sense", "passed")}
            for c in checks
        },
        "passed": all(c["passed"] for c in checks),
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {artifact}: {outdir / fname}")
    for c in checks:
        state = "pass" if c["passed"] else "FAIL"
        print(
            f"audit {c['name']}: value = {c['value']:.6e}, "
            f"limit {c['sense']} {c['limit']:.3e}: {state}"
        )
    print(f"wrote summary: {outdir / 'summary.json'}")
    return 0 if summary["passed"] else 1


# ---------------------------------------------------------------------------
# scenarios: each runner maps (cfg, base) to (artifact, {column: values}, checks)


def _whole_steps(span, step, span_path, step_path):
    """Refuse a grid whose final point is not a whole number of steps."""
    if abs(round(span / step) * step - span) > 1e-9 * max(span, 1.0):
        raise ConfigError(f"{span_path} must be an integer multiple of {step_path}")


def _time_grid(cfg):
    dt = _pos(cfg, "numerics.dt_time")
    T = _pos(cfg, "numerics.t_final_time")
    if T <= dt:
        raise ConfigError("numerics.t_final_time must exceed numerics.dt_time")
    _whole_steps(T, dt, "numerics.t_final_time", "numerics.dt_time")
    return T, dt


def _two_time(cfg, sys_, rho0, T, dt):
    """Two-time trajectory and its conservation and residual audits.

    The field-size guard and then the unread-key check run first, so the
    caller reads all its keys before it calls this.
    """
    trace_tol = _trace_tol(cfg)
    dy.check_field_size(sys_, T, dt)
    _all_read(cfg)
    W = kr.solve_time_domain(sys_, T, dt)
    xi = dy.solve_bitemporal(sys_, W, rho0)
    traj = dy.extract_density(xi)
    return traj, _audit(traj, trace_tol, volterra_residual=W.max_residual,
                        bitemporal_residual=xi.max_residual)


def _two_level(cfg, sd, w21):
    """Volterra solution and refill trajectory of a two-level run.

    The ground level sits at 0 and the excited one at ``w21``.  The
    unread-key check runs before the solve, so the caller reads all its
    keys before it calls this.
    """
    rho0 = _initial_two_level(cfg)
    T, dt = _time_grid(cfg)
    sys_ = kr.SystemSpec((0.0, w21), rv.kernel_table(sd, {(2, 1, 1, 2): 1.0}))
    _all_read(cfg)
    W = kr.solve_time_domain(sys_, T, dt)
    return W, dy.two_level_trajectory(sys_, W, rho0)


def _two_level_columns(traj):
    m = traj.matrices
    return {
        "t_time": traj.times,
        "rho11": m[:, 0, 0].real,
        "rho22": m[:, 1, 1].real,
        "rho21_re": m[:, 1, 0].real,
        "rho21_im": m[:, 1, 0].imag,
    }


def _run_two_level_ww(cfg, base):
    trace_tol = _trace_tol(cfg)
    sd = _build_spectral(cfg, base)
    W, traj = _two_level(cfg, sd, _pos(cfg, "system.omega_2_per_time"))
    return "trajectory", _two_level_columns(traj), _audit(
        traj, trace_tol, volterra_residual=W.max_residual)


def _run_markov_limit(cfg, base):
    lam = _pos(cfg, "coupling.scale")
    sd = _build_spectral(cfg, base, scale2=lam * lam)
    trace_tol = _trace_tol(cfg)
    w21 = _pos(cfg, "system.omega_2_per_time")
    gamma = math.pi * float(sd.weight(w21))
    if gamma <= 0:
        raise ConfigError(
            f"spectral weight vanishes at the transition frequency {w21}"
        )
    W, traj = _two_level(cfg, sd, w21)
    # the channel starts from the run's own initial state
    chan = dy.markovian_channel(gamma, 0.0, traj.matrices[0], traj.times)
    chan_dev = float(np.max(np.abs(traj.matrices - chan)))
    M, N = dy.channel_pair(gamma, 0.0, traj.times)
    Mh = np.conj(np.swapaxes(M, -1, -2))
    Nh = np.conj(np.swapaxes(N, -1, -2))
    ident = float(np.max(np.abs(Mh @ M + Nh @ N - np.eye(2))))

    T = traj.times[-1]
    mask = (traj.times >= 0.25 * T) & (traj.times <= 0.75 * T)
    p2 = traj.matrices[:, 1, 1].real
    if not np.all(p2[mask] > 0):
        raise ValueError("excited population not positive over the fit window")
    slope = np.polyfit(traj.times[mask], np.log(p2[mask]), 1)[0]
    fitted = -0.5 * float(slope)
    rate_err = abs(fitted - gamma) / gamma

    table = _two_level_columns(traj)
    table["channel_rho22"] = chan[:, 1, 1].real
    checks = _audit(traj, trace_tol, volterra_residual=W.max_residual) + [
        _check("rate_rel_error", rate_err, 0.05),
        _check("channel_max_dev", chan_dev, 0.05),
        _check("channel_identity", ident, 1e-12),
    ]
    return "trajectory", table, checks


def _run_generic_system(cfg, base):
    sd = _build_spectral(cfg, base)
    en = _floats(cfg, "system.energies_per_time")
    rule = []
    for i, slot in enumerate(_list(cfg, "system.slots")):
        if not isinstance(slot, dict):
            raise ConfigError(f"system.slots[{i}] must be a mapping")
        try:
            key = tuple(
                _int(slot, name, minimum=1)
                for name in ("row", "mid_out", "mid_in", "col")
            )
            weight = complex(_num(slot, "weight_re"), _num(slot, "weight_im", 0.0))
        except ConfigError as e:
            raise ConfigError(f"system.slots[{i}].{e}") from None
        rule.append((key, weight))
    try:
        sys_ = kr.SystemSpec(tuple(en), rv.kernel_table(sd, rule))
    except (ValueError, rv.IndexCollisionError) as e:
        raise ConfigError(f"system: {e}") from e
    rho0 = _initial_matrix(cfg, sys_.dim)
    traj, checks = _two_time(cfg, sys_, rho0, *_time_grid(cfg))
    m = traj.matrices
    table = {"t_time": traj.times}
    for k in range(sys_.dim):
        table[f"pop_{k + 1}"] = m[:, k, k].real
    table["trace_re"] = np.trace(m, axis1=1, axis2=2).real
    table["min_eigenvalue"] = traj.min_eigenvalues()
    checks.append(_check("hermiticity_residual", traj.herm_residual, 1e-10))
    return "trajectory", table, checks


def _run_jaynes_cummings(cfg, base):
    basis = _build_basis(cfg)
    sd = _build_spectral(cfg, base)
    p = _int(cfg, "initial.photon_number", minimum=0)
    if p > basis.n_max:
        raise ConfigError("initial.photon_number exceeds system.photon_cutoff")
    init = jc.JCInitialState(_initial_two_level(cfg), p)
    solver = _str(cfg, "numerics.solver", "series")
    if solver not in ("series", "bitemporal"):
        raise ConfigError("numerics.solver must be series or bitemporal")
    T = _pos(cfg, "numerics.t_final_time")
    n_times = _int(cfg, "numerics.n_times", minimum=2)
    times = np.linspace(0.0, T, n_times)

    if solver == "series":
        r_max = _int(cfg, "numerics.r_max", minimum=0)
        _all_read(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = jc.atomic_population_series(basis, sd, init, times, r_max)
        excited, ground = res.excited, res.ground
        checks = [
            _check("truncation_estimate", res.truncation_estimate, 2e-2),
            _check("population_bound", float(np.max(excited)), 1.0 + 1e-9),
        ]
    else:
        sysj = jc.build_dressed_system(basis, sd)
        rho0 = jc.dressed_initial_state(basis, init)
        traj, checks = _two_time(cfg, sysj, rho0, T, T / (n_times - 1))
        red = jc.reduce_atomic(basis, traj.matrices)
        excited, ground = red[:, 1, 1].real, red[:, 0, 0].real
    return "trajectory", {"t_time": times, "excited": excited, "ground": ground}, checks


def _run_plateau_figure(cfg, base):
    ps = _list(cfg, "photon_numbers")
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in ps):
        raise ConfigError("photon_numbers must be integers >= 1")
    r11 = _nonneg(cfg, "initial.rho11", 0.0)
    r22 = _nonneg(cfg, "initial.rho22", 1.0)
    if abs(r11 + r22 - 1.0) > 1e-9:
        raise ConfigError("initial populations must sum to 1")
    tau_max = _pos(cfg, "grid.tau_max", 160.0)
    dtau = _pos(cfg, "grid.dtau", 0.1)
    _whole_steps(tau_max, dtau, "grid.tau_max", "grid.dtau")
    taus = np.arange(0.0, tau_max + 0.5 * dtau, dtau)
    _all_read(cfg)

    table, checks = {"tau": taus}, []
    for p in ps:
        tail_start = p + 5.0 * math.sqrt(p)
        if tau_max < tail_start + 1.0:
            raise ConfigError(
                f"grid.tau_max must reach p + 5 sqrt(p) + 1 = {tail_start + 1.0:.1f} "
                f"for photon_numbers entry {p}"
            )
        F = jc.plateau_oracle(taus, p, r11, r22)
        table[f"F_p{p}"] = F
        # settled stretch starts past the first few scaled lifetimes; the
        # onset analysis lives with the acceptance records
        window = (taus >= 5.5) & (taus <= p - 3.0 * math.sqrt(p))
        if np.any(window):
            dev = float(np.max(np.abs(F[window] - 0.5)))
            checks.append(_check(f"plateau_dev_p{p}", dev, 1e-2))
        tail = float(np.max(F[taus >= tail_start]))
        checks.append(_check(f"tail_max_p{p}", tail, 1e-2))
    return "figure", table, checks


def _run_entropy_scan(cfg, base):
    basis = _build_basis(cfg)
    sd = _build_spectral(cfg, base)
    alpha = _num(cfg, "exponents.alpha")
    beta = _num(cfg, "exponents.beta")
    lams = _floats(cfg, "couplings")
    p_tilde = _pos(cfg, "scaling.p_tilde")
    t_tilde = _pos(cfg, "scaling.t_tilde", 1.0)
    rho_a = None
    if _fetch(cfg, "initial", None) is not None:
        rho_a = _initial_two_level(cfg)
    _all_read(cfg)
    try:
        table = jc.entropy_limit_scan(
            basis, sd, alpha, beta, lams, p_tilde=p_tilde, t_tilde=t_tilde, rho_a=rho_a
        )
    except jc.EntropyScalingError as e:
        raise ConfigError(f"exponents: {e}") from e
    except ValueError as e:
        raise ConfigError(f"couplings: {e}") from e
    checks = []
    if table["lam"].size >= 2:
        drop = np.min(-np.diff(table["distance"]))
        checks.append(_check("min_distance_drop", drop, 1e-12, ">="))
    return "scan", table, checks


_SCENARIOS = {
    "TwoLevelWW": _run_two_level_ww,
    "MarkovLimit": _run_markov_limit,
    "GenericSystem": _run_generic_system,
    "JaynesCummings": _run_jaynes_cummings,
    "PlateauFigure": _run_plateau_figure,
    "EntropyScan": _run_entropy_scan,
}


# ---------------------------------------------------------------------------
# comparison


def _load_artifact(summary_path, fname):
    path = summary_path.parent / fname
    if not path.is_file():
        raise ShapeMismatchError(f"artifact file missing: {path}")
    table = np.genfromtxt(path, delimiter=",", names=True)
    if table.dtype.names is None:
        raise ShapeMismatchError(f"no header row in {path}")
    return {name: np.atleast_1d(table[name]) for name in table.dtype.names}


def _subsample(key_a, key_b):
    na, nb = key_a.size, key_b.size
    if na == nb:
        ia = ib = slice(None)
    elif na > nb and nb > 1 and (na - 1) % (nb - 1) == 0:
        ia, ib = slice(None, None, (na - 1) // (nb - 1)), slice(None)
    elif nb > na and na > 1 and (nb - 1) % (na - 1) == 0:
        ia, ib = slice(None), slice(None, None, (nb - 1) // (na - 1))
    else:
        raise ShapeMismatchError(f"row counts {na} and {nb} do not nest")
    scale = 1.0 + float(np.max(np.abs(key_a)))
    if np.max(np.abs(key_a[ia] - key_b[ib])) > 1e-9 * scale:
        raise ShapeMismatchError("first columns do not align after subsampling")
    return ia, ib


def _cmd_compare(args):
    report = {"artifacts": {}}
    summaries = []
    for label in (args.summary_a, args.summary_b):
        path = Path(label)
        if path.is_dir():
            path = path / "summary.json"
        if not path.is_file():
            raise ConfigError(f"summary file missing: {path}")
        with open(path) as fh:
            summaries.append((path, json.load(fh)))
    (pa, sa), (pb, sb) = summaries
    if sa.get("kind") != sb.get("kind"):
        raise ShapeMismatchError(
            f"scenario kinds differ: {sa.get('kind')} vs {sb.get('kind')}"
        )
    report["kind"] = sa.get("kind")
    shared = sorted(set(sa.get("artifacts", {})) & set(sb.get("artifacts", {})))
    if not shared:
        raise ShapeMismatchError("runs share no artifact names")
    for name in shared:
        ta = _load_artifact(pa, sa["artifacts"][name])
        tb = _load_artifact(pb, sb["artifacts"][name])
        if list(ta) != list(tb):
            raise ShapeMismatchError(
                f"artifact {name}: column names differ: {list(ta)} vs {list(tb)}"
            )
        key = next(iter(ta))
        ia, ib = _subsample(ta[key], tb[key])
        entry = {}
        for col in ta:
            a, b = ta[col][ia], tb[col][ib]
            diff = np.abs(a - b)
            ref = float(max(np.max(np.abs(a)), np.max(np.abs(b))))
            entry[col] = {
                "max_abs": float(np.max(diff)),
                "max_rel": float(np.max(diff) / ref) if ref > 0 else 0.0,
            }
        report["artifacts"][name] = {
            "rows_a": int(ta[key].size),
            "rows_b": int(tb[key].size),
            "columns": entry,
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# entry points


class _Loader(yaml.SafeLoader):
    """Safe loader that also reads ``1e-3``, ``2e5`` and ``1.0e5`` as floats."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _cmd_run(args):
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file missing: {path}")
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=_Loader)
    except yaml.YAMLError as e:
        raise ConfigError(f"config does not parse: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config top level must be a mapping")
    _READ.clear()
    kind = _str(cfg, "kind")
    runner = _SCENARIOS.get(kind)
    if runner is None:
        raise ConfigError(
            f"kind must be one of {', '.join(sorted(_SCENARIOS))}; got {kind}"
        )
    outdir = Path(_str(cfg, "output.directory", f"runs/{kind}"))
    if args.out is not None:
        outdir = Path(args.out)
    try:
        artifact, table, checks = runner(cfg, path.parent)
    except ConfigError:
        raise
    except dy.FieldSizeError as e:
        raise ConfigError(f"numerics: {e}") from e
    except (ValueError, ArithmeticError, RuntimeError) as e:
        print(f"solver error in {kind} ({type(e).__name__}): {e}", file=sys.stderr)
        return 3
    _all_read(cfg)  # a runner that skipped the check still writes nothing
    outdir.mkdir(parents=True, exist_ok=True)
    return _finish(outdir, kind, artifact, table, checks)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nmkraus",
        description="run solver scenarios from configs and compare their artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    prun = sub.add_parser("run", help="execute one scenario config")
    prun.add_argument("config", help="YAML scenario file")
    prun.add_argument("--out", default=None, help="output directory override")
    pcmp = sub.add_parser("compare", help="diff the artifacts of two runs")
    pcmp.add_argument("summary_a", help="summary.json (or run dir) of the first run")
    pcmp.add_argument("summary_b", help="summary.json (or run dir) of the second run")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ShapeMismatchError as e:
        print(f"compare error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
