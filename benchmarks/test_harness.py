"""Self-test of the benchmark harness.

    python3 -m pytest benchmarks

Runs every workload for one round, checks that a perturbed solver
result cannot pass the correctness gate, that both modes of the command
print the metrics named in ``BENCHMARK.json``, that span self times
account for the traced wall time, and that the command refuses to run
without the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return [m["name"] for m in CONTRACT[kind]]


def test_contract_lists_the_harness_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)


def test_rounds_are_scaled_by_the_kernel_times_of_their_neighbours():
    ref = calibration.REFERENCE_S
    scaled = calibration.scale([1.0, 1.0, 1.0, 2.0], [[ref], [2 * ref, 2 * ref], [ref], [ref]])
    assert scaled == pytest.approx([3 / 5, 2 / 3, 2 / 3, 2.0])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_round_passes_every_reference(name, tmp_path):
    rounds, scaled, ops = worker.run_rounds(name, 0, 0.0, tmp_path)
    assert len(rounds) == len(scaled) == 1
    # a lone round is scaled by the reference over its mean kernel time
    kernel = [k for op in ops for k in op["calib"]]
    assert scaled[0] == pytest.approx(
        rounds[0] * calibration.REFERENCE_S * len(kernel) / sum(kernel)
    )
    for op in ops:
        assert min(op["calib"]) > 0.0
        assert sum(op["calib"]) >= calibration.SHARE * op["seconds"]
    result = {"ops": ops}
    assert run._tally([result]) == (len(ops), 0)
    assert 0.0 < run._ref_err_frac(result) < 1.0


def test_perturbed_bitemporal_result_fails_the_gate(monkeypatch, tmp_path):
    import nmkraus.dynamics as dy

    solve = dy.solve_bitemporal

    def scaled(*args, **kwargs):
        xi = solve(*args, **kwargs)
        return dataclasses.replace(xi, values=xi.values * (1.0 + 1e-2))

    monkeypatch.setattr(dy, "solve_bitemporal", scaled)
    _, _, ops = worker.run_rounds("jc_bitemporal", 0, 0.0, tmp_path)
    result = {"ops": ops}
    assert run._tally([result]) == (len(ops), len(ops))
    assert run._ref_err_frac(result) > 1.0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_metrics(trace, capsys):
    rc = run.main(
        ["--workload", "jc_bitemporal", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert list(metrics) == _names("per_layer" if trace else "end_to_end")
    if trace:
        # self times plus the unattributed remainder make up the wall time
        own = sum(metrics[f"{layer}_s"] for layer in tracing.LAYERS)
        wall = metrics["trace.wall_s"]
        assert own + metrics["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
        assert metrics["dynamics.bitemporal_s"] > 0.5 * wall
        assert 0.0 <= metrics["trace.unattributed_s"] < 0.05 * wall


def test_command_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "jc_bitemporal",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
