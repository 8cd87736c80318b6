"""Smoke self-test of the benchmark on tiny grids.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], tiny=True)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return code, result


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(capsys, workload):
    code, result = run_tiny(capsys, workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result["metrics"]) == units(
        {m["name"]: m for m in SPEC["end_to_end"]})
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_metrics(capsys):
    expected = units({m["name"]: m for m in SPEC["per_layer"]})
    moved = set()
    for workload in WORKLOADS:
        code, result = run_tiny(capsys, workload, 1)
        assert code == 0 and result["correct"]
        assert units(result["metrics"]) == expected
        moved |= {k for k, m in result["metrics"].items() if m["value"] != 0}
    # a name that reads 0 on every workload names no traced callable
    assert moved == set(expected)


def test_failed_check_fails_the_run(capsys, monkeypatch):
    from milburnsim import cli

    original = cli.sigma_x_closed_form
    monkeypatch.setattr(cli, "sigma_x_closed_form",
                        lambda p, t: 0.5 * original(p, t))
    code, result = run_tiny(capsys, "closed-form-sweep", 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_tracer_restores_every_binding():
    from milburnsim import cli, dynamics

    before = (cli.main, cli.SpectralPropagator.evolve, dynamics.poisson_window)
    with Tracer():
        assert cli.main is not before[0]
        assert cli.SpectralPropagator.evolve is not before[1]
    assert (cli.main, cli.SpectralPropagator.evolve,
            dynamics.poisson_window) == before
