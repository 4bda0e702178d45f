"""Tests of the benchmark itself: smoke runs with every check, and failure counting.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "perfbench"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from checks import CheckError, Reference  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def vc():
    import vidcost

    return vidcost


@pytest.fixture(scope="module")
def ref():
    return Reference(ROOT)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_every_op(workload):
    result = last_json(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = last_json(run_bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        if not m["name"].startswith(("trace.", *tracing.NOT_REACHED[workload])):
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unreached_layer_stops_the_traced_run(workload):
    layers = tracing.Tracer().layer_metrics(1)
    layers["cli.startup_ms"] = {"value": 0.0, "unit": "ms"}
    with pytest.raises(tracing.LayerNotReached):
        tracing.require_reached(layers, workload)


def test_instrument_refuses_a_function_vidcost_lacks(vc, monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", {"specs": ("no_such_function",)})
    with pytest.raises(AttributeError):
        tracing.instrument(tracing.Tracer())


def test_bare_directory_exits_without_result():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(WORKLOADS[0], 0, cwd=Path(tmp))
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_inputs_are_a_function_of_the_seed(ref):
    names = list(ref.hardware)

    def digest(seed):
        d = inputs.Digest()
        for i in range(20):
            d.add(inputs.calibration_op(seed, i, ref.hardware, ref.flops, "wan2.1-t2v-1.3b"))
            d.add(inputs.cli_op(seed, i, ref.hardware, ref.flops))
            d.add(inputs.estimate_query(seed, i, 4, names))
        return d.hexdigest()

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_corrupted_library_outputs_fail_their_checks(vc, ref, tmp_path):
    mix = worker.EstimateMix(vc, ref, 5, tmp_path)
    query = mix.make(0)
    _, out = mix.run(query)
    mix.check(query, out)
    cost, classes = out[0]
    for bad in (dataclasses.replace(cost, latency_s=cost.latency_s * (1 + 1e-6)),
                dataclasses.replace(cost, energy_wh=cost.energy_wh * 1.01)):
        with pytest.raises(CheckError):
            mix.check(query, [(bad, classes)] + out[1:])
    with pytest.raises(CheckError):
        mix.check(query, [(cost, classes[:1])] + out[1:])

    for fmt in ("csv", "json", "svg"):
        op = {"axis": "frames", "values": list(range(3, 40)), "fixed": (480, 832, 81, 20, 2),
              "hardware": "a100", "mu": 0.5, "format": fmt}
        spec = vc.SweepSpec(axis="frames", values=op["values"], fixed=vc.VideoJob(*op["fixed"]), mu=0.5,
                            hardware=vc.load_hardware("a100"))
        data = vc.emit(vc.run_sweep(spec, vc.load_model_spec()), fmt)
        ref.check_sweep(op, data)
        with pytest.raises(CheckError):
            ref.check_sweep(dict(op, values=op["values"][:-1]), data)
        with pytest.raises(CheckError):
            ref.check_sweep(dict(op, mu=op["mu"] * 1.1), data)

    fit = worker.CalibrateFit(vc, ref, 5, tmp_path)
    op = fit.make(0)
    _, (records, result, report) = fit.run(op)
    fit.check(op, (records, result, report))
    with pytest.raises(CheckError):
        fit.check(op, (records, dataclasses.replace(result, mu=result.mu * 1.0001), report))
    with pytest.raises(CheckError):
        fit.check(op, (records[1:], result, report))


def test_corrupted_cli_outputs_fail_their_checks(ref):
    ops = (inputs.cli_op(5, i, ref.hardware, ref.flops) for i in range(len(inputs.CLI_KINDS)))
    op = next(o for o in ops if o["kind"] == "estimate-json")
    total = ref.flops(op["job"])
    latency_s, energy_j, energy_wh = ref.cost(total, op["hardware"], op["mu"])
    doc = {"flops": {"text": total - 1, "mlp": 1, "total": total}, "latency_s": latency_s,
           "energy_j": energy_j, "energy_wh": energy_wh, "provenance": {"added": "later"}}
    ref.check_cli(op, 0, json.dumps(doc), "")
    for bad in (dict(doc, flops={"text": total, "mlp": 1, "total": total + 1}),
                dict(doc, latency_s=latency_s * 1.01)):
        with pytest.raises(CheckError):
            ref.check_cli(op, 0, json.dumps(bad), "")
    with pytest.raises(CheckError):
        ref.check_cli(op, 1, json.dumps(doc), "error: boom\n")
    with pytest.raises(CheckError):
        ref.check_cli(op, 0, json.dumps(doc), "Traceback (most recent call last):\n  ...\n")
    with pytest.raises(CheckError):
        ref.check_cli(op, 0, "not json", "")


class Corrupting:
    """A workload whose every fit reports an efficiency 1% off."""

    def __init__(self, inner):
        self.inner = inner

    def make(self, index):
        return self.inner.make(index)

    def run(self, op):
        elapsed, (records, fit, report) = self.inner.run(op)
        return elapsed, (records, dataclasses.replace(fit, mu=fit.mu * 1.01), report)

    def check(self, op, out):
        self.inner.check(op, out)


def test_failed_ops_are_counted(vc, ref, tmp_path):
    phase = worker.run_phase(Corrupting(worker.CalibrateFit(vc, ref, 5, tmp_path)), 0.5, time.monotonic() + 60)
    assert phase["attempted"] >= 1
    assert not phase["times"]
    assert len(phase["failures"]) == phase["attempted"]
    assert all(cause.startswith("check: mu") for _, cause in phase["failures"])
