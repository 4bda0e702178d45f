"""Reproduces the single-number baseline table of ROADMAP.md, for comparison with the workloads.

    python3 perfbench/reanchor.py

Measures, with vidcost from this checkout's ``src``: the `vidcost estimate`
CLI wall-clock and a fresh interpreter's `import vidcost` (medians of five),
per-call `total_flops`, `estimate_cost`, `load_model_spec` and
`load_hardware` on the default job, `run_sweep` over frames 1..10000, and
`emit` of that sweep as json and csv. Prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from run import child_env
from worker import CLI_MAIN, probe

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def wall(cmd: list[str], env: dict) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


def per_call_us(fn, calls: int) -> float:
    t0 = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - t0) / calls * 1e6


def main() -> None:
    env = child_env()
    cli = [sys.executable, "-c", CLI_MAIN, "estimate"]
    out = {
        "cli_estimate_s": statistics.median(wall(cli, env) for _ in range(REPEATS)),
        "import_vidcost_s": statistics.median(probe(120, env)["import_s"] for _ in range(REPEATS)),
    }
    sys.path.insert(0, str(ROOT / "src"))
    import vidcost as vc

    model, hw = vc.load_model_spec(), vc.load_hardware()
    job = vc.VideoJob(720, 1280, 81, 50)
    out["total_flops_us"] = per_call_us(lambda: vc.total_flops(job, model.dit, model.text_encoder, model.vae), 5000)
    out["estimate_cost_us"] = per_call_us(lambda: vc.estimate_cost(job, model, hw, 0.456), 5000)
    out["load_model_spec_us"] = per_call_us(vc.load_model_spec, 200)
    out["load_hardware_us"] = per_call_us(vc.load_hardware, 200)
    spec = vc.SweepSpec(axis="frames", values=range(1, 10001), fixed=job, mu=0.456, hardware=hw)
    t0 = perf_counter()
    result = vc.run_sweep(spec, model)
    out["run_sweep_10k_s"] = perf_counter() - t0
    for fmt in ("json", "csv"):
        t0 = perf_counter()
        data = vc.emit(result, fmt)
        out[f"emit_{fmt}_10k_s"] = perf_counter() - t0
        out[f"emit_{fmt}_10k_mb"] = len(data) / 1e6
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
