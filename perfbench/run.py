"""vidcost benchmark: one workload at one seed, every metric printed with its unit.

    python3 perfbench/run.py --workload estimate-mix --seed 1 --seconds 18 --trace 0

Run from anywhere inside a source checkout; vidcost is used from the
checkout's ``src``. Workloads, each a closed loop with one caller:

  cli-oneshot    one `vidcost` process per op (estimate, roofline, compare,
                 a short sweep, calibrate): what a person at a terminal pays.
  estimate-mix   design queries: one model x hardware pair, 200 jobs, each
                 costed with estimate_cost and classified with roofline.classify.
  calibrate-fit  read_measurements_csv, fit_mu and validate on 50-2000 records.

The ops run in a worker process, untimed warm-up ops first; set-up time is
measured in fresh interpreters started between the ops of the timed phase.
With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer ones from a separate traced phase. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. Exits 2
when the checkout has no vidcost source to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170.0
FAILURES_SHOWN = 20


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VIDCOST_DATA_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): p90 by nearest rank, whose actual percentile
    depends on the op count. A higher one, such as p98 of estimate-mix's
    ~500 ops, sits in the short bursts of a shared host's slowest regime."""
    ordered = sorted(times)
    rank = math.ceil(0.9 * len(ordered)) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "vidcost").rglob("*.py"))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def setup_s(probe: dict) -> float:
    return probe["import_s"] + probe["load_model_spec_s"] + probe["load_hardware_s"]


def end_to_end(result: dict) -> dict:
    times = result["times"]
    setup = [setup_s(p) for p in result["setup"]]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_tail_ms": {"value": tail(times)[0] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ref_latency_err_pct": {"value": result["ref_latency_err_pct"], "unit": "%"},
    }


def per_layer(result: dict) -> dict:
    def med(key: str) -> float:
        return statistics.median(p[key] for p in result["setup"])

    metrics = {
        "import.vidcost_s": {"value": med("import_s"), "unit": "s"},
        "import.modules": {"value": med("modules"), "unit": "count"},
        "specs.load_model_spec_us": {"value": med("load_model_spec_s") * 1e6, "unit": "us"},
        "specs.load_hardware_us": {"value": med("load_hardware_s") * 1e6, "unit": "us"},
        "specs.load_hardware_db_us": {"value": med("load_hardware_db_s") * 1e6, "unit": "us"},
    }
    metrics.update(result["layers"])
    untraced = statistics.median(result["times"]) * 1e3
    traced = statistics.median(result["traced_times"]) * 1e3
    metrics["trace.untraced_op_p50_ms"] = {"value": untraced, "unit": "ms"}
    metrics["trace.traced_op_p50_ms"] = {"value": traced, "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="wall time of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/vidcost/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a vidcost checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    started = time.monotonic()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    env = child_env()

    compileall.compile_dir(ROOT / "src" / "vidcost", quiet=1)  # warm-up: users do not compile on every run
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload, str(args.seed), str(args.seconds),
         str(args.trace), str(budget - 10.0)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])

    failures = result["failures"] + result.get("traced_failures", [])
    attempted = result["attempted"] + result.get("traced_attempted", 0)
    times = result["times"]
    if not times or (args.trace and not result["traced_times"]):
        for index, cause in failures[:FAILURES_SHOWN]:
            print(f"failed op {index}: {cause}", file=sys.stderr)
        print(f"error: no op of {args.workload} completed", file=sys.stderr)
        return 1
    metrics = per_layer(result) if args.trace else end_to_end(result)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
        "src_vidcost_lines": source_lines(), "ops": len(times), "attempted": attempted,
        "failed_frac": len(failures) / max(attempted, 1),
        "op_tail_percentile": tail(times)[1],
        # Reported, not gated: on a host that switches between a fast and a slow
        # regime, their spread over seeds exceeds any bound a gate could use.
        "ops_per_s": len(times) / sum(times), "op_p50_ms": statistics.median(times) * 1e3,
        "setup_probes_s": [setup_s(p) for p in result["setup"]], "spans": result.get("spans"),
        "phase_wall_s": result["phase_wall_s"], "host_spin_ms": result["host_spin_ms"],
        "inputs_sha256": result["inputs_sha256"], "inputs_prefix_sha256": result["inputs_prefix_sha256"],
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for index, cause in failures[:FAILURES_SHOWN]:
        print(f"failed op {index}: {cause}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    record = {"meta": meta, "metrics": metrics, "failures": failures}
    (ROOT / ".perfbench" / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
