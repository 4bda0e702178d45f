"""Record the vidcost benchmark into one BENCH JSON file, and compare two such files.

    python3 tools/record_bench.py --out BENCH_old.json
    python3 tools/record_bench.py --out BENCH_new.json --compare BENCH_old.json
    python3 tools/record_bench.py --compare BENCH_old.json BENCH_new.json

Recording compiles ``src/vidcost``, then runs ``perfbench/run.py`` for every
workload that ``BENCHMARK.json`` lists, one run at a time, each for its
``run_seconds``: seeds 1-3 with ``--trace 0`` for the end-to-end metrics, and
seed 1 with ``--trace 1`` for the per-layer ones. The file holds, per workload, each end-to-end metric's median
and range over the seeds, every seed's value, the failed share of ops, the
traced run's per-layer values (each already a median over its calls), and the
checkout's line count of ``src/vidcost``, its tier-1 test count, the wall
time of each of ``TIER1_RUNS`` tier-1 runs (``tier1_runs_s``) and their median
(``tier1_s``), as one run cannot resolve a change of a few percent, the Python
version, the CPU count, the commit (with ``dirty``, whether ``git diff HEAD`` is
non-empty, and ``diff_sha256``, its sha256, so that a file recorded before a
change is committed still names the code it ran) and the median start-up time of
a bare interpreter, so that files from different hosts can be put side by side.

``--compare OLD [NEW]`` prints each metric's change from OLD to NEW (the file
just recorded when NEW is left out), and ``tier1_s / bare_python_ms`` when both
files hold both, as the tier-1 time read against the host's speed. A change of
an end-to-end metric in its worse direction by more than its ``BENCHMARK.json``
bound, read as a share of the OLD value, or a rise in a failed share, is
flagged; the exit code is then 1. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TRACED_SEED = 1
BARE_ROUNDS = 15
TIER1_RUNS = 3


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One perfbench run, as the record it writes under ``.perfbench``."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {' '.join(argv[1:])} exited with code {done.returncode}")
    return json.loads((ROOT / ".perfbench" / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())


def tier1(*flags: str) -> subprocess.CompletedProcess:
    """``pytest -q`` with ``flags`` over ``tests``, with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, "tests"],
                          cwd=ROOT, env=env, capture_output=True, text=True)


def tier1_count() -> int:
    """The number of tests that ``pytest --collect-only -q`` finds under ``tests``."""
    return sum(1 for line in tier1("--collect-only").stdout.splitlines() if "::" in line)


def tier1_s() -> float:
    """Wall time of one tier-1 run; a run that fails is reported on stderr and still timed."""
    start = time.perf_counter()
    done = tier1()
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(f"warning: the tier-1 run exited with code {done.returncode}\n")
    return elapsed


def bare_python_ms() -> float:
    """Median wall time of ``python -c pass``, a calibration of the host's process start-up."""
    times = []
    for _ in range(BARE_ROUNDS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def tree_state() -> dict:
    """Whether the checkout differs from its commit, and the sha256 of that difference, ``git diff HEAD``."""
    diff = subprocess.run(["git", "diff", "HEAD"], cwd=ROOT, capture_output=True, check=True).stdout
    return {"dirty": bool(diff), "diff_sha256": hashlib.sha256(diff).hexdigest()}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "seeds": values}


def record() -> dict:
    bench = benchmark()
    seconds = bench["run_seconds"]
    compileall.compile_dir(ROOT / "src" / "vidcost", quiet=1)
    started = time.monotonic()
    workloads, meta = {}, None
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, 0, seconds) for seed in SEEDS]
        traced = run(workload, TRACED_SEED, 1, seconds)
        meta = runs[0]["meta"]
        workloads[workload] = {
            "end_to_end": {name: {**summary([r["metrics"][name]["value"] for r in runs]),
                                  "unit": runs[0]["metrics"][name]["unit"]}
                           for name in (m["name"] for m in bench["end_to_end"])},
            "failed_frac": summary([r["meta"]["failed_frac"] for r in runs]),
            "op_p50_ms": summary([r["meta"]["op_p50_ms"] for r in runs]),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_failed_frac": traced["meta"]["failed_frac"],
        }
    tier1_runs = [tier1_s() for _ in range(TIER1_RUNS)]
    return {
        "meta": {"commit": meta["commit"], **tree_state(), "python": platform.python_version(), "nproc": os.cpu_count(),
                 "src_vidcost_lines": meta["src_vidcost_lines"], "tier1_tests": tier1_count(),
                 "tier1_runs_s": tier1_runs, "tier1_s": statistics.median(tier1_runs),
                 "bare_python_ms": bare_python_ms(), "seconds": seconds, "seeds": list(SEEDS),
                 "traced_seed": TRACED_SEED, "runs_wall_s": time.monotonic() - started},
        "workloads": workloads,
    }


def compare(old: dict, new: dict) -> int:
    """Print each metric's change from ``old`` to ``new``; the number of flagged changes."""
    bench = benchmark()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    flagged = 0

    def line(name: str, before: float, after: float, bound: float | None = None, better: str = "lower"):
        nonlocal flagged
        change = (after - before) / before if before else (0.0 if after == before else float("inf"))
        worse = change if better == "lower" else -change
        flag = bound is not None and worse > bound
        flagged += flag
        print(f"  {name:40} {before:14.6g} -> {after:<14.6g} {change * 100:+8.2f}%{'  BEYOND BOUND' if flag else ''}")

    for key in ("src_vidcost_lines", "tier1_tests", "tier1_s", "bare_python_ms"):
        if key in old["meta"] and key in new["meta"]:  # tier1_s is missing from files recorded before it was
            line(key, old["meta"][key], new["meta"][key])
    metas = old["meta"], new["meta"]
    if all("tier1_s" in meta and "bare_python_ms" in meta for meta in metas):  # tier-1 time in units of host speed
        line("tier1_s / bare_python_ms", *(meta["tier1_s"] / meta["bare_python_ms"] for meta in metas))
    for workload, after in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in the old file")
            continue
        print(f"{workload} (medians over seeds)")
        for name, (bound, better) in bounds.items():
            line(name, before["end_to_end"][name]["median"], after["end_to_end"][name]["median"], bound, better)
        failed = before["failed_frac"]["max"], after["failed_frac"]["max"]
        if failed[1] > failed[0]:
            flagged += 1
        print(f"  {'failed_frac (max)':40} {failed[0]:14.6g} -> {failed[1]:<14.6g}"
              f"{'  MORE FAILURES' if failed[1] > failed[0] else ''}")
        for name in sorted(after["per_layer"].keys() & before["per_layer"].keys()):
            line(name, before["per_layer"][name], after["per_layer"][name])
    return flagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="record the benchmark into this file")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="FILE",
                        help="OLD [NEW]: print each metric's change; NEW defaults to the file just recorded")
    args = parser.parse_args()
    if args.out is None and (args.compare is None or len(args.compare) != 2):
        parser.error("give --out, or --compare with two files")
    if args.compare is not None and len(args.compare) > 2:
        parser.error("--compare takes one or two files")
    new = None
    if args.out is not None:
        new = record()
        args.out.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {args.out} in {new['meta']['runs_wall_s']:.0f} s of runs")
    if args.compare is None:
        return 0
    old = json.loads(args.compare[0].read_text(encoding="utf-8"))
    if len(args.compare) == 2:
        new = json.loads(args.compare[1].read_text(encoding="utf-8"))
    return 1 if compare(old, new) else 0


if __name__ == "__main__":
    sys.exit(main())
