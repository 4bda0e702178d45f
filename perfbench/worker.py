"""Runs one workload as a closed loop with one caller and checks every op.

Started by run.py as a fresh interpreter:

    python3 worker.py ROOT WORKLOAD SEED SECONDS TRACE BUDGET_S

Each op is timed alone; its output is checked after the timer stops. A timed
phase lasts SECONDS of wall time, checks included. Set-up probes, each a
fresh interpreter's `import vidcost` and first spec loads, run between the
ops of the first phase, spread evenly over it; their time is not counted in
SECONDS. With TRACE=1 an untraced phase runs first and a traced phase second,
on the same inputs. Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import inputs
from checks import CheckError, Reference, spec_view
from tracing import SPAN_LIMIT, Tracer, instrument, require_reached

SETUP_PROBES = 7
WARMUP_OPS = 1
PREFIX_OPS = 5
CHILD_TIMEOUT_S = 60
REF_MU = 0.456
REF_MODEL = "wan2.1-t2v-1.3b"
CLI_MAIN = "import sys\nfrom vidcost.cli import main\nsys.exit(main())"


class EstimateMix:
    """Design queries: one model x hardware pair, JOBS_PER_QUERY jobs, cost plus roofline each."""

    def __init__(self, vc, ref: Reference, seed: int, tmp: Path) -> None:
        self.vc, self.ref, self.seed = vc, ref, seed
        self.docs = inputs.model_variants(seed, ref.bundled_doc)
        self.models, self.views = [], []
        for k, doc in enumerate(self.docs):
            path = tmp / f"model-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.models.append(vc.load_model_spec(path))
            self.views.append(spec_view(doc))
        self.names = list(ref.hardware)
        self.hardware = {name: vc.load_hardware(name) for name in self.names}

    def make(self, index: int) -> dict:
        return inputs.estimate_query(self.seed, index, len(self.models), self.names)

    def run(self, query: dict):
        vc, model, hw, mu = self.vc, self.models[query["model"]], self.hardware[query["hardware"]], query["mu"]
        t0 = perf_counter()
        out = []
        for h, w, frames, steps, cfg in query["jobs"]:
            job = vc.VideoJob(h, w, frames, steps, cfg)
            cost = vc.estimate_cost(job, model, hw, mu)
            out.append((cost, vc.classify(vc.token_length(job, model.dit), hw, model.dit)))
        return perf_counter() - t0, out

    def check(self, query: dict, out) -> None:
        self.ref.check_query(query, self.views[query["model"]], out)


class CalibrateFit:
    """Measurement CSV bytes -> read_measurements_csv -> fit_mu -> validate."""

    def __init__(self, vc, ref: Reference, seed: int, tmp: Path) -> None:
        self.vc, self.ref, self.seed = vc, ref, seed
        self.model = vc.load_model_spec()
        self.hardware = {name: vc.load_hardware(name) for name in ref.hardware}

    def make(self, index: int) -> dict:
        return inputs.calibration_op(self.seed, index, self.ref.hardware, self.ref.flops, REF_MODEL)

    def run(self, op: dict):
        vc, m, hw = self.vc, self.model, self.hardware[op["hardware"]]
        t0 = perf_counter()
        records = vc.read_measurements_csv(io.StringIO(op["csv"].decode("utf-8")))
        fit = vc.fit_mu(records, m.dit, m.text_encoder, m.vae, hw)
        report = vc.validate(records, fit.mu, m.dit, m.text_encoder, m.vae, hw)
        return perf_counter() - t0, (records, fit, report)

    def check(self, op: dict, out) -> None:
        self.ref.check_calibration(op, *out)


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


class CliOneshot:
    """One `vidcost` process per op, timed from spawn to exit with stdout captured."""

    def __init__(self, vc, ref: Reference, seed: int, tmp: Path) -> None:
        self.ref, self.seed, self.tmp = ref, seed, tmp
        self.tracer: Tracer | None = None
        self.peak_rss_kb = 0
        self.startup_ms: list[float] = []
        signal.signal(signal.SIGALRM, _alarm)

    def make(self, index: int) -> dict:
        return inputs.cli_op(self.seed, index, self.ref.hardware, self.ref.flops)

    def run(self, op: dict):
        measurements = self.tmp / "measurements.csv"
        if "measurements" in op:
            measurements.write_bytes(op["measurements"])
        argv = [str(measurements) if a == inputs.MEASUREMENTS_ARG else a for a in op["argv"]]
        spans = self.tmp / "spans.json"
        spans.unlink(missing_ok=True)
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("clishim.py")), str(spans), *argv]
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                     cwd=self.ref.root)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except ChildTimeout:
                child.kill()
                child.wait()
                raise RuntimeError(f"child ran over {CHILD_TIMEOUT_S} s") from None
            finally:
                signal.alarm(0)
            wall = perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.tracer is not None and spans.exists():
            dump = json.loads(spans.read_text(encoding="utf-8"))
            main_ns = sum(e - s for n, s, e, p in zip(dump["names"], dump["start"], dump["end"], dump["parent"])
                          if p < 0 and n.startswith("cli."))
            self.startup_ms.append(wall * 1e3 - main_ns / 1e6)
            self.tracer.merge(dump, self.tracer.op_id)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return wall, (child.returncode, stdout, stderr)

    def check(self, op: dict, out) -> None:
        self.ref.check_cli(op, *out)


WORKLOADS = {
    "cli-oneshot": CliOneshot,
    "estimate-mix": EstimateMix,
    "calibrate-fit": CalibrateFit,
}


def probe(timeout: float, env: dict | None = None) -> dict:
    """Set-up in a fresh interpreter: probe.py's import and first spec load times."""
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("probe.py"))], env=env,
                         capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_phase(workload, seconds: float, deadline: float, digest=None, tracer: Tracer | None = None,
              probes: int = 0, min_ops: int = 0) -> dict:
    """Ops 0, 1, 2, ... for ``seconds`` of wall time, checks included, and at least
    ``min_ops`` of them; every op is checked and counted. ``probes`` set-up probes
    run at even intervals of the phase, the first before op 0, outside its clock."""
    times, failures, prefix, setup = [], [], None, []
    spin_ms = [host_spin_ms()]
    started = perf_counter()
    paused = index = 0
    while time.monotonic() < deadline:
        elapsed = perf_counter() - started - paused
        if len(setup) < probes and elapsed >= seconds * len(setup) / probes:
            t0 = perf_counter()
            setup.append(probe(deadline - time.monotonic()))
            paused += perf_counter() - t0
            continue
        if elapsed >= seconds and index >= min_ops:
            break
        if tracer is not None and len(tracer.names) >= SPAN_LIMIT:
            break
        op = workload.make(index)
        if digest is not None:
            digest.add(op)
            if index + 1 == PREFIX_OPS:
                prefix = digest.hexdigest()
        op_s, cause = run_op(workload, op, tracer, op_id=index)
        if cause is None:
            times.append(op_s)
        else:
            failures.append([index, cause])
        index += 1
    phase_wall_s = perf_counter() - started - paused
    spin_ms.append(host_spin_ms())
    return {"times": times, "failures": failures, "attempted": index, "prefix": prefix, "setup": setup,
            "phase_wall_s": phase_wall_s, "host_spin_ms": spin_ms}


def host_spin_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs this process right now."""
    t0 = perf_counter()
    sum(i * i for i in range(200_000))
    return (perf_counter() - t0) * 1e3


def run_op(workload, op, tracer: Tracer | None, op_id: int) -> tuple[float, str | None]:
    """(seconds, failure cause or None) of one op, its output checked after the timer stopped."""
    if tracer is not None:
        tracer.op_id, tracer.active = op_id, True
    started = perf_counter()
    try:
        elapsed, out = workload.run(op)
    except Exception as exc:  # an op that raises is counted as failed, and the loop goes on
        return perf_counter() - started, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    try:
        workload.check(op, out)
    except CheckError as exc:
        return elapsed, f"check: {exc}"
    except Exception as exc:  # output of an unexpected shape fails the op, not the run
        return elapsed, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, None


def reference_error(vc, ref: Reference) -> tuple[float, list]:
    """(|predicted - measured| / measured latency in percent, failures) of the
    bundled measured job; a prediction that disagrees with the oracle fails."""
    row = next(m for m in ref.measurements if m["model_id"] == REF_MODEL)
    job = (int(row["height"]), int(row["width"]), int(row["frames"]), int(row["steps"]), 2)
    got = vc.estimate_cost(vc.VideoJob(*job), vc.load_model_spec(), vc.load_hardware("h100"), REF_MU)
    measured = float(row["latency_s"])
    try:
        ref.check_cost(got.breakdown.total, got.latency_s, got.energy_j, got.energy_wh, ref.flops(job), "h100",
                       REF_MU, "reference job")
    except CheckError as exc:
        return 100.0 * abs(got.latency_s - measured) / measured, [["reference", f"check: {exc}"]]
    return 100.0 * abs(got.latency_s - measured) / measured, []


def main(argv: list[str]) -> None:
    root, name, seed, seconds, trace, budget = (Path(argv[0]), argv[1], int(argv[2]), float(argv[3]),
                                                argv[4] == "1", float(argv[5]))
    deadline = time.monotonic() + budget
    sys.path.insert(0, str(root / "src"))
    import vidcost as vc

    ref = Reference(root)
    work = root / ".perfbench"
    tmp = Path(tempfile.mkdtemp(prefix="worker-", dir=work))
    try:
        workload = WORKLOADS[name](vc, ref, seed, tmp)
        ref_err, ref_failures = reference_error(vc, ref)
        for i in range(1, WARMUP_OPS + 1):
            run_op(workload, workload.make(-i), None, op_id=-i)

        digest = inputs.Digest()
        if isinstance(workload, EstimateMix):
            digest.add(workload.docs)
        phase = run_phase(workload, seconds, deadline, digest, probes=SETUP_PROBES)
        result = dict(phase, ref_latency_err_pct=ref_err, failures=ref_failures + phase["failures"],
                      attempted=phase["attempted"] + 1, inputs_sha256=digest.hexdigest(),
                      inputs_prefix_sha256=phase["prefix"] or digest.hexdigest())
        if isinstance(workload, CliOneshot):
            result["peak_rss_mb"] = workload.peak_rss_kb / 1024
        else:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if trace:
            tracer = Tracer()
            if isinstance(workload, CliOneshot):
                workload.tracer = tracer
            else:
                instrument(tracer)
            # cli-oneshot runs at least one block of op kinds, so every subcommand is traced.
            min_ops = len(inputs.CLI_KINDS) if isinstance(workload, CliOneshot) else 0
            traced = run_phase(workload, seconds, deadline, tracer=tracer, min_ops=min_ops)
            layers = tracer.layer_metrics(traced["attempted"])
            startup = getattr(workload, "startup_ms", None)
            layers["cli.startup_ms"] = {"value": statistics.median(startup) if startup else 0.0, "unit": "ms"}
            require_reached(layers, name)
            tracer.write(work / f"trace-{name}.json")
            result.update(layers=layers, traced_times=traced["times"], traced_failures=traced["failures"],
                          traced_attempted=traced["attempted"], spans=len(tracer.names))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
