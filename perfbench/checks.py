"""Independent checks of every op's output.

The references do not come from the code under test: FLOP totals come from
the hand-written oracle in ``tests/oracles.py``, latency and energy are
recomputed here from those totals and the bundled hardware table read as
plain JSON, fits come from ``statistics.linear_regression``, and SVG is
parsed as XML. CLI output is parsed and compared by value, so a field added
to it later is not a failure.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import statistics
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

REL_TOL = 1e-9
FIT_REL_TOL = 1e-6
SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckError(Exception):
    """An op's output disagrees with its reference."""


def _close(got, want, what: str, rel: float = REL_TOL, abs_tol: float = 0.0) -> None:
    if not math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_tol):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _equal(got, want, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _load_oracles(path: Path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spec_view(doc: dict) -> SimpleNamespace:
    """A model spec JSON document as the attribute view the oracle reads."""
    ns = SimpleNamespace
    layers = [
        ns(kind=ns(value=row["kind"]), t_rule=ns(value=row["t_rule"]), kernel=tuple(row.get("kernel") or ()),
           c_in=row["c_in"], c_out=row["c_out"], h_div=row["h_div"], w_div=row["w_div"],
           repeat=row.get("repeat", 1))
        for row in doc["vae"]["layers"]
    ]
    return ns(
        model_id=doc["model_id"],
        dit=ns(**doc["dit"]),
        text_encoder=ns(**doc["text_encoder"]),
        vae=ns(layers=layers, mid_channels=doc["vae"].get("mid_channels", 384)),
    )


def sweep_job(op: dict, value: int) -> tuple:
    """The job at one point of a frames or steps sweep."""
    h, w, frames, steps, cfg = op["fixed"]
    return (h, w, value, steps, cfg) if op["axis"] == "frames" else (h, w, frames, value, cfg)


class Reference:
    """Expected values for the ops of every workload, from a checkout's files."""

    def __init__(self, root: Path) -> None:
        self.root = root
        data = root / "src" / "vidcost" / "data"
        self._flops: dict[tuple, int] = {}
        self.oracles = _load_oracles(root / "tests" / "oracles.py")
        self.hardware = {e["name"]: e for e in json.loads((data / "hardware.json").read_text(encoding="utf-8"))}
        self.bundled_doc = json.loads((data / "wan2.1-t2v-1.3b.json").read_text(encoding="utf-8"))
        self.bundled = spec_view(self.bundled_doc)
        with open(data / "benchmark_measurements.csv", newline="", encoding="utf-8") as fh:
            self.measurements = list(csv.DictReader(fh))

    # --- reference values ---

    def flops(self, job, model: SimpleNamespace | None = None) -> int:
        """The oracle's exact FLOP total; remembered, since inputs and checks ask twice."""
        model = model or self.bundled
        key = (tuple(job), model.model_id)
        if key not in self._flops:
            if len(self._flops) > 8192:
                self._flops.clear()
            h, w, frames, steps, cfg = job
            view = SimpleNamespace(height_px=h, width_px=w, frames=frames, steps=steps, cfg_passes=cfg)
            self._flops[key] = self.oracles.total_oracle(view, model.dit, model.text_encoder, model.vae)
        return self._flops[key]

    def tokens(self, job, model: SimpleNamespace) -> int:
        d = model.dit
        return math.prod(self.oracles.grid_oracle(job[0], job[1], job[2], d.vae_t_down, d.vae_s_down,
                                                  d.patch_h, d.patch_w))

    def cost(self, flops: int, hw_name: str, mu: float) -> tuple[float, float, float]:
        """(latency_s, energy_j, energy_wh) under flops / (mu * theta_peak) and p_max."""
        hw = self.hardware[hw_name]
        latency_s = flops / (mu * hw["theta_peak"])
        energy_j = hw["p_max"] * latency_s
        return latency_s, energy_j, energy_j / 3600.0

    def thresholds(self, hw_name: str) -> tuple[float, int, int]:
        """(balance, attention threshold, mlp threshold) from the integer-rounded balance."""
        hw = self.hardware[hw_name]
        beta = hw["theta_peak"] / hw["bandwidth"]
        s = hw.get("scalar_bytes", 2)
        return beta, round(s * round(beta) / 2), round(s * round(beta))

    def fit(self, hw_name: str, data: bytes) -> SimpleNamespace:
        """OLS of measured latency on flops / theta_peak for a measurement CSV."""
        hw = self.hardware[hw_name]
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        x, y, gpu_wh = [], [], []
        for row in rows:
            job = (int(row["height"]), int(row["width"]), int(row["frames"]), int(row["steps"]), 2)
            x.append(self.flops(job) / hw["theta_peak"])
            if row["latency_s"]:
                y.append(float(row["latency_s"]))
                gpu_wh.append(hw["p_max"] * y[-1] / 3600.0)
            else:
                gpu_wh.append(float(row["gpu_wh"]))
                y.append(gpu_wh[-1] * 3600.0 / hw["p_max"])
        slope, intercept = statistics.linear_regression(x, y)
        return SimpleNamespace(records=len(rows), x=x, y=y, gpu_wh=gpu_wh, mu=1.0 / slope,
                               intercept_s=intercept, r_squared=statistics.correlation(x, y) ** 2)

    # --- library outputs ---

    def check_cost(self, total, latency_s, energy_j, energy_wh, want_flops: int, hw: str, mu: float,
                   what: str) -> None:
        _equal(int(total), want_flops, f"{what} flops total")
        want = self.cost(want_flops, hw, mu)
        _close(latency_s, want[0], f"{what} latency_s")
        if energy_j is not None:
            _close(energy_j, want[1], f"{what} energy_j")
        _close(energy_wh, want[2], f"{what} energy_wh")

    def check_query(self, query: dict, model: SimpleNamespace, results: list) -> None:
        """estimate-mix: one (CostEstimate, [BoundClassification]) pair per job."""
        _equal(len(results), len(query["jobs"]), "results")
        hw = self.hardware[query["hardware"]]
        _, attn_thr, mlp_thr = self.thresholds(query["hardware"])
        s = hw.get("scalar_bytes", 2)
        f = float(Fraction(model.dit.mlp_expansion))
        d = model.dit.hidden
        for job, (cost, classes) in zip(query["jobs"], results):
            what = f"job {job}"
            bd = cost.breakdown
            self.check_cost(bd.total, cost.latency_s, cost.energy_j, cost.energy_wh,
                            self.flops(job, model), query["hardware"], query["mu"], what)
            tokens = self.tokens(job, model)
            want = {
                "attention": (attn_thr, 2 * tokens / s),
                "mlp": (mlp_thr, f * tokens * d / ((f * d + tokens * (1 + f)) * s)),
            }
            _equal(sorted(c.operator for c in classes), sorted(want), f"{what} classified operators")
            for c in classes:
                threshold, intensity = want[c.operator]
                _equal((c.tokens, c.threshold), (tokens, threshold), f"{what} {c.operator} tokens/threshold")
                _equal(c.regime, "compute_bound" if tokens > threshold else "memory_bound",
                       f"{what} {c.operator} regime")
                _close(c.intensity, intensity, f"{what} {c.operator} intensity")

    def check_sweep(self, op: dict, data: bytes) -> None:
        """A CLI sweep's output, parsed by format."""
        values = op["values"]
        totals = [self.flops(sweep_job(op, v)) for v in values]
        text = data.decode("utf-8")
        if op["format"] == "csv":
            rows = list(csv.DictReader(io.StringIO(text)))
            _equal(len(rows), len(values), "sweep csv rows")
            for row, value, total in zip(rows, values, totals):
                what = f"sweep point {value}"
                _equal(row["axis_value"], str(value), f"{what} axis_value")
                parts = sum(int(v) for k, v in row.items() if k.startswith("flops_") and k != "flops_total")
                _equal(parts, total, f"{what} operator flops sum")
                self.check_cost(row["flops_total"], row["latency_s"], None, row["energy_wh"], total,
                                op["hardware"], op["mu"], what)
        elif op["format"] == "json":
            points = json.loads(text)["points"]
            _equal(len(points), len(values), "sweep json points")
            for point, value, total in zip(points, values, totals):
                what = f"sweep point {value}"
                _equal(point["axis_value"], str(value), f"{what} axis_value")
                flops = dict(point["flops"])
                _equal(sum(flops.values()) - flops["total"], total, f"{what} operator flops sum")
                self.check_cost(flops["total"], point["latency_s"], point["energy_j"], point["energy_wh"],
                                total, op["hardware"], op["mu"], what)
        else:
            try:
                root = ET.fromstring(data)
            except ET.ParseError as exc:
                raise CheckError(f"svg does not parse: {exc}") from None
            _equal(root.tag, f"{SVG_NS}svg", "svg root")
            polygons = list(root.iter(f"{SVG_NS}polygon"))
            if not polygons:
                raise CheckError("svg has no operator areas")
            for polygon in polygons:
                _equal(len(polygon.get("points", "").split()), 2 * len(values), "svg area vertices")
            top_wh = max(self.cost(t, op["hardware"], op["mu"])[2] for t in totals)
            labels = {el.text for el in root.iter(f"{SVG_NS}text")}
            if f"{top_wh:.3g} Wh" not in labels:
                raise CheckError(f"svg has no {top_wh:.3g} Wh axis label")

    def check_calibration(self, op: dict, records, fit, report) -> None:
        """calibrate-fit: records read, the mu fit, and the validation errors."""
        want = self.fit(op["hardware"], op["csv"])
        self.check_fit(want, len(records), fit.mu, fit.intercept_s, fit.r_squared)
        hw = self.hardware[op["hardware"]]
        pred = [x / fit.mu for x in want.x]
        mpe_latency = 100.0 / len(pred) * sum(abs(p - m) / m for p, m in zip(pred, want.y))
        pred_wh = [hw["p_max"] * p / 3600.0 for p in pred]
        mpe_energy = 100.0 / len(pred) * sum(abs(p - m) / m for p, m in zip(pred_wh, want.gpu_wh))
        _equal(len(report.per_point_errors), want.records, "validated points")
        _close(report.mpe_latency_pct, mpe_latency, "mpe_latency_pct", rel=FIT_REL_TOL)
        _close(report.mpe_energy_pct, mpe_energy, "mpe_energy_pct", rel=FIT_REL_TOL)

    def check_fit(self, want: SimpleNamespace, records: int, mu, intercept_s, r_squared,
                  abs_tol: float = 0.0) -> None:
        _equal(records, want.records, "records")
        _close(mu, want.mu, "mu", rel=FIT_REL_TOL, abs_tol=abs_tol)
        _close(intercept_s, want.intercept_s, "intercept_s", rel=FIT_REL_TOL,
               abs_tol=max(abs_tol, FIT_REL_TOL * max(want.y)))
        _close(r_squared, want.r_squared, "r_squared", rel=FIT_REL_TOL, abs_tol=abs_tol)

    # --- CLI outputs ---

    def check_cli(self, op: dict, returncode: int, stdout: str, stderr: str) -> None:
        if "Traceback" in stderr:
            raise CheckError(f"traceback on stderr: {stderr.strip().splitlines()[-1]}")
        if returncode != 0:
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            raise CheckError(f"exit code {returncode}: {last}")
        try:
            getattr(self, "_cli_" + op["kind"].split("-")[0])(op, stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise CheckError(f"{op['kind']} output does not parse: {exc!r}") from None

    def _cli_estimate(self, op: dict, out: str) -> None:
        total = self.flops(op["job"])
        latency_s, _, energy_wh = self.cost(total, op["hardware"], op["mu"])
        if op["format"] == "json":
            doc = json.loads(out)
            flops = dict(doc["flops"])
            _equal(sum(flops.values()) - flops["total"], total, "operator flops sum")
            self.check_cost(flops["total"], doc["latency_s"], doc["energy_j"], doc["energy_wh"], total,
                            op["hardware"], op["mu"], "estimate")
        elif op["format"] == "csv":
            rows = {r["operator"]: r for r in csv.DictReader(io.StringIO(out))}
            _equal(sum(int(r["flops"]) for k, r in rows.items() if k != "total"), total, "operator flops sum")
            row = rows["total"]
            self.check_cost(row["flops"], row["latency_s"], None, row["energy_wh"], total,
                            op["hardware"], op["mu"], "estimate")
        else:
            cells = next(line.split() for line in out.splitlines() if line.split()[:1] == ["total"])
            _close(cells[1], total, "table flops", rel=1e-4)
            _close(cells[3], latency_s, "table latency_s", abs_tol=0.0051)
            _close(cells[4], energy_wh, "table energy_wh", abs_tol=0.00051)

    def _cli_roofline(self, op: dict, out: str) -> None:
        names = [op["hardware"]] if op["hardware"] else list(self.hardware)
        if op["format"] == "table":
            rows = {line.split()[0]: line.split() for line in out.splitlines()[2:] if line.strip()}
            rows = {name: {"balance": c[3], "attn_threshold": c[4], "mlp_threshold": c[5]}
                    for name, c in rows.items()}
        elif op["format"] == "json":
            rows = {r["name"]: r for r in json.loads(out)}
        else:
            rows = {r["name"]: r for r in csv.DictReader(io.StringIO(out))}
        _equal(sorted(rows), sorted(names), "roofline rows")
        for name in names:
            beta, attn_thr, mlp_thr = self.thresholds(name)
            row = rows[name]
            _equal((int(row["attn_threshold"]), int(row["mlp_threshold"])), (attn_thr, mlp_thr),
                   f"{name} thresholds")
            _close(row["balance"], beta, f"{name} balance", abs_tol=0.5 if op["format"] == "table" else 0.0)

    def _cli_compare(self, op: dict, out: str) -> None:
        want = {}
        for m in self.measurements:
            want[m["model_id"]] = sum(float(m[k]) for k in ("gpu_wh", "cpu_wh", "ram_wh"))
        order = sorted(want, key=lambda k: (-want[k], k))
        if op["format"] == "table":
            rows = [line.split() for line in out.splitlines()[2:2 + len(want)]]
            _equal([r[0] for r in rows], order, "compare row order")
            for r in rows:
                _close(r[5], want[r[0]], f"{r[0]} total_wh", rel=5e-4)
            return
        if op["format"] == "json":
            doc = json.loads(out)
            rows, ratios = doc["rows"], [r["ratio"] for r in doc["ratios"]]
        else:
            rows, ratios = list(csv.DictReader(io.StringIO(out))), None
        _equal([r["model_id"] for r in rows], order, "compare row order")
        for r in rows:
            _close(r["total_wh"], want[r["model_id"]], f"{r['model_id']} total_wh")
        if ratios is not None:
            _close(ratios[0], want[order[0]] / want[order[-1]], "energy ratio")

    def _cli_sweep(self, op: dict, out: str) -> None:
        self.check_sweep(op, out.encode("utf-8"))

    def _cli_calibrate(self, op: dict, out: str) -> None:
        want = self.fit(op["hardware"], op["measurements"])
        if op["format"] == "json":
            doc = json.loads(out)
            self.check_fit(want, doc["records"], doc["mu"], doc["intercept_s"], doc["r_squared"])
        elif op["format"] == "csv":
            row = next(csv.DictReader(io.StringIO(out)))
            self.check_fit(want, want.records, row["mu"], row["intercept_s"], row["r_squared"])
        else:
            cells = dict(line.split() for line in out.splitlines() if line.strip())
            self.check_fit(want, int(cells["records"]), cells["mu"], cells["intercept_s"], cells["r_squared"],
                           abs_tol=1.5e-6)
