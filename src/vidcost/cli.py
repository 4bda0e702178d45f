"""Command-line front end: estimate, sweep, roofline, calibrate, compare.

Data goes to stdout (or --out); diagnostics go to stderr. Exit code 0 on
success, 1 on runtime failures, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Only the spec layer loads with the CLI; each subcommand imports the layers it
# runs, so `vidcost roofline` never loads the cost, calibration or report code.
from .specs import (
    DEFAULT_HARDWARE,
    DEFAULT_MODEL_ID,
    VideoJob,
    load_hardware,
    load_hardware_db,
    load_model_defaults,
    load_model_spec,
)

DEFAULT_MU = 0.456

_FALLBACK_JOB = (720, 1280, 81, 50)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, as a non-positive value is
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _mu_value(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return value


def _resolution(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", default=DEFAULT_MODEL_ID,
                        help="model spec name or JSON path (default: %(default)s)")
    common.add_argument("--hardware", default=None,
                        help=f"hardware name or JSON path (default: {DEFAULT_HARDWARE})")
    common.add_argument("--mu", type=_mu_value, default=DEFAULT_MU,
                        help="sustained-over-peak efficiency in (0, 1] (default: %(default)s)")
    common.add_argument("--format", choices=("table", "csv", "json", "svg"), default=None,
                        help="output format (default depends on subcommand)")
    common.add_argument("--out", type=Path, default=None, help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="vidcost",
        description="Analytical FLOP, latency, and energy estimates for text-to-video diffusion inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", parents=[common], help="cost one generation job")
    est.add_argument("--height", type=_positive_int, default=None)
    est.add_argument("--width", type=_positive_int, default=None)
    est.add_argument("--frames", type=_positive_int, default=None)
    est.add_argument("--steps", type=_positive_int, default=None)
    est.add_argument("--cfg-passes", type=int, choices=(1, 2), default=None)
    est.set_defaults(func=cmd_estimate, default_format="table")

    swp = sub.add_parser("sweep", parents=[common], help="sweep one axis and report per-point costs")
    swp.add_argument("--axis", required=True, choices=("resolution", "frames", "steps"))
    swp.add_argument("--from", dest="start", type=_positive_int, default=None)
    swp.add_argument("--to", dest="stop", type=_positive_int, default=None)
    swp.add_argument("--step", type=_positive_int, default=1)
    swp.add_argument("--values", default=None,
                     help="comma-separated values; for resolution use HxW entries")
    swp.add_argument("--height", type=_positive_int, default=None)
    swp.add_argument("--width", type=_positive_int, default=None)
    swp.add_argument("--frames", type=_positive_int, default=None)
    swp.add_argument("--steps", type=_positive_int, default=None)
    swp.add_argument("--cfg-passes", type=int, choices=(1, 2), default=None)
    swp.set_defaults(func=cmd_sweep, default_format="csv")

    roof = sub.add_parser("roofline", parents=[common],
                          help="hardware balance and compute-bound thresholds")
    roof.set_defaults(func=cmd_roofline, default_format="table")

    cal = sub.add_parser("calibrate", parents=[common], help="fit efficiency from measurements")
    cal.add_argument("--measurements", required=True, type=Path)
    cal.add_argument("--cfg-passes", type=int, choices=(1, 2), default=None)
    cal.set_defaults(func=cmd_calibrate, default_format="table")

    cmp_ = sub.add_parser("compare", parents=[common], help="cross-model energy/latency report")
    cmp_.add_argument("--measurements", type=Path, default=None,
                      help="measurement CSV/JSON (default: bundled dataset)")
    cmp_.add_argument("--defaults", type=Path, default=None,
                      help="model defaults JSON (default: bundled dataset)")
    cmp_.set_defaults(func=cmd_compare, default_format="table")

    return parser


def _write(args, payload: bytes | str) -> None:
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    if args.out is not None:
        args.out.write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(r[i])) for r in [headers] + rows) for i in range(len(headers))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in [headers] + rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _resolve_job(args, model) -> VideoJob:
    height, width, frames, steps = _FALLBACK_JOB
    for d in load_model_defaults():
        if d.model_id == model.model_id:
            height, width, frames, steps = d.height, d.width, d.frames, d.steps
            break
    return VideoJob(
        height_px=args.height if args.height is not None else height,
        width_px=args.width if args.width is not None else width,
        frames=args.frames if args.frames is not None else frames,
        steps=args.steps if args.steps is not None else steps,
        cfg_passes=args.cfg_passes if args.cfg_passes is not None else model.cfg_passes,
    )


def _load_measurements(path: Path):
    """The records of a measurement file; rejected content is a ValueError naming the file."""
    from .calibration import load_measurements

    try:
        return load_measurements(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_context(args):
    model = load_model_spec(args.model)
    hw = load_hardware(args.hardware if args.hardware is not None else DEFAULT_HARDWARE)
    return model, hw


def cmd_estimate(args) -> int:
    from .cost import OPERATORS, estimate_cost, token_length

    model, hw = _load_context(args)
    job = _resolve_job(args, model)
    cost = estimate_cost(job, model, hw, args.mu)
    fmt = args.format or args.default_format
    bd = cost.breakdown
    if fmt == "json":
        doc = {
            "model_id": model.model_id,
            "hardware": hw.name,
            "mu": args.mu,
            "job": {"height_px": job.height_px, "width_px": job.width_px,
                    "frames": job.frames, "steps": job.steps, "cfg_passes": job.cfg_passes},
            "tokens": token_length(job, model.dit),
            "flops": bd.as_dict(),
            "latency_s": cost.latency_s,
            "energy_j": cost.energy_j,
            "energy_wh": cost.energy_wh,
            "operator_latency_s": cost.operator_latency_s,
            "operator_energy_wh": cost.operator_energy_wh,
        }
        _write(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    if fmt == "csv":
        lines = ["operator,flops,latency_s,energy_wh"]
        for op in OPERATORS:
            lines.append(f"{op},{getattr(bd, op)},{cost.operator_latency_s[op]},{cost.operator_energy_wh[op]}")
        lines.append(f"total,{bd.total},{cost.latency_s},{cost.energy_wh}")
        _write(args, "\n".join(lines) + "\n")
        return 0
    if fmt == "table":
        rows = [[op, f"{getattr(bd, op):.4e}", f"{getattr(bd, op) / bd.total * 100:6.2f}%",
                 f"{cost.operator_latency_s[op]:.2f}", f"{cost.operator_energy_wh[op]:.3f}"]
                for op in OPERATORS]
        rows.append(["total", f"{bd.total:.4e}", "100.00%",
                     f"{cost.latency_s:.2f}", f"{cost.energy_wh:.3f}"])
        head = (
            f"model     {model.model_id}\n"
            f"hardware  {hw.name} (mu={args.mu})\n"
            f"job       {job.height_px}x{job.width_px}, {job.frames} frames, "
            f"{job.steps} steps, {job.cfg_passes} cfg passes\n"
            f"tokens    {token_length(job, model.dit)}\n\n"
        )
        _write(args, head + _table(["operator", "flops", "share", "latency_s", "energy_wh"], rows))
        return 0
    print(f"error: format {fmt!r} not supported by estimate", file=sys.stderr)
    return 2


def _sweep_values(args):
    """The swept values. A malformed --values entry raises ArgumentTypeError, a usage error."""
    if args.axis == "resolution" and args.values is None:
        raise ValueError("resolution sweeps need --values with HxW entries")
    if args.values is not None:
        parse = _resolution if args.axis == "resolution" else _positive_int
        try:
            return tuple(parse(v) for v in args.values.split(","))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"--values: {exc}") from None
    if args.start is None or args.stop is None:
        raise ValueError("sweep needs --from/--to (or --values)")
    return tuple(range(args.start, args.stop + 1, args.step))


def cmd_sweep(args) -> int:
    from .report import SweepSpec, emit, run_sweep

    model, hw = _load_context(args)
    fixed = _resolve_job(args, model)
    sweep = SweepSpec(axis=args.axis, values=_sweep_values(args), fixed=fixed,
                      mu=args.mu, hardware=hw)
    result = run_sweep(sweep, model)
    fmt = args.format or args.default_format
    if fmt == "table":
        rows = [[str(p.axis_value) if not isinstance(p.axis_value, tuple)
                 else f"{p.axis_value[0]}x{p.axis_value[1]}",
                 str(p.tokens), f"{p.breakdown.total:.4e}",
                 f"{p.cost.latency_s:.2f}", f"{p.cost.energy_wh:.3f}"]
                for p in result.points]
        _write(args, _table([args.axis, "tokens", "flops_total", "latency_s", "energy_wh"], rows))
        return 0
    _write(args, emit(result, fmt))
    return 0


def cmd_roofline(args) -> int:
    from .roofline import balance, thresholds

    if args.hardware is not None:
        entries = [load_hardware(args.hardware)]
    else:
        entries = list(load_hardware_db().values())
    fmt = args.format or args.default_format
    rows = []
    for hw in entries:
        attn_thr, mlp_thr = thresholds(hw)
        rows.append({
            "name": hw.name,
            "theta_peak_tflops": hw.theta_peak / 1e12,
            "bandwidth_tbps": hw.bandwidth / 1e12,
            "balance": balance(hw),
            "attn_threshold": attn_thr,
            "mlp_threshold": mlp_thr,
            "consistent": hw.balance_consistent,
            "reference_balance": hw.reference_balance,
        })
    if fmt == "json":
        _write(args, json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return 0
    if fmt == "csv":
        lines = ["name,theta_peak_tflops,bandwidth_tbps,balance,attn_threshold,mlp_threshold,consistent"]
        for r in rows:
            lines.append(f"{r['name']},{r['theta_peak_tflops']},{r['bandwidth_tbps']},"
                         f"{r['balance']},{r['attn_threshold']},{r['mlp_threshold']},{r['consistent']}")
        _write(args, "\n".join(lines) + "\n")
        return 0
    if fmt == "table":
        table_rows = []
        for r in rows:
            note = ""
            if not r["consistent"]:
                note = f"published balance {r['reference_balance']} inconsistent with computed"
            table_rows.append([r["name"], f"{r['theta_peak_tflops']:.0f}", f"{r['bandwidth_tbps']:.2f}",
                               f"{r['balance']:.0f}", str(r["attn_threshold"]), str(r["mlp_threshold"]), note])
        _write(args, _table(["name", "tflops", "tb_per_s", "balance", "attn_thr", "mlp_thr", "note"],
                            table_rows))
        return 0
    print(f"error: format {fmt!r} not supported by roofline", file=sys.stderr)
    return 2


def cmd_calibrate(args) -> int:
    from .calibration import fit_mu

    model, hw = _load_context(args)
    records = _load_measurements(args.measurements)
    # Every record is fitted against --model, whatever model it names.
    others = [r.model_id for r in records if r.model_id != model.model_id]
    if others:
        print(f"warning: {len(others)} of {len(records)} records name a model other than "
              f"{model.model_id}: {', '.join(sorted(set(others)))}", file=sys.stderr)
    cfg = args.cfg_passes if args.cfg_passes is not None else model.cfg_passes
    result = fit_mu(records, model.dit, model.text_encoder, model.vae, hw, cfg_passes=cfg)
    fmt = args.format or args.default_format
    if fmt == "json":
        doc = {"mu": result.mu, "intercept_s": result.intercept_s, "r_squared": result.r_squared,
               "records": len(records)}
        _write(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    if fmt == "csv":
        _write(args, "mu,intercept_s,r_squared\n"
               f"{result.mu},{result.intercept_s},{result.r_squared}\n")
        return 0
    if fmt == "table":
        _write(args,
               f"mu           {result.mu:.6f}\n"
               f"intercept_s  {result.intercept_s:.6f}\n"
               f"r_squared    {result.r_squared:.6f}\n"
               f"records      {len(records)}\n")
        return 0
    print(f"error: format {fmt!r} not supported by calibrate", file=sys.stderr)
    return 2


def cmd_compare(args) -> int:
    from .calibration import load_bundled_measurements
    from .report import compare_models, emit

    defaults = load_model_defaults(args.defaults)
    if args.measurements is not None:
        records = _load_measurements(args.measurements)
    else:
        records = load_bundled_measurements()
    report = compare_models(defaults, records)
    fmt = args.format or args.default_format
    if fmt == "table":
        rows = [[r.model_id, f"{r.latency_s:g}", f"{r.gpu_wh:g}", f"{r.cpu_wh:g}", f"{r.ram_wh:g}",
                 f"{r.total_wh:.4g}", f"{r.gpu_share * 100:.1f}%"] for r in report.rows]
        text = _table(["model", "latency_s", "gpu_wh", "cpu_wh", "ram_wh", "total_wh", "gpu_share"], rows)
        for (a, b), ratio in sorted(report.ratios.items()):
            text += f"\ntotal energy ratio {a} / {b} ≈ {ratio:.0f}×\n"
        _write(args, text)
        return 0
    _write(args, emit(report, fmt))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError, OverflowError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"{exc.filename}: {exc.strerror}"  # its first argument is the errno
        else:
            message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
