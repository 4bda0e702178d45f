"""Command-line front end: estimate, sweep, roofline, calibrate, compare.

Data goes to stdout (or --out); diagnostics go to stderr. Exit code 0 on
success, 1 on runtime failures, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

# Only the spec and output layers load with the CLI; each subcommand imports the
# layers it runs, so `vidcost roofline` never loads the cost, calibration or report code.
from . import output
from .specs import (
    DEFAULT_HARDWARE,
    DEFAULT_MODEL_ID,
    SWEEP_AXES,
    VideoJob,
    data_path,
    increasing_along,
    is_path,
    load_hardware,
    load_hardware_db,
    load_model_defaults,
    load_model_spec,
)

DEFAULT_MU = 0.456

_FALLBACK_JOB = (720, 1280, 81, 50)

# The most points a --from/--to range may give; a longer one is rejected before it is built.
MAX_SWEEP_POINTS = 100_000


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, as a non-positive value is
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _mu_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0  # reported below, as an out-of-range value is
    if not 0.0 < value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1], got {text!r}")
    return value


def _resolution(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads: calibrate those of `fit`,
    # estimate and sweep those of `job`, which adds the cost context and the job geometry.
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--model", default=DEFAULT_MODEL_ID,
                     help="model spec name or JSON path (default: %(default)s)")
    fit.add_argument("--hardware", default=DEFAULT_HARDWARE,
                     help="hardware name or JSON path (default: %(default)s)")
    fit.add_argument("--cfg-passes", type=int, choices=(1, 2), default=None)
    job = argparse.ArgumentParser(add_help=False, parents=[fit])
    job.add_argument("--mu", type=_mu_value, default=DEFAULT_MU,
                     help="sustained-over-peak efficiency in (0, 1] (default: %(default)s)")
    for dim in ("--height", "--width", "--frames", "--steps"):
        job.add_argument(dim, type=_positive_int, default=None)

    parser = argparse.ArgumentParser(
        prog="vidcost",
        description="Analytical FLOP, latency, and energy estimates for text-to-video diffusion inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", parents=[job], help="cost one generation job")
    est.set_defaults(func=cmd_estimate)

    swp = sub.add_parser("sweep", parents=[job], help="sweep one axis and report per-point costs")
    swp.add_argument("--axis", required=True, choices=SWEEP_AXES)
    swp.add_argument("--from", dest="start", type=_positive_int, default=None)
    swp.add_argument("--to", dest="stop", type=_positive_int, default=None)
    swp.add_argument("--step", type=_positive_int, default=1)
    swp.add_argument("--values", default=None,
                     help="comma-separated values; for resolution use HxW entries")
    swp.set_defaults(func=cmd_sweep)

    roof = sub.add_parser("roofline", help="hardware balance and compute-bound thresholds")
    roof.add_argument("--hardware", default=None,
                      help="hardware name, or a JSON file whose entries are all listed (default: every entry "
                           "of hardware.json)")
    roof.set_defaults(func=cmd_roofline)

    cal = sub.add_parser("calibrate", parents=[fit], help="fit efficiency from measurements")
    cal.add_argument("--measurements", required=True, type=Path)
    cal.set_defaults(func=cmd_calibrate)

    cmp_ = sub.add_parser("compare", help="cross-model energy/latency report")
    cmp_.add_argument("--measurements", type=Path, default=None,
                      help="measurement CSV/JSON (default: benchmark_measurements.csv)")
    cmp_.add_argument("--defaults", type=Path, default=None,
                      help="model defaults JSON (default: model_defaults.json)")
    cmp_.set_defaults(func=cmd_compare)

    text, charted = output.FORMATS, (*output.FORMATS, "svg")
    for cmd, formats, default in ((est, text, "table"), (swp, charted, "csv"), (roof, text, "table"),
                                  (cal, text, "table"), (cmp_, charted, "table")):
        cmd.add_argument("--format", choices=formats, default=default, help="output format (default: %(default)s)")
        cmd.add_argument("--out", type=Path, default=None, help="write output to a file instead of stdout")
        cmd.set_defaults(subparser=cmd)
    return parser


def _write(args, payload: bytes | str) -> None:
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    if args.out is not None:
        args.out.write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _resolve_job(args, model) -> VideoJob:
    """The job the flags give, each dimension left out taken from the model's defaults entry."""
    entry = {d.model_id: d for d in load_model_defaults()}.get(model.model_id)
    fallback = _FALLBACK_JOB if entry is None else (entry.height, entry.width, entry.frames, entry.steps)
    given = (args.height, args.width, args.frames, args.steps, args.cfg_passes)
    return VideoJob(*(g if g is not None else f for g, f in zip(given, (*fallback, model.cfg_passes))))


def _measured(path, use):
    """``use`` of the records of a measurement file; a ValueError either raises names the file."""
    from .calibration import load_measurements

    try:
        return use(load_measurements(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_estimate(args) -> int:
    from .cost import estimate_cost

    model, hw = load_model_spec(args.model), load_hardware(args.hardware)
    job = _resolve_job(args, model)
    _write(args, output.estimate(model, hw, job, args.mu, estimate_cost(job, model, hw, args.mu), args.format))
    return 0


def _sweep_values(args):
    """The swept values; flags that give none, or a malformed or unordered --values, raise ArgumentTypeError (usage)."""
    if args.axis == "resolution" and args.values is None:
        raise argparse.ArgumentTypeError("resolution sweeps need --values with HxW entries")
    if args.values is not None:
        parse = _resolution if args.axis == "resolution" else _positive_int
        try:
            return increasing_along(args.axis, tuple(parse(v) for v in args.values.split(",")))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"--values: {exc}") from None
    if args.start is None or args.stop is None:
        raise argparse.ArgumentTypeError("sweep needs --from/--to (or --values)")
    if args.start > args.stop:
        raise argparse.ArgumentTypeError(f"--from {args.start} is above --to {args.stop}")
    points = (args.stop - args.start) // args.step + 1
    if points > MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(f"--from {args.start} --to {args.stop} gives {points} points, "
                                         f"above the limit of {MAX_SWEEP_POINTS}")
    return tuple(range(args.start, args.stop + 1, args.step))


def cmd_sweep(args) -> int:
    from .report import SweepSpec, emit, run_sweep

    values = _sweep_values(args)  # a usage error is reported before any file is read
    for dim in (field.removesuffix("_px") for field in SWEEP_AXES[args.axis]):  # the swept axis's own flags
        if (given := getattr(args, dim)) is not None:
            print(f"warning: --{dim} {given} is overridden by the {args.axis} sweep", file=sys.stderr)
            setattr(args, dim, None)  # the fixed job takes the default, which the sweep replaces
    model, hw = load_model_spec(args.model), load_hardware(args.hardware)
    sweep = SweepSpec(axis=args.axis, values=values, fixed=_resolve_job(args, model), mu=args.mu, hardware=hw)
    _write(args, emit(run_sweep(sweep, model), args.format))
    return 0


def cmd_roofline(args) -> int:
    if args.hardware is not None and not is_path(args.hardware):
        entries = [load_hardware(args.hardware)]
    else:
        entries = list(load_hardware_db(args.hardware).values())
    _write(args, output.roofline(entries, args.format))
    return 0


def cmd_calibrate(args) -> int:
    from .calibration import fit_mu

    model, hw = load_model_spec(args.model), load_hardware(args.hardware)
    cfg = args.cfg_passes if args.cfg_passes is not None else model.cfg_passes

    def fit(records):
        # Every record is fitted against --model, whatever model it names.
        others = [r.model_id for r in records if r.model_id != model.model_id]
        if others:
            print(f"warning: {len(others)} of {len(records)} records name a model other than "
                  f"{model.model_id}: {', '.join(sorted(set(others)))}", file=sys.stderr)
        return fit_mu(records, model.dit, model.text_encoder, model.vae, hw, cfg_passes=cfg), len(records)

    _write(args, output.calibration(*_measured(args.measurements, fit), args.format))
    return 0


def cmd_compare(args) -> int:
    from .calibration import MEASUREMENTS_FILE
    from .report import compare_models, emit

    defaults = load_model_defaults(args.defaults)
    path = args.measurements if args.measurements is not None else data_path(MEASUREMENTS_FILE)
    _write(args, emit(_measured(path, partial(compare_models, defaults)), args.format))
    return 0


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported by the subcommand, under its own usage line
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError, OverflowError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"{exc.filename}: {exc.strerror}"  # its first argument is the errno
        else:  # the text of the exception, but a KeyError's unquoted
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
