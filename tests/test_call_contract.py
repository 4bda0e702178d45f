"""The call structure that the benchmark's tracing relies on.

``perfbench/tracing.py`` wraps every function in its ``TRACED`` table and
derives counts from the spans: ``vae.rows`` is one ``conv3d_flops`` span per
VAE output grid, a row of ``VAEDecoderSchedule.conv_grids``,
``roofline.thresholds_us`` needs ``classify`` to call ``thresholds``, and a
traced run fails when a traced layer records nothing. These tests pin that
structure, so a hot-path trim that inlines one of those functions fails here
and not only in a traced benchmark run.
"""

import importlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

from vidcost import (
    SweepSpec,
    VAEDecoderSchedule,
    VideoJob,
    classify,
    estimate_cost,
    fit_mu,
    load_hardware,
    load_model_spec,
    read_measurements_csv,
    run_sweep,
    token_length,
    total_flops,
    validate,
)
from vidcost.roofline import thresholds
from vidcost.vae import conv3d_flops, mid_attention_flops

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_functions() -> dict[str, object]:
    """perfbench's TRACED table, as {"module.name": function}."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = {}
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"vidcost.{module_name}")
        out.update({f"{module_name}.{name}": getattr(module, name) for name in names})
    return out


def calls(fn) -> Counter:
    """How often ``fn()`` enters each Python function, keyed by code object."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def measurements_csv(wan, h100, steps=(10, 20, 40, 80, 160)) -> str:
    rows = ["model_id,height,width,frames,steps,latency_s"]
    for s in steps:
        flops = total_flops(VideoJob(720, 1280, 81, s), wan.dit, wan.text_encoder, wan.vae).total
        rows.append(f"wan2.1-t2v-1.3b,720,1280,81,{s},{flops / (0.5 * h100.theta_peak) + 3.0}")
    return "\n".join(rows) + "\n"


def test_estimate_cost_calls_conv3d_once_per_output_grid(wan, h100):
    """11 conv rows on 6 grids in the bundled spec; with no two rows on one grid, once per row."""
    job = VideoJob(720, 1280, 81, 50)
    counts = calls(lambda: estimate_cost(job, wan, h100, 0.456))
    assert counts[conv3d_flops.__code__] == len(wan.vae.conv_grids) == 6
    assert counts[mid_attention_flops.__code__] == 1
    assert counts[total_flops.__code__] == 1
    rows = [row.replace(h_div=i + 1) for i, row in enumerate(wan.vae.layers)]  # 12 distinct grids
    apart = wan.replace(vae=VAEDecoderSchedule(layers=tuple(rows)))
    assert calls(lambda: estimate_cost(job, apart, h100, 0.456))[conv3d_flops.__code__] == 11


def test_classify_calls_thresholds_once(wan, h100):
    counts = calls(lambda: classify(75_600, h100, wan.dit))
    assert counts[thresholds.__code__] == 1


def test_fit_and_validate_call_total_flops_once_per_record(wan, h100):
    """A record keeps its FLOP total under the last model it was predicted
    under: validating after a fit on the same model recomputes none, and another
    cfg_passes, another spec or a fresh copy of the records recomputes each."""
    text = measurements_csv(wan, h100)
    records = read_measurements_csv(io.StringIO(text))
    assert len(records) == 5
    rest = (wan.text_encoder, wan.vae, h100)

    def flops_calls(fn):
        return calls(fn)[total_flops.__code__]

    assert flops_calls(lambda: fit_mu(records, wan.dit, *rest)) == 5
    assert flops_calls(lambda: validate(records, 0.5, wan.dit, *rest)) == 0
    assert flops_calls(lambda: validate(records, 0.5, wan.dit, *rest, cfg_passes=1)) == 5
    validate(records, 0.5, wan.dit, *rest)  # back to the fitted model
    assert flops_calls(lambda: validate(records, 0.5, wan.dit.replace(layers=16), *rest)) == 5
    fresh = read_measurements_csv(io.StringIO(text))
    assert flops_calls(lambda: validate(fresh, 0.5, wan.dit, *rest)) == 5


def test_every_traced_function_is_reached(wan, h100):
    text = measurements_csv(wan, h100)
    job = VideoJob(720, 1280, 81, 50)

    def workloads():
        model, hw = load_model_spec(), load_hardware("h100")
        estimate_cost(job, model, hw, 0.456)
        classify(token_length(job, model.dit), hw, model.dit)
        records = read_measurements_csv(io.StringIO(text))
        fit = fit_mu(records, model.dit, model.text_encoder, model.vae, hw)
        validate(records, fit.mu, model.dit, model.text_encoder, model.vae, hw)
        run_sweep(SweepSpec("steps", (10, 20), job, 0.456, hw), model)

    counts = calls(workloads)
    traced = traced_functions()
    assert len(traced) >= 20
    assert [name for name, fn in traced.items() if not counts[fn.__code__]] == []
