"""Analytical FLOP, latency, and energy model for text-to-video diffusion inference.

FLOP accounting is exact integer arithmetic over architecture specs; latency
follows the compute-bound model flops / (mu * theta_peak) and energy is
sustained power times latency. The package also ships roofline threshold
math, efficiency calibration from measurements, and sweep/comparison reports.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562) and then cached here, so a
caller pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it: the one list of the package's exports.
_EXPORTS = {name: module for module, names in {
    "calibration": (
        "CalibrationRangeError", "CalibrationResult", "MeasurementRecord", "PointError", "ValidationReport", "fit_mu",
        "load_bundled_measurements", "load_measurements", "read_measurements_csv", "read_measurements_json", "validate",
    ),
    "cost": (
        "OPERATORS", "CostEstimate", "FlopBreakdown", "cost_from_breakdown", "cross_attention_flops",
        "energy", "estimate_cost", "latency", "latent_grid", "mlp_flops", "self_attention_flops",
        "text_encoder_flops", "timestep_flops_per_pass", "token_length", "total_flops",
    ),
    "report": (
        "ComparisonReport", "ComparisonRow", "SweepPoint", "SweepResult", "SweepSpec", "compare_models", "emit",
        "run_sweep",
    ),
    "roofline": (
        "BoundClassification", "attn_intensity", "balance", "balance_consistent", "classify", "mlp_intensity",
        "mlp_saturation_intensity", "mlp_threshold_exact", "thresholds",
    ),
    "specs": (
        "DEFAULT_HARDWARE", "DEFAULT_MODEL_ID", "DiTSpec", "HardwareSpec", "ModelDefaults", "ModelSpec",
        "TextEncoderSpec", "VAEDecoderLayer", "VAEDecoderSchedule", "VideoJob",
        "load_hardware", "load_hardware_db", "load_model_defaults", "load_model_spec",
    ),
    "vae": ("conv3d_flops", "decoder_flops", "mid_attention_flops"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups are plain module-dict hits
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
