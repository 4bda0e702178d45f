"""Architecture, job, and hardware descriptions that parameterize the cost model.

All spec types are frozen dataclasses: they validate on construction and are
safe to share across threads. Model specs (transformer + text encoder + VAE
decoder schedule) load from a single JSON config file; a spec for
``wan2.1-t2v-1.3b`` ships with the package, as does a small database of
accelerator constants.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path

DATA_DIR_ENV = "VIDCOST_DATA_DIR"

DEFAULT_MODEL_ID = "wan2.1-t2v-1.3b"
DEFAULT_HARDWARE = "h100"


def exact_div(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator, which must be an integer so FLOP counts stay exact."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ValueError(f"{what} is not an integer FLOP count ({Fraction(numerator, denominator)})")
    return quotient


def as_fraction(value: int | float | str | Fraction) -> Fraction:
    """Convert a config value to an exact Fraction (floats must be exact, e.g. 2.5)."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class VideoJob:
    """A single generation request: output geometry plus sampler settings."""

    height_px: int
    width_px: int
    frames: int
    steps: int
    cfg_passes: int = 2

    def __post_init__(self) -> None:
        # Exact int, so FLOP counts stay ints: bool, float and int-like types are rejected.
        if (type(self.height_px) is not int or type(self.width_px) is not int or type(self.frames) is not int
                or type(self.steps) is not int or type(self.cfg_passes) is not int):
            name = next(f.name for f in fields(self) if type(getattr(self, f.name)) is not int)
            raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.height_px < 16 or self.width_px < 16:
            raise ValueError("height_px and width_px must be at least 16")
        if self.frames < 1:
            raise ValueError("frames must be at least 1")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.cfg_passes not in (1, 2):
            raise ValueError("cfg_passes must be 1 (no guidance) or 2 (guided)")


@dataclass(frozen=True)
class DiTSpec:
    """Diffusion-transformer hyperparameters.

    Field defaults are the WAN2.1-T2V-1.3B values. ``mlp_expansion`` is kept
    as an exact rational so FLOP counts stay exact integers. ``kv_cache``
    reserves cached cross-attention accounting; only the recompute-every-step
    default is implemented.
    """

    layers: int = 32
    hidden: int = 2048
    mlp_expansion: Fraction = Fraction(4)
    text_tokens: int = 512
    timestep_hidden: int = 256
    patch_h: int = 2
    patch_w: int = 2
    vae_t_down: int = 4
    vae_s_down: int = 8
    kv_cache: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "mlp_expansion", as_fraction(self.mlp_expansion))
        for name in ("layers", "hidden", "text_tokens", "timestep_hidden",
                     "patch_h", "patch_w", "vae_t_down", "vae_s_down"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be strictly positive")
        if self.mlp_expansion <= 0:
            raise ValueError("mlp_expansion must be strictly positive")

    @cached_property
    def mlp_ratio(self) -> tuple[int, int]:
        """``mlp_expansion`` as plain integers (p, q) with f = p/q, so per-job
        arithmetic stays on ints and does no Fraction operations."""
        return self.mlp_expansion.numerator, self.mlp_expansion.denominator

    @cached_property
    def mlp_coefficient(self) -> tuple[int, int]:
        """Feed-forward FLOPs per token over all layers, N * 4*f*d^2, as an
        integer (numerator, denominator) pair."""
        p, q = self.mlp_ratio
        return self.layers * 4 * p * self.hidden * self.hidden, q


@dataclass(frozen=True)
class TextEncoderSpec:
    """Text-encoder hyperparameters; defaults are the T5-XXL-style encoder of WAN2.1."""

    layers: int = 24
    hidden: int = 4096
    mlp_expansion: Fraction = Fraction(5, 2)
    tokens: int = 512
    passes_per_video: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "mlp_expansion", as_fraction(self.mlp_expansion))
        for name in ("layers", "hidden", "tokens", "passes_per_video"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be strictly positive")
        if self.mlp_expansion <= 0:
            raise ValueError("mlp_expansion must be strictly positive")

    @cached_property
    def flops_per_video(self) -> int:
        """Text-encoder FLOPs per video: p * L * (8*m*d^2 + 4*m^2*d + 4*f*m*d^2).

        The feed-forward term may involve a fractional expansion factor; the
        per-layer term must still come out integral.
        """
        m = self.tokens
        d = self.hidden
        f = self.mlp_expansion
        ffn = exact_div(4 * f.numerator * m * d * d, f.denominator, "text encoder feed-forward term")
        return self.passes_per_video * self.layers * (8 * m * d * d + 4 * m * m * d + ffn)


class LayerKind(str, Enum):
    CONV3D = "conv3d"
    ATTN2D = "attn2d"


class TimeRule(str, Enum):
    """How a decoder layer's output temporal length derives from the frame count:
    T' = ceil(T / divisor)."""

    def __new__(cls, value: str, divisor: int):
        member = str.__new__(cls, value)
        member._value_ = value
        member.divisor = divisor
        return member

    CEIL_T_OVER_4 = ("ceil_T_over_4", 4)
    CEIL_T_OVER_2 = ("ceil_T_over_2", 2)
    FULL_T = ("full_T", 1)


@dataclass(frozen=True)
class VAEDecoderLayer:
    """One accounted operator row of the VAE decoder.

    ``h_div``/``w_div`` divide the pixel resolution to get the layer's output
    grid (ceiling division when not exact). ``repeat`` multiplies the row, for
    modeling stages with several identical residual convs.
    """

    kind: LayerKind
    c_in: int
    c_out: int
    t_rule: TimeRule
    h_div: int
    w_div: int
    kernel: tuple[int, int, int] | None = None
    repeat: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", LayerKind(self.kind))
        object.__setattr__(self, "t_rule", TimeRule(self.t_rule))
        if self.kernel is not None:
            object.__setattr__(self, "kernel", tuple(int(k) for k in self.kernel))
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be strictly positive")
        if self.h_div < 1 or self.w_div < 1:
            raise ValueError("grid divisors must be strictly positive")
        if self.repeat < 1:
            raise ValueError("repeat must be at least 1")
        if self.kind is LayerKind.CONV3D:
            if self.kernel is None or len(self.kernel) != 3 or min(self.kernel) < 1:
                raise ValueError("conv3d layers need a (k_t, k_h, k_w) kernel with dims >= 1")
        elif self.kernel is not None:
            raise ValueError("attn2d layers have no kernel")

    @cached_property
    def t_div(self) -> int:
        """Temporal grid divisor of ``t_rule``."""
        return self.t_rule.divisor

    @cached_property
    def flops_per_position(self) -> int:
        """Conv rows only: FLOPs per output grid position, repeat * 2 * k_t*k_h*k_w * C_in*C_out."""
        k_t, k_h, k_w = self.kernel
        return self.repeat * 2 * k_t * k_h * k_w * self.c_in * self.c_out


@dataclass(frozen=True)
class VAEDecoderSchedule:
    """Ordered decoder layer rows plus the middle-attention channel width."""

    layers: tuple[VAEDecoderLayer, ...]
    mid_channels: int = 384
    latent_channels: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.mid_channels < 1 or self.latent_channels < 1:
            raise ValueError("channel counts must be strictly positive")

    @cached_property
    def conv_layers(self) -> tuple[VAEDecoderLayer, ...]:
        return tuple(l for l in self.layers if l.kind is LayerKind.CONV3D)


@dataclass(frozen=True)
class HardwareSpec:
    """Accelerator constants: peak throughput (FLOP/s), HBM bandwidth (byte/s),
    sustained power (W), and bytes per scalar for the working precision.

    ``reference_*`` fields carry published values bundled with the hardware
    database for cross-checking; ``balance_consistent`` is False when the
    published balance disagrees with theta_peak / bandwidth.
    """

    name: str
    theta_peak: float
    bandwidth: float
    p_max: float
    scalar_bytes: int = 2
    display_name: str = ""
    reference_balance: int | None = None
    reference_attn_threshold: int | None = None
    reference_mlp_threshold: int | None = None
    balance_consistent: bool = True

    def __post_init__(self) -> None:
        for name in ("theta_peak", "bandwidth", "p_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.theta_peak <= 0 or self.bandwidth <= 0 or self.p_max <= 0:
            raise ValueError("theta_peak, bandwidth, and p_max must be strictly positive")
        if self.scalar_bytes not in (1, 2, 4):
            raise ValueError("scalar_bytes must be 1, 2, or 4")


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to cost one model: DiT, text encoder, VAE schedule."""

    model_id: str
    dit: DiTSpec
    text_encoder: TextEncoderSpec
    vae: VAEDecoderSchedule
    cfg_passes: int = 2

    def __post_init__(self) -> None:
        if self.cfg_passes not in (1, 2):
            raise ValueError("cfg_passes must be 1 or 2")


# --- dict / JSON conversion ---

def _fraction_to_config(value: Fraction):
    if value.denominator == 1:
        return value.numerator
    as_float = value.numerator / value.denominator
    if Fraction(as_float) == value:
        return as_float
    return f"{value.numerator}/{value.denominator}"


def _check_object(data, where: str, allowed, required=()) -> None:
    """Reject a JSON value that is not an object, has a key outside ``allowed``,
    or lacks one of ``required``; the message names ``where`` and the keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    unknown = data.keys() - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")


def _dataclass_from_dict(cls, data, where: str):
    """``cls(**data)`` for a JSON object whose keys are fields of ``cls``."""
    cls_fields = fields(cls)
    _check_object(data, where, [f.name for f in cls_fields], [f.name for f in cls_fields if f.default is MISSING])
    return cls(**data)


def dit_spec_from_dict(data: dict) -> DiTSpec:
    return _dataclass_from_dict(DiTSpec, data, "dit")


def dit_spec_to_dict(spec: DiTSpec) -> dict:
    out = {f.name: getattr(spec, f.name) for f in fields(spec)}
    out["mlp_expansion"] = _fraction_to_config(spec.mlp_expansion)
    return out


def text_encoder_spec_from_dict(data: dict) -> TextEncoderSpec:
    return _dataclass_from_dict(TextEncoderSpec, data, "text_encoder")


def text_encoder_spec_to_dict(spec: TextEncoderSpec) -> dict:
    out = {f.name: getattr(spec, f.name) for f in fields(spec)}
    out["mlp_expansion"] = _fraction_to_config(spec.mlp_expansion)
    return out


def vae_layer_from_dict(data: dict, where: str = "vae layer") -> VAEDecoderLayer:
    return _dataclass_from_dict(VAEDecoderLayer, data, where)


def vae_layer_to_dict(layer: VAEDecoderLayer) -> dict:
    out = {
        "kind": layer.kind.value,
        "c_in": layer.c_in,
        "c_out": layer.c_out,
        "t_rule": layer.t_rule.value,
        "h_div": layer.h_div,
        "w_div": layer.w_div,
        "repeat": layer.repeat,
    }
    if layer.kernel is not None:
        out["kernel"] = list(layer.kernel)
    if layer.label:
        out["label"] = layer.label
    return out


def vae_schedule_from_dict(data: dict) -> VAEDecoderSchedule:
    _check_object(data, "vae", [f.name for f in fields(VAEDecoderSchedule)], ["layers"])
    return VAEDecoderSchedule(
        layers=tuple(vae_layer_from_dict(row, f"vae.layers[{i}]") for i, row in enumerate(data["layers"])),
        mid_channels=data.get("mid_channels", 384),
        latent_channels=data.get("latent_channels", 16),
    )


def vae_schedule_to_dict(schedule: VAEDecoderSchedule) -> dict:
    return {
        "mid_channels": schedule.mid_channels,
        "latent_channels": schedule.latent_channels,
        "layers": [vae_layer_to_dict(l) for l in schedule.layers],
    }


def model_spec_from_dict(data: dict) -> ModelSpec:
    _check_object(data, "model spec", [f.name for f in fields(ModelSpec)],
                  ["model_id", "dit", "text_encoder", "vae"])
    return ModelSpec(
        model_id=data["model_id"],
        dit=dit_spec_from_dict(data["dit"]),
        text_encoder=text_encoder_spec_from_dict(data["text_encoder"]),
        vae=vae_schedule_from_dict(data["vae"]),
        cfg_passes=data.get("cfg_passes", 2),
    )


def model_spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "model_id": spec.model_id,
        "cfg_passes": spec.cfg_passes,
        "dit": dit_spec_to_dict(spec.dit),
        "text_encoder": text_encoder_spec_to_dict(spec.text_encoder),
        "vae": vae_schedule_to_dict(spec.vae),
    }


def hardware_spec_from_dict(data: dict) -> HardwareSpec:
    return _dataclass_from_dict(HardwareSpec, data, "hardware entry")


# --- bundled data and file loading ---

def bundled_data_path(filename: str):
    """Traversable handle on a bundled data file."""
    return resources.files("vidcost.data").joinpath(filename)


def _read_json(source) -> dict | list:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(source.read_text(encoding="utf-8"))


def _search_paths(name: str) -> list:
    """Candidate files for a spec name: env-dir override first, then bundled."""
    candidates = []
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        candidates.append(Path(env_dir) / f"{name}.json")
    candidates.append(bundled_data_path(f"{name}.json"))
    return candidates


def _model_spec_from_file(source) -> ModelSpec:
    """The model spec in ``source``; rejected content is a ValueError naming the file."""
    try:
        return model_spec_from_dict(_read_json(source))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}: {exc}") from exc


def load_model_spec(name_or_path: str | Path = DEFAULT_MODEL_ID) -> ModelSpec:
    """Load a model spec by bundled name, env-dir name, or explicit file path."""
    path = Path(name_or_path)
    if path.suffix == ".json" or path.is_file():
        return _model_spec_from_file(path)
    for candidate in _search_paths(str(name_or_path)):
        try:
            exists = candidate.is_file()
        except OSError:
            exists = False
        if exists:
            return _model_spec_from_file(candidate)
    raise FileNotFoundError(f"no model spec named {name_or_path!r} (set {DATA_DIR_ENV} or pass a path)")


def _hardware_from_entry(data: dict, source) -> HardwareSpec:
    """One hardware entry read from ``source``; a rejected value names the file."""
    try:
        return hardware_spec_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}: {exc}") from exc


def _hardware_from_list(entries, source) -> list[HardwareSpec]:
    """The hardware entries of a JSON list read from ``source``; any other value names the file."""
    if not isinstance(entries, list):
        raise ValueError(f"{source}: expected a JSON list of hardware entries, got {type(entries).__name__}")
    return [_hardware_from_entry(entry, source) for entry in entries]


def load_hardware_db(path: str | Path | None = None) -> dict[str, HardwareSpec]:
    """Load the accelerator database (bundled by default), keyed by entry name."""
    if path is None:
        env_dir = os.environ.get(DATA_DIR_ENV)
        override = Path(env_dir) / "hardware.json" if env_dir else None
        source = override if override is not None and override.is_file() else bundled_data_path("hardware.json")
    else:
        source = Path(path)
    return {spec.name: spec for spec in _hardware_from_list(_read_json(source), source)}


def load_hardware(name_or_path: str | Path = DEFAULT_HARDWARE) -> HardwareSpec:
    """Load one accelerator entry by name, or the sole/first entry of a JSON file."""
    path = Path(name_or_path)
    if path.suffix == ".json" or path.is_file():
        entries = _read_json(path)
        if isinstance(entries, dict):
            return _hardware_from_entry(entries, path)
        specs = _hardware_from_list(entries, path)
        if len(specs) != 1:
            raise ValueError(f"{path} holds {len(specs)} entries; pass a name to pick one")
        return specs[0]
    db = load_hardware_db()
    name = str(name_or_path)
    if name not in db:
        raise KeyError(f"unknown hardware {name!r}; available: {', '.join(sorted(db))}")
    return db[name]
