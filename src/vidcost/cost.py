"""Token geometry, per-operator FLOP formulas, and latency/energy conversion.

FLOP counts are exact Python integers (one multiply-add = two FLOPs; biases,
norms, and softmax are lower order and not accounted). Latency and energy are
double-precision floats derived from the compute-bound model
``latency = flops / (mu * theta_peak)`` and ``energy = p_max * latency``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import (
    DiTSpec,
    HardwareSpec,
    ModelSpec,
    TextEncoderSpec,
    VAEDecoderSchedule,
    VideoJob,
    ceil_div,
    exact_div,
)
from .vae import decoder_flops

# Operator keys, in report order. The first three are once per video; the
# rest accumulate over all guided denoising steps.
OPERATORS = ("text", "vae_conv", "vae_mid_attn", "self_attn", "cross_attn", "mlp", "timestep")

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class FlopBreakdown:
    """Per-operator FLOPs for one generated video.

    ``self_attn``, ``cross_attn``, ``mlp``, and ``timestep`` already include
    the cfg_passes * steps multiplier; ``text`` and the VAE fields are once
    per video. ``total`` is the exact integer sum.
    """

    text: int
    vae_conv: int
    vae_mid_attn: int
    self_attn: int
    cross_attn: int
    mlp: int
    timestep: int
    total: int

    def __post_init__(self) -> None:
        parts = sum(getattr(self, op) for op in OPERATORS)
        if parts != self.total:
            raise ValueError(f"total {self.total} != sum of operators {parts}")

    def per_operator(self) -> dict[str, int]:
        return {op: getattr(self, op) for op in OPERATORS}

    def as_dict(self) -> dict[str, int]:
        out = self.per_operator()
        out["total"] = self.total
        return out


@dataclass(frozen=True)
class CostEstimate:
    """Latency/energy prediction with per-operator shares prorated by FLOPs."""

    breakdown: FlopBreakdown
    latency_s: float
    energy_j: float
    energy_wh: float
    operator_latency_s: dict[str, float]
    operator_energy_wh: dict[str, float]


def latent_grid(job: VideoJob, spec: DiTSpec) -> tuple[int, int, int]:
    """Latent grid (temporal, height, width) in tokens.

    The first frame maps to its own latent slice, every later group of
    ``vae_t_down`` frames to one more; spatial dims divide by the VAE stride
    times the patch size, rounding up when not exact.
    """
    latent_t = 1 + ceil_div(job.frames - 1, spec.vae_t_down)
    tokens_h = ceil_div(job.height_px, spec.vae_s_down * spec.patch_h)
    tokens_w = ceil_div(job.width_px, spec.vae_s_down * spec.patch_w)
    return latent_t, tokens_h, tokens_w


def token_length(job: VideoJob, spec: DiTSpec) -> int:
    """Number of latent tokens the transformer processes per forward pass."""
    latent_t, tokens_h, tokens_w = latent_grid(job, spec)
    return latent_t * tokens_h * tokens_w


def _require_tokens(tokens: int) -> None:
    if tokens < 1:
        raise ValueError("tokens must be at least 1")


def self_attention_flops(tokens: int, spec: DiTSpec) -> int:
    """Self-attention FLOPs over all layers: N * (8*l*d^2 + 4*l^2*d).

    Q/K/V/output projections give the 8*l*d^2 term, the two attention matmuls
    the 4*l^2*d term; head count cancels and is not a parameter.
    """
    _require_tokens(tokens)
    d = spec.hidden
    return spec.layers * (8 * tokens * d * d + 4 * tokens * tokens * d)


def cross_attention_flops(tokens: int, spec: DiTSpec) -> int:
    """Cross-attention FLOPs over all layers: N * (4*l*d^2 + 4*m*d^2 + 4*l*m*d).

    Text keys/values are recomputed every pass (no KV cache), matching the
    default accounting.
    """
    _require_tokens(tokens)
    if spec.kv_cache:
        raise NotImplementedError("cached cross-attention accounting is reserved but not implemented")
    d = spec.hidden
    m = spec.text_tokens
    return spec.layers * (4 * tokens * d * d + 4 * m * d * d + 4 * tokens * m * d)


def mlp_flops(tokens: int, spec: DiTSpec) -> int:
    """Feed-forward FLOPs over all layers: N * 4*f*l*d^2, exact."""
    _require_tokens(tokens)
    numerator, denominator = spec.mlp_coefficient
    return exact_div(numerator * tokens, denominator, "mlp FLOP count")


def timestep_flops_per_pass(spec: DiTSpec) -> int:
    """Timestep-embedding MLP FLOPs for one forward pass: 2*d_tau*d + 14*d^2."""
    d = spec.hidden
    return 2 * spec.timestep_hidden * d + 14 * d * d


def text_encoder_flops(tspec: TextEncoderSpec) -> int:
    """Text-encoder FLOPs per video: p * L * (8*m*d^2 + 4*m^2*d + 4*f*m*d^2).

    A per-spec constant, computed once by ``TextEncoderSpec.flops_per_video``.
    """
    return tspec.flops_per_video


def total_flops(
    job: VideoJob,
    spec: DiTSpec,
    tspec: TextEncoderSpec,
    vae: VAEDecoderSchedule,
) -> FlopBreakdown:
    """Compose all operators into the per-video breakdown.

    Transformer operators are multiplied by cfg_passes * steps; the text
    encoder and VAE decoder run once per video.
    """
    tokens = token_length(job, spec)
    passes = job.cfg_passes * job.steps
    self_attn = passes * self_attention_flops(tokens, spec)
    cross_attn = passes * cross_attention_flops(tokens, spec)
    mlp = passes * mlp_flops(tokens, spec)
    timestep = passes * timestep_flops_per_pass(spec)
    text = text_encoder_flops(tspec)
    vae_conv, vae_mid_attn = decoder_flops(job, vae)
    total = text + vae_conv + vae_mid_attn + self_attn + cross_attn + mlp + timestep
    return FlopBreakdown(
        text=text,
        vae_conv=vae_conv,
        vae_mid_attn=vae_mid_attn,
        self_attn=self_attn,
        cross_attn=cross_attn,
        mlp=mlp,
        timestep=timestep,
        total=total,
    )


def latency(flops: int, hw: HardwareSpec, mu: float) -> float:
    """Predicted seconds under the compute-bound model: flops / (mu * theta_peak)."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    return flops / (mu * hw.theta_peak)


def energy(latency_s: float, hw: HardwareSpec) -> tuple[float, float]:
    """(joules, watt-hours) at sustained power p_max for the given duration."""
    if latency_s < 0:
        raise ValueError("latency_s must be non-negative")
    joules = hw.p_max * latency_s
    return joules, joules / SECONDS_PER_HOUR


def cost_from_breakdown(breakdown: FlopBreakdown, hw: HardwareSpec, mu: float) -> CostEstimate:
    """Convert a FLOP breakdown into latency/energy with prorated operator shares."""
    latency_s = latency(breakdown.total, hw, mu)
    energy_j, energy_wh = energy(latency_s, hw)
    total = breakdown.total
    op_latency = {op: latency_s * flops / total for op, flops in breakdown.per_operator().items()}
    op_energy = {op: energy_wh * flops / total for op, flops in breakdown.per_operator().items()}
    return CostEstimate(
        breakdown=breakdown,
        latency_s=latency_s,
        energy_j=energy_j,
        energy_wh=energy_wh,
        operator_latency_s=op_latency,
        operator_energy_wh=op_energy,
    )


def estimate_cost(job: VideoJob, model: ModelSpec, hw: HardwareSpec, mu: float) -> CostEstimate:
    """One-call prediction for a job under a model spec."""
    breakdown = total_flops(job, model.dit, model.text_encoder, model.vae)
    return cost_from_breakdown(breakdown, hw, mu)
