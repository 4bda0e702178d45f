"""Token geometry, per-operator FLOP formulas, and latency/energy conversion.

FLOP counts are exact Python integers (one multiply-add = two FLOPs; biases,
norms, and softmax are lower order and not accounted). Latency and energy are
double-precision floats derived from the compute-bound model
``latency = flops / (mu * theta_peak)`` and ``energy = p_max * latency``.
"""

from __future__ import annotations

import math
from functools import cached_property

from .specs import (_MAX, DiTSpec, HardwareSpec, ModelSpec, Record, TextEncoderSpec, VAEDecoderSchedule, VideoJob,
                    exact_div)
from .vae import decoder_flops

SECONDS_PER_HOUR = 3600.0


class FlopBreakdown(Record):
    """Per-operator FLOPs for one generated video, one field per operator in report order.

    ``self_attn``, ``cross_attn``, ``mlp``, and ``timestep`` already include
    the cfg_passes * steps multiplier and ``text`` the cfg_passes one; the VAE
    fields are once per video. ``total``, their exact integer sum, is derived.
    """

    def __init__(self, text: int, vae_conv: int, vae_mid_attn: int, self_attn: int, cross_attn: int, mlp: int,
                 timestep: int) -> None:
        # Hand-written rather than the generic one, as VideoJob's is: a breakdown is built per job,
        # and every one has its total read, so it is summed here and not in a cached property.
        values = self.__dict__
        values["text"], values["vae_conv"], values["vae_mid_attn"] = text, vae_conv, vae_mid_attn
        values["self_attn"], values["cross_attn"], values["mlp"] = self_attn, cross_attn, mlp
        values["timestep"] = timestep
        values["total"] = text + vae_conv + vae_mid_attn + self_attn + cross_attn + mlp + timestep

    def per_operator(self) -> dict[str, int]:
        return dict(zip(OPERATORS, self._values()))

    def as_dict(self) -> dict[str, int]:
        return {**self.per_operator(), "total": self.total}


# Operator keys, in report order: FlopBreakdown's fields.
OPERATORS = tuple(FlopBreakdown._fields)


class CostEstimate(Record):
    """Latency/energy prediction; its per-operator shares are derived, prorated by FLOPs."""

    def __init__(self, breakdown: FlopBreakdown, latency_s: float, energy_j: float, energy_wh: float) -> None:
        values = self.__dict__  # filled a field at a time, as VideoJob's
        values["breakdown"], values["latency_s"] = breakdown, latency_s
        values["energy_j"], values["energy_wh"] = energy_j, energy_wh

    @cached_property
    def operator_latency_s(self) -> dict[str, float]:
        return self._prorated(self.latency_s)

    @cached_property
    def operator_energy_wh(self) -> dict[str, float]:
        return self._prorated(self.energy_wh)

    def _prorated(self, amount: float) -> dict[str, float]:
        """``amount`` split over the operators by their share of the FLOP total."""
        total, parts = self.breakdown.total, self.breakdown._values()
        if (self.latency_s + self.energy_wh) * total > 1e308:  # amount * flops may overflow, though no share does
            total, parts = 1, [flops / total for flops in parts]
        return {op: amount * flops / total for op, flops in zip(OPERATORS, parts)}


def latent_grid(job: VideoJob, spec: DiTSpec) -> tuple[int, int, int]:
    """Latent grid (temporal, height, width) in tokens.

    The first frame maps to its own latent slice, every later group of
    ``vae_t_down`` frames to one more; spatial dims divide by the VAE stride
    times the patch size, rounding up when not exact.
    """
    t, t_add, h, h_add, w, w_add = spec.latent_strides  # ceilings as (n + addend) // d, the addends per model
    return 1 + (job.frames + t_add) // t, (job.height_px + h_add) // h, (job.width_px + w_add) // w


def token_length(job: VideoJob, spec: DiTSpec) -> int:
    """Number of latent tokens the transformer processes per forward pass."""
    latent_t, tokens_h, tokens_w = latent_grid(job, spec)
    return latent_t * tokens_h * tokens_w


def self_attention_flops(tokens: int, spec: DiTSpec) -> int:
    """Self-attention FLOPs over all layers: N * (8*l*d^2 + 4*l^2*d).

    Q/K/V/output projections give the 8*l*d^2 term, the two attention matmuls
    the 4*l^2*d term; head count cancels and is not a parameter.
    """
    if tokens < 1:
        raise ValueError("tokens must be at least 1")
    a, b = spec.self_attn_coefficients  # the formula is l * (a + l*b)
    return tokens * (a + tokens * b)


def cross_attention_flops(tokens: int, spec: DiTSpec) -> int:
    """Cross-attention FLOPs over all layers: N * (4*l*d^2 + 4*m*d^2 + 4*l*m*d).

    Text keys/values are recomputed every pass (no KV cache).
    """
    if tokens < 1:
        raise ValueError("tokens must be at least 1")
    a, b = spec.cross_attn_coefficients  # the formula is l*a + b
    return tokens * a + b


def mlp_flops(tokens: int, spec: DiTSpec) -> int:
    """Feed-forward FLOPs over all layers: N * 4*f*l*d^2, exact."""
    if tokens < 1:
        raise ValueError("tokens must be at least 1")
    numerator, denominator = spec.mlp_coefficient
    return exact_div(numerator * tokens, denominator, "mlp FLOP count")


def timestep_flops_per_pass(spec: DiTSpec) -> int:
    """Timestep-embedding MLP FLOPs for one forward pass: 2*d_tau*d + 14*d^2."""
    return spec.timestep_flops


def text_encoder_flops(job: VideoJob, tspec: TextEncoderSpec) -> int:
    """Text-encoder FLOPs per video: g * L * (8*m*d^2 + 4*m^2*d + 4*f*m*d^2),
    one pass per guidance pass g = ``job.cfg_passes``.

    The per-pass term is a per-spec constant, ``TextEncoderSpec.flops_per_pass``,
    computed when the spec is built.
    """
    return job.cfg_passes * tspec.flops_per_pass


def total_flops(
    job: VideoJob,
    spec: DiTSpec,
    tspec: TextEncoderSpec,
    vae: VAEDecoderSchedule,
) -> FlopBreakdown:
    """Compose all operators into the per-video breakdown.

    Transformer operators are multiplied by cfg_passes * steps, the text
    encoder by cfg_passes; the VAE decoder runs once per video.
    """
    tokens = token_length(job, spec)
    passes = job.cfg_passes * job.steps
    self_attn = passes * self_attention_flops(tokens, spec)
    cross_attn = passes * cross_attention_flops(tokens, spec)
    mlp = passes * mlp_flops(tokens, spec)
    timestep = passes * timestep_flops_per_pass(spec)
    text = text_encoder_flops(job, tspec)
    vae_conv, vae_mid_attn = decoder_flops(job, vae)
    return FlopBreakdown(text, vae_conv, vae_mid_attn, self_attn, cross_attn, mlp, timestep)


def latency(flops: int, hw: HardwareSpec, mu: float) -> float:
    """Predicted seconds under the compute-bound model: flops / (mu * theta_peak). A latency, or an
    energy at ``hw.p_max``, beyond the float range is a ValueError naming ``hw`` and ``mu``."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must be in (0, 1], got {mu}")
    seconds = flops / (mu * hw.theta_peak)  # the rate is at least mu, as theta_peak is at least 1
    if not seconds * hw.p_max < math.inf:  # as p_max is positive, this also holds the latency finite
        raise ValueError(f"hardware {hw.name!r} at mu {mu}: {flops:.4g} FLOPs give a latency or energy no float holds")
    return seconds


def energy(latency_s: float, hw: HardwareSpec) -> tuple[float, float]:
    """(joules, watt-hours) at sustained power p_max for the given duration."""
    if latency_s < 0:
        raise ValueError("latency_s must be non-negative")
    joules = hw.p_max * latency_s
    return joules, joules / SECONDS_PER_HOUR


def cost_from_breakdown(breakdown: FlopBreakdown, hw: HardwareSpec, mu: float) -> CostEstimate:
    """Convert a FLOP breakdown into latency/energy, whose operator shares the estimate prorates."""
    latency_s = latency(breakdown.total, hw, mu)
    return CostEstimate(breakdown, latency_s, *energy(latency_s, hw))


def float_flops(job: VideoJob, spec: DiTSpec, tspec: TextEncoderSpec, vae: VAEDecoderSchedule) -> FlopBreakdown:
    """``total_flops``, whose total must be at most the largest float, as a latency divides it by one."""
    breakdown = total_flops(job, spec, tspec, vae)
    if breakdown.total > _MAX:  # exact: Python compares an int with a float without rounding either
        raise ValueError(f"job {job.height_px}x{job.width_px}, {job.frames} frames, {job.steps} steps: "
                         "its FLOP total is too large for a float latency")
    return breakdown


def estimate_cost(job: VideoJob, model: ModelSpec, hw: HardwareSpec, mu: float) -> CostEstimate:
    """One-call prediction for a job under a model spec."""
    return cost_from_breakdown(float_flops(job, model.dit, model.text_encoder, model.vae), hw, mu)
