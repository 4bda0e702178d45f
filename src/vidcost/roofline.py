"""Hardware balance, arithmetic intensity, and compute-bound thresholds.

Intensity formulas assume a fused implementation that reads inputs and writes
outputs once. Attention counts only the two core matmuls (4*l^2*d FLOPs over
2*l*d*s bytes), so its intensity is 2*l/s regardless of width; the MLP moves
its weights too, giving f*l*d / ((f*d + l*(1+f)) * s). With f = p/q that is
p*l*d / ((p*d + l*(p+q)) * s), evaluated as one integer true division, which
Python rounds correctly: the same float as rounding the exact Fraction.
"""

from __future__ import annotations

from .specs import DiTSpec, HardwareSpec, Record

ATTENTION = "attention"
MLP = "mlp"
COMPUTE_BOUND = "compute_bound"
MEMORY_BOUND = "memory_bound"


class BoundClassification(Record):
    """Roofline regime of one operator at a given token length; the regime is derived, not a field."""

    def __init__(self, operator: str, tokens: int, intensity: float, threshold: int) -> None:
        values = self.__dict__  # hand-written and filled a field at a time, as VideoJob's: two are built per job
        values["operator"], values["tokens"], values["intensity"], values["threshold"] = (operator, tokens,
                                                                                          intensity, threshold)

    @property
    def regime(self) -> str:
        return COMPUTE_BOUND if self.tokens > self.threshold else MEMORY_BOUND


def balance(hw: HardwareSpec) -> float:
    """Hardware balance in FLOP/byte: peak throughput over bandwidth."""
    return hw.theta_peak / hw.bandwidth


def balance_consistent(hw: HardwareSpec) -> bool:
    """Whether the published ``reference_balance``, if any, is within 1 of ``balance(hw)``."""
    beta = balance(hw)  # compared to the int, not subtracted from it: a comparison is exact and never overflows
    return hw.reference_balance is None or beta - 1 <= hw.reference_balance <= beta + 1


def attn_intensity(tokens: int, scalar_bytes: int) -> float:
    """Attention-core arithmetic intensity: 2*l/s FLOP per byte."""
    if tokens < 1:
        raise ValueError("tokens must be at least 1")
    return 2 * tokens / scalar_bytes


def mlp_intensity(tokens: int, spec: DiTSpec, scalar_bytes: int) -> float:
    """Feed-forward arithmetic intensity: f*l*d / ((f*d + l*(1+f)) * s)."""
    if tokens < 1:
        raise ValueError("tokens must be at least 1")
    p, q = spec.mlp_ratio
    d = spec.hidden
    return p * tokens * d / ((p * d + tokens * (p + q)) * scalar_bytes)


def mlp_saturation_intensity(spec: DiTSpec, scalar_bytes: int) -> float:
    """Large-token limit of the feed-forward intensity: f*d / ((1+f)*s)."""
    p, q = spec.mlp_ratio
    return p * spec.hidden / ((p + q) * scalar_bytes)


def thresholds(hw: HardwareSpec) -> tuple[int, int]:
    """Compute-bound token thresholds (attention, mlp).

    Attention crosses at l = s*beta/2 by inverting 2*l/s = beta. The MLP value
    uses the weight-dominated approximation l = s*beta, valid while activation
    traffic is small against weight traffic. Both derive from the balance
    rounded to an integer, mirroring how published threshold tables are built.
    Every rounding is half to even, in integers so that no balance overflows:
    a balance of 452.5 gives 452 and one of 453.5 gives 454.
    """
    pair = hw.__dict__.get("_thresholds")  # kept there, not a field, once computed
    if pair is None:
        mlp = hw.scalar_bytes * round(balance(hw))  # mlp / 2 below half to even: 2q + 1 rounds up when q is odd
        pair = hw.__dict__["_thresholds"] = mlp // 2 + (mlp % 4 == 3), mlp
    return pair


def mlp_threshold_exact(hw: HardwareSpec, spec: DiTSpec) -> float | None:
    """Token length solving mlp_intensity(l) = balance exactly.

    Returns None when the balance exceeds the saturation intensity, in which
    case the feed-forward block can never become compute-bound at this width.
    """
    beta = balance(hw)
    s = hw.scalar_bytes
    if mlp_saturation_intensity(spec, s) <= beta:
        return None
    p, q = spec.mlp_ratio
    d = spec.hidden
    # f and 1+f rounded once each from the exact ratio, as float(Fraction) does.
    f, f1 = p / q, (p + q) / q
    return beta * s * f * d / (f * d - beta * s * f1)


def classify(tokens: int, hw: HardwareSpec, spec: DiTSpec) -> list[BoundClassification]:
    """Regime of the attention and feed-forward blocks at a token length."""
    attn_thr, mlp_thr = thresholds(hw)
    s = hw.scalar_bytes
    return [BoundClassification(ATTENTION, tokens, attn_intensity(tokens, s), attn_thr),
            BoundClassification(MLP, tokens, mlp_intensity(tokens, spec, s), mlp_thr)]
