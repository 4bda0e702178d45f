"""FLOP accounting for the VAE decoder: 3D convolutions plus the 2D middle attention.

Only the decoder path is modeled. Convolution cost follows the dense-GEMM
convention (one multiply-add = two FLOPs); normalizations, activations, and
upsampling shuffles are lower order and not accounted.
"""

from __future__ import annotations

from .specs import LayerKind, VAEDecoderLayer, VAEDecoderSchedule, VideoJob, ceil_div

# Grid divisors at the decoder's middle block (temporal, spatial).
MID_T_DIV = 4
MID_S_DIV = 8


def conv3d_flops(layer: VAEDecoderLayer, job: VideoJob) -> int:
    """FLOPs of one conv row: repeat * 2 * k_t*k_h*k_w * C_in*C_out * T'*H'*W'."""
    if layer.kind is not LayerKind.CONV3D:
        raise ValueError(f"conv3d_flops needs a conv3d layer, got {layer.kind.value}")
    t_out = layer.t_rule.apply(job.frames)
    h_out = ceil_div(job.height_px, layer.h_div)
    w_out = ceil_div(job.width_px, layer.w_div)
    return layer.flops_per_position * t_out * h_out * w_out


def mid_attention_flops(job: VideoJob, schedule: VAEDecoderSchedule) -> int:
    """FLOPs of the per-time-slice 2D self-attention at the middle resolution."""
    t_mid = ceil_div(job.frames, MID_T_DIV)
    tokens = ceil_div(job.height_px, MID_S_DIV) * ceil_div(job.width_px, MID_S_DIV)
    c = schedule.mid_channels
    return t_mid * (8 * c * c * tokens + 4 * tokens * tokens * c)


def decoder_flops(job: VideoJob, schedule: VAEDecoderSchedule) -> tuple[int, int]:
    """Total (conv, middle-attention) FLOPs of the decoder for one video."""
    conv = sum(conv3d_flops(layer, job) for layer in schedule.conv_layers)
    return conv, mid_attention_flops(job, schedule)
