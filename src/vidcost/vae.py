"""FLOP accounting for the VAE decoder: 3D convolutions plus the 2D middle attention.

Only the decoder path is modeled. Convolution cost follows the dense-GEMM convention (one multiply-add = two
FLOPs), summed once per output grid, as conv rows on one grid share its size; normalizations, activations,
and upsampling shuffles are lower order and not accounted.
"""

from __future__ import annotations

from .specs import VAEDecoderLayer, VAEDecoderSchedule, VideoJob


def conv3d_flops(layer: VAEDecoderLayer, job: VideoJob) -> int:
    """FLOPs of one conv row: repeat * 2 * k_t*k_h*k_w * C_in*C_out * T'*H'*W'."""
    if layer.kind != "conv3d":
        raise ValueError(f"conv3d_flops needs a conv3d layer, got {layer.kind}")
    per_position, t, t_add, h, h_add, w, w_add = layer.flop_terms  # ceilings as (n + d-1) // d
    return (job.frames + t_add) // t * ((job.height_px + h_add) // h) * ((job.width_px + w_add) // w) * per_position


def mid_attention_flops(job: VideoJob, schedule: VAEDecoderSchedule) -> int:
    """FLOPs of the schedule's attn2d rows, each a per-time-slice 2D self-attention
    over L = H'*W' tokens of width c = C_in: repeat * T' * (8*c^2*L + 4*L^2*c)."""
    flops = 0
    for layer in schedule.attn_layers:
        factor, t, t_add, h, h_add, w, w_add = layer.flop_terms  # factor is repeat * 4*c, as in conv3d_flops
        tokens = (job.height_px + h_add) // h * ((job.width_px + w_add) // w)
        flops += (job.frames + t_add) // t * tokens * (2 * layer.c_in + tokens) * factor
    return flops


def decoder_flops(job: VideoJob, schedule: VAEDecoderSchedule) -> tuple[int, int]:
    """Total (conv, middle-attention) FLOPs of one video's decoder, one ``conv3d_flops`` call per output grid."""
    conv = 0
    for layer in schedule.conv_grids:
        conv += conv3d_flops(layer, job)
    return conv, mid_attention_flops(job, schedule)
