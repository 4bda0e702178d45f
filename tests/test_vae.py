"""VAE decoder schedule FLOPs and bundled-schedule fidelity."""

import pytest

from vidcost import (
    VAEDecoderLayer,
    VAEDecoderSchedule,
    VideoJob,
    conv3d_flops,
    decoder_flops,
    mid_attention_flops,
    total_flops,
)
from vidcost.specs import from_dict, to_dict

JOB = VideoJob(720, 1280, 81, 50, 2)

# Frozen oracle values for the bundled schedule at 720x1280, 81 frames.
INPUT_ROW = 100_329_062_400
HEAD_ROW = 1_160_950_579_200
CONV_TOTAL = 114_598_084_608_000
MID_ATTN = 7_045_329_715_200

# (kind, kernel, c_in, c_out, t_rule, h_div, w_div) rows of the bundled decoder.
EXPECTED_ROWS = [
    ("conv3d", (3, 3, 3), 16, 384, "ceil_T_over_4", 8, 8),
    ("conv3d", (3, 3, 3), 384, 384, "ceil_T_over_4", 8, 8),
    ("attn2d", None, 384, 384, "ceil_T_over_4", 8, 8),
    ("conv3d", (3, 3, 3), 384, 384, "ceil_T_over_4", 8, 8),
    ("conv3d", (3, 1, 1), 384, 768, "ceil_T_over_2", 8, 8),
    ("conv3d", (1, 3, 3), 384, 192, "ceil_T_over_2", 4, 4),
    ("conv3d", (3, 3, 3), 192, 384, "ceil_T_over_2", 4, 4),
    ("conv3d", (3, 1, 1), 384, 768, "full_T", 4, 4),
    ("conv3d", (1, 3, 3), 384, 192, "full_T", 2, 2),
    ("conv3d", (3, 3, 3), 192, 192, "full_T", 2, 2),
    ("conv3d", (1, 3, 3), 192, 96, "full_T", 1, 1),
    ("conv3d", (3, 3, 3), 96, 3, "full_T", 1, 1),
]


def unit_layer(**overrides):
    base = dict(kind="conv3d", kernel=(1, 1, 1), c_in=1, c_out=1,
                t_rule="full_T", h_div=16, w_div=16)
    base.update(overrides)
    return VAEDecoderLayer(**base)


def test_conv3d_unit():
    layer = unit_layer()
    assert conv3d_flops(layer, VideoJob(16, 16, 1, 1)) == 2


def test_conv3d_bundled_rows(wan):
    assert conv3d_flops(wan.vae.layers[0], JOB) == INPUT_ROW
    assert conv3d_flops(wan.vae.layers[-1], JOB) == HEAD_ROW


def test_conv3d_rejects_attention_rows(wan):
    attn_row = next(l for l in wan.vae.layers if l.kind == "attn2d")
    with pytest.raises(ValueError):
        conv3d_flops(attn_row, JOB)


def test_conv3d_repeat_multiplier():
    once = conv3d_flops(unit_layer(), VideoJob(16, 16, 4, 1))
    thrice = conv3d_flops(unit_layer(repeat=3), VideoJob(16, 16, 4, 1))
    assert thrice == 3 * once


def test_conv3d_ceiling_division():
    layer = unit_layer(h_div=16, w_div=16)
    # 17/16 and 33/16 round up to 2 and 3.
    assert conv3d_flops(layer, VideoJob(17, 33, 1, 1)) == 2 * 2 * 3


def attn_layer(**overrides):
    base = dict(kind="attn2d", c_in=1, c_out=1, t_rule="ceil_T_over_4", h_div=8, w_div=8)
    base.update(overrides)
    return VAEDecoderLayer(**base)


def test_mid_attention_unit():
    schedule = VAEDecoderSchedule(layers=(attn_layer(),))
    # One time slice, a 2x2 token tile, one channel.
    assert mid_attention_flops(VideoJob(16, 16, 1, 1), schedule) == 8 * 1 * 4 + 4 * 16 * 1


def test_mid_attention_follows_its_rows(wan):
    # Each attn2d row is costed from its own fields: width, grid rule and repeat.
    job = VideoJob(64, 128, 9, 1)
    wide = VAEDecoderSchedule(layers=(attn_layer(c_in=999, c_out=999),))
    t, l = 3, 8 * 16
    assert mid_attention_flops(job, wide) == t * (8 * 999**2 * l + 4 * l**2 * 999)
    fine = VAEDecoderSchedule(layers=(attn_layer(t_rule="full_T", h_div=4, w_div=2, repeat=2),))
    t, l = 9, 16 * 64
    assert mid_attention_flops(job, fine) == 2 * t * (8 * l + 4 * l**2)
    both = VAEDecoderSchedule(layers=wide.layers + fine.layers)
    assert mid_attention_flops(job, both) == mid_attention_flops(job, wide) + mid_attention_flops(job, fine)
    no_attention = VAEDecoderSchedule(layers=wan.vae.conv_layers)
    assert mid_attention_flops(JOB, no_attention) == 0


def test_attention_row_keeps_its_width():
    with pytest.raises(ValueError, match="^c_out must equal c_in in an attn2d row, got 8 and 4$"):
        attn_layer(c_in=4, c_out=8)


def test_mid_attention_bundled(wan):
    assert mid_attention_flops(JOB, wan.vae) == MID_ATTN


def test_mid_attention_quadratic_term(wan):
    # Doubling the spatial token count at fixed slices/channels multiplies the
    # second term by 4: check via the closed forms at two widths.
    a = mid_attention_flops(VideoJob(256, 256, 4, 1), wan.vae)
    b = mid_attention_flops(VideoJob(256, 512, 4, 1), wan.vae)
    c = wan.vae.attn_layers[0].c_in
    l = 32 * 32
    assert a == 1 * (8 * c * c * l + 4 * l * l * c)
    assert b == 1 * (8 * c * c * 2 * l + 4 * (2 * l) ** 2 * c)


def test_decoder_flops_empty_schedule():
    schedule = VAEDecoderSchedule(layers=())
    conv, mid = decoder_flops(JOB, schedule)
    assert conv == 0
    assert mid == 0


def test_decoder_flops_bundled(wan):
    conv, mid = decoder_flops(JOB, wan.vae)
    assert conv == CONV_TOTAL
    assert mid == MID_ATTN


def test_decoder_conv_linear_in_frames_when_full_t():
    rows = tuple(unit_layer(c_in=4, c_out=8, kernel=(3, 3, 3), h_div=2, w_div=2)
                 for _ in range(3))
    schedule = VAEDecoderSchedule(layers=rows)
    conv_1 = decoder_flops(VideoJob(64, 64, 10, 1), schedule)[0]
    conv_3 = decoder_flops(VideoJob(64, 64, 30, 1), schedule)[0]
    assert conv_3 == 3 * conv_1


def test_decoder_conv_voxel_linearity(wan):
    base = decoder_flops(VideoJob(256, 256, 16, 1), wan.vae)[0]
    doubled = decoder_flops(VideoJob(512, 512, 16, 1), wan.vae)[0]
    assert doubled == 4 * base


def test_vae_small_against_dit(wan):
    # Across the supported operating range the decoder stays a minor term.
    for height, width in ((256, 256), (480, 720), (720, 1280), (1280, 2048)):
        for frames in (4, 81):
            for steps in (10, 50):
                job = VideoJob(height, width, frames, steps, 2)
                bd = total_flops(job, wan.dit, wan.text_encoder, wan.vae)
                dit = bd.self_attn + bd.cross_attn + bd.mlp + bd.timestep
                assert (bd.vae_conv + bd.vae_mid_attn) < 0.10 * dit


def test_schedule_fidelity(wan):
    rows = [
        (l.kind, l.kernel, l.c_in, l.c_out, l.t_rule, l.h_div, l.w_div)
        for l in wan.vae.layers
    ]
    assert rows == EXPECTED_ROWS
    assert all(type(l.kind) is str and type(l.t_rule) is str for l in wan.vae.layers)
    assert all(l.repeat == 1 for l in wan.vae.layers)


def test_schedule_serialization_round_trip(wan):
    doc = to_dict(wan.vae)
    assert all({"kind", "c_in", "c_out", "t_rule", "h_div", "w_div"} <= set(row) for row in doc["layers"])
    assert from_dict(VAEDecoderSchedule, doc, "vae") == wan.vae
