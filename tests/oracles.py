"""Independent brute-force evaluators used as the second route in tests.

Each function is a direct transcription of the closed-form FLOP expressions
onto raw Python integers, deliberately kept separate from the library's
implementation so the two can be compared on random configurations.
"""

import math
import random
from fractions import Fraction

from vidcost import (
    DiTSpec,
    TextEncoderSpec,
    VAEDecoderLayer,
    VAEDecoderSchedule,
    VideoJob,
    conv3d_flops,
    cross_attention_flops,
    decoder_flops,
    latent_grid,
    mid_attention_flops,
    mlp_flops,
    self_attention_flops,
    text_encoder_flops,
    timestep_flops_per_pass,
    token_length,
    total_flops,
)


def declared_fields(cls) -> dict:
    """Name -> annotation of each field a record class declares, read without ``Record``: the parameters of the
    constructor the class writes, when it writes one, else the annotations of its class body."""
    import inspect  # here, as the benchmark loads this module for its oracles, and no run of it needs this one

    if "__init__" not in vars(cls):
        return dict(cls.__annotations__)
    return {p.name: p.annotation for p in inspect.signature(cls).parameters.values()}


def grid_oracle(H, W, T, vt, vs, ph, pw):
    lt = 1 + math.ceil((T - 1) / vt)
    return lt, math.ceil(H / (vs * ph)), math.ceil(W / (vs * pw))


def self_attn_oracle(l, d, N):
    return N * (8 * l * d**2 + 4 * l**2 * d)


def cross_attn_oracle(l, m, d, N):
    return N * (4 * l * d**2 + 4 * m * d**2 + 4 * l * m * d)


def mlp_oracle(l, d, f, N):
    value = N * 4 * Fraction(f) * l * d**2
    assert value.denominator == 1
    return int(value)


def timestep_oracle(d_tau, d):
    return 2 * d_tau * d + 14 * d**2


def text_oracle(p, L, m, d, f):
    value = p * L * (8 * m * d**2 + 4 * m**2 * d + 4 * Fraction(f) * m * d**2)
    assert value.denominator == 1
    return int(value)


def conv3d_oracle(repeat, kt, kh, kw, cin, cout, t_out, h_out, w_out):
    return repeat * 2 * kt * kh * kw * cin * cout * t_out * h_out * w_out


def attn2d_oracle(repeat, c, t_out, h_out, w_out):
    l = h_out * w_out
    return repeat * t_out * (8 * c**2 * l + 4 * l**2 * c)


def t_out_oracle(rule, T):
    return {"ceil_T_over_4": math.ceil(T / 4), "ceil_T_over_2": math.ceil(T / 2), "full_T": T}[rule]


def vae_row_oracle(layer, job):
    """One decoder row, costed from its own fields alone."""
    # Rows hold plain strings; perfbench's spec view wraps each in an object with a ``.value``.
    kind, t_rule = (getattr(v, "value", v) for v in (layer.kind, layer.t_rule))
    t_out = t_out_oracle(t_rule, job.frames)
    h_out = math.ceil(job.height_px / layer.h_div)
    w_out = math.ceil(job.width_px / layer.w_div)
    if kind == "conv3d":
        return conv3d_oracle(layer.repeat, *layer.kernel, layer.c_in, layer.c_out, t_out, h_out, w_out)
    return attn2d_oracle(layer.repeat, layer.c_in, t_out, h_out, w_out)


def total_oracle(job, dit, tspec, schedule):
    lt, th, tw = grid_oracle(job.height_px, job.width_px, job.frames,
                             dit.vae_t_down, dit.vae_s_down, dit.patch_h, dit.patch_w)
    l = lt * th * tw
    per_step = (
        self_attn_oracle(l, dit.hidden, dit.layers)
        + cross_attn_oracle(l, dit.text_tokens, dit.hidden, dit.layers)
        + mlp_oracle(l, dit.hidden, dit.mlp_expansion, dit.layers)
        + timestep_oracle(dit.timestep_hidden, dit.hidden)
    )
    # The text encoder runs once per guidance pass; the VAE decoder once per video.
    once = text_oracle(job.cfg_passes, tspec.layers, tspec.tokens, tspec.hidden, tspec.mlp_expansion)
    once += sum(vae_row_oracle(layer, job) for layer in schedule.layers)
    return once + job.cfg_passes * job.steps * per_step


def mape_oracle(predicted, measured):
    """Mean absolute percentage error, in percent, of predicted vs measured: a plain
    left-to-right sum, where ``ValidationReport`` takes ``math.fsum`` of its point errors."""
    assert len(predicted) == len(measured) > 0 and all(m > 0 for m in measured)
    return 100.0 / len(measured) * sum(abs(p - m) / m for p, m in zip(predicted, measured))


def random_dit(rng: random.Random) -> DiTSpec:
    return DiTSpec(
        layers=rng.randint(1, 8),
        hidden=rng.randint(1, 64),
        mlp_expansion=Fraction(rng.randint(1, 12), rng.choice((1, 2, 4))),
        text_tokens=rng.randint(1, 64),
        timestep_hidden=rng.randint(1, 64),
        patch_h=rng.randint(1, 3),
        patch_w=rng.randint(1, 3),
        vae_t_down=rng.randint(1, 6),
        vae_s_down=rng.randint(1, 8),
    )


def random_text_encoder(rng: random.Random) -> TextEncoderSpec:
    return TextEncoderSpec(
        layers=rng.randint(1, 8),
        hidden=rng.randint(1, 64),
        mlp_expansion=Fraction(rng.randint(1, 12), rng.choice((1, 2, 4))),
        tokens=rng.randint(1, 64),
    )


def random_conv_layer(rng: random.Random) -> VAEDecoderLayer:
    return VAEDecoderLayer(
        kind="conv3d",
        kernel=(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)),
        c_in=rng.randint(1, 48),
        c_out=rng.randint(1, 48),
        t_rule=rng.choice(("ceil_T_over_4", "ceil_T_over_2", "full_T")),
        h_div=rng.choice((1, 2, 4, 8)),
        w_div=rng.choice((1, 2, 4, 8)),
        repeat=rng.randint(1, 3),
    )


def random_attn_layer(rng: random.Random) -> VAEDecoderLayer:
    c = rng.randint(1, 64)
    return VAEDecoderLayer(
        kind="attn2d",
        c_in=c,
        c_out=c,
        t_rule=rng.choice(("ceil_T_over_4", "ceil_T_over_2", "full_T")),
        h_div=rng.choice((1, 2, 4, 8)),
        w_div=rng.choice((1, 2, 4, 8)),
        repeat=rng.randint(1, 3),
    )


def random_schedule(rng: random.Random) -> VAEDecoderSchedule:
    """0-6 conv rows and 0-2 attention rows, in random order."""
    layers = [random_conv_layer(rng) for _ in range(rng.randint(0, 6))]
    layers += [random_attn_layer(rng) for _ in range(rng.randint(0, 2))]
    rng.shuffle(layers)
    return VAEDecoderSchedule(layers=tuple(layers))


def random_job(rng: random.Random) -> VideoJob:
    return VideoJob(
        height_px=rng.randint(16, 512),
        width_px=rng.randint(16, 512),
        frames=rng.randint(1, 100),
        steps=rng.randint(1, 8),
        cfg_passes=rng.choice((1, 2)),
    )


def check_equivalence(seed: int, iterations: int) -> int:
    """Compare every FLOP operation against its oracle on random configs.

    Returns the number of configurations checked; raises on any mismatch.
    """
    rng = random.Random(seed)
    for _ in range(iterations):
        dit = random_dit(rng)
        tspec = random_text_encoder(rng)
        schedule = random_schedule(rng)
        job = random_job(rng)
        tokens = rng.randint(1, 5000)

        assert latent_grid(job, dit) == grid_oracle(
            job.height_px, job.width_px, job.frames,
            dit.vae_t_down, dit.vae_s_down, dit.patch_h, dit.patch_w)
        assert token_length(job, dit) == math.prod(latent_grid(job, dit))
        assert self_attention_flops(tokens, dit) == self_attn_oracle(tokens, dit.hidden, dit.layers)
        assert cross_attention_flops(tokens, dit) == cross_attn_oracle(
            tokens, dit.text_tokens, dit.hidden, dit.layers)
        assert mlp_flops(tokens, dit) == mlp_oracle(tokens, dit.hidden, dit.mlp_expansion, dit.layers)
        assert timestep_flops_per_pass(dit) == timestep_oracle(dit.timestep_hidden, dit.hidden)
        assert text_encoder_flops(job, tspec) == text_oracle(
            job.cfg_passes, tspec.layers, tspec.tokens, tspec.hidden, tspec.mlp_expansion)

        conv_rows = [l for l in schedule.layers if l.kind == "conv3d"]
        attn_rows = [l for l in schedule.layers if l.kind == "attn2d"]
        for layer in conv_rows:
            assert conv3d_flops(layer, job) == vae_row_oracle(layer, job)
        assert mid_attention_flops(job, schedule) == sum(vae_row_oracle(l, job) for l in attn_rows)
        conv_total, mid = decoder_flops(job, schedule)
        assert conv_total == sum(conv3d_flops(l, job) for l in conv_rows)
        assert total_flops(job, dit, tspec, schedule).total == total_oracle(job, dit, tspec, schedule)
    return iterations
