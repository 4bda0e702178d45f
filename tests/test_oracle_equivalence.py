"""Randomized equivalence between the library and the brute-force oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    check_equivalence,
    cross_attn_oracle,
    grid_oracle,
    mlp_oracle,
    random_attn_layer,
    random_conv_layer,
    random_job,
    self_attn_oracle,
    text_oracle,
    timestep_oracle,
    vae_row_oracle,
)
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
)
from vidcost.specs import _MAX, TIME_RULES

# Expansion factors p/q, many of them fractional: some give FLOP counts that are not integers.
EXPANSIONS = st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 4, 8)))
RNGS = st.integers(0, 2**64 - 1).map(random.Random)  # one drawn seed: far cheaper than a draw per number


def test_flop_operations_match_oracles_alt_seed():
    assert check_equivalence(seed=7, iterations=200) == 200


def random_divisor(rng: random.Random) -> int:
    return rng.randint(1, 12)


def at_step(rng: random.Random, divisor: int, least: int, shift: int = 0) -> int:
    """A size n >= least with n - shift at k*divisor or k*divisor + 1: on either side of a ceiling's step."""
    offset = rng.choice((0, 1))
    k = rng.randint(max(0, -(-(least - shift - offset) // divisor)), 40)
    return shift + k * divisor + offset


def jobs(rng: random.Random, frames: int, height: int, width: int) -> list:
    """A job of the given geometry, and the same with one frame."""
    steps, cfg_passes = rng.randint(1, 8), rng.choice((1, 2))
    return [VideoJob(height, width, frames, steps, cfg_passes), VideoJob(height, width, 1, steps, cfg_passes)]


def exact(value, expected) -> None:
    assert type(value) is int and value == expected


@settings(max_examples=150, deadline=None)
@given(RNGS)
def test_transformer_operators_equal_their_oracles(rng):
    dit = DiTSpec(layers=rng.randint(1, 8), hidden=rng.randint(1, 64),
                  mlp_expansion=Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4, 8))),
                  text_tokens=rng.randint(1, 64), timestep_hidden=rng.randint(1, 64),
                  patch_h=random_divisor(rng), patch_w=random_divisor(rng), vae_t_down=random_divisor(rng),
                  vae_s_down=random_divisor(rng))
    frames = at_step(rng, dit.vae_t_down, 1, shift=1)  # the first frame is its own latent slice
    height = at_step(rng, dit.vae_s_down * dit.patch_h, 16)
    width = at_step(rng, dit.vae_s_down * dit.patch_w, 16)
    for job in jobs(rng, frames, height, width):
        grid = grid_oracle(job.height_px, job.width_px, job.frames, dit.vae_t_down, dit.vae_s_down, dit.patch_h,
                           dit.patch_w)
        assert latent_grid(job, dit) == grid
        exact(token_length(job, dit), math.prod(grid))
        for tokens in (math.prod(grid), rng.randint(1, 5000)):
            exact(self_attention_flops(tokens, dit), self_attn_oracle(tokens, dit.hidden, dit.layers))
            exact(cross_attention_flops(tokens, dit), cross_attn_oracle(tokens, dit.text_tokens, dit.hidden,
                                                                        dit.layers))
            try:
                expected = mlp_oracle(tokens, dit.hidden, dit.mlp_expansion, dit.layers)
            except AssertionError:  # not an integer
                with pytest.raises(ValueError, match="^mlp FLOP count is not an integer FLOP count"):
                    mlp_flops(tokens, dit)
            else:
                exact(mlp_flops(tokens, dit), expected)
    exact(timestep_flops_per_pass(dit), timestep_oracle(dit.timestep_hidden, dit.hidden))


@settings(max_examples=100, deadline=None)
@given(layers=st.integers(1, 8), hidden=st.integers(1, 64), expansion=EXPANSIONS, tokens=st.integers(1, 64),
       cfg_passes=st.sampled_from((1, 2)))
def test_text_encoder_equals_its_oracle_or_is_rejected_on_construction(layers, hidden, expansion, tokens,
                                                                        cfg_passes):
    if (layers * 4 * expansion * tokens * hidden**2).denominator != 1:  # as text_oracle, the sum over layers
        with pytest.raises(ValueError, match="^mlp_expansion: the feed-forward term is not an integer FLOP count"):
            TextEncoderSpec(layers=layers, hidden=hidden, mlp_expansion=expansion, tokens=tokens)
        return
    tspec = TextEncoderSpec(layers=layers, hidden=hidden, mlp_expansion=expansion, tokens=tokens)
    exact(text_encoder_flops(VideoJob(16, 16, 1, 1, cfg_passes), tspec),
          text_oracle(cfg_passes, layers, tokens, hidden, expansion))


@settings(max_examples=150, deadline=None)
@given(RNGS)
def test_vae_rows_equal_their_oracles(rng):
    kind, t_rule = rng.choice(("conv3d", "attn2d")), rng.choice(list(TIME_RULES))
    c_in = rng.randint(1, 48)
    row = VAEDecoderLayer(kind=kind, c_in=c_in, c_out=rng.randint(1, 48) if kind == "conv3d" else c_in,
                          t_rule=t_rule, h_div=random_divisor(rng), w_div=random_divisor(rng),
                          kernel=tuple(rng.randint(1, 4) for _ in range(3)) if kind == "conv3d" else None,
                          repeat=rng.randint(1, 3))
    schedule = VAEDecoderSchedule(layers=(row,))
    frames = at_step(rng, TIME_RULES[t_rule], 1)
    for job in jobs(rng, frames, at_step(rng, row.h_div, 16), at_step(rng, row.w_div, 16)):
        expected = vae_row_oracle(row, job)
        if kind == "conv3d":
            exact(conv3d_flops(row, job), expected)
            assert decoder_flops(job, schedule) == (expected, 0)
        else:
            exact(mid_attention_flops(job, schedule), expected)
            assert decoder_flops(job, schedule) == (0, expected)


@settings(max_examples=150, deadline=None)
@given(RNGS)
def test_conv_grids_cost_each_grid_once_and_exactly(rng):
    """Conv rows put on at most three output grids, so that their divisors collide, among attention rows."""
    grids = [(rng.choice(list(TIME_RULES)), random_divisor(rng), random_divisor(rng))
             for _ in range(rng.randint(1, 3))]
    layers = [random_conv_layer(rng).replace(**dict(zip(("t_rule", "h_div", "w_div"), rng.choice(grids))))
              for _ in range(rng.randint(0, 8))] + [random_attn_layer(rng) for _ in range(rng.randint(0, 2))]
    rng.shuffle(layers)
    schedule = VAEDecoderSchedule(layers=tuple(layers))
    seen = list(dict.fromkeys((l.t_rule, l.h_div, l.w_div) for l in schedule.conv_layers))
    assert [(l.t_rule, l.h_div, l.w_div) for l in schedule.conv_grids] == seen
    for job in [random_job(rng) for _ in range(3)]:
        rows = [sum(vae_row_oracle(l, job) for l in layers if l.kind == kind) for kind in ("conv3d", "attn2d")]
        assert decoder_flops(job, schedule) == tuple(rows)
        exact(sum(conv3d_flops(l, job) for l in schedule.conv_grids), rows[0])
        assert rows[0] == sum(conv3d_flops(l, job) for l in schedule.conv_layers)


def test_a_grid_whose_summed_factor_no_float_holds_keeps_its_rows(wan):
    row = VAEDecoderLayer("conv3d", 1, 1, "full_T", 1, 1, (1, 1, 1), int(_MAX) // 2 - 1)  # factor int(_MAX) - 2
    schedule = VAEDecoderSchedule(layers=(row, row.replace(label="again")))
    assert schedule.conv_grids == schedule.conv_layers == schedule.layers
    with pytest.raises(ValueError, match="^dit, text_encoder and vae: every job's FLOP total is too large for a float$"):
        wan.replace(vae=schedule)
