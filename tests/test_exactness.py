"""Exactness of the integer fast paths, and a guard that keeps Fraction off the per-job path."""

import fractions
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import vae_row_oracle
from vidcost import (
    DiTSpec,
    VAEDecoderLayer,
    VideoJob,
    classify,
    conv3d_flops,
    estimate_cost,
    mlp_intensity,
    mlp_saturation_intensity,
    token_length,
)
from vidcost.specs import TIME_RULES

RNGS = st.integers(0, 2**64 - 1).map(random.Random)  # one drawn seed: far cheaper than a draw per number


@settings(deadline=None)
@given(RNGS)
def test_mlp_intensities_equal_rounded_fraction(rng):
    f, hidden = Fraction(rng.randint(1, 100), rng.randint(1, 12)), rng.randint(1, 10**5)
    tokens, s = rng.randint(1, 10**7), rng.choice((1, 2, 4))
    spec = DiTSpec(hidden=hidden, mlp_expansion=f)
    assert spec.mlp_ratio == (f.numerator, f.denominator)  # whether an int, float or Fraction is stored
    assert mlp_intensity(tokens, spec, s) == float(f * tokens * hidden / ((f * hidden + tokens * (1 + f)) * s))
    assert mlp_saturation_intensity(spec, s) == float(f * hidden / ((1 + f) * s))


@pytest.mark.parametrize("rule", list(TIME_RULES))
@settings(deadline=None)
@given(RNGS)
def test_conv3d_matches_oracle(rule, rng):
    layer = VAEDecoderLayer(kind="conv3d", kernel=(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)),
                            c_in=rng.randint(1, 512), c_out=rng.randint(1, 512), t_rule=rule,
                            h_div=rng.randint(1, 16), w_div=rng.randint(1, 16), repeat=rng.randint(1, 3))
    height, width, frames = rng.randint(16, 2048), rng.randint(16, 2048), rng.randint(1, 400)
    for job in (VideoJob(height, width, frames, 1), VideoJob(height, width, 1, 1)):
        assert conv3d_flops(layer, job) == vae_row_oracle(layer, job)


def fraction_calls(fn) -> list[str]:
    """Names of the Python functions in fractions.py that ``fn()`` enters."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_fraction_calls_are_seen():
    assert fraction_calls(lambda: Fraction(1, 3) + 1)


@pytest.mark.parametrize("expansion", [None, "8/3"])
def test_per_job_path_makes_no_fraction_calls(wan, h100, expansion):
    model = wan if expansion is None else wan.replace(dit=wan.dit.replace(hidden=3072, mlp_expansion=expansion))

    def per_job():
        for height, width, frames, steps in ((720, 1280, 81, 50), (481, 833, 1, 7)):
            job = VideoJob(height, width, frames, steps)
            estimate_cost(job, model, h100, 0.456)
            classify(token_length(job, model.dit), h100, model.dit)

    per_job()
    assert fraction_calls(per_job) == []
