"""The paper's scaling laws as properties over random specs and jobs.

Acceptance C4 and C5 check them on the bundled ``wan2.1-t2v-1.3b`` only; here
the DiT, text encoder, VAE schedule and job come from ``oracles.random_*``.
Every comparison is between exact integers, so each law holds with equality.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_dit, random_job, random_schedule, random_text_encoder
from vidcost import (
    VideoJob,
    cross_attention_flops,
    mlp_flops,
    self_attention_flops,
    timestep_flops_per_pass,
    total_flops,
    token_length,
)

EXAMPLES = 200
RNGS = st.integers(0, 2**64 - 1).map(random.Random)  # one drawn seed: far cheaper than a draw per number


def random_model(rng):
    return random_dit(rng), random_text_encoder(rng), random_schedule(rng)


def flops(job, model) -> dict[str, int]:
    """Per-operator FLOPs and their total."""
    return total_flops(job, *model).as_dict()


@settings(max_examples=EXAMPLES, deadline=None)
@given(RNGS)
def test_flops_are_exact_ints(rng):
    counts = flops(random_job(rng), random_model(rng))
    assert all(type(v) is int and v >= 0 for v in counts.values())
    assert counts["total"] == sum(v for op, v in counts.items() if op != "total")


@settings(max_examples=EXAMPLES, deadline=None)
@given(RNGS)
def test_flops_are_linear_in_steps(rng):
    # C4: every operator's second difference in steps is exactly 0.
    job, model = random_job(rng), random_model(rng)
    a, b, c = (flops(job.replace(steps=job.steps + k), model) for k in range(3))
    assert {op: a[op] - 2 * b[op] + c[op] for op in a} == dict.fromkeys(a, 0)


@settings(max_examples=EXAMPLES, deadline=None)
@given(RNGS, st.sampled_from(["frames", "height_px", "width_px"]), st.integers(1, 64))
def test_flops_do_not_decrease_in_frames_height_or_width(rng, dim, more):
    job, model = random_job(rng), random_model(rng)
    before, after = flops(job, model), flops(job.replace(**{dim: getattr(job, dim) + more}), model)
    assert all(after[op] >= before[op] for op in before)


def dit_flops_per_pass(tokens, dit) -> int:
    return (self_attention_flops(tokens, dit) + cross_attention_flops(tokens, dit) + mlp_flops(tokens, dit)
            + timestep_flops_per_pass(dit))


@settings(max_examples=EXAMPLES, deadline=None)
@given(RNGS, st.integers(1, 10**6), st.integers(1, 10**6))
def test_dit_flops_have_a_constant_second_difference_in_tokens(rng, tokens, other):
    # C5: quadratic in tokens, through the self-attention core 4*N*l^2*d alone.
    dit = random_dit(rng)
    second = [dit_flops_per_pass(l, dit) - 2 * dit_flops_per_pass(l + 1, dit) + dit_flops_per_pass(l + 2, dit)
              for l in (tokens, other)]
    assert second == [8 * dit.layers * dit.hidden] * 2


def test_bundled_model_states_its_local_exponents_and_attention_crossover(wan):
    # The figures README.md and demo 02 state: log-log slopes of exact FLOP totals between two jobs.
    def slope(job, other, size, other_size) -> float:
        job_flops, other_flops = (total_flops(VideoJob(*j), wan.dit, wan.text_encoder, wan.vae).total
                                  for j in (job, other))
        return round(math.log(other_flops / job_flops) / math.log(other_size / size), 3)

    pixels = (480 * 832, 720 * 1280)
    assert [slope((480, 832, f, 50), (720, 1280, f, 50), *pixels) for f in (33, 81)] == [1.585, 1.766]
    assert [slope((h, w, 33, 50), (h, w, 81, 50), 33, 81) for h, w in ((480, 832), (720, 1280))] == [1.496, 1.665]
    assert slope((720, 1280, 81, 20), (720, 1280, 81, 50), 20, 50) == 0.999
    # l* = (3 + f)*d + m: there the self-attention core l^2*b equals the DiT's per-token terms.
    dit, crossover = wan.dit, 14_848
    assert (3 + dit.mlp_expansion) * dit.hidden + dit.text_tokens == crossover
    (a_self, b_self), (a_cross, _) = dit.self_attn_coefficients, dit.cross_attn_coefficients
    assert b_self * crossover**2 == (a_self + a_cross) * crossover + mlp_flops(crossover, dit)
    assert token_length(VideoJob(480, 832, 33, 50), dit) == 14_040  # the paper's job
