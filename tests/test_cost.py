"""Token geometry, per-operator FLOP values, and latency/energy conversion.

Expected big integers were frozen from the brute-force oracles in oracles.py
before the library was written.
"""

from fractions import Fraction

import pytest

from vidcost import (
    DiTSpec,
    TextEncoderSpec,
    VAEDecoderSchedule,
    VideoJob,
    cross_attention_flops,
    energy,
    estimate_cost,
    latency,
    latent_grid,
    mlp_flops,
    self_attention_flops,
    text_encoder_flops,
    timestep_flops_per_pass,
    token_length,
    total_flops,
)

WAN_JOB = VideoJob(720, 1280, 81, 50, 2)

# Frozen oracle values for the default model at 720x1280, 81 frames.
SELF_75600 = 1_579_422_213_734_400
CROSS_75600 = 51_009_179_090_944
MLP_75600 = 162_349_763_788_800
TIMESTEP_PASS = 59_768_832
TEXT_DEFAULT = 7_627_861_917_696
TOTAL_DEFAULT = 179_407_392_914_538_496


def test_latent_grid_examples(wan):
    assert latent_grid(WAN_JOB, wan.dit) == (21, 45, 80)
    assert latent_grid(VideoJob(16, 16, 1, 1), wan.dit) == (1, 1, 1)
    assert latent_grid(VideoJob(256, 256, 4, 1), wan.dit) == (2, 16, 16)


def test_latent_grid_ceil_on_non_divisible(wan):
    # 1980 / 16 = 123.75 rounds up to 124.
    assert latent_grid(VideoJob(3520, 1980, 81, 50), wan.dit)[2] == 124


def test_token_length_examples(wan):
    assert token_length(WAN_JOB, wan.dit) == 75_600
    assert token_length(VideoJob(16, 16, 1, 1), wan.dit) == 1
    assert token_length(VideoJob(256, 256, 4, 1), wan.dit) == 512


def test_self_attention_examples(wan):
    tiny = DiTSpec(layers=1, hidden=1, mlp_expansion=1, text_tokens=1, timestep_hidden=1)
    assert self_attention_flops(1, tiny) == 12
    assert self_attention_flops(2, tiny) == 32
    assert self_attention_flops(75_600, wan.dit) == SELF_75600
    with pytest.raises(ValueError):
        self_attention_flops(0, wan.dit)


def test_cross_attention_examples(wan):
    tiny = DiTSpec(layers=1, hidden=1, mlp_expansion=1, text_tokens=1, timestep_hidden=1)
    assert cross_attention_flops(1, tiny) == 12
    tiny2 = DiTSpec(layers=1, hidden=2, mlp_expansion=1, text_tokens=1, timestep_hidden=1)
    assert cross_attention_flops(1, tiny2) == 40
    assert cross_attention_flops(75_600, wan.dit) == CROSS_75600


def test_kv_cache_reserved(wan):
    cached = DiTSpec(kv_cache=True)
    with pytest.raises(NotImplementedError):
        cross_attention_flops(100, cached)


def test_mlp_examples(wan):
    assert mlp_flops(1, DiTSpec(layers=1, hidden=1, mlp_expansion=1)) == 4
    assert mlp_flops(10, DiTSpec(layers=3, hidden=2, mlp_expansion=2)) == 960
    assert mlp_flops(75_600, wan.dit) == MLP_75600


def test_mlp_rejects_non_integral():
    spec = DiTSpec(layers=1, hidden=1, mlp_expansion=Fraction(1, 8))
    with pytest.raises(ValueError):
        mlp_flops(1, spec)
    spec = DiTSpec(layers=1, hidden=1, mlp_expansion=Fraction(7, 3))
    assert mlp_flops(3, spec) == 28
    with pytest.raises(ValueError, match="28/3"):
        mlp_flops(1, spec)
    assert mlp_flops(6, spec) == 56


def test_timestep_examples(wan):
    assert timestep_flops_per_pass(DiTSpec(hidden=1, timestep_hidden=1)) == 16
    assert timestep_flops_per_pass(wan.dit) == TIMESTEP_PASS
    with pytest.raises(ValueError):
        DiTSpec(timestep_hidden=0)


def test_text_encoder_examples(wan):
    tiny = TextEncoderSpec(layers=1, hidden=1, mlp_expansion=1, tokens=1, passes_per_video=1)
    assert text_encoder_flops(tiny) == 16
    assert text_encoder_flops(wan.text_encoder) == TEXT_DEFAULT
    single_pass = TextEncoderSpec(passes_per_video=1)
    assert 2 * text_encoder_flops(single_pass) == text_encoder_flops(wan.text_encoder)


def test_text_encoder_rejects_non_integral_ffn():
    spec = TextEncoderSpec(layers=4, hidden=1, mlp_expansion=Fraction(1, 8), tokens=1)
    with pytest.raises(ValueError):
        text_encoder_flops(spec)


def test_total_flops_minimal_composition():
    job = VideoJob(16, 16, 1, 1, cfg_passes=1)
    dit = DiTSpec(layers=1, hidden=1, mlp_expansion=1, text_tokens=1, timestep_hidden=1)
    text = TextEncoderSpec(layers=1, hidden=1, mlp_expansion=1, tokens=1, passes_per_video=1)
    schedule = VAEDecoderSchedule(layers=(), mid_channels=1, latent_channels=1)
    bd = total_flops(job, dit, text, schedule)
    assert bd.self_attn == 12
    assert bd.cross_attn == 12
    assert bd.mlp == 4
    assert bd.timestep == 16
    assert bd.text == 16
    assert bd.vae_conv == 0
    # middle attention at 16x16: one time slice, 2x2 tokens, one channel
    assert bd.vae_mid_attn == 1 * (8 * 1 * 4 + 4 * 16 * 1)
    assert bd.total == sum((bd.text, bd.vae_conv, bd.vae_mid_attn,
                            bd.self_attn, bd.cross_attn, bd.mlp, bd.timestep))


def test_total_flops_default(wan):
    bd = total_flops(WAN_JOB, wan.dit, wan.text_encoder, wan.vae)
    assert bd.total == TOTAL_DEFAULT
    assert bd.self_attn == 100 * SELF_75600
    assert bd.cross_attn == 100 * CROSS_75600
    assert bd.mlp == 100 * MLP_75600
    assert bd.timestep == 100 * TIMESTEP_PASS
    assert bd.text == TEXT_DEFAULT


def test_total_flops_linear_in_steps(wan):
    per_step = 2 * (SELF_75600 + CROSS_75600 + MLP_75600 + TIMESTEP_PASS)
    previous = total_flops(WAN_JOB, wan.dit, wan.text_encoder, wan.vae).total
    for steps in (51, 52, 53):
        job = VideoJob(720, 1280, 81, steps, 2)
        current = total_flops(job, wan.dit, wan.text_encoder, wan.vae).total
        assert current - previous == per_step
        previous = current


def test_self_attention_quadratic_second_difference(wan):
    # Second difference over {k, 2k, 3k} equals 8*N*k^2*d.
    k = 1234
    d = wan.dit.hidden
    n = wan.dit.layers
    f1 = self_attention_flops(k, wan.dit)
    f2 = self_attention_flops(2 * k, wan.dit)
    f3 = self_attention_flops(3 * k, wan.dit)
    assert f3 - 2 * f2 + f1 == 8 * n * k * k * d


def test_self_attention_asymptotic_coefficient(wan):
    tokens = 10_000_000
    ratio = self_attention_flops(tokens, wan.dit) / tokens**2
    assert ratio == pytest.approx(4 * wan.dit.layers * wan.dit.hidden, rel=1e-3)


def test_self_attention_huge_token_count_exact(wan):
    # Counts stay exact integers far beyond 64-bit range.
    tokens = 10**8
    n, d = wan.dit.layers, wan.dit.hidden
    value = self_attention_flops(tokens, wan.dit)
    assert value == n * (8 * tokens * d * d + 4 * tokens * tokens * d)
    assert value > 2**63


def test_latency_examples(h100):
    assert latency(int(h100.theta_peak), h100, 1.0) == pytest.approx(1.0)
    total = TOTAL_DEFAULT
    lat = latency(total, h100, 0.456)
    assert lat == pytest.approx(397.813, abs=0.001)
    assert latency(total, h100, 0.5) == pytest.approx(2 * latency(total, h100, 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        latency(total, h100, 0.0)
    with pytest.raises(ValueError):
        latency(total, h100, 1.5)


def test_energy_examples(h100):
    assert energy(0.0, h100) == (0.0, 0.0)
    joules, wh = energy(410.0, h100)
    assert joules == pytest.approx(287_000.0)
    assert wh == pytest.approx(79.7222, abs=1e-4)
    assert energy(3600.0, h100)[1] == pytest.approx(700.0)
    with pytest.raises(ValueError):
        energy(-1.0, h100)


def test_energy_latency_proportionality(h100):
    for lat in (0.25, 1.0, 397.8, 123456.789):
        _, wh = energy(lat, h100)
        assert wh / lat == pytest.approx(h100.p_max / 3600.0, rel=1e-12)


def test_cost_estimate_shares(wan, h100):
    cost = estimate_cost(WAN_JOB, wan, h100, 0.456)
    assert sum(cost.operator_latency_s.values()) == pytest.approx(cost.latency_s, rel=1e-9)
    assert sum(cost.operator_energy_wh.values()) == pytest.approx(cost.energy_wh, rel=1e-9)
    assert cost.energy_j == pytest.approx(cost.latency_s * h100.p_max)
    assert cost.energy_wh == pytest.approx(cost.energy_j / 3600.0)
    assert cost.breakdown.total == TOTAL_DEFAULT


def test_auxiliary_components_small(wan, h100):
    bd = total_flops(WAN_JOB, wan.dit, wan.text_encoder, wan.vae)
    aux = bd.text + bd.timestep + bd.vae_mid_attn
    assert aux / bd.total < 0.02


def test_breakdown_consistency_enforced(wan):
    from vidcost import FlopBreakdown

    with pytest.raises(ValueError):
        FlopBreakdown(text=1, vae_conv=1, vae_mid_attn=1, self_attn=1,
                      cross_attn=1, mlp=1, timestep=1, total=99)
