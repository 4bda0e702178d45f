"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and never loosened at runtime.
"""

import numpy as np
import pytest

from oracles import check_equivalence
from vidcost import (
    MeasurementRecord,
    VideoJob,
    balance,
    balance_consistent,
    compare_models,
    energy,
    fit_mu,
    latency,
    load_bundled_measurements,
    load_hardware_db,
    load_model_defaults,
    thresholds,
    token_length,
    total_flops,
)

MU_DEFAULT = 0.456
DEFAULT_JOB = VideoJob(720, 1280, 81, 50, 2)

MEASURED_LATENCY_S = 410.0
MEASURED_GPU_WH = 78.8

# name -> published (balance, attn threshold, mlp threshold) for rows whose
# stored peak/bandwidth reproduce the published balance.
PUBLISHED_ROWS = {
    "h100": (295, 295, 590),
    "a100": (156, 156, 312),
    "rtx4090": (330, 330, 660),
    "tpu-v6": (574, 574, 1148),
    "mi325x": (417, 417, 834),
    "gaudi3": (453, 453, 906),
}


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def default_breakdown(wan):
    return total_flops(DEFAULT_JOB, wan.dit, wan.text_encoder, wan.vae)


def test_c1_default_config_latency(wan, h100):
    predicted = latency(default_breakdown(wan).total, h100, MU_DEFAULT)
    rel_err = abs(predicted - MEASURED_LATENCY_S) / MEASURED_LATENCY_S
    assert rel_err < 0.05
    report("C1", f"predicted {predicted:.1f} s vs measured {MEASURED_LATENCY_S:.0f} s, "
                 f"error {rel_err * 100:.2f}% < 5%")


def test_c2_default_config_energy(wan, h100):
    predicted = latency(default_breakdown(wan).total, h100, MU_DEFAULT)
    _, wh = energy(predicted, h100)
    rel_err = abs(wh - MEASURED_GPU_WH) / MEASURED_GPU_WH
    assert rel_err < 0.05
    report("C2", f"predicted {wh:.2f} Wh vs measured {MEASURED_GPU_WH} Wh, "
                 f"error {rel_err * 100:.2f}% < 5%")


def test_c3_roofline_table(wan):
    db = load_hardware_db()
    for name, (pub_balance, pub_attn, pub_mlp) in PUBLISHED_ROWS.items():
        hw = db[name]
        assert balance_consistent(hw), name
        computed_balance = round(balance(hw))
        attn_thr, mlp_thr = thresholds(hw)
        if name == "gaudi3":
            # 1678/3.7 = 453.51 rounds up to 454; the published row printed
            # 453, one integer-rounding unit away. Pin the off-by-one rather
            # than silently matching either side.
            assert computed_balance - pub_balance == 1
            assert attn_thr - pub_attn == 1
            assert mlp_thr - pub_mlp == 2
        else:
            assert computed_balance == pub_balance, name
            assert (attn_thr, mlp_thr) == (pub_attn, pub_mlp), name
    l4 = db["l4"]
    assert not balance_consistent(l4)
    assert round(balance(l4)) == 403
    assert l4.reference_balance == 605
    assert thresholds(l4) == (403, 806)
    report("C3", "six consistent rows reproduced (gaudi3 within one rounding unit); "
                 "l4 flagged: computed 403 vs published 605")


def test_c4_linear_in_steps(wan, h100):
    from vidcost import (
        cross_attention_flops,
        mlp_flops,
        self_attention_flops,
        timestep_flops_per_pass,
    )

    steps = np.arange(1, 201)
    latencies = np.array([
        latency(total_flops(VideoJob(720, 1280, 81, int(s), 2),
                            wan.dit, wan.text_encoder, wan.vae).total, h100, MU_DEFAULT)
        for s in steps
    ])
    slope, intercept = np.polyfit(steps.astype(float), latencies, 1)
    residuals = latencies - (slope * steps + intercept)
    r_squared = 1.0 - residuals.var() / latencies.var()
    assert abs(r_squared - 1.0) < 1e-12

    tokens = token_length(DEFAULT_JOB, wan.dit)
    per_step = (self_attention_flops(tokens, wan.dit)
                + cross_attention_flops(tokens, wan.dit)
                + mlp_flops(tokens, wan.dit)
                + timestep_flops_per_pass(wan.dit))
    expected_slope = DEFAULT_JOB.cfg_passes * per_step / (MU_DEFAULT * h100.theta_peak)
    assert slope == pytest.approx(expected_slope, rel=1e-9)
    report("C4", f"R^2 - 1 = {r_squared - 1.0:.2e}, slope {slope:.4f} s/step matches "
                 f"per-step FLOPs to 1e-9")


def test_c5_quadratic_laws(wan, h100):
    """Second differences of totals over uniform token spacing.

    Frame sweeps hit the transformer constant g*S * 8*N*d*(dl)^2 exactly. On
    resolution sweeps the VAE middle attention is itself quadratic in the
    spatial token count, so raw totals sit a ~4e-5 relative offset above the
    transformer constant; the constant is asserted exactly once that
    operator's contribution is removed, and to 1e-4 on raw totals.
    """
    n, d = wan.dit.layers, wan.dit.hidden
    g_s = 2 * 50

    def second_diffs(values):
        return [values[i + 2] - 2 * values[i + 1] + values[i] for i in range(len(values) - 2)]

    # Frames axis, uniform spacing of 4.
    frames = range(4, 101, 4)
    breakdowns = [total_flops(VideoJob(720, 1280, t, 50, 2), wan.dit, wan.text_encoder, wan.vae)
                  for t in frames]
    totals = [b.total for b in breakdowns]
    token_values = [token_length(VideoJob(720, 1280, t, 50, 2), wan.dit) for t in frames]
    delta = token_values[1] - token_values[0]
    assert all(b - a == delta for a, b in zip(token_values, token_values[1:]))
    expected = g_s * 8 * n * d * delta**2
    for diff in second_diffs(totals):
        assert diff > 0
        assert abs(diff - expected) <= 1e-9 * expected

    # Resolution axis: width sweep at fixed height, uniform token spacing.
    widths = range(256, 2049, 256)
    jobs = [VideoJob(720, w, 81, 50, 2) for w in widths]
    breakdowns = [total_flops(j, wan.dit, wan.text_encoder, wan.vae) for j in jobs]
    token_values = [token_length(j, wan.dit) for j in jobs]
    delta = token_values[1] - token_values[0]
    assert all(b - a == delta for a, b in zip(token_values, token_values[1:]))
    expected = g_s * 8 * n * d * delta**2
    raw = second_diffs([b.total for b in breakdowns])
    without_mid_attn = second_diffs([b.total - b.vae_mid_attn for b in breakdowns])
    for diff in raw:
        assert diff > 0
        assert abs(diff - expected) <= 1e-4 * expected
    for diff in without_mid_attn:
        assert abs(diff - expected) <= 1e-9 * expected
    report("C5", "frame-axis second differences exact; resolution axis exact after "
                 "removing the quadratic decoder attention term (4.5e-5 of totals)")


def test_c6_oracle_equivalence():
    checked = check_equivalence(seed=20240817, iterations=1000)
    assert checked == 1000
    report("C6", f"{checked} random configurations, every operator exact")


def test_c7_mu_recovery(wan, h100):
    def records_for(mu, steps_values, noise=None):
        out = []
        for i, steps in enumerate(steps_values):
            job = VideoJob(720, 1280, 81, steps, 2)
            flops = total_flops(job, wan.dit, wan.text_encoder, wan.vae).total
            lat = flops / (mu * h100.theta_peak)
            if noise is not None:
                lat *= 1.0 + noise[i]
            out.append(MeasurementRecord(model_id="synthetic", height_px=720, width_px=1280,
                                         frames=81, steps=steps, latency_s=lat))
        return out

    for mu in (0.3, 0.456, 0.9):
        result = fit_mu(records_for(mu, (10, 25, 50, 100, 150)),
                        wan.dit, wan.text_encoder, wan.vae, h100)
        assert result.mu == pytest.approx(mu, rel=1e-9)
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(1234)
    noisy = records_for(0.456, tuple(range(10, 210, 10)), noise=rng.normal(0, 0.01, 20))
    result = fit_mu(noisy, wan.dit, wan.text_encoder, wan.vae, h100)
    assert result.mu == pytest.approx(0.456, rel=0.02)
    report("C7", f"noiseless recovery exact for 0.3/0.456/0.9; "
                 f"1% noise gives {result.mu:.4f} (within 2%)")


def test_c8_cross_model_report():
    report_obj = compare_models(load_model_defaults(), load_bundled_measurements())
    by_id = {r.model_id: r for r in report_obj.rows}
    assert by_id["wan2.1-t2v-14b"].total_wh == pytest.approx(415.1, abs=1e-9)
    assert by_id["animatediff"].total_wh == pytest.approx(0.139, abs=1e-9)
    ratio = report_obj.ratios[("wan2.1-t2v-14b", "animatediff")]
    assert ratio == pytest.approx(2986, rel=0.01)
    for row in report_obj.rows:
        assert row.gpu_share > 0.80, row.model_id
    report("C8", f"totals 415.1 / 0.139 Wh, ratio {ratio:.0f}, GPU share > 80% on all rows")


def test_c9_auxiliary_smallness(wan):
    bd = default_breakdown(wan)
    share = (bd.text + bd.timestep + bd.vae_mid_attn) / bd.total
    assert share < 0.02
    report("C9", f"text + timestep + decoder attention = {share * 100:.4f}% of total < 2%")
