"""Balance, arithmetic intensity, thresholds, and regime classification."""

import pytest

from vidcost import (
    DiTSpec,
    HardwareSpec,
    attn_intensity,
    balance,
    balance_consistent,
    classify,
    load_hardware,
    load_hardware_db,
    mlp_intensity,
    mlp_saturation_intensity,
    mlp_threshold_exact,
    thresholds,
)

# name -> (balance rounded, attn threshold, mlp threshold), as computed from
# the stored peak/bandwidth figures.
EXPECTED = {
    "h100": (295, 295, 590),
    "a100": (156, 156, 312),
    "rtx4090": (330, 330, 660),
    "l4": (403, 403, 806),
    "tpu-v6": (574, 574, 1148),
    "mi325x": (417, 417, 834),
    "gaudi3": (454, 454, 908),
}


# name -> (attn threshold, mlp threshold) as published with each entry's
# reference balance; l4's contradict its stored peak/bandwidth figures.
PUBLISHED = {
    "h100": (295, 590),
    "a100": (156, 312),
    "rtx4090": (330, 660),
    "l4": (605, 1210),
    "tpu-v6": (574, 1148),
    "mi325x": (417, 834),
    "gaudi3": (453, 906),
}


def toy_hw(theta=1e12, bw=1e12, s=2):
    return HardwareSpec(name="toy", theta_peak=theta, bandwidth=bw, p_max=100, scalar_bytes=s)


def test_balance_examples(h100):
    assert balance(toy_hw()) == 1.0
    assert balance(h100) == pytest.approx(295.224, abs=1e-3)
    assert round(balance(h100)) == 295
    assert round(balance(load_hardware("a100"))) == 156


def test_attn_intensity_examples():
    assert attn_intensity(1, 2) == 1.0
    assert attn_intensity(295, 2) == 295.0
    assert attn_intensity(75_600, 2) == 75_600.0


@pytest.mark.parametrize("tokens", [0, -1])
@pytest.mark.parametrize("intensity", [lambda tokens: attn_intensity(tokens, 2),
                                       lambda tokens: mlp_intensity(tokens, DiTSpec(), 2)], ids=["attn", "mlp"])
def test_intensities_need_at_least_one_token(intensity, tokens):
    with pytest.raises(ValueError, match="^tokens must be at least 1$"):
        intensity(tokens)


def test_mlp_intensity_examples(wan):
    tiny = DiTSpec(layers=1, hidden=1, mlp_expansion=1)
    assert mlp_intensity(1, tiny, 1) == pytest.approx(1 / 3)
    saturation = mlp_saturation_intensity(wan.dit, 2)
    assert saturation == pytest.approx(819.2)
    assert mlp_intensity(10_000_000, wan.dit, 2) == pytest.approx(saturation, rel=1e-3)


def test_mlp_intensity_monotone(wan):
    values = [mlp_intensity(tokens, wan.dit, 2) for tokens in (1, 2, 10, 100, 10_000)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < mlp_saturation_intensity(wan.dit, 2) for v in values)


def test_thresholds_all_entries():
    db = load_hardware_db()
    for name, (beta_int, attn_thr, mlp_thr) in EXPECTED.items():
        hw = db[name]
        assert round(balance(hw)) == beta_int, name
        assert thresholds(hw) == (attn_thr, mlp_thr), name


def test_thresholds_against_reference_values():
    db = load_hardware_db()
    assert db.keys() == PUBLISHED.keys()
    for name, hw in db.items():
        attn_thr, mlp_thr = thresholds(hw)
        published_attn, published_mlp = PUBLISHED[name]
        if not balance_consistent(hw):
            # Stored figures contradict the published balance; computed wins.
            assert round(balance(hw)) != hw.reference_balance
            assert (attn_thr, mlp_thr) != (published_attn, published_mlp), name
            continue
        assert abs(round(balance(hw)) - hw.reference_balance) <= 1, name
        assert abs(attn_thr - published_attn) <= 1, name
        assert abs(mlp_thr - published_mlp) <= 2, name


def test_balance_consistent_within_one_of_the_reference():
    assert balance_consistent(toy_hw(theta=400e12))  # no reference_balance
    for reference, consistent in ((399, True), (401, True), (398, False), (402, False), (10**400, False)):
        hw = toy_hw(theta=400e12).replace(reference_balance=reference)
        assert balance_consistent(hw) is consistent, reference


def test_thresholds_round_half_to_even():
    # Python's round: a tied balance goes to the even integer.
    low, high = toy_hw(theta=452.5e12), toy_hw(theta=453.5e12)
    assert (balance(low), balance(high)) == (452.5, 453.5)
    assert thresholds(low) == (452, 904)
    assert thresholds(high) == (454, 908)


def test_threshold_consistency_with_intensity():
    for hw in load_hardware_db().values():
        attn_thr, _ = thresholds(hw)
        assert attn_intensity(attn_thr, hw.scalar_bytes) == pytest.approx(balance(hw), abs=1.0)


def test_thresholds_scale_with_scalar_bytes_and_balance():
    base = thresholds(toy_hw(theta=300e12, bw=1e12, s=2))
    assert base == (300, 600)
    assert thresholds(toy_hw(theta=300e12, bw=1e12, s=4)) == (600, 1200)
    assert thresholds(toy_hw(theta=600e12, bw=1e12, s=2)) == (600, 1200)
    assert thresholds(toy_hw(theta=300e12, bw=2e12, s=2)) == (150, 300)


def test_classify_examples(wan, h100):
    both = classify(75_600, h100, wan.dit)
    assert [c.regime for c in both] == ["compute_bound", "compute_bound"]
    assert [c.operator for c in both] == ["attention", "mlp"]

    low = classify(100, h100, wan.dit)
    assert [c.regime for c in low] == ["memory_bound", "memory_bound"]

    mid = classify(400, h100, wan.dit)
    assert [c.regime for c in mid] == ["compute_bound", "memory_bound"]
    assert mid[0].threshold == 295
    assert mid[1].threshold == 590
    assert mid[0].intensity == pytest.approx(400.0)


def test_classification_regime_is_derived():
    from vidcost import BoundClassification

    below = BoundClassification(operator="mlp", tokens=10, intensity=1.0, threshold=100)
    assert below.regime == "memory_bound" and "regime" not in repr(below)
    assert below.replace(tokens=100).regime == "memory_bound"  # at the threshold
    assert below.replace(tokens=101).regime == "compute_bound"
    with pytest.raises(TypeError):
        BoundClassification(operator="mlp", tokens=10, intensity=1.0, threshold=100, regime="compute_bound")


@pytest.mark.parametrize("s", [1, 2, 4])
def test_thresholds_in_integers_round_as_the_float_formula(s):
    # round(s * beta / 2) with float division, where that does not overflow.
    for beta in [*range(1, 2000), 2**52 - 1, 2**52 + 2, 2**60, int(1e24)]:  # 1e24: the largest balance
        hw = toy_hw(theta=float(beta), bw=1.0, s=s)
        assert thresholds(hw) == (round(s * beta / 2), s * beta)


def test_exact_mlp_threshold(wan, h100):
    # Solve f*l*d / ((f*d + l*(1+f)) * s) = beta for the default width.
    beta = balance(h100)
    s = h100.scalar_bytes
    f, d = 4.0, 2048.0
    expected = beta * s * f * d / (f * d - beta * s * (1 + f))
    value = mlp_threshold_exact(h100, wan.dit)
    assert value == pytest.approx(expected)
    assert value == pytest.approx(923.12, abs=0.01)
    assert mlp_intensity(round(value), wan.dit, s) == pytest.approx(beta, rel=1e-3)


def test_exact_mlp_threshold_unreachable(wan):
    # Saturation intensity is 819.2 for the default width; a balance above it
    # means the feed-forward block can never be compute-bound.
    hw = toy_hw(theta=1000e12, bw=1e12, s=2)
    assert balance(hw) == 1000.0
    assert mlp_threshold_exact(hw, wan.dit) is None
