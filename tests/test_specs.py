"""Spec type validation and config file round trips."""

import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_dit, random_schedule, random_text_encoder
from vidcost import (
    DiTSpec,
    HardwareSpec,
    ModelSpec,
    TextEncoderSpec,
    VAEDecoderLayer,
    VAEDecoderSchedule,
    VideoJob,
    balance_consistent,
    load_hardware,
    load_hardware_db,
    load_model_spec,
    total_flops,
)
from vidcost.specs import from_dict, to_dict


def test_video_job_validation():
    VideoJob(16, 16, 1, 1, 1)
    with pytest.raises(ValueError):
        VideoJob(8, 1280, 81, 50)
    with pytest.raises(ValueError):
        VideoJob(720, 1280, 0, 50)
    with pytest.raises(ValueError):
        VideoJob(720, 1280, 81, 0)
    with pytest.raises(ValueError):
        VideoJob(720, 1280, 81, 50, cfg_passes=3)


@pytest.mark.parametrize("field", ["height_px", "width_px", "frames", "steps", "cfg_passes"])
@pytest.mark.parametrize("bad", [720.5, 2.0, True])
def test_video_job_rejects_non_int(field, bad):
    good = {"height_px": 720, "width_px": 1280, "frames": 81, "steps": 50, "cfg_passes": 2}
    with pytest.raises(ValueError, match=f"^{field} must be an int, got {bad!r}$"):
        VideoJob(**{**good, field: bad})


def test_dit_spec_defaults_and_validation():
    spec = DiTSpec()
    assert (spec.layers, spec.hidden, spec.text_tokens) == (32, 2048, 512)
    assert spec.mlp_expansion == Fraction(4)
    assert (spec.patch_h, spec.patch_w, spec.vae_t_down, spec.vae_s_down) == (2, 2, 4, 8)
    assert spec.timestep_hidden == 256
    with pytest.raises(ValueError):
        DiTSpec(layers=0)
    with pytest.raises(ValueError):
        DiTSpec(timestep_hidden=0)
    with pytest.raises(ValueError):
        DiTSpec(text_tokens=0)
    with pytest.raises(ValueError):
        DiTSpec(mlp_expansion=0)


def test_fraction_coercion():
    assert DiTSpec(mlp_expansion=2.5).mlp_expansion == Fraction(5, 2)
    assert DiTSpec(mlp_expansion="5/2").mlp_expansion == Fraction(5, 2)
    assert TextEncoderSpec().mlp_expansion == Fraction(5, 2)
    # Written back as an int, a float when exact, else "p/q".
    assert [to_dict(DiTSpec(mlp_expansion=f))["mlp_expansion"] for f in (4, "5/2", "8/3")] == [4, 2.5, "8/3"]


@pytest.mark.parametrize("spellings, stored_type", [
    ((4, 4.0, "4", Fraction(4)), int),
    ((2.5, "5/2", " 5/2 ", "2.5", Fraction(5, 2)), float),
    (("8/3", Fraction(8, 3)), Fraction),
], ids=["integral", "binary", "non-binary"])
def test_rational_stored_in_one_canonical_form(spellings, stored_type):
    specs = [DiTSpec(mlp_expansion=value) for value in spellings]
    for value, spec in zip(spellings, specs):
        assert spec.mlp_expansion == Fraction(value) and type(spec.mlp_expansion) is stored_type
    assert len({(spec, hash(spec), repr(spec), json.dumps(to_dict(spec))) for spec in specs}) == 1


HUGE_TERMS = Fraction(10**400 + 1, 3 * 10**400)  # both terms beyond the float range, its value about 1/3


@pytest.mark.parametrize("value", [f"{10**400 + 1}/{3 * 10**400}", HUGE_TERMS], ids=["string", "fraction"])
def test_rational_beyond_the_float_range_round_trips(value):
    spec = DiTSpec(mlp_expansion=value)
    assert spec.mlp_expansion == HUGE_TERMS
    doc = to_dict(spec)
    assert doc["mlp_expansion"] == f"{10**400 + 1}/{3 * 10**400}"
    assert from_dict(DiTSpec, json.loads(json.dumps(doc))) == spec


DIT_FIELDS = "layers, hidden, mlp_expansion, text_tokens and timestep_hidden"
SMALL_DIT = dict(layers=1, hidden=1, text_tokens=1, timestep_hidden=1, mlp_expansion=1)
MAX_INT = int(sys.float_info.max)


@pytest.mark.parametrize("make, fields", [
    (lambda: DiTSpec(layers=10**400), DIT_FIELDS),
    (lambda: DiTSpec(mlp_expansion=Fraction(10**400, 3)), DIT_FIELDS),
    # The feed-forward coefficient is compared by its value, 4 * p/q, not by its numerator.
    (lambda: DiTSpec(**{**SMALL_DIT, "mlp_expansion": Fraction(10**400 + 1, 10**91)}), DIT_FIELDS),
    (lambda: DiTSpec(**{**SMALL_DIT, "mlp_expansion": Fraction(10**400 + 1, 10**100)}), None),
    # The timestep FLOPs per pass, 2*d_tau*d + 14*d^2 at d = 1, at the largest float and just beyond it: both are
    # rejected, as the DiT's other terms at d = 1 add 28 FLOPs to every job. Then all the terms at the largest
    # float, and one beyond it.
    (lambda: DiTSpec(**{**SMALL_DIT, "timestep_hidden": (MAX_INT - 14) // 2}), DIT_FIELDS),
    (lambda: DiTSpec(**{**SMALL_DIT, "timestep_hidden": (MAX_INT - 14) // 2 + 1}), DIT_FIELDS),
    (lambda: DiTSpec(**{**SMALL_DIT, "timestep_hidden": (MAX_INT - 42) // 2}), None),
    (lambda: DiTSpec(**{**SMALL_DIT, "timestep_hidden": (MAX_INT - 42) // 2 + 1}), DIT_FIELDS),
    # Each term fits a float, but their sum does not.
    (lambda: DiTSpec(**{**SMALL_DIT, "layers": MAX_INT // 16}), DIT_FIELDS),
    # Each section fits a float, but the model's sum over them does not.
    (lambda: load_model_spec().replace(dit=DiTSpec(**{**SMALL_DIT, "layers": MAX_INT // 40}),
                                       text_encoder=TextEncoderSpec(layers=MAX_INT // 17, hidden=1, tokens=1,
                                                                    mlp_expansion=1)),
     "dit, text_encoder and vae"),
    (lambda: TextEncoderSpec(tokens=10**200), "layers, hidden, mlp_expansion and tokens"),
    (lambda: VAEDecoderLayer(kind="conv3d", kernel=(1, 1, 1), c_in=10**400, c_out=1, t_rule="full_T", h_div=1,
                             w_div=1), "repeat, kernel, c_in and c_out"),
    (lambda: VAEDecoderLayer(kind="attn2d", c_in=1, c_out=1, t_rule="full_T", h_div=1, w_div=1, repeat=10**400),
     "repeat and c_in"),
], ids=["dit-layers", "dit-mlp", "dit-mlp-value-above", "dit-mlp-value-below", "dit-timestep-at-max",
        "dit-timestep-above-max", "dit-sum-at-max", "dit-sum-above-max", "dit-terms-sum", "model-sections-sum",
        "text-tokens", "vae-conv", "vae-attn"])
def test_a_spec_whose_flop_constant_no_float_holds_is_rejected(make, fields):
    # Every job's FLOP total is at least the sum of the per-model constants, so no job on such a spec has a
    # float latency.
    if fields is None:
        make()
    else:
        with pytest.raises(ValueError, match=f"^{fields}: every job's FLOP total is too large for a float$"):
            make()


def test_the_smallest_job_costs_at_least_the_sum_a_model_is_bounded_by():
    rng = random.Random(27)
    for _ in range(200):
        dit = random_dit(rng).replace(mlp_expansion=rng.randint(1, 12))  # integral, so every token count costs
        tspec, vae = random_text_encoder(rng), random_schedule(rng)
        bound = dit.least_flops + tspec.flops_per_pass + sum(layer.flop_terms[0] for layer in vae.layers)
        assert total_flops(VideoJob(16, 16, 1, 1, 1), dit, tspec, vae).total >= bound


# No __future__ import in the exec'd source: the annotation is the object, not its text.
@pytest.mark.parametrize("annotation, shown", [("int", "<class 'int'>"), ("[int]", "[<class 'int'>]")],
                         ids=["class", "unhashable"])
def test_class_object_annotation_is_a_type_error_naming_the_field(annotation, shown):
    namespace = {"DiTSpec": DiTSpec}
    exec(f"class Wide(DiTSpec):\n    extra: {annotation} = 3\n", namespace)
    with pytest.raises(TypeError) as info:
        namespace["Wide"]()
    assert str(info.value).startswith(f"Wide.extra is annotated {shown}, but a spec field's annotation "
                                      "must be one of the schema's strings ['int', ")


@pytest.mark.parametrize("make, message", [
    (lambda: DiTSpec(hidden=2048.0), "hidden must be a positive int, got 2048.0"),
    (lambda: DiTSpec(layers=True), "layers must be a positive int, got True"),
    (lambda: TextEncoderSpec(tokens=-1), "tokens must be a positive int, got -1"),
    (lambda: DiTSpec(mlp_expansion="x/2"), "mlp_expansion must be a positive int, float or 'p/q' string, got 'x/2'"),
    (lambda: DiTSpec(mlp_expansion=True), "mlp_expansion must be a positive int, float or 'p/q' string, got True"),
    (lambda: DiTSpec(mlp_expansion=float("nan")),
     "mlp_expansion must be a positive int, float or 'p/q' string, got nan"),
    (lambda: VAEDecoderLayer(kind="conv3d", kernel=[3.5, 3, 3], c_in=1, c_out=1, t_rule="full_T", h_div=1, w_div=1),
     "kernel must be three positive ints, got [3.5, 3, 3]"),
    (lambda: VAEDecoderLayer(kind="conv", kernel=(3, 3, 3), c_in=1, c_out=1, t_rule="full_T", h_div=1, w_div=1),
     "kind must be one of ['conv3d', 'attn2d'], got 'conv'"),
    (lambda: VAEDecoderLayer(kind="attn2d", c_in=1, c_out=1, t_rule="T", h_div=1, w_div=1),
     "t_rule must be one of ['ceil_T_over_4', 'ceil_T_over_2', 'full_T'], got 'T'"),
    (lambda: VAEDecoderSchedule(layers=[{"kind": "attn2d"}]),
     "layers must be a list of VAEDecoderLayer, got [{'kind': 'attn2d'}]"),
    (lambda: HardwareSpec(name="x", theta_peak=1e12, bandwidth=1e12, p_max=700, scalar_bytes=True),
     "scalar_bytes must be one of [1, 2, 4], got True"),
    (lambda: HardwareSpec(name="x", theta_peak="1e12", bandwidth=1e12, p_max=700),
     "theta_peak must be a number, got '1e12'"),
    (lambda: HardwareSpec(name="x", theta_peak=10**400, bandwidth=1e12, p_max=700),
     f"theta_peak must be between 1 and 1e24, got {10**400}"),
    (lambda: ModelSpec("m", DiTSpec(), {}, VAEDecoderSchedule(())), "text_encoder must be a TextEncoderSpec, got {}"),
], ids=["float-count", "bool-count", "negative-count", "bad-fraction", "bool-fraction", "nan-fraction",
        "float-kernel", "unknown-kind", "unknown-t-rule", "raw-row", "bool-scalar-bytes", "string-float",
        "huge-int-float", "raw-nested-spec"])
def test_fields_checked_by_annotation(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_spec_dict_round_trip(seed):
    rng = random.Random(seed)
    dit = random_dit(rng).replace(mlp_expansion=Fraction(rng.randint(1, 50), rng.randint(1, 12)))
    model = ModelSpec("m", dit, random_text_encoder(rng), random_schedule(rng), cfg_passes=rng.choice((1, 2)))
    for spec in (model, model.dit, model.text_encoder, model.vae, *model.vae.layers):
        doc = json.loads(json.dumps(to_dict(spec)))
        assert from_dict(type(spec), doc, "spec") == spec

def test_text_encoder_defaults():
    spec = TextEncoderSpec()
    assert (spec.layers, spec.hidden, spec.tokens) == (24, 4096, 512)
    with pytest.raises(ValueError):
        TextEncoderSpec(tokens=0)


def test_vae_layer_validation():
    with pytest.raises(ValueError):
        VAEDecoderLayer(kind="conv3d", c_in=1, c_out=1, t_rule="full_T", h_div=1, w_div=1)
    with pytest.raises(ValueError):
        VAEDecoderLayer(kind="conv3d", kernel=(0, 3, 3), c_in=1, c_out=1,
                        t_rule="full_T", h_div=1, w_div=1)
    with pytest.raises(ValueError):
        VAEDecoderLayer(kind="attn2d", kernel=(3, 3, 3), c_in=1, c_out=1,
                        t_rule="full_T", h_div=1, w_div=1)
    with pytest.raises(ValueError):
        VAEDecoderLayer(kind="conv3d", kernel=(3, 3, 3), c_in=1, c_out=1,
                        t_rule="full_T", h_div=1, w_div=1, repeat=0)
    with pytest.raises(ValueError):
        VAEDecoderLayer(kind="conv3d", kernel=(3, 3, 3), c_in=1, c_out=1,
                        t_rule="not_a_rule", h_div=1, w_div=1)


def test_hardware_validation():
    with pytest.raises(ValueError):
        HardwareSpec(name="x", theta_peak=0, bandwidth=1, p_max=1)
    with pytest.raises(ValueError):
        HardwareSpec(name="x", theta_peak=1, bandwidth=1, p_max=1, scalar_bytes=3)
    valid = dict(name="x", theta_peak=1e12, bandwidth=1e12, p_max=700)
    assert HardwareSpec(**valid).p_max == 700.0 and type(HardwareSpec(**valid).p_max) is float
    for name in ("theta_peak", "bandwidth", "p_max"):
        for good in (1, 1.0, 10**24, 1e24):  # the domain's ends; an int is stored as the float nearest to it
            assert getattr(HardwareSpec(**{**valid, name: good}), name) == float(good)
        for bad in (float("nan"), float("inf"), float("-inf"), 0, -1, 0.5, 5e-324, math.nextafter(1e24, math.inf),
                    10**24 + 1, 1.7e308, 10**400):
            with pytest.raises(ValueError, match=f"^{name} must be between 1 and 1e24, got {re.escape(repr(bad))}$"):
                HardwareSpec(**{**valid, name: bad})
    for bad in (0, 3, 8, True, 2.0, "2"):  # one of the choices, by type as well as value: True == 1, 2.0 == 2
        with pytest.raises(ValueError, match=rf"^scalar_bytes must be one of \[1, 2, 4\], got {re.escape(repr(bad))}$"):
            HardwareSpec(**valid, scalar_bytes=bad)


def test_bundled_model_spec(wan):
    assert wan.model_id == "wan2.1-t2v-1.3b"
    assert wan.cfg_passes == 2
    assert wan.dit == DiTSpec()
    assert wan.text_encoder == TextEncoderSpec()
    assert len(wan.vae.layers) == 12
    assert len(wan.vae.conv_layers) == 11
    assert [(row.t_rule, row.h_div, row.w_div, row.label) for row in wan.vae.conv_grids] == [
        ("ceil_T_over_4", 8, 8, "latent input conv + middle residual conv + stage 1 residual conv"),
        ("ceil_T_over_2", 8, 8, "temporal upsample 1"),
        ("ceil_T_over_2", 4, 4, "spatial upsample 1 + stage 2 residual conv"),
        ("full_T", 4, 4, "temporal upsample 2"),
        ("full_T", 2, 2, "spatial upsample 2 + stage 3 residual conv"),
        ("full_T", 1, 1, "spatial upsample 3 + rgb head conv"),
    ]
    assert wan.vae.conv_grids[1] is wan.vae.layers[4]  # a grid of one row keeps that row
    assert wan.vae.attn_layers == (wan.vae.layers[2],)
    assert wan.vae.layers[2].c_in == 384


def test_model_spec_round_trip(wan):
    again = from_dict(ModelSpec, to_dict(wan))
    assert again == wan


def test_model_spec_from_file_and_env(tmp_path, wan, monkeypatch):
    path = tmp_path / "custom.json"
    doc = to_dict(wan)
    doc["model_id"] = "custom"
    path.write_text(json.dumps(doc))
    assert load_model_spec(path).model_id == "custom"

    monkeypatch.setenv("VIDCOST_DATA_DIR", str(tmp_path))
    assert load_model_spec("custom").model_id == "custom"
    # Env dir also shadows bundled names when a file is present there.
    doc["model_id"] = "wan2.1-t2v-1.3b"
    doc["cfg_passes"] = 1
    (tmp_path / "wan2.1-t2v-1.3b.json").write_text(json.dumps(doc))
    assert load_model_spec("wan2.1-t2v-1.3b").cfg_passes == 1


def test_model_spec_cfg_passes_must_be_1_or_2(wan):
    with pytest.raises(ValueError, match=r"^cfg_passes must be one of \[1, 2\], got 3$"):
        wan.replace(cfg_passes=3)
    for bad in (True, 2.0, 0):
        with pytest.raises(ValueError, match=rf"^cfg_passes must be one of \[1, 2\], got {bad!r}$"):
            wan.replace(cfg_passes=bad)


def test_model_spec_unknown_name():
    with pytest.raises(FileNotFoundError):
        load_model_spec("no-such-model")


def test_hardware_db():
    db = load_hardware_db()
    assert set(db) == {"h100", "a100", "rtx4090", "l4", "tpu-v6", "mi325x", "gaudi3"}
    h100 = db["h100"]
    assert h100.theta_peak == 989e12
    assert h100.bandwidth == 3.35e12
    assert h100.p_max == 700
    assert h100.scalar_bytes == 2
    assert all(balance_consistent(hw) for name, hw in db.items() if name != "l4")
    assert not balance_consistent(db["l4"])


def test_load_hardware_by_name_and_errors():
    assert load_hardware("a100").theta_peak == 312e12
    with pytest.raises(KeyError):
        load_hardware("no-such-gpu")


def test_load_hardware_from_file(tmp_path):
    path = tmp_path / "hw.json"
    path.write_text(json.dumps([{"name": "toy", "theta_peak": 1e12, "bandwidth": 1e12, "p_max": 100}]))
    assert load_hardware(path).name == "toy"
