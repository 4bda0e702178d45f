"""Spec type validation and config file round trips."""

import json
from dataclasses import fields
from fractions import Fraction

import pytest

from vidcost import (
    DiTSpec,
    HardwareSpec,
    TextEncoderSpec,
    VAEDecoderLayer,
    VideoJob,
    load_hardware,
    load_hardware_db,
    load_model_spec,
    total_flops,
)
from vidcost.specs import model_spec_from_dict, model_spec_to_dict


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


def test_text_encoder_defaults():
    spec = TextEncoderSpec()
    assert (spec.layers, spec.hidden, spec.tokens, spec.passes_per_video) == (24, 4096, 512, 2)
    with pytest.raises(ValueError):
        TextEncoderSpec(passes_per_video=0)


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


def test_bundled_model_spec(wan):
    assert wan.model_id == "wan2.1-t2v-1.3b"
    assert wan.cfg_passes == 2
    assert wan.dit == DiTSpec()
    assert wan.text_encoder == TextEncoderSpec()
    assert wan.vae.mid_channels == 384
    assert wan.vae.latent_channels == 16
    assert len(wan.vae.layers) == 12
    assert len(wan.vae.conv_layers) == 11


def test_model_spec_round_trip(wan):
    again = model_spec_from_dict(model_spec_to_dict(wan))
    assert again == wan


def test_cached_coefficients_leave_spec_unchanged():
    spec = load_model_spec()
    before = (model_spec_to_dict(spec), repr(spec), hash(spec))
    field_names = [[f.name for f in fields(part)] for part in (spec.dit, spec.text_encoder, spec.vae)]
    total_flops(VideoJob(720, 1280, 81, 50, 2), spec.dit, spec.text_encoder, spec.vae)
    assert "mlp_coefficient" in vars(spec.dit)
    assert "flops_per_video" in vars(spec.text_encoder)
    assert "conv_layers" in vars(spec.vae)
    assert "flops_per_position" in vars(spec.vae.layers[0])
    assert (model_spec_to_dict(spec), repr(spec), hash(spec)) == before
    assert [[f.name for f in fields(part)] for part in (spec.dit, spec.text_encoder, spec.vae)] == field_names
    assert spec == load_model_spec()


def test_model_spec_from_file_and_env(tmp_path, wan, monkeypatch):
    path = tmp_path / "custom.json"
    doc = model_spec_to_dict(wan)
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
    assert all(hw.balance_consistent for name, hw in db.items() if name != "l4")
    assert not db["l4"].balance_consistent


def test_load_hardware_by_name_and_errors():
    assert load_hardware("a100").theta_peak == 312e12
    with pytest.raises(KeyError):
        load_hardware("no-such-gpu")


def test_load_hardware_from_file(tmp_path):
    path = tmp_path / "hw.json"
    path.write_text(json.dumps([{"name": "toy", "theta_peak": 1e12, "bandwidth": 1e12, "p_max": 100}]))
    assert load_hardware(path).name == "toy"
