"""What each entry point loads: `import vidcost` is lazy, and each caller pays
only for the modules it uses. Every check runs in a fresh interpreter, since
this test process has long since loaded the whole package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vidcost

SRC = str(Path(vidcost.__file__).resolve().parents[1])

# Prints the vidcost modules loaded so far as the last line of stdout.
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('vidcost.'))))"


def child(code: str) -> list:
    """The last stdout line of ``code`` run in a fresh interpreter, read as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    env.pop("VIDCOST_DATA_DIR", None)
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert child("import vidcost\n" + LOADED) == []


def test_spec_loads_load_only_specs():
    code = "import vidcost\nvidcost.load_model_spec()\nvidcost.load_hardware()\n" + LOADED
    assert child(code) == ["vidcost.specs"]


def test_spec_loads_skip_dataclasses_and_inspect():
    # A diff of sys.modules, since a site module may load any of them before vidcost does. No
    # fractions: a bundled spec's expansions are stored as the plain int and float equal to them.
    code = ("import vidcost\nbefore = set(sys.modules)\nvidcost.load_model_spec()\nvidcost.load_hardware()\n"
            "print(json.dumps(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'numbers'}\n"
            "                        & (set(sys.modules) - before))))")
    assert child(code) == []


SWEEP = ["sweep", "--axis", "frames", "--from", "1", "--to", "3"]


@pytest.mark.parametrize("argv", [["estimate"], SWEEP, [*SWEEP, "--format", "json"], [*SWEEP, "--format", "svg"],
                                  ["roofline"], ["calibrate", "--measurements", "{measurements}"], ["compare"]],
                         ids=["estimate", "sweep", "sweep-json", "sweep-svg", "roofline", "calibrate", "compare"])
def test_commands_on_bundled_data_skip_fractions(argv, tmp_path):
    # No subcommand loads fractions, nor dataclasses and what it imports: the result types are
    # records, which load dataclasses only for a caller of its functions. Nor the utf-8-sig codec:
    # every data file is decoded as UTF-8, its byte order mark dropped by hand.
    # calibrate needs records of one model; the bundled file holds seven, so it gets a synthetic two-row file.
    path = tmp_path / "m.csv"
    path.write_text("model_id,height,width,frames,steps,latency_s\nm,720,1280,81,10,40\nm,720,1280,81,50,200\n")
    argv = [arg.format(measurements=path) for arg in argv]
    modules = {"fractions", "decimal", "numbers", "dataclasses", "inspect", "ast", "dis", "tokenize", "copy",
               "encodings.utf_8_sig"}
    code = ("import contextlib, io\nbefore = set(sys.modules)\nfrom vidcost.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
            f"print(json.dumps(sorted({modules!r} & (set(sys.modules) - before))))")
    assert child(code) == []


def test_roofline_command_skips_cost_layers():
    code = "from vidcost.cli import main\nassert main(['roofline', '--format', 'json']) == 0\n" + LOADED
    loaded = child(code)
    assert "vidcost.roofline" in loaded
    assert not {f"vidcost.{m}" for m in ("cost", "vae", "calibration", "report", "charts")} & set(loaded)


def test_estimate_command_skips_report():
    code = ("import contextlib, io\nfrom vidcost.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n    assert main(['estimate']) == 0\n" + LOADED)
    loaded = child(code)
    assert "vidcost.cost" in loaded
    assert not {"vidcost.report", "vidcost.calibration", "vidcost.charts"} & set(loaded)


def test_public_names_resolve_and_cache():
    code = """import importlib, vidcost
bad = []
for name in vidcost.__all__:
    if name in vars(vidcost):
        bad.append(f'{name} cached before first access')
    value = getattr(vidcost, name)
    if value is not getattr(importlib.import_module('vidcost.' + vidcost._EXPORTS[name]), name):
        bad.append(f'{name} differs from its module')
    if vars(vidcost).get(name) is not value:
        bad.append(f'{name} not cached')
print(json.dumps(bad))"""
    assert child(code) == []


def test_dir_lists_every_public_name():
    # In this process, unlike the checks above, so that ``__dir__`` itself runs under the tests.
    assert set(vidcost._EXPORTS) <= set(dir(vidcost))


def test_unknown_name_and_star_import():
    code = """import vidcost
try:
    vidcost.nope
    missing = False
except AttributeError:
    missing = True
namespace = {}
exec('from vidcost import *', namespace)
print(json.dumps([missing, sorted(set(vidcost.__all__) - namespace.keys()), 'nope' in dir(vidcost),
                  set(vidcost.__all__) <= set(dir(vidcost))]))"""
    assert child(code) == [True, [], False, True]
