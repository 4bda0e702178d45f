"""The input rules of the CLI, one table: each row a bad input, the command that reads it and what it prints.

A row writes its ``files`` into an empty working directory, sets ``env``, runs ``argv`` (split on spaces) through
``vidcost.cli.main`` and must exit with ``code``, print nothing on stdout and exactly ``stderr`` and a newline
on stderr. In ``stderr``, ``{usage}`` stands for the usage text of the row's subcommand, which argparse prints
above its own error line. ``RULES`` groups the rows by the rule they check: ``tests/test_cli.py`` runs section
``name`` as the test ``test_<name>``, each row as the case ``case`` (a section of one row whose case is None is one
plain test). Every ``error:`` line README.md quotes is the stderr of a row here.
"""

import argparse
import copy
import csv
import io
import json
import sys
from pathlib import Path
from typing import NamedTuple

import vidcost
from vidcost.cli import build_parser
from vidcost.specs import load_model_spec, to_dict

DATA = Path(vidcost.__file__).with_name("data")
SPEC_BYTES = (DATA / "wan2.1-t2v-1.3b.json").read_bytes()
SPEC = to_dict(load_model_spec())
CALIBRATION = (Path(__file__).with_name("golden") / "input-calibrate.csv").read_text()
MEASUREMENTS = (DATA / "benchmark_measurements.csv").read_text()
HW_ENTRY = {"name": "toy", "theta_peak": 1e15, "bandwidth": 1e12, "p_max": 100}
DEFAULTS_ENTRY = {"model_id": "animatediff", "steps": 4, "height": 512, "width": 512, "frames": 16}
ANIMATEDIFF = {"model_id": "animatediff", "height": 512, "width": 512, "frames": 16, "steps": 4, "latency_s": 0.68,
               "gpu_wh": 0.115}
HEADER = "model_id,height,width,frames,steps,latency_s\n"
DATA_DIR = {"VIDCOST_DATA_DIR": "data"}  # below the working directory: a file there is named data/<file>
TOO_LARGE = "its FLOP total is too large for a float latency"
MAX_INT = int(sys.float_info.max)
WIDTH_1 = dict(hidden=1, mlp_expansion=1)


class Row(NamedTuple):
    case: str | None
    argv: str
    code: int
    stderr: str
    files: dict = {}
    env: dict = {}


def spec(edit=lambda doc: None, **sections) -> str:
    """The bundled spec's JSON with each of ``sections`` updated by its values, then ``edit``, which changes the
    document in place or returns a list to write instead."""
    doc = copy.deepcopy(SPEC)
    for name, values in sections.items():
        doc[name].update(values)
    edited = edit(doc)
    return json.dumps(edited if isinstance(edited, list) else doc)


def csv_text(rows: list[dict]) -> str:
    """Records as a CSV under their first one's keys; None is an empty cell."""
    table = io.StringIO()
    writer = csv.DictWriter(table, list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return table.getvalue()


def measurements(name: str, rows: list[dict]) -> dict:
    """The file ``name`` holding ``rows``, as a CSV or a JSON list by its suffix."""
    return {name: csv_text(rows) if name.endswith(".csv") else json.dumps(rows)}


def read_by_both(case: str, name: str, rows: list[dict], message: str) -> list[Row]:
    """calibrate and compare rejecting the second of ``rows``, each with one line naming the file and the record."""
    where = "row 3" if name.endswith(".csv") else "record 1"
    return [Row(case + suffix, f"{command} --measurements {name}", 1, f"error: {name}: {where}: {message}",
                measurements(name, rows)) for command, suffix in (("calibrate", ""), ("compare", "-compare"))]


def subcommands() -> dict:
    """Each subcommand's parser, by name: ``{usage}`` is its ``format_usage()``."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def usage_error(case, argv: str, message: str) -> Row:
    return Row(case, argv, 2, f"{{usage}}vidcost {argv.split()[0]}: error: {message}")


def bad_mu(case, mu: str) -> Row:
    return usage_error(case, f"estimate --mu {mu}", f"argument --mu: expected a number in (0, 1], got '{mu}'")


def hardware_int(key: str, bad, shown: str) -> Row:
    """A hardware entry with ``bad`` in its int field ``key``; a published threshold's key is unknown."""
    if key.endswith("_threshold"):
        message = f"hardware[0]: unknown keys ['{key}']"
    else:
        message = f"hardware[0].{key} must be {'one of [1, 2, 4]' if key == 'scalar_bytes' else 'a positive int'}"
        message += f", got {shown}"
    return Row(key if shown == "2.0" else f"{key}-{shown}", "roofline --hardware hw.json", 1,
               f"error: hw.json: {message}", {"hw.json": json.dumps([{**HW_ENTRY, "scalar_bytes": 2, key: bad}])})


def hardware_file(case: str, name: str) -> Row:
    """The file ``case`` of ``HARDWARE_FILES`` as ``name``: ``hw.json`` given by ``--hardware`` (a row without a
    case), or ``data/hardware.json`` found through ``VIDCOST_DATA_DIR``."""
    text, message = HARDWARE_FILES[case]
    by_flag = name == "hw.json"
    return Row(None if by_flag else case, "roofline --hardware hw.json" if by_flag else "roofline", 1,
               f"error: {name}: {message}", {name: text}, {} if by_flag else DATA_DIR)


def bundled_with_row_2(cells: dict) -> str:
    """The bundled measurement CSV with ``cells`` (column -> text) set in its row 2."""
    rows = list(csv.reader(io.StringIO(MEASUREMENTS)))
    rows[1] = [cells.get(column, cell) for column, cell in zip(rows[0], rows[1])]
    return "".join(",".join(row) + "\n" for row in rows)


UNORDERED = "--values: values must be strictly increasing along the swept axis"
SWEEP_FLAGS = {
    "resolution-without-values": ("--axis resolution --from 1 --to 2",
                                  "resolution sweeps need --values with HxW entries"),
    "no-range": ("--axis frames", "sweep needs --from/--to (or --values)"),
    "range-5-1": ("--axis frames --from 5 --to 1", "--from 5 is above --to 1"),
    "range-5-3": ("--axis frames --from 5 --to 3", "--from 5 is above --to 3"),
    "range-above-limit": (f"--axis frames --from 1 --to {10**18}",
                          f"--from 1 --to {10**18} gives {10**18} points, above the limit of 100000"),
    "values-x": ("--axis frames --values 1,x", "--values: expected a positive integer, got 'x'"),
    "values-0": ("--axis frames --values 0,3", "--values: expected a positive integer, got '0'"),
    "values-empty": ("--axis frames --values 1,,2", "--values: expected a positive integer, got ''"),
    "values-no-hxw": ("--axis resolution --values 720x1280,abc", "--values: expected HxW, got 'abc'"),
    "frames-unordered": ("--axis frames --values 5,3", UNORDERED),
    "steps-unordered": ("--axis steps --values 4,4", UNORDERED),
    "resolution-unordered": ("--axis resolution --values 720x1280,1280x720", UNORDERED),  # equal pixel counts
}
HARDWARE_FILES = {  # a hardware file breaking a rule, and the message that names it
    "non-finite": ('[{"name": "toy", "theta_peak": NaN, "bandwidth": 1e12, "p_max": 700}]',
                   "hardware[0].theta_peak must be between 1 and 1e24, got nan"),
    "entry": (json.dumps([HW_ENTRY, {**HW_ENTRY, "name": "bad", "p_max": -1}]),
              "hardware[1].p_max must be between 1 and 1e24, got -1"),
    "not-a-list": ("5", "hardware must be a JSON list or object, got int"),
}
DUPLICATES = {  # a file of each kind whose entries repeat a key, and the message that names it
    "hardware.json": (json.dumps([HW_ENTRY, {**HW_ENTRY, "name": "other"}, {**HW_ENTRY, "p_max": 200}]),
                      "hardware[2]: name 'toy' repeats hardware[0]"),
    "model_defaults.json": (json.dumps([DEFAULTS_ENTRY, DEFAULTS_ENTRY]),
                            "model defaults[1]: model_id 'animatediff' repeats model defaults[0]"),
}
HARDWARE_INTS = ("scalar_bytes", "reference_balance", "reference_attn_threshold", "reference_mlp_threshold")
OVERFLOW_FITS = {
    # Finite FLOP spreads at a theta_peak of 1 whose squares sum past the float range.
    "flops": ("hw.json", [(3 * 10**71, 50, 200), (720, 50, 100)]),
    "latency": ("h100", [(720, 10, 1.7e308), (720, 50, 1.7e308)]),  # latencies that sum past the float range
}
COMPARE_CELLS = {  # the bundled measurements with these cells set in row 2: each value passes, a sum or the ratio not
    "total": ({"gpu_wh": "1e308", "cpu_wh": "1e308"}, "row 2: gpu_wh + cpu_wh + ram_wh is too large for a float"),
    "ratio": ({"gpu_wh": repr(sys.float_info.max)},
              "the total energy ratio wan2.1-t2v-14b / animatediff is too large for a float"),
}
MEASUREMENT_ROWS = [  # a measurement CSV's header and row 2 with one rule broken, and the line that names it
    ("repeated-column", HEADER.replace("\n", ",latency_s\n") + "m,720,1280,81,50,410,410\n",
     "row 1: repeated columns ['latency_s']"),
    ("unknown-column", HEADER.replace("\n", ",watts\n") + "m,720,1280,81,50,410,1\n",
     "row 1: unknown columns ['watts']"),
    ("missing-column", "model_id,height,width,frames,latency_s\nm,720,1280,81,410\n",
     "row 1: missing required columns ['steps']"),
    ("underscore", HEADER + "m,7_20,1280,81,50,410\n", "row 2: height must be an integer"),
    ("integral-float", HEADER + "m,720.0,1280,81,50,410\n", "row 2: height must be an integer"),
    ("not-a-number", HEADER + "m,720,1280,81,50,abc\n", "row 2: latency_s must be a number"),
    ("negative", HEADER + "m,720,1280,81,50,-1\n", "row 2: latency_s must be a positive finite number, got -1.0"),
    ("nan", "model_id,height,width,frames,steps,latency_s,cpu_wh\nm,720,1280,81,50,410,nan\n",
     "row 2: cpu_wh must be a non-negative finite number, got nan"),
    ("no-measure", "model_id,height,width,frames,steps,latency_s,gpu_wh\nm,720,1280,81,50,,\n",
     "row 2: record needs latency_s or gpu_wh"),
    ("long-row", HEADER + "m,720,1280,81,50,410,1\n", "row 2: 7 cells, header has 6"),
    ("unprintable", HEADER + "a\x01b,720,1280,81,50,410\n", "row 2: model_id must be printable text, got 'a\\x01b'"),
]
SPEC_VALUES = [  # a model spec with one value broken, and the message that names it
    ("float-channels", lambda doc: doc["vae"]["layers"][3].update(c_in=16.5),
     "vae.layers[3].c_in must be a positive int, got 16.5"),
    ("kind", lambda doc: doc["vae"]["layers"][0].update(kind="conv2d"),
     "vae.layers[0].kind must be one of ['conv3d', 'attn2d'], got 'conv2d'"),
    ("expansion", lambda doc: doc["dit"].update(mlp_expansion="4/0"),
     "dit.mlp_expansion must be a positive int, float or 'p/q' string, got '4/0'"),
    ("cfg-passes", lambda doc: doc.update(cfg_passes=2.0), "cfg_passes must be one of [1, 2], got 2.0"),
]
HARDWARE_VALUES = [  # a one-entry hardware file with one value broken, and the message that names it
    ("scalar-bytes", {"scalar_bytes": 3}, "hardware[0].scalar_bytes must be one of [1, 2, 4], got 3"),
    ("theta-peak-5e-324", {"theta_peak": 5e-324}, "hardware[0].theta_peak must be between 1 and 1e24, got 5e-324"),
    ("name-escape", {"name": "w\x1b[31m"}, "hardware[0].name must be printable text, got 'w\\x1b[31m'"),
]

RULES = {
    # --- flags ---
    "estimate_rejects_zero_steps": [
        usage_error(None, "estimate --steps 0", "argument --steps: expected a positive integer, got '0'")],
    "estimate_rejects_bad_mu": [bad_mu(None, "1.5")],
    "estimate_bad_mu_names_the_range": [bad_mu(mu, mu) for mu in ("abc", "nan", "0")],
    "flag_a_subcommand_ignores_is_a_usage_error": [
        usage_error(case, argv, f"unrecognized arguments: {' '.join(argv.split()[-2:])}") for case, argv in (
            ("roofline-model", "roofline --model wan2.1-t2v-1.3b"), ("roofline-mu", "roofline --mu 0.5"),
            ("calibrate-mu", "calibrate --measurements m.csv --mu 0.5"),
            ("compare-model", "compare --model wan2.1-t2v-1.3b"), ("compare-hardware", "compare --hardware h100"),
            ("compare-mu", "compare --mu 0.5"))],
    # Each found before any file is read: the one line is the same when --model names a missing file.
    "a_sweep_flag_error_is_one_usage_error_line_before_any_file_is_read": [
        Row(case + suffix, f"sweep {flags}{model}", 2, f"error: {message}")
        for case, (flags, message) in SWEEP_FLAGS.items()
        for suffix, model in (("", ""), ("-missing-model", " --model nope.json"))],
    "estimate_geometry_error_names_the_flags": [
        Row(None, "estimate --height 8", 1, "error: height and width must be at least 16")],
    "huge_steps_is_one_error_line": [
        Row(None, f"estimate --steps {'9' * 321}", 1,
            f"error: job 720x1280, 81 frames, {'9' * 321} steps: {TOO_LARGE}")],
    "job_too_large_for_a_float_latency_names_its_geometry": [
        Row(case, f"{argv} --height {10**160} --format json", 1,
            f"error: job {10**160}x1280, 81 frames, {steps} steps: {TOO_LARGE}")
        for case, argv, steps in (("estimate", "estimate", 50), ("sweep", "sweep --axis steps --from 1 --to 2", 1))],
    "a_name_or_value_the_run_cannot_use_is_one_error_line": [
        Row("model-name", "estimate --model nope", 1,
            "error: no model spec named 'nope' (set VIDCOST_DATA_DIR or pass a path)"),
        Row("mu-5e-324", "estimate --mu 5e-324", 1,
            "error: hardware 'h100' at mu 5e-324: 1.794e+17 FLOPs give a latency or energy no float holds"),
        Row("one-of-several", "estimate --hardware hw.json", 1,
            "error: hw.json holds 2 hardware entries ['toy', 'toy2']; a single accelerator needs a file of one",
            {"hw.json": json.dumps([HW_ENTRY, {**HW_ENTRY, "name": "toy2"}])}),
        Row("measurements-suffix", "calibrate --measurements m.txt", 1,
            "error: m.txt: unsupported measurements format '.txt' (use .csv or .json)", {"m.txt": CALIBRATION})],
    "roofline_unknown_hardware": [
        Row(None, "roofline --hardware cray-1", 1,
            "error: unknown hardware 'cray-1'; available: a100, gaudi3, h100, l4, mi325x, rtx4090, tpu-v6")],
    # --- every data file ---
    "missing_file_names_the_path": [
        Row("model", "estimate --model nope.json", 1, "error: nope.json: No such file or directory"),
        Row("measurements", "calibrate --measurements nope.csv", 1, "error: nope.csv: No such file or directory"),
        Row("out", "estimate --out nope/x.json", 1, "error: nope/x.json: No such file or directory")],
    "calibrate_missing_file": [
        Row(None, "calibrate --measurements nope.json", 1, "error: nope.json: No such file or directory")],
    "malformed_json_names_the_file": [
        Row(case, f"{argv} {name}", 1,
            f"error: {name}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)", {name: "{"})
        for case, argv, name in (("measurements", "calibrate --measurements", "m.json"),
                                 ("hardware", "roofline --hardware", "hw.json"),
                                 ("defaults", "compare --defaults", "d.json"),
                                 ("model", "estimate --model", "spec.json"))],
    "json_nested_too_deeply_is_one_error_line": [
        Row(case, f"{argv} {name}", 1, f"error: {name}: JSON nested too deeply", {name: "[" * 100_000})
        for case, argv, name in (("model", "estimate --model", "spec.json"),
                                 ("hardware", "estimate --hardware", "hw.json"),
                                 ("defaults", "compare --defaults", "d.json"),
                                 ("measurements", "calibrate --measurements", "m.json"))],
    # A byte that is not UTF-8 stays in the text as a lone surrogate: a text field's check names it, as the parser
    # does outside a string, counting the characters as they are in the file.
    "a_byte_that_is_not_utf8_is_named_where_it_is": [
        Row("in-a-string", "estimate --model spec.json", 1,
            "error: spec.json: model_id must be printable text, got 'wan\\udcff'",
            {"spec.json": SPEC_BYTES.replace(b'"wan2.1-t2v-1.3b"', b'"wan\xff"', 1)}),
        Row("outside-a-string", "estimate --model spec.json", 1,
            "error: spec.json: Expecting property name enclosed in double quotes: line 6 column 5 (char 87)",
            {"spec.json": SPEC_BYTES.replace(b'"hidden"', b'\xff"hidden"', 1)}),
        Row("csv-row", "calibrate --measurements m.csv", 1,
            "error: m.csv: row 2: model_id must be printable text, got '\\udcffm'",
            {"m.csv": HEADER.encode() + b"\xffm,720,1280,81,50,410\n"})],
    "a_data_dir_file_is_named_by_its_path": [hardware_file(case, "data/hardware.json") for case in HARDWARE_FILES],
    # --- model specs ---
    "bad_model_spec_is_one_error_line": [
        Row(case, "estimate --model spec.json", 1, f"error: spec.json: {message}", {"spec.json": spec(edit)})
        for case, edit, message in (
            ("unknown-key", lambda doc: doc["dit"].update(bogus=1), "dit: unknown keys ['bogus']"),
            ("unknown-layer-key", lambda doc: doc["vae"]["layers"][2].update(bogus=1),
             "vae.layers[2]: unknown keys ['bogus']"),
            ("missing-key", lambda doc: doc.pop("text_encoder"), "model spec: missing keys ['text_encoder']"),
            ("top-level-list", lambda doc: [doc], "model spec must be a JSON object, got list"),
            ("unprintable-label", lambda doc: doc["vae"]["layers"][2].update(label="conv\tin"),
             "vae.layers[2].label must be printable text, got 'conv\\tin'"),
            ("int-label", lambda doc: doc["vae"]["layers"][2].update(label=5),
             "vae.layers[2].label must be a string, got 5"))],
    "a_spec_value_breaking_its_field_rule_is_one_error_line": [
        Row(case, "estimate --model spec.json", 1, f"error: spec.json: {message}", {"spec.json": spec(edit)})
        for case, edit, message in SPEC_VALUES] + [
        Row(case, "roofline --hardware hw.json", 1, f"error: hw.json: {message}",
            {"hw.json": json.dumps([{**HW_ENTRY, **values}])}) for case, values, message in HARDWARE_VALUES],
    "spec_that_no_job_can_be_costed_on_is_rejected_on_load": [
        Row(case, f"{argv} --model big.json", 1, "error: big.json: dit.layers, hidden, mlp_expansion, text_tokens and "
            "timestep_hidden: every job's FLOP total is too large for a float",
            {"big.json": spec(dit={"layers": 10**400}), "m.csv": CALIBRATION})
        for case, argv in (("estimate", "estimate"), ("sweep", "sweep --axis frames --from 1 --to 3"),
                           ("calibrate", "calibrate --measurements m.csv"))],
    "spec_whose_flop_terms_sum_beyond_a_float_is_rejected_on_load": [
        Row(f"{case}-{command}", f"{argv} --model big.json", 1,
            f"error: big.json: {fields}: every job's FLOP total is too large for a float",
            {"big.json": spec(**sections), "m.csv": CALIBRATION})
        for case, sections, fields in (
            # The DiT's terms each fit a float, but not their sum.
            ("sum", {"dit": dict(WIDTH_1, layers=MAX_INT // 16, text_tokens=1, timestep_hidden=1)},
             "dit.layers, hidden, mlp_expansion, text_tokens and timestep_hidden"),
            # Each section fits a float, but not the sum over them.
            ("cross", {"dit": dict(WIDTH_1, layers=MAX_INT // 40, text_tokens=1, timestep_hidden=1),
                       "text_encoder": dict(WIDTH_1, layers=MAX_INT // 17, tokens=1)}, "dit, text_encoder and vae"))
        for command, argv in (("estimate", "estimate"), ("calibrate", "calibrate --measurements m.csv"))],
    "text_encoder_whose_feed_forward_term_is_not_integral_is_rejected_on_load": [
        Row(command, f"{argv} --model spec.json", 1, "error: spec.json: text_encoder.mlp_expansion: the feed-forward "
            "term is not an integer FLOP count (1/2)",
            {"spec.json": spec(lambda doc: doc.update(text_encoder={"layers": 1, "hidden": 1, "mlp_expansion": "1/8",
                                                                    "tokens": 1})),
             "m.csv": HEADER + "m,720,1280,81,10,1\nm,720,1280,81,20,2\n"})
        for command, argv in (("estimate", "estimate"), ("calibrate", "calibrate --measurements m.csv"))],
    "spec_files_reject_a_repeated_key": [
        Row("model", "estimate --model spec.json", 1, "error: spec.json: dit: repeated keys ['hidden']",
            {"spec.json": SPEC_BYTES.replace(b'"hidden": 2048,', b'"hidden": 2048, "hidden": 1024,', 1)}),
        Row("hardware", "roofline --hardware hw.json", 1, "error: hw.json: hardware[0]: repeated keys ['p_max']",
            {"hw.json": json.dumps([HW_ENTRY])[:-2] + ', "p_max": 200}]'}),
        Row("defaults", "compare --defaults d.json", 1,
            "error: d.json: model defaults[0]: repeated keys ['model_id', 'steps']",
            {"d.json": json.dumps([DEFAULTS_ENTRY])[:-2] + ', "steps": 8, "model_id": "x"}]'})],
    # --- hardware and model-defaults files ---
    # The published thresholds are test data, not hardware fields: their keys are unknown, an int included.
    "hardware_int_field_rejects_non_int": [
        hardware_int(key, bad, shown) for key in HARDWARE_INTS
        for bad, shown in ((2.0, "2.0"), (True, "True"), (16.5, "16.5"), *[(295, "295")] * key.endswith("_threshold"))],
    "roofline_rejects_non_finite_hardware": [hardware_file("non-finite", "hw.json")],
    # A balance that overflows needs a theta_peak or bandwidth outside [1, 1e24], which loading rejects.
    "roofline_rejects_an_overflowing_balance": [
        Row(None, "roofline --hardware hw.json", 1,
            "error: hw.json: hardware[0].theta_peak must be between 1 and 1e24, got 1e+308",
            {"hw.json": '[{"name": "toy", "theta_peak": 1e308, "bandwidth": 1e-300, "p_max": 700}]'})],
    "hardware_error_names_the_entry": [hardware_file("entry", "hw.json")],
    "bad_hardware_file_is_one_error_line": [hardware_file("not-a-list", "hw.json")],
    "removed_entry_key_is_unknown": [
        Row(key, argv, 1, f"error: {name}: {what}[0]: unknown keys ['{key}']",
            {name: json.dumps([{**entry, key: True}])})
        for key, argv, name, what, entry in (
            ("display_name", "roofline --hardware hw.json", "hw.json", "hardware", HW_ENTRY),
            ("balance_consistent", "roofline --hardware hw.json", "hw.json", "hardware", HW_ENTRY),
            ("fps", "compare --defaults d.json", "d.json", "model defaults", DEFAULTS_ENTRY))],
    "bad_model_defaults_is_one_error_line": [
        Row(case, "compare --defaults d.json", 1, f"error: d.json: {message}", {"d.json": text})
        for case, text, message in (
            ("not-a-list", "5", "model defaults must be a JSON list or object, got int"),
            ("missing-keys", '[{"model_id": "a", "steps": 50}]',
             "model defaults[0]: missing keys ['height', 'width', 'frames']"))],
    "defaults_entry_with_a_bad_job_shape_is_rejected_on_load": [
        Row(case, argv, 1, f"error: {name}: model defaults[1].height and width must be at least 16",
            {name: json.dumps([DEFAULTS_ENTRY, {**DEFAULTS_ENTRY, "model_id": "tiny", "height": 8}])}, env)
        for case, argv, name, env in (("path", "compare --defaults model_defaults.json", "model_defaults.json", {}),
                                      ("data-dir", "estimate", "data/model_defaults.json", DATA_DIR),
                                      ("data-dir-compare", "compare", "data/model_defaults.json", DATA_DIR))],
    "duplicate_entries_are_one_error_line": [
        Row(case, argv, 1, f"error: {folder}{name}: {DUPLICATES[name][1]}",
            {folder + file: text for file, (text, _) in DUPLICATES.items()}, env)
        for case, argv, folder, name, env in (
            ("path", "roofline --hardware hardware.json", "", "hardware.json", {}),
            ("data-dir", "roofline", "data/", "hardware.json", DATA_DIR),
            ("path-defaults", "compare --defaults model_defaults.json", "", "model_defaults.json", {}),
            ("data-dir-defaults", "compare", "data/", "model_defaults.json", DATA_DIR))],
    # --- measurement files ---
    "a_measurement_file_breaking_a_column_rule_is_one_error_line": [
        Row(case, "calibrate --measurements m.csv", 1, f"error: m.csv: {message}", {"m.csv": text})
        for case, text, message in MEASUREMENT_ROWS] + [
        Row("json-repeated-key", "calibrate --measurements m.json", 1,
            "error: m.json: record 0: repeated columns ['latency_s']",
            {"m.json": '[{"model_id": "m", "height": 720, "width": 1280, "frames": 81, "steps": 50, "latency_s": 40, '
                       '"latency_s": 4000}]'}),
        Row("json-bool", "calibrate --measurements m.json", 1, "error: m.json: record 0: height must be an integer",
            measurements("m.json", [{**ANIMATEDIFF, "height": True}]))],
    "bad_measurements_json_is_one_error_line": [
        Row(case, "calibrate --measurements m.json", 1, f"error: m.json: {message}", {"m.json": text})
        for case, text, message in (("list-of-lists", "[[1, 2]]", "record 0 must be a JSON object, got list"),
                                    ("object", '{"a": 1}', "measurements must be a JSON list of objects, got dict"))],
    "calibrate_rejects_non_finite": [
        Row("csv", "calibrate --measurements m.csv", 1,
            "error: m.csv: row 3: latency_s must be a positive finite number, got nan",
            {"m.csv": HEADER + "a,720,1280,81,50,410\na,720,1280,81,25,nan\n"}),
        Row("json", "calibrate --measurements m.json", 1,
            "error: m.json: record 1: gpu_wh must be a positive finite number, got inf",
            measurements("m.json", [
                {"model_id": "a", "height": 720, "width": 1280, "frames": 81, "steps": 50, "latency_s": 410.0},
                {"model_id": "a", "height": 720, "width": 1280, "frames": 81, "steps": 25, "gpu_wh": float("inf")}]))],
    "calibrate_over_limit_cell_is_one_error_line": [
        Row(case, "calibrate --measurements m.csv", 1,
            f"error: m.csv: row {row}: field larger than field limit ({csv.field_size_limit()})",
            {"m.csv": "".join([HEADER, "a,720,1280,81,50,410\n"][:row - 1]) + "a," + "x" * (csv.field_size_limit() + 1)
             + "\n"}) for case, row in (("header", 1), ("first-record", 2), ("second-record", 3))],
    "measurement_geometry_is_checked_on_read": [
        row for suffix in (".csv", ".json") for field, value, message in (
            ("height", 8, "height and width must be at least 16"),
            ("width", 15, "height and width must be at least 16"),
            ("frames", 0, "frames must be at least 1"), ("steps", 0, "steps must be at least 1"))
        for row in read_by_both(f"{field}-{value}-{message}-{suffix}", f"m{suffix}",
                                [ANIMATEDIFF, {**ANIMATEDIFF, field: value}], message)],
    "measurement_too_large_for_a_float_names_its_column": [
        row for suffix, field, message in (
            (".csv", "height", "height is too large for a float"),
            (".json", "height", "height is too large for a float"),
            (".csv", "latency_s", "latency_s must be a positive finite number, got inf"),
            (".json", "latency_s", "latency_s is too large for a float"))
        for row in read_by_both(f"{suffix}-{field}-{message}", f"m{suffix}",
                                [ANIMATEDIFF, {**ANIMATEDIFF, field: 10**400}], message)],
    # --- what calibrate and compare make of the records ---
    "calibrate_names_the_file_with_too_few_records": [
        Row(case, "calibrate --measurements m.csv", 1, "error: m.csv: need at least two measurement records to fit",
            {"m.csv": text}) for case, text in (("one-record", HEADER + "wan2.1-t2v-1.3b,720,1280,81,10,40\n"),
                                                ("header-only", HEADER), ("empty", ""))],
    # The row passes the reader, as its height fits a float; its FLOP total does not. Row 3: the header is row 1.
    "calibrate_names_the_file_and_record_whose_flop_total_is_too_large": [
        Row(None, "calibrate --measurements m.csv", 1,
            f"error: m.csv: row 3: job {10**160}x1280, 81 frames, 50 steps: {TOO_LARGE}",
            {"m.csv": f"{HEADER}wan2.1-t2v-1.3b,720,1280,81,10,40\nwan2.1-t2v-1.3b,{10**160},1280,81,50,200\n"})],
    "calibrate_names_a_json_record_whose_flop_total_is_too_large_by_its_index": [
        Row(None, "calibrate --measurements m.json", 1,
            f"error: m.json: record 1: job {10**160}x1280, 81 frames, 50 steps: {TOO_LARGE}",
            measurements("m.json", [{"model_id": "wan2.1-t2v-1.3b", "height": h, "width": 1280, "frames": 81,
                                     "steps": 50, "latency_s": 200} for h in (720, 10**160)]))],
    "calibrate_names_a_fit_whose_sums_overflow": [
        Row(case, f"calibrate --hardware {hardware} --measurements m.csv", 1,
            "error: m.csv: degenerate fit: a sum over the records is too large for a float",
            {"hw.json": json.dumps([{"name": "unit", "theta_peak": 1, "bandwidth": 1, "p_max": 1}]),
             "m.csv": HEADER + "".join(f"wan2.1-t2v-1.3b,{h},1280,81,{steps},{lat!r}\n" for h, steps, lat in rows)})
        for case, (hardware, rows) in OVERFLOW_FITS.items()],
    "compare_errors_name_the_measurement_file": [
        Row(None, "compare --measurements m.csv", 1,
            "error: m.csv: row 2: measurement for unknown model_id 'unknown-model'",
            measurements("m.csv", [{**ANIMATEDIFF, "model_id": "unknown-model"}]))],
    "compare_incomplete_record_error_names_the_file": [
        Row(None, "compare --measurements m.csv", 1,
            "error: m.csv: row 2: comparison needs latency_s and gpu_wh for 'animatediff'",
            {"m.csv": HEADER + "animatediff,512,512,16,4,0.68\n"})],
    "compare_names_the_record_as_calibrate_does": [
        Row(f"{case}-{suffix}", f"compare --measurements m{suffix}", 1,
            f"error: m{suffix}: {'row 3' if suffix == '.csv' else 'record 1'}: {message}",
            measurements(f"m{suffix}", [ANIMATEDIFF, {**ANIMATEDIFF, "gpu_wh": None, **row}]))
        for suffix in (".csv", ".json") for case, row, message in (
            ("unknown-model", {"model_id": "not-a-model", "gpu_wh": 0.115},
             "measurement for unknown model_id 'not-a-model'"),
            ("no-gpu-wh", {"model_id": "ltx-video"}, "comparison needs latency_s and gpu_wh for 'ltx-video'"))],
    "compare_rejects_a_total_or_ratio_no_float_holds": [
        Row(f"{case}-{fmt}", f"compare --measurements m.csv --format {fmt}", 1, f"error: m.csv: {message}",
            {"m.csv": bundled_with_row_2(cells)})
        for case, (cells, message) in COMPARE_CELLS.items() for fmt in ("table", "csv", "json", "svg")],
}
# json alone keeps the last of a repeated key: the model spec that repeats "hidden" would be costed at 1024.
assert json.loads(RULES["spec_files_reject_a_repeated_key"][0].files["spec.json"])["dit"]["hidden"] == 1024
ROWS = [row for rows in RULES.values() for row in rows]
