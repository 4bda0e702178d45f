"""Seeded input generators for the benchmark workloads.

Every op input is a pure function of (workload, seed, index), so a seed
names the same inputs in every run, whatever the speed of the machine. Ops
come in blocks that hold every op kind or size stratum of a workload once,
in a seeded order, so the mix of a short run does not depend on the seed.
Inputs are plain data (ints, strings, bytes); vidcost objects are built from
them inside the timed op.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import random

# Each kind comes once per block of nine ops. Nothing in the repository says
# how often each command is run, so the weights are an unverified assumption:
# equal weights put every subcommand and output format in each block, and so
# in even a short run.
CLI_KINDS = ("estimate-json", "estimate-csv", "estimate-table", "roofline", "compare",
             "sweep-csv", "sweep-json", "sweep-svg", "calibrate")
TEXT_FORMATS = ("table", "csv", "json")

JOBS_PER_QUERY = 200
MODEL_VARIANTS = 3

CALIBRATION_RECORDS = (50, 2000)
# A block of ops draws one record count from each of this many equal strata of
# the range, so every run covers the range evenly, whatever the seed.
SIZE_STRATA = 9
GOLDEN = 0.6180339887498949
ENERGY_ONLY_SHARE = 0.2
MEASUREMENT_NOISE = 0.03

# Stands for the measurement file a `calibrate` CLI op writes before it runs.
MEASUREMENTS_ARG = "{measurements}"


def _rng(*parts) -> random.Random:
    # String seeds hash with SHA-512 in `random`, independent of PYTHONHASHSEED.
    return random.Random("/".join(str(p) for p in parts))


def _block_slot(workload: str, seed: int, index: int, size: int) -> int:
    block, pos = divmod(index, size)
    order = list(range(size))
    _rng(workload, seed, "block", block).shuffle(order)
    return order[pos]


def _job(rng: random.Random, cfg_passes: int | None = None) -> tuple[int, int, int, int, int]:
    """(height, width, frames, steps, cfg_passes); sizes are often not multiples of 16."""
    return (
        rng.randint(256, 1280),
        rng.randint(256, 1280),
        rng.randint(1, 129),
        rng.randint(1, 60),
        cfg_passes if cfg_passes is not None else rng.choice((1, 2)),
    )


def _mu(rng: random.Random) -> float:
    # Three decimals, so the value survives a round trip through CLI text.
    return round(rng.uniform(0.2, 0.9), 3)


def model_variants(seed: int, base: dict) -> list[dict]:
    """The bundled model spec plus seeded variants, as spec JSON documents.

    Variants change widths, depths, fractional expansions, VAE repeats and
    non-power-of-two grid divisors, but keep the number of VAE rows, so every
    variant costs about the same to account.
    """
    rng = _rng("models", seed)
    out = [copy.deepcopy(base)]
    for k in range(MODEL_VARIANTS):
        spec = copy.deepcopy(base)
        spec["model_id"] = f"{base['model_id']}-variant{k}"
        dit = spec["dit"]
        dit["layers"] = rng.randint(20, 40)
        # Multiples of 3 keep FLOP counts integral under the 8/3 expansion.
        dit["hidden"] = 384 * rng.randint(4, 8)
        dit["mlp_expansion"] = rng.choice(("8/3", "7/2", "11/4", 4))
        text = spec["text_encoder"]
        text["layers"] = rng.randint(12, 24)
        text["hidden"] = 768 * rng.randint(2, 6)
        text["mlp_expansion"] = rng.choice(("5/2", "8/3", 4))
        text["tokens"] = rng.randint(256, 512)
        for row in spec["vae"]["layers"]:
            if row["kind"] == "conv3d":
                row["repeat"] = rng.randint(1, 3)
                row["h_div"] = rng.choice((1, 2, 3, 4, 5, 6, 8, 12))
                row["w_div"] = rng.choice((1, 2, 3, 4, 5, 6, 8, 12))
        out.append(spec)
    return out


def measurement_csv(rng: random.Random, count: int, flops_of, hardware: dict, model_id: str) -> bytes:
    """A measurement CSV drawn from a known efficiency with multiplicative noise.

    ``flops_of`` maps a job tuple to its exact FLOP total. About a fifth of
    the rows are energy-only: they carry gpu_wh and no latency.
    """
    mu = rng.uniform(0.3, 0.7)
    overhead_s = rng.uniform(0.0, 5.0)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("model_id", "height", "width", "frames", "steps", "latency_s", "gpu_wh"))
    for _ in range(count):
        job = _job(rng, cfg_passes=2)
        latency_s = flops_of(job) / (mu * hardware["theta_peak"]) + overhead_s
        latency_s *= math.exp(rng.gauss(0.0, MEASUREMENT_NOISE))
        if rng.random() < ENERGY_ONLY_SHARE:
            row = ("", repr(hardware["p_max"] * latency_s / 3600.0))
        else:
            row = (repr(latency_s), "")
        writer.writerow((model_id, *job[:4], *row))
    return buf.getvalue().encode("utf-8")


def cli_op(seed: int, index: int, hardware: dict, flops_of) -> dict:
    """One `vidcost` command line, with what the checks need to know about it."""
    kind = CLI_KINDS[_block_slot("cli-oneshot", seed, index, len(CLI_KINDS))]
    rng = _rng("cli-oneshot", seed, index)
    names = sorted(hardware)
    op = {"kind": kind}
    if kind.startswith("estimate"):
        job, hw, mu, fmt = _job(rng), rng.choice(names), _mu(rng), kind.split("-")[1]
        op.update(job=job, hardware=hw, mu=mu, format=fmt)
        op["argv"] = ["estimate", *_job_flags(job), "--hardware", hw, "--mu", repr(mu), "--format", fmt]
    elif kind == "roofline":
        hw, fmt = rng.choice([None, *names]), rng.choice(TEXT_FORMATS)
        op.update(hardware=hw, format=fmt)
        op["argv"] = ["roofline", "--format", fmt] + (["--hardware", hw] if hw else [])
    elif kind == "compare":
        op["format"] = rng.choice(TEXT_FORMATS)
        op["argv"] = ["compare", "--format", op["format"]]
    elif kind.startswith("sweep"):
        axis, start, step = rng.choice(("frames", "steps")), rng.randint(1, 40), rng.randint(1, 4)
        count = rng.randint(8, 40)
        fixed, hw, mu, fmt = _job(rng), rng.choice(names), _mu(rng), kind.split("-")[1]
        values = [start + step * i for i in range(count)]
        op.update(axis=axis, values=values, fixed=fixed, hardware=hw, mu=mu, format=fmt)
        op["argv"] = ["sweep", "--axis", axis, "--from", str(start), "--to", str(values[-1]), "--step", str(step),
                      *_job_flags(fixed), "--hardware", hw, "--mu", repr(mu), "--format", fmt]
    else:
        hw, fmt = rng.choice(names), rng.choice(TEXT_FORMATS)
        op.update(hardware=hw, format=fmt, model_id="wan2.1-t2v-1.3b")
        op["measurements"] = measurement_csv(rng, rng.randint(8, 40), flops_of, hardware[hw], op["model_id"])
        op["argv"] = ["calibrate", "--measurements", MEASUREMENTS_ARG, "--hardware", hw, "--format", fmt]
    return op


def _job_flags(job) -> list[str]:
    h, w, frames, steps, cfg = job
    return ["--height", str(h), "--width", str(w), "--frames", str(frames),
            "--steps", str(steps), "--cfg-passes", str(cfg)]


def estimate_query(seed: int, index: int, n_models: int, hardware_names: list[str]) -> dict:
    """One design query: a model x hardware pair and JOBS_PER_QUERY jobs."""
    pairs = n_models * len(hardware_names)
    model, hw = divmod(_block_slot("estimate-mix", seed, index, pairs), len(hardware_names))
    rng = _rng("estimate-mix", seed, index)
    return {"model": model, "hardware": hardware_names[hw], "mu": _mu(rng),
            "jobs": [_job(rng) for _ in range(JOBS_PER_QUERY)]}


def calibration_op(seed: int, index: int, hardware: dict, flops_of, model_id: str) -> dict:
    """One measurement CSV of 50-2000 records, as bytes, plus the hardware to fit on.

    Record counts are uniform over the range. Nothing in the repository says
    how measurement files are sized in use, so the uniform shape is an
    unverified assumption, the plainest reading of the range. Within its
    stratum, a count's place follows a golden-ratio sequence over blocks from
    a seeded start, so even a run's first blocks spread evenly.
    """
    block, _ = divmod(index, SIZE_STRATA)
    stratum = _block_slot("calibrate-fit/size", seed, index, SIZE_STRATA)
    u = (_rng("calibrate-fit", seed, "size").random() + block * GOLDEN) % 1.0
    lo, hi = CALIBRATION_RECORDS
    count = round(lo + (hi - lo) * (stratum + u) / SIZE_STRATA)
    rng = _rng("calibrate-fit", seed, index)
    hw = rng.choice(sorted(hardware))
    return {"hardware": hw, "csv": measurement_csv(rng, count, flops_of, hardware[hw], model_id)}


class Digest:
    """SHA-256 over the canonical JSON of every op input fed to it, in order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, op) -> None:
        text = json.dumps(op, sort_keys=True, default=lambda b: hashlib.sha256(b).hexdigest())
        self._hash.update(text.encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
