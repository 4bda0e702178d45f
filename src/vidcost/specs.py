"""Architecture, job, and hardware descriptions that parameterize the cost model.

Every spec type derives from ``Spec``: it validates on construction, is
immutable (``spec.replace(...)`` builds a checked copy) and is safe to share
across threads. Model specs (transformer + text encoder + VAE decoder schedule)
load from a single JSON config file; a spec for ``wan2.1-t2v-1.3b`` ships with
the package, as does a small database of accelerator constants. ``data_path``
finds every data file: one in ``VIDCOST_DATA_DIR`` shadows the bundled one.

The field annotations of the spec classes are their schema: ``Record``, the base
of the spec and result types, takes its fields and defaults from them (from the
annotated parameters of a class's own constructor, when it writes one),
``Spec._check_fields`` checks each field by them on construction, and
``from_dict`` and ``to_dict`` read and write JSON by them.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial
from pathlib import Path

DATA_DIR_ENV = "VIDCOST_DATA_DIR"

DEFAULT_MODEL_ID = "wan2.1-t2v-1.3b"
DEFAULT_HARDWARE = "h100"

_MAX = math.nextafter(math.inf, 0.0)  # the largest float


def exact_div(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator, which must be an integer so FLOP counts stay exact."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        gcd = math.gcd(numerator, denominator)  # printed as the reduced p/q
        raise ValueError(f"{what} is not an integer FLOP count ({numerator // gcd}/{denominator // gcd})")
    return quotient


def _within_float(fields: str, *flops: int) -> int:
    """The sum of a spec's per-model FLOP terms, or a ValueError when no float holds it: every job's FLOP total is
    at least that sum, as every multiplier is at least 1 and every term at least 0, so no job has a float latency."""
    total = sum(flops)
    if total > _MAX:  # exact: Python compares an int with a float without rounding either
        raise ValueError(f"{fields}: every job's FLOP total is too large for a float")
    return total


class _DataclassFields:
    """A record's ``__dataclass_fields__`` or ``__dataclass_params__``, read from one dataclass made on first use."""

    def __set_name__(self, owner, name) -> None:
        self.name = name

    def __get__(self, record, cls):
        if "_dataclass" not in vars(cls):  # not inherited: a subclass may add fields
            from dataclasses import make_dataclass

            cls._dataclass = make_dataclass(cls.__name__, list(cls._fields.items()))
        return getattr(cls._dataclass, self.name)


class Record:
    """An immutable value whose fields are declared once, in order with their defaults: as the annotations of its
    class body, or as the annotated parameters of the constructor its class writes. Equality, hash and repr see
    the fields only, not the constants a spec derives into ``__dict__`` on
    construction; no ``__slots__``, as those constants, pickle and ``copy`` write ``__dict__``."""

    __dataclass_fields__, __dataclass_params__ = _DataclassFields(), _DataclassFields()  # for dataclasses and pprint

    def __init_subclass__(cls) -> None:
        init = vars(cls).get("__init__")
        if init is None:
            cls._fields = {**getattr(cls, "_fields", {}), **cls.__annotations__}  # name -> annotation, in order
            cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        else:  # the positional parameters of the constructor the class writes
            names, defaults = init.__code__.co_varnames[1:init.__code__.co_argcount], init.__defaults__ or ()
            unannotated = [name for name in names if name not in init.__annotations__]
            if unannotated or cls.__annotations__:  # declared once: the class body declares no field beside it
                raise TypeError(f"{cls.__qualname__} declares its fields as the annotated parameters of its __init__ "
                                f"only; unannotated: {unannotated}, in its body: {list(cls.__annotations__)}")
            cls._fields = {name: init.__annotations__[name] for name in names}
            cls._defaults = dict(zip(names[len(names) - len(defaults):], defaults))
        cls.__match_args__ = tuple(cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        cls, values = type(self), dict(zip(type(self)._fields, args), **kwargs) if args else kwargs
        # A repeated or surplus argument leaves ``values`` short; an unknown or missing one, its keys wrong.
        if len(values) < len(args) + len(kwargs) or values.keys() | cls._defaults.keys() != cls._fields.keys():
            raise TypeError(f"{cls.__name__}() takes the fields {list(cls._fields)}, each once; "
                            f"got {len(args)} positional and the keywords {list(kwargs)}")
        self.__dict__.update(cls._defaults, **values)
        self._check_fields()
        self._check()

    def _check_fields(self) -> None:
        """Checks of each field on its own: none here."""

    def _check(self) -> None:
        """Checks across fields, run once each field has passed its own; a spec also derives its constants here."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; use replace() to change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` made to its fields, checked as the constructor checks it."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class Spec(Record):
    """A record whose field annotations are its schema, each field checked by its annotation."""

    def _check_fields(self) -> None:
        """Check every field by its annotation, storing the value its check returns."""
        values = self.__dict__
        for name, annotation in self._fields.items():
            check = _FIELD_CHECKS.get(annotation) if type(annotation) is str else None
            if check is None:  # e.g. a class object, from a module without ``from __future__ import annotations``
                raise TypeError(f"{type(self).__qualname__}.{name} is annotated {annotation!r}, but a spec "
                                f"field's annotation must be one of the schema's strings {list(_FIELD_CHECKS)}")
            values[name] = check(name, values[name])


class VideoJob(Spec):
    """A single generation request: output geometry plus sampler settings."""

    def __init__(self, height_px: int, width_px: int, frames: int, steps: int, cfg_passes: int = 2) -> None:
        # Hand-written rather than the generic one, as a job is built per estimate; filled a field at a time.
        values = self.__dict__
        values["height_px"], values["width_px"], values["frames"] = height_px, width_px, frames
        values["steps"], values["cfg_passes"] = steps, cfg_passes
        # Exact int, so FLOP counts stay ints: bool, float and int-like types are rejected.
        if (type(height_px) is not int or type(width_px) is not int or type(frames) is not int
                or type(steps) is not int or type(cfg_passes) is not int):
            name = next(name for name in self._fields if type(vars(self)[name]) is not int)
            raise ValueError(f"{name} must be an int, got {vars(self)[name]!r}")
        if height_px < 16 or width_px < 16:
            raise ValueError("height and width must be at least 16")
        if frames < 1:
            raise ValueError("frames must be at least 1")
        if steps < 1:
            raise ValueError("steps must be at least 1")
        if cfg_passes not in (1, 2):
            raise ValueError("cfg_passes must be 1 (no guidance) or 2 (guided)")


# Each axis a sweep may take, with the VideoJob fields a value along it sets: a resolution is a (height, width) pair.
SWEEP_AXES = {"resolution": ("height_px", "width_px"), "frames": ("frames",), "steps": ("steps",)}


def increasing_along(axis: str, values: tuple) -> tuple:
    """``values`` (a resolution's pairs as tuples) if they rise strictly along ``axis``, a resolution by pixel count."""
    keys = [h * w for h, w in values] if axis == "resolution" else values
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError("values must be strictly increasing along the swept axis")
    return tuple(map(tuple, values)) if axis == "resolution" else values


class DiTSpec(Spec):
    """Diffusion-transformer hyperparameters.

    Field defaults are the WAN2.1-T2V-1.3B values. ``mlp_expansion`` is kept as an exact rational so FLOP counts
    stay exact integers: the int, else the float, else the ``Fraction`` that equals it.
    """

    layers: int = 32
    hidden: int = 2048
    mlp_expansion: Fraction = 4
    text_tokens: int = 512
    timestep_hidden: int = 256
    patch_h: int = 2
    patch_w: int = 2
    vae_t_down: int = 4
    vae_s_down: int = 8

    def _check(self) -> None:
        """Store the constants of the formulas in ``cost``, for l tokens: self-attention N * (8*l*d^2 + 4*l^2*d) is
        l * (a + l*b) and cross-attention N * (4*l*d^2 + 4*l*m*d + 4*m*d^2) is l*a + b, each kept as (a, b); each
        latent grid divisor is kept with the addend of its ceiling, as ceil((T-1)/t) = (T + t-2) // t."""
        n, d, m = self.layers, self.hidden, self.text_tokens
        p, q = self.mlp_expansion.as_integer_ratio()
        t, s_h, s_w = self.vae_t_down, self.vae_s_down * self.patch_h, self.vae_s_down * self.patch_w
        self.__dict__.update(mlp_ratio=(p, q),  # f = p/q as plain ints, so that no per-job arithmetic is on a Fraction
                             mlp_coefficient=(4 * n * p * d * d, q),  # N * 4*f*d^2 per token, over q
                             self_attn_coefficients=(8 * n * d * d, 4 * n * d),
                             cross_attn_coefficients=(4 * n * d * (d + m), 4 * n * m * d * d),
                             timestep_flops=2 * self.timestep_hidden * d + 14 * d * d,  # per pass: 2*d_tau*d + 14*d^2
                             latent_strides=(t, t - 2, s_h, s_h - 1, s_w, s_w - 1))
        # The feed-forward coefficient counts by its value p/q, rounded up, as a job's MLP FLOPs are at least it.
        self.__dict__["least_flops"] = _within_float(
            "layers, hidden, mlp_expansion, text_tokens and timestep_hidden", *self.self_attn_coefficients,
            *self.cross_attn_coefficients, -(-self.mlp_coefficient[0] // q), self.timestep_flops)


class TextEncoderSpec(Spec):
    """Text-encoder hyperparameters; defaults are the T5-XXL-style encoder of WAN2.1.

    A job encodes its prompt once per guidance pass, so the encoder runs the
    job's ``cfg_passes`` times.
    """

    layers: int = 24
    hidden: int = 4096
    mlp_expansion: Fraction = 2.5
    tokens: int = 512

    def _check(self) -> None:
        """Store ``flops_per_pass``, the FLOPs of one pass: L * (8*m*d^2 + 4*m^2*d + 4*f*m*d^2). With a
        fractional expansion factor, the feed-forward term of all L layers must come out integral, as the DiT's."""
        n, m, d = self.layers, self.tokens, self.hidden
        p, q = self.mlp_expansion.as_integer_ratio()
        ffn = exact_div(n * 4 * p * m * d * d, q, "mlp_expansion: the feed-forward term")
        self.__dict__["flops_per_pass"] = n * (8 * m * d * d + 4 * m * m * d) + ffn
        _within_float("layers, hidden, mlp_expansion and tokens", self.flops_per_pass)


# How a decoder row's output temporal length derives from the frame count,
# T' = ceil(T / divisor): each value ``VAEDecoderLayer.t_rule`` may take, with its divisor.
TIME_RULES = {"ceil_T_over_4": 4, "ceil_T_over_2": 2, "full_T": 1}


class VAEDecoderLayer(Spec):
    """One accounted operator row of the VAE decoder.

    ``h_div``/``w_div`` divide the pixel resolution to get the layer's output
    grid (ceiling division when not exact). ``repeat`` multiplies the row, for
    modeling stages with several identical residual convs. A conv3d row has a
    (k_t, k_h, k_w) kernel; an attn2d row has none and keeps its width,
    ``c_out == c_in``.
    """

    kind: Literal["conv3d", "attn2d"]
    c_in: int
    c_out: int
    t_rule: Literal["ceil_T_over_4", "ceil_T_over_2", "full_T"]
    h_div: int
    w_div: int
    kernel: tuple[int, int, int] | None = None
    repeat: int = 1
    label: str = ""

    def _check(self) -> None:
        if self.kind == "conv3d":
            if self.kernel is None:
                raise ValueError("kernel must be given for a conv3d row")
            k_t, k_h, k_w = self.kernel  # FLOPs per output grid position: repeat * 2 * k_t*k_h*k_w * C_in*C_out
            factor = self.repeat * 2 * k_t * k_h * k_w * self.c_in * self.c_out
        elif self.kernel is not None:
            raise ValueError("kernel must be left out of an attn2d row")
        elif self.c_out != self.c_in:
            raise ValueError(f"c_out must equal c_in in an attn2d row, got {self.c_out} and {self.c_in}")
        else:  # FLOPs of a time slice of L positions: repeat * (8*c^2*L + 4*L^2*c) = factor * L * (2*c + L)
            factor = self.repeat * 4 * self.c_in
        t, h, w = TIME_RULES[self.t_rule], self.h_div, self.w_div
        # The per-position factor, then each grid divisor d with its d - 1: ceil(n / d) = (n + d-1) // d.
        self.__dict__["flop_terms"] = factor, t, t - 1, h, h - 1, w, w - 1
        _within_float("repeat, kernel, c_in and c_out" if self.kind == "conv3d" else "repeat and c_in", factor)


class VAEDecoderSchedule(Spec):
    """Ordered decoder layer rows: the convs and the middle attention."""

    layers: tuple[VAEDecoderLayer, ...]

    def _check(self) -> None:
        """Also store ``conv_grids``: the conv rows with those on one output grid summed, one row per grid, in order."""
        conv, grids = tuple(l for l in self.layers if l.kind == "conv3d"), {}
        for l in conv:
            grids.setdefault((l.t_rule, l.h_div, l.w_div), []).append(l)  # each output grid's rows, in first-seen order
        for grid, rows in grids.items():  # several rows: one 1x1x1 row, repeat half their summed factor (each is even)
            if len(rows) > 1 and (factor := sum(l.flop_terms[0] for l in rows)) <= _MAX:  # beyond a float: rows kept
                grids[grid] = [VAEDecoderLayer("conv3d", 1, 1, *grid, (1, 1, 1), factor // 2,
                                               " + ".join(l.label for l in rows))]
        self.__dict__.update(conv_layers=conv, conv_grids=tuple(l for rows in grids.values() for l in rows),
                             attn_layers=tuple(l for l in self.layers if l.kind == "attn2d"))


class HardwareSpec(Spec):
    """Accelerator constants: peak throughput (FLOP/s), HBM bandwidth (byte/s),
    sustained power (W), and bytes per scalar for the working precision.

    ``reference_balance``, the published balance, is held against theta_peak /
    bandwidth by ``roofline.balance_consistent``.
    """

    name: str
    theta_peak: float
    bandwidth: float
    p_max: float
    scalar_bytes: Literal[1, 2, 4] = 2
    reference_balance: int | None = None


class ModelSpec(Spec):
    """Everything needed to cost one model: DiT, text encoder, VAE schedule."""

    model_id: str
    dit: DiTSpec
    text_encoder: TextEncoderSpec
    vae: VAEDecoderSchedule
    cfg_passes: Literal[1, 2] = 2

    def _check(self) -> None:
        _within_float("dit, text_encoder and vae", self.dit.least_flops, self.text_encoder.flops_per_pass,
                      *(layer.flop_terms[0] for layer in self.vae.layers))


class ModelDefaults(Spec):
    """Default generation settings of one benchmarked model."""

    model_id: str
    steps: int
    height: int
    width: int
    frames: int

    def _check(self) -> None:
        VideoJob(self.height, self.width, self.frames, self.steps)  # rejects the geometry VideoJob rejects


# --- the schema: field annotation -> check ---
# Each check takes a field's name and value and returns the value to store
# (an exact rational, a tuple), or raises a ValueError naming the field.

def _require(ok: bool, name: str, value, what: str):
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _number(name: str, value):
    """A hardware constant: a number in [1, 1e24], stored as a float. In that range the balance
    theta_peak / bandwidth is a normal float and mu * theta_peak is positive for every mu in (0, 1]."""
    _require(type(value) in (int, float), name, value, "a number")
    return float(_require(1 <= value <= 10**24, name, value, "between 1 and 1e24"))  # exact, also for a huge int


def _printable(name: str, value):
    """A string every output format writes as it is: one ``str.isprintable`` accepts, so no control character."""
    _require(type(value) is str, name, value, "a string")
    return _require(value.isprintable(), name, value, "printable text")


def _fraction(name: str, value):
    """An int, a finite float, a "p/q" string or a Fraction, read as the exact
    rational it denotes and stored as the int equal to it, else the float, else
    the Fraction."""
    if type(value) is int:
        exact = value
    elif type(value) is float and math.isfinite(value):
        exact = int(value) if value.is_integer() else value
    else:
        exact = _parsed_rational(value)
    _require(exact is not None and exact > 0, name, value, "a positive int, float or 'p/q' string")
    return exact


def _parsed_rational(value):
    """A "p/q" string or a Fraction as ``_fraction`` stores it; None for anything else."""
    from fractions import Fraction  # here, so that a spec of plain numbers loads without it

    if type(value) not in (str, Fraction):
        return None
    try:
        p, q = Fraction(value).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        return None
    if q == 1:
        return p
    # In lowest terms a float holds p/q only when q is a power of two and p fits its 53-bit significand.
    if not q & (q - 1) and p.bit_length() <= 53 and (p / q).as_integer_ratio() == (p, q):
        return p / q
    return Fraction(p, q)


def _choice(values: list) -> tuple[str, object]:
    """The schema entry of a field holding one of ``values``: its ``Literal[...]`` annotation and check."""
    annotation = f"Literal[{', '.join(map(repr, values))}]"  # as ``from __future__ import annotations`` spells it
    typed = [(type(v), v) for v in values]  # True == 1 and 2.0 == 2, but neither is one of [1, 2]
    return annotation, lambda name, value: _require((type(value), value) in typed, name, value, f"one of {values}")


def _instance(cls: type):
    return lambda name, value: _require(isinstance(value, cls), name, value, f"a {cls.__name__}")


# Annotations naming spec classes, which from_dict reads from nested JSON
# objects; a "tuple[...]" annotation holds a JSON list of them.
_NESTED = {
    "DiTSpec": DiTSpec,
    "TextEncoderSpec": TextEncoderSpec,
    "VAEDecoderSchedule": VAEDecoderSchedule,
    "tuple[VAEDecoderLayer, ...]": VAEDecoderLayer,
}

_FIELD_CHECKS = {
    "int": lambda name, v: _require(type(v) is int and v > 0, name, v, "a positive int"),
    "int | None": lambda name, v: _require(v is None or type(v) is int and v > 0, name, v, "a positive int"),
    "float": _number,
    "Fraction": _fraction,
    "str": _printable,
    **dict([_choice(["conv3d", "attn2d"]), _choice(list(TIME_RULES)), _choice([1, 2, 4]), _choice([1, 2])]),
    "tuple[int, int, int] | None": lambda name, v: v if v is None else tuple(_require(
        type(v) in (list, tuple) and len(v) == 3 and all(type(k) is int and k > 0 for k in v),
        name, v, "three positive ints")),
    "tuple[VAEDecoderLayer, ...]": lambda name, v: tuple(_require(
        type(v) in (list, tuple) and all(isinstance(row, VAEDecoderLayer) for row in v),
        name, v, "a list of VAEDecoderLayer")),
    **{name: _instance(cls) for name, cls in _NESTED.items() if not name.startswith("tuple[")},
}

# What a rejected top-level object of a file is called.
_TOP_LEVEL = {ModelSpec: "model spec", HardwareSpec: "hardware entry"}


def from_dict(cls, data, where: str = ""):
    """The ``cls`` spec held by the JSON object ``data``.

    ``where`` is the dotted path of ``data`` in its file, "" at the top. Every
    rejection is a ValueError naming the path of the value at fault, e.g.
    ``vae.layers[3].c_in must be a positive int, got 16.5``.
    """
    what = where or _TOP_LEVEL.get(cls, cls.__name__)
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    if None in data:  # a file's object that repeats a key, as ``_json_value`` reads it
        raise ValueError(f"{what}: repeated keys {sorted({key for key in data[None] if data[None].count(key) > 1})}")
    unknown = data.keys() - cls._fields
    if unknown:
        raise ValueError(f"{what}: unknown keys {sorted(unknown)}")
    missing = [name for name in cls._fields if name not in cls._defaults and name not in data]
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    prefix = f"{where}." if where else ""
    values = dict(data)
    for name, annotation in cls._fields.items():
        nested = _NESTED.get(annotation)
        if nested is None or name not in data:
            continue
        path, value = prefix + name, data[name]
        if annotation.startswith("tuple["):
            rows = _require(isinstance(value, list), path, value, "a JSON list")
            values[name] = [from_dict(nested, row, f"{path}[{i}]") for i, row in enumerate(rows)]
        else:
            values[name] = from_dict(nested, value, path)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def _to_json(value):
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, Spec):
        return to_dict(value)
    # The one other type a check stores is a Fraction no int or float equals, written as "p/q".
    return value if type(value) in (int, float, str) else str(value)


def to_dict(spec) -> dict:
    """The JSON object of a spec, as ``from_dict`` reads it back; fields holding None are left out."""
    return {name: _to_json(value) for name, value in zip(spec._fields, spec._values()) if value is not None}


# --- data files and file loading ---

def data_path(filename: str) -> Path:
    """The data file ``filename``: the one in the ``VIDCOST_DATA_DIR`` directory
    when that is set and holds it, else the one bundled with this module."""
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir and os.path.isfile(os.path.join(env_dir, filename)):
        return Path(env_dir) / filename
    return Path(__file__).with_name("data") / filename


def is_path(name_or_path: str | Path) -> bool:
    """Whether a model or hardware argument is a file path rather than a name."""
    return Path(name_or_path).suffix == ".json" or os.path.isfile(name_or_path)


def _json_value(text: str, read=lambda value: value):
    """``read`` of the JSON value of ``text``; text that does not parse, or nests too deeply to parse or to check,
    is a ValueError. An object that repeats a key also holds its keys in order under None, which no key is."""
    def read_object(pairs: list) -> dict:
        obj = dict(pairs)
        return obj if len(obj) == len(pairs) else {**obj, None: [key for key, _ in pairs]}
    try:
        return read(json.loads(text, object_pairs_hook=read_object))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _read_text(path) -> str:
    """The text of the data file at ``path``, as every data file is read: UTF-8 after one optional byte order
    mark, with no newline translation. A byte that is not UTF-8 stays in the text as a lone surrogate, which no
    key, column, number or text field accepts, so the check that meets it names where it is."""
    return Path(path).read_bytes().decode("utf-8", "surrogateescape").removeprefix("\ufeff")


def _read_file(path, read):
    """``read`` of the JSON value in the file at ``path``. Text that does not
    parse, or a value ``read`` rejects, is a ValueError naming the file."""
    try:
        return _json_value(_read_text(path), read)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_entries(path, cls, what: str, key: str) -> dict:
    """The ``cls`` entries of a JSON file holding a list of objects, or one bare
    object, keyed by their ``key`` field, which no two entries may share.
    Entry i is ``<what>[i]`` in errors."""
    def read(data):
        rows = [data] if isinstance(data, dict) else data
        if not isinstance(rows, list):
            raise ValueError(f"{what} must be a JSON list or object, got {type(data).__name__}")
        entries = {}
        for i, row in enumerate(rows):
            entry = from_dict(cls, row, f"{what}[{i}]")
            name = getattr(entry, key)
            if name in entries:
                raise ValueError(f"{what}[{i}]: {key} {name!r} repeats {what}[{list(entries).index(name)}]")
            entries[name] = entry
        return entries
    return _read_file(path, read)


def load_model_spec(name_or_path: str | Path = DEFAULT_MODEL_ID) -> ModelSpec:
    """Load a model spec from a file path, or by name through ``data_path``."""
    path = name_or_path
    if not is_path(path):
        path = data_path(f"{name_or_path}.json")
        if not os.path.isfile(path):
            raise FileNotFoundError(f"no model spec named {name_or_path!r} (set {DATA_DIR_ENV} or pass a path)")
    return _read_file(path, partial(from_dict, ModelSpec))


def load_hardware_db(path: str | Path | None = None) -> dict[str, HardwareSpec]:
    """Load an accelerator database (``hardware.json`` by default), keyed by entry name."""
    return _read_entries(data_path("hardware.json") if path is None else path, HardwareSpec, "hardware", "name")


def load_hardware(name_or_path: str | Path = DEFAULT_HARDWARE) -> HardwareSpec:
    """Load one accelerator entry by name, or the sole entry of a JSON file."""
    if is_path(name_or_path):
        db = load_hardware_db(name_or_path)
        if len(db) != 1:
            raise ValueError(f"{name_or_path} holds {len(db)} hardware entries {list(db)}; "
                             "a single accelerator needs a file of one")
        return next(iter(db.values()))
    db = load_hardware_db()
    name = str(name_or_path)
    if name not in db:
        raise KeyError(f"unknown hardware {name!r}; available: {', '.join(sorted(db))}")
    return db[name]


def load_model_defaults(path: str | Path | None = None) -> list[ModelDefaults]:
    """Per-model default generation settings (``model_defaults.json`` by default)."""
    return list(_read_entries(data_path("model_defaults.json") if path is None else path,
                              ModelDefaults, "model defaults", "model_id").values())
