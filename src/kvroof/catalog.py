"""Model and hardware catalog.

Defines the two specification records everything else consumes and derives
the per-token constants from them: KV-cache bytes per token and prefill
FLOPs per token. Catalog files are JSON documents with top-level "models"
and "hardware" arrays and no other key; all quantities are SI base units
(bytes, bytes/s, FLOP/s, watts). Display scaling such as KB/GFLOP happens
only at the CLI.

All catalog data is immutable after load and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from .errors import CatalogError

GQA = "GQA"
MLA = "MLA"
# The fields each attention kind sets; a model leaves the other kind's fields unset.
ATTENTION_FIELDS = {GQA: ("kv_heads", "head_dim"), MLA: ("kv_lora_rank", "qk_rope_dim")}

_DEFAULT_RESOURCE = "default_catalog.json"


def is_number(value) -> bool:
    """True for a float (NaN and the infinities too) or an int a float can hold; a bool (JSON true/false) is not."""
    return isinstance(value, float) or (is_count(value, -sys.float_info.max) and value <= sys.float_info.max)


def is_count(value, minimum: int = 1) -> bool:
    """True for an int >= ``minimum`` that is not a bool; ``5.0`` is not an int."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


# Largest token count a request, trace or stream may hold: summaries and the scheduled-token
# statistics take counts as floats, which hold every integer up to 2**53 exactly.
MAX_TOKENS = 2**53
# Largest integer a model field may hold: the KV and FLOP formulas take products of them as floats.
MAX_MODEL_INT = 2**53
# Most characters of a refused value, an id, a name or a key that an error shows; the rest is cut.
SHOWN_CHARS = 100


def json_text(value) -> str:
    """``value`` as the JSON text that would hold it, or its ``repr`` if JSON cannot, cut after ``SHOWN_CHARS``."""
    try:
        text = json.dumps(value)
    except (TypeError, ValueError):
        try:
            text = repr(value)
        except ValueError:  # an int of more digits than str() converts
            return f"an integer of more than {sys.get_int_max_str_digits()} digits"
    except RecursionError:  # too deep for the encoder, and so for repr
        return "a value nested too deeply to show"
    return cut(text)


def csv_row(cells: list) -> str:
    """One row as ``csv.writer`` writes it, with its line terminator."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def cut(text: str) -> str:
    """``text``, or its first ``SHOWN_CHARS`` characters and how many it has in all."""
    if len(text) > SHOWN_CHARS:
        return f"{text[:SHOWN_CHARS]}... (cut; {len(text)} characters in all)"
    return text


def quote(name) -> str:
    """``name`` as an error shows an id, a name, a key or a path: in single quotes, cut by ``cut``."""
    return "'" + cut(str(name)) + "'"


def refuse(where: str, name: str, value, rule: str, error: type[Exception] = CatalogError) -> NoReturn:
    """Raise ``error("<where><name> must be <rule>, got <value as JSON>")``."""
    raise error(f"{where}{name} must be {rule}, got {json_text(value)}")


def lookup(pool: dict, name, kind: str, error: type[Exception] = CatalogError):
    """``pool[name]``, or ``error`` naming the unknown ``kind`` and every name ``pool`` has."""
    if name not in pool:
        raise error(f"unknown {kind} {json_text(name)}; available: {', '.join(sorted(pool))}")
    return pool[name]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture parameters sufficient to derive KV bytes and FLOPs per token.

    GQA models must set ``kv_heads`` and ``head_dim`` and leave the MLA
    fields unset; MLA models must set ``kv_lora_rank`` and ``qk_rope_dim``
    and leave the GQA fields unset. ``precision_bytes`` may be fractional
    (0.5 for 4-bit storage) but must correspond to a whole number of bits.
    """

    name: str
    total_params: int
    active_params: int
    attention_kind: str
    layers: int
    kv_heads: Optional[int] = None
    head_dim: Optional[int] = None
    kv_lora_rank: Optional[int] = None
    qk_rope_dim: Optional[int] = None
    precision_bytes: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            refuse("model ", "name", self.name, "a non-empty string")
        where = f"model {quote(self.name)}: "
        if self.attention_kind not in (GQA, MLA):
            refuse(where, "attention_kind", self.attention_kind, "'GQA' or 'MLA'")
        own = ATTENTION_FIELDS[self.attention_kind]
        for fname in ("total_params", "active_params", "layers") + own:
            value = getattr(self, fname)
            if not is_count(value):
                refuse(where, fname, value, "a positive integer")
            if value > MAX_MODEL_INT:
                refuse(where, fname, value, f"an integer <= {MAX_MODEL_INT}")
        if self.active_params > self.total_params:
            refuse(where, "active_params", self.active_params, "<= total_params")
        bits = 8.0 * self.precision_bytes if is_number(self.precision_bytes) else math.nan
        if not 0 < bits < math.inf or abs(bits - round(bits)) > 1e-9 or round(bits) < 1:
            refuse(where, "precision_bytes", self.precision_bytes, "a positive multiple of 1/8 (whole bits)")
        for fname in ATTENTION_FIELDS[GQA] + ATTENTION_FIELDS[MLA]:
            if fname not in own and getattr(self, fname) is not None:
                refuse(where, fname, getattr(self, fname), f"null or absent for attention_kind {self.attention_kind}")

    @property
    def precision_bits(self) -> int:
        return round(8 * self.precision_bytes)


@dataclass(frozen=True)
class HardwareSpec:
    """One accelerator platform: compute rate, host-device link, KV VRAM pool.

    ``link_bandwidth_sustained`` defaults to the peak figure when omitted;
    set it to a measured value to model effective rather than spec-sheet
    bandwidth.
    """

    name: str
    compute_throughput: float  # FLOP/s
    link_bandwidth_peak: float  # bytes/s, unidirectional host to device
    vram_effective: float  # bytes available to KV after weights/activations
    link_bandwidth_sustained: Optional[float] = None
    tdp_watts: Optional[float] = None
    idle_watts: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            refuse("hardware ", "name", self.name, "a non-empty string")
        where = f"hardware {quote(self.name)}: "
        for fname in ("compute_throughput", "link_bandwidth_peak", "vram_effective"):
            value = getattr(self, fname)
            if not (is_number(value) and value > 0):
                refuse(where, fname, value, "a number > 0")
        if self.link_bandwidth_sustained is None:
            object.__setattr__(self, "link_bandwidth_sustained", self.link_bandwidth_peak)
        sustained = self.link_bandwidth_sustained
        if not (is_number(sustained) and 0 < sustained <= self.link_bandwidth_peak):
            refuse(where, "link_bandwidth_sustained", sustained, "a number > 0 and <= link_bandwidth_peak")
        for fname in ("tdp_watts", "idle_watts"):
            value = getattr(self, fname)
            if value is not None and not (is_number(value) and 0 <= value < math.inf):
                refuse(where, fname, value, "a finite number >= 0")
        if (
            self.tdp_watts is not None
            and self.idle_watts is not None
            and self.idle_watts > self.tdp_watts
        ):
            refuse(where, "idle_watts", self.idle_watts, "<= tdp_watts")

    def bandwidth(self, use_sustained: bool = True) -> float:
        """Selected host-device bandwidth in bytes/s."""
        return self.link_bandwidth_sustained if use_sustained else self.link_bandwidth_peak


def kv_bytes_per_token(model: ModelSpec) -> float:
    """KV-cache footprint of one token, in bytes.

    GQA stores key and value vectors per KV head per layer; MLA stores one
    low-rank latent plus a rotary component per layer, so its footprint is
    layers * (kv_lora_rank + qk_rope_dim) * precision.
    """
    bits = model.precision_bits
    if model.attention_kind == GQA:
        return 2 * model.layers * model.kv_heads * model.head_dim * bits / 8
    return model.layers * (model.kv_lora_rank + model.qk_rope_dim) * bits / 8


def flops_per_token(model: ModelSpec) -> float:
    """FLOPs to prefill one token: two per active parameter."""
    return 2.0 * model.active_params


def json_keys(cls, *extra: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Accepted keys (the fields of dataclass ``cls``, then ``extra``) and required keys (fields with no default)."""
    return tuple(f.name for f in fields(cls)) + extra, tuple(f.name for f in fields(cls) if f.default is MISSING)


def check_keys(obj, keys: tuple[Sequence[str], Sequence[str]], where: str) -> None:
    """Refuse anything but a JSON object whose keys are all accepted and include every required one."""
    accepted, required = keys
    if not isinstance(obj, dict):
        refuse("", where, obj, "a JSON object")
    for key in obj:  # no set per call: traces check every turn
        if key not in accepted:
            unknown = sorted(obj.keys() - accepted)
            raise CatalogError(f"{where}: unknown key(s) {cut(str(unknown))}; accepted: {', '.join(accepted)}")
    for key in required:
        if key not in obj:
            missing = [k for k in required if k not in obj]  # in field order
            raise CatalogError(f"{where}: missing key(s) {missing}; required: {', '.join(required)}")


def build_spec(cls, entry, where: str):
    """A validated ``cls`` (ModelSpec or HardwareSpec) from a JSON object; ``where`` prefixes every error."""
    check_keys(entry, json_keys(cls), where)
    try:
        return cls(**entry)
    except CatalogError as exc:
        raise CatalogError(f"{where}: {exc}") from exc


def read_document(path: str | Path, what: str) -> str:
    """The text of a JSON document file (a catalog or a config), read as UTF-8 whatever the locale."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"cannot read {what} {quote(path)}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def json_object(pairs: list) -> dict:
    """A JSON object from its key-value pairs (``json.loads``' ``object_pairs_hook``); a repeated key is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # json.loads alone would keep the last value
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise CatalogError(f"a JSON object repeats key {quote(key)}")
            seen.add(key)
    return obj


def parse_document(text: str, source: str):
    """The JSON value ``text`` holds; malformed JSON, deep nesting or a repeated key is an error naming ``source``."""
    try:
        return json.loads(text, object_pairs_hook=json_object)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{source}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # a repeated key, or an integer of more digits than int() converts
        raise CatalogError(f"{source}: {exc}") from exc
    except RecursionError as exc:
        raise CatalogError(f"{source}: JSON nested too deeply to read") from exc


def loads_catalog(text: str, source: str = "<string>") -> tuple[list[ModelSpec], list[HardwareSpec]]:
    """Parse a catalog document."""
    doc = parse_document(text, source)
    check_keys(doc, (("models", "hardware"), ()), f"{source}: catalog root")
    tables = []
    for key, cls in (("models", ModelSpec), ("hardware", HardwareSpec)):
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            refuse(f"{source}: ", key, entries, "a JSON array")
        specs: dict = {}
        for i, entry in enumerate(entries):
            spec = build_spec(cls, entry, f"{source}: {key}[{i}]")
            if spec.name in specs:
                raise CatalogError(f"{source}: {key}[{i}]: duplicate name {quote(spec.name)}")
            specs[spec.name] = spec
        tables.append(list(specs.values()))
    return tables[0], tables[1]


def default_catalog_text() -> str:
    """Raw text of the bundled catalog (useful for hashing)."""
    return resources.files("kvroof").joinpath(f"data/{_DEFAULT_RESOURCE}").read_text(encoding="utf-8")


@lru_cache(maxsize=1)
def default_catalog() -> tuple[list[ModelSpec], list[HardwareSpec]]:
    """The bundled catalog of reference models and platforms."""
    return loads_catalog(default_catalog_text(), source=f"<bundled {_DEFAULT_RESOURCE}>")


def by_name(entries) -> dict:
    return {e.name: e for e in entries}
