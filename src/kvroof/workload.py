"""Workload traces, request records, and synthetic stream generation.

Traces carry token counts, never text; tokenization happens upstream. Trace
and stream files are UTF-8 JSON Lines, one object per line, with these
keys. Token counts are JSON integers (``5.0`` is not one) of at most
``MAX_TOKENS`` (2**53), a bound that also holds for the history a
conversation turn finds cached; ids may be any JSON value and are read
through ``str()``. An unknown key, a missing required key, a key an object
repeats, a value of another type, a byte that is not UTF-8 or JSON nested
too deeply to parse is an error that names the file and the line,
such as ``<file>: line N: bad request record: request: missing key(s)
[...]; required: ...`` or ``<file>: line N: JSON nested too deeply to read``.

* conversation trace: ``conversation_id`` and ``turns``, a non-empty array of
  ``{"query_tokens": integer >= 1, "response_tokens": integer >= 0, default
  0}``. A turn's query is computed while all earlier queries and responses
  are cached, so turn i's cached count is the sum of both over turns < i.
* document trace: ``doc_id``, ``doc_tokens`` (integer >= 1) and
  ``question_tokens`` (array of integers >= 1). The whole document is cached
  and each question is computed.
* stream: ``source_id``, ``cached_tokens`` (integer >= 0), ``prefill_tokens``
  (integer >= 1) and ``arrival_time`` (finite number or null, default null).
  ``write_stream`` also writes ``kappa_ratio``, ignored on read, and a first
  line ``{"_manifest": ...}``, which readers skip; ``_manifest`` beside any
  other key is an unknown key. In code a stream line is a ``RequestRecord``,
  which checks the stream's types itself: a str id, int counts and a finite
  float arrival or None (an int or numpy arrival is stored as a float).

A trace line reads straight into its requests: ``trace_records`` gives one
list of ``RequestRecord`` per line, ``<id>/turn<i>`` or ``<id>/q<i>``, lazily:
each line is read and checked only as the iteration reaches it, so a caller
that drops each line's records, as ``kvroof analyze`` does, holds none of the
trace. ``stream_records`` reads a stream file the same way, one record at a
time, and ``kvroof simulate`` holds no more of it than the requests in flight.
``read_conversations`` and ``read_stream`` are the list of these readers.
No trace object of its own shape is built, so the trace keys are the
literal ``(accepted, required)`` tables
``_CONVERSATION_KEYS``, ``_TURN_KEYS`` and ``_DOCUMENT_KEYS`` beside the
readers; a stream line's keys come from ``RequestRecord`` through
``catalog.json_keys``.

The distribution summary is computed from two int columns, K and T
(``summarize_columns``); ``summarize`` is its wrapper for a list of records.

Synthetic streams draw cached and prefill token counts independently from
log-normal profiles and arrive as a Poisson process; generation is
deterministic for a fixed seed. The draws are kept as numpy arrays and the
records built from them a slice at a time, as they are written.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from itertools import chain
from operator import truediv
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .catalog import MAX_TOKENS, check_keys, is_count, is_number, json_keys, json_object, quote, refuse
from .errors import WorkloadError

PERCENTILES = (10, 50, 90, 95, 99)

# Records a synthesized stream builds at a time (``SynthesizedStream``).
SYNTH_SLICE = 4096

# Most requests one synthesized stream may expect (rps * duration_s): about
# 2.7 GB of records at 270 B each, ten times the 1e6 the pipeline targets.
MAX_STREAM_REQUESTS = 10_000_000


@dataclass(slots=True)
class RequestRecord:
    """One prefill request: K cached tokens, T new tokens, optional arrival (stored as a float)."""

    source_id: str
    cached_tokens: int
    prefill_tokens: int
    arrival_time: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.source_id, str):
            refuse("request ", "source_id", self.source_id, "a string", WorkloadError)
        k, t, a = self.cached_tokens, self.prefill_tokens, self.arrival_time
        if not (type(k) is int and 0 <= k <= MAX_TOKENS):  # the cheap test first: synth and readers build 10^6
            _check_count(f"request {quote(self.source_id)}: cached_tokens", k, 0)
        if not (type(t) is int and 1 <= t <= MAX_TOKENS):
            _check_count(f"request {quote(self.source_id)}: prefill_tokens", t)
        if a is not None and (type(a) is not float or not math.isfinite(a)):
            if not (is_number(a) and math.isfinite(a)):
                refuse(f"request {quote(self.source_id)}: ", "arrival_time", a, "a finite number or null",
                       WorkloadError)
            self.arrival_time = float(a)

    @property
    def kappa_ratio(self) -> float:
        return self.cached_tokens / self.prefill_tokens

    @property
    def vram_tokens(self) -> int:
        """KV footprint once admitted: K + T token-equivalents."""
        return self.cached_tokens + self.prefill_tokens


def _check_count(what: str, value, low: int = 1) -> None:
    """Refuse a token count that is not an integer in [``low``, ``MAX_TOKENS``]; ``what`` names it in the error."""
    if not is_count(value, low):
        refuse("", what, value, f"an integer >= {low}", WorkloadError)
    if value > MAX_TOKENS:
        refuse("", what, value, f"an integer <= {MAX_TOKENS}", WorkloadError)


@dataclass(frozen=True)
class FieldStats:
    mean: float
    minimum: float
    maximum: float
    percentiles: dict[int, float]


@dataclass(frozen=True)
class DistributionSummary:
    count: int
    prefill_tokens: FieldStats
    cached_tokens: FieldStats
    kappa_ratio: FieldStats


def expand_conversation(records: list[RequestRecord]) -> list[RequestRecord]:
    """``records`` unchanged: ``read_conversations`` already gives each line's requests.

    Only the name is left, for ``perfbench``, which calls it on each line
    ``read_conversations`` gives; ROADMAP item 6 removes it.
    """
    return records


def nearest_rank(n: int, pct: float) -> int:
    """The nearest-rank percentile's 1-indexed rank among n values: ceil(pct/100 * n), within [1, n]."""
    return min(n, max(1, math.ceil(pct / 100.0 * n)))


def nearest_rank_percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the value at ``nearest_rank`` in ``sorted_values``."""
    n = len(sorted_values)
    if n == 0:
        raise WorkloadError("cannot take percentile of empty data")
    return sorted_values[nearest_rank(n, pct) - 1]


def _field_stats(ordered: list[float]) -> FieldStats:
    """The stats of ``ordered``, ascending: the mean is their sum, added in that order, over n."""
    return FieldStats(
        mean=sum(ordered) / len(ordered),
        minimum=ordered[0],
        maximum=ordered[-1],
        percentiles={p: nearest_rank_percentile(ordered, p) for p in PERCENTILES},
    )


def summarize_columns(cached_tokens: Sequence[int], prefill_tokens: Sequence[int]) -> DistributionSummary:
    """Exact order statistics of T, K, and K/T over requests given as two columns, K and T.

    Each K/T is ``k / t``, the division ``RequestRecord.kappa_ratio`` makes.
    One column of floats is sorted at a time.
    """
    if not cached_tokens:
        raise WorkloadError("cannot summarize an empty record set")
    return DistributionSummary(
        count=len(cached_tokens),
        prefill_tokens=_field_stats(sorted(map(float, prefill_tokens))),
        cached_tokens=_field_stats(sorted(map(float, cached_tokens))),
        kappa_ratio=_field_stats(sorted(map(truediv, cached_tokens, prefill_tokens))),
    )


def summarize(records: Sequence[RequestRecord]) -> DistributionSummary:
    """``summarize_columns`` of the records' K and T."""
    return summarize_columns([r.cached_tokens for r in records], [r.prefill_tokens for r in records])


@dataclass(frozen=True)
class StreamProfile:
    """Independent log-normal draws for prefill (T) and cached (K) token counts.

    Parameters are the mean and sigma of the underlying normal; sampled
    values are rounded and clamped to at least one token.
    """

    name: str
    prefill_log_mean: float
    prefill_log_sigma: float
    cached_log_mean: float
    cached_log_sigma: float

    def __post_init__(self) -> None:
        where = f"profile {quote(self.name)}: "
        for fname in ("prefill_log_sigma", "cached_log_sigma"):
            sigma = getattr(self, fname)
            if not math.isfinite(sigma) or sigma <= 0:
                refuse(where, fname, sigma, "a finite number > 0", WorkloadError)
        for fname in ("prefill_log_mean", "cached_log_mean"):
            if not math.isfinite(getattr(self, fname)):
                refuse(where, fname, getattr(self, fname), "a finite number", WorkloadError)

    @property
    def mean_prefill_tokens(self) -> float:
        return math.exp(self.prefill_log_mean + self.prefill_log_sigma**2 / 2)

    @property
    def mean_cached_tokens(self) -> float:
        return math.exp(self.cached_log_mean + self.cached_log_sigma**2 / 2)

    @property
    def median_kappa_ratio(self) -> float:
        return math.exp(self.cached_log_mean - self.prefill_log_mean)


# Multi-turn chat style traffic: short prompts against a few thousand tokens
# of accumulated history. Parameters pin mean T = 82, mean K = 11115, and
# median K/T = 100; the implied medians are T ~ 40 and K ~ 4000.
SHAREGPT_LIKE = StreamProfile(
    name="sharegpt-like",
    prefill_log_mean=3.686719,
    prefill_log_sigma=1.2,
    cached_log_mean=8.291889,
    cached_log_sigma=1.431263,
)

# Book/script question answering: median document ~57k tokens, mean question
# 12 tokens, 95th percentile question length just under 20, median ratio 5000.
NARRATIVEQA_LIKE = StreamProfile(
    name="narrativeqa-like",
    prefill_log_mean=2.433614,
    prefill_log_sigma=0.320290,
    cached_log_mean=10.950807,
    cached_log_sigma=0.94,
)

# Financial filings QA: median document ~167k tokens, mean question 23 tokens,
# median ratio 10000.
FINQA_LIKE = StreamProfile(
    name="finqa-like",
    prefill_log_mean=2.815409,
    prefill_log_sigma=0.800106,
    cached_log_mean=12.025749,
    cached_log_sigma=0.77,
)

PROFILES = {p.name: p for p in (SHAREGPT_LIKE, NARRATIVEQA_LIKE, FINQA_LIKE)}


def synthesize_stream(
    profile: StreamProfile,
    rps: float,
    duration_s: float,
    seed: int,
) -> SynthesizedStream:
    """Poisson arrivals at the given rate with token counts from the profile.

    Deterministic for a fixed seed: identical arguments reproduce the exact
    same records. The arguments are checked and every number is drawn here,
    as numpy arrays; the records are built only as the result is iterated,
    ``SYNTH_SLICE`` at a time (``SynthesizedStream``).
    """
    for name, value in (("rps", rps), ("duration_s", duration_s)):
        if not value > 0:
            refuse("", name, value, "> 0", WorkloadError)
    if not rps * duration_s <= MAX_STREAM_REQUESTS:
        refuse("", "rps * duration_s", rps * duration_s, f"<= {MAX_STREAM_REQUESTS}", WorkloadError)
    if not is_count(seed, 0):
        refuse("", "seed", seed, "an integer >= 0", WorkloadError)
    import numpy as np  # here, not at module level: only synthesis needs it

    rng = np.random.default_rng(seed)
    # Each block's arrivals are one cumsum from the last arrival: np.cumsum adds
    # one gap at a time, so they carry the bits of a running sum per gap.
    blocks = []
    t = 0.0
    block = max(256, int(rps * duration_s * 1.2) + 1)
    while t <= duration_s:
        gaps = rng.exponential(1.0 / rps, size=block)
        times = np.cumsum(np.concatenate(([t], gaps)))[1:]
        kept = int(np.searchsorted(times, duration_s, side="right"))
        blocks.append(times[:kept])
        t = times[-1]
    del gaps, times  # each array is dropped once used: they make synth's peak, about 40 B per request
    arrivals = np.concatenate(blocks)
    del blocks
    n = len(arrivals)
    prefill = rng.lognormal(profile.prefill_log_mean, profile.prefill_log_sigma, size=n)
    cached = rng.lognormal(profile.cached_log_mean, profile.cached_log_sigma, size=n)
    prefill_tokens = np.maximum(1, np.rint(prefill)).astype(int)
    del prefill
    cached_tokens = np.maximum(1, np.rint(cached)).astype(int)
    return SynthesizedStream(profile.name, arrivals, cached_tokens, prefill_tokens)


class SynthesizedStream:
    """A synthesized stream's draws, as numpy arrays; iterating builds its ``RequestRecord``s.

    Record i's id is ``<name>-<i>``, i zero-padded to one width for the whole
    stream: six digits, or as many as the last index has. So the ids ascend
    in stream order, and a stream of at most 10^6 records has six-digit ids.
    Records are built ``SYNTH_SLICE`` at a time: the slice's ids, then
    ``tolist()`` of each array's slice, which gives the Python ints and
    floats of the whole array's ``tolist()``. ``len`` is the number of
    records, known before any is built. Each iteration builds the records
    anew; index ``list(stream)`` instead.
    """

    __slots__ = ("name", "arrivals", "cached_tokens", "prefill_tokens")

    def __init__(self, name: str, arrivals, cached_tokens, prefill_tokens) -> None:
        self.name = name
        self.arrivals = arrivals
        self.cached_tokens = cached_tokens
        self.prefill_tokens = prefill_tokens

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[RequestRecord]:
        return chain.from_iterable(map(self._slice, range(0, len(self), SYNTH_SLICE)))

    def _slice(self, start: int) -> Iterator[RequestRecord]:
        stop = min(start + SYNTH_SLICE, len(self))
        name = self.name
        spec = f"0{max(6, len(str(len(self) - 1)))}d"  # one width, so the ids ascend
        ids = [f"{name}-{i:{spec}}" for i in range(start, stop)]
        return map(RequestRecord, ids, self.cached_tokens[start:stop].tolist(),
                   self.prefill_tokens[start:stop].tolist(), self.arrivals[start:stop].tolist())


# --- JSON Lines readers/writers -------------------------------------------

def _read_jsonl(path: str | Path, what: str, build: Callable[[str], object]) -> Iterator:
    """Yield ``build`` of each non-blank line, read one at a time as the result is iterated, skipping ``None``.

    Bytes that are not UTF-8, malformed or too deeply nested JSON, missing keys,
    wrong types and bad values all surface as ``WorkloadError("<path>: line N: ...")``,
    raised when the iteration reaches that line.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise WorkloadError(f"cannot read {quote(path)}: {exc}") from exc
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    item = build(line)
                except json.JSONDecodeError as exc:
                    raise WorkloadError(f"{path}: line {lineno}: invalid JSON: {exc.msg}") from exc
                except RecursionError as exc:
                    raise WorkloadError(f"{path}: line {lineno}: JSON nested too deeply to read") from exc
                except ValueError as exc:
                    raise WorkloadError(f"{path}: line {lineno}: bad {what}: {exc}") from exc
                if item is not None:
                    yield item
        except UnicodeDecodeError as exc:  # raised per chunk read, so the line is found again in the bytes
            raise WorkloadError(f"{path}: line {_undecodable_line(path)}: not UTF-8 text: {exc.reason}") from exc


def _undecodable_line(path: str | Path) -> int:
    """The line, counted as text mode counts lines, of the first byte in ``path`` that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    return 1 + len(re.findall(rb"\r\n?|\n", data))


# (accepted, required) keys of each trace object: a trace line builds RequestRecords, no object of its own shape.
_CONVERSATION_KEYS = (("conversation_id", "turns"), ("conversation_id", "turns"))
_TURN_KEYS = (("query_tokens", "response_tokens"), ("query_tokens",))
_DOCUMENT_KEYS = (("doc_id", "doc_tokens", "question_tokens"), ("doc_id", "doc_tokens", "question_tokens"))
_REQUEST_KEYS = json_keys(RequestRecord, "kappa_ratio")  # kappa_ratio: written, not read


def _conversation(obj) -> list[RequestRecord]:
    """A conversation line's requests: turn i computes its query with every earlier query and response cached."""
    check_keys(obj, _CONVERSATION_KEYS, "conversation")
    cid, turns = str(obj["conversation_id"]), obj["turns"]
    if not isinstance(turns, list) or not turns:
        refuse(f"conversation {quote(cid)}: ", "turns", turns, "a non-empty array", WorkloadError)
    records = []
    cached = 0
    for i, turn in enumerate(turns, start=1):
        check_keys(turn, _TURN_KEYS, "turn")
        q, r = turn["query_tokens"], turn.get("response_tokens", 0)
        if not (type(q) is int and 1 <= q <= MAX_TOKENS):  # the cheap test first, as in RequestRecord
            _check_count("query_tokens", q)
        if not (type(r) is int and 0 <= r <= MAX_TOKENS):
            _check_count("response_tokens", r, 0)
        records.append(RequestRecord(f"{cid}/turn{i}", cached, q))
        cached += q + r
    return records


def _document(obj) -> list[RequestRecord]:
    """A document line's requests: each question is computed with the whole document cached."""
    check_keys(obj, _DOCUMENT_KEYS, "document")
    doc_id, doc_tokens, questions = str(obj["doc_id"]), obj["doc_tokens"], obj["question_tokens"]
    where = f"document {quote(doc_id)}: "
    if not isinstance(questions, list):
        refuse(where, "question_tokens", questions, "an array", WorkloadError)
    if not (type(doc_tokens) is int and 1 <= doc_tokens <= MAX_TOKENS):
        _check_count(where + "doc_tokens", doc_tokens)
    for q in questions:
        if not (type(q) is int and 1 <= q <= MAX_TOKENS):
            _check_count(where + "each of question_tokens", q)
    return [RequestRecord(f"{doc_id}/q{i}", doc_tokens, q) for i, q in enumerate(questions, start=1)]


def _request(obj) -> Optional[RequestRecord]:
    """A stream line's record; ``RequestRecord`` checks the values."""
    if isinstance(obj, dict) and obj.keys() == {"_manifest"}:
        return None  # the line write_stream writes first; check_keys refuses _manifest beside other keys
    check_keys(obj, _REQUEST_KEYS, "request")
    return RequestRecord(str(obj["source_id"]), obj["cached_tokens"], obj["prefill_tokens"], obj.get("arrival_time"))


# Each trace kind: what its line is called in errors, and the requests a parsed line gives.
_TRACE_KINDS = {"conversation": ("conversation object", _conversation), "document": ("document object", _document)}


# One decoder for every line: json.loads builds a new one, and its scanner, per call.
_decode = json.JSONDecoder(object_pairs_hook=json_object).decode


def _loads(line: str):
    """``json.loads(line, object_pairs_hook=json_object)``, a repeated key refused; a line led by a BOM goes to
    ``json.loads``, which refuses it with its own message."""
    return json.loads(line) if line.startswith("\ufeff") else _decode(line)


def trace_records(path: str | Path, kind: str) -> Iterator[list[RequestRecord]]:
    """Each line's requests in a ``kind`` trace, ``"conversation"`` or ``"document"``, read as they are iterated."""
    what, requests = _TRACE_KINDS[kind]
    return _read_jsonl(path, what, lambda line: requests(_loads(line)))


def read_conversations(path: str | Path) -> list[list[RequestRecord]]:
    """Each conversation line's requests, one per turn."""
    return list(trace_records(path, "conversation"))


_json_str = json.encoder.encode_basestring_ascii


def _stream_line(r: RequestRecord) -> str:
    """The record's keys as ``json.dumps(..., sort_keys=True)`` writes them, ``arrival_time`` only if set.

    ``RequestRecord`` holds a str id, int counts and a finite float or None,
    so the line is formatted directly with the same bytes: json.dumps writes
    a float as its ``repr`` and escapes a string as ``encode_basestring_ascii``.
    """
    tail = (
        f'"cached_tokens": {r.cached_tokens}, "kappa_ratio": {r.kappa_ratio!r}, '
        f'"prefill_tokens": {r.prefill_tokens}, "source_id": {_json_str(r.source_id)}}}\n'
    )
    return "{" + tail if r.arrival_time is None else f'{{"arrival_time": {r.arrival_time!r}, ' + tail


def write_stream(records: Iterable[RequestRecord], path: str | Path, manifest: Optional[dict] = None) -> None:
    """Write records as JSON Lines; an optional manifest goes on line one.

    ``records`` is read once, one record at a time, and each line is written
    as its record comes: a ``SynthesizedStream`` is written without holding
    more than one slice of its records.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if manifest is not None:
            fh.write(json.dumps({"_manifest": manifest}, sort_keys=True) + "\n")
        fh.writelines(map(_stream_line, records))


# The line _stream_line writes, restricted to text that json.loads reads the
# same way. The two floats need a fraction or an exponent: json.loads reads
# "-0" as int 0 where float() gives -0.0, and parses a bare integer with
# int(), which refuses more than sys.get_int_max_str_digits() digits. Token
# counts are plain digits; the id has no quote, backslash or control character.
_JSON_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_STREAM_LINE = (
    r'\{(?:"arrival_time": (' + _JSON_FLOAT + r"), )?"
    r'"cached_tokens": (0|[1-9][0-9]*), '
    r'"kappa_ratio": ' + _JSON_FLOAT + r", "
    r'"prefill_tokens": (0|[1-9][0-9]*), '
    r'"source_id": "([^"\\\x00-\x1f]*)"\}\n?'
)


@functools.cache
def _stream_line_match() -> Callable[[str], Optional[re.Match]]:
    """``fullmatch`` for ``_STREAM_LINE``, compiled on first use rather than at import."""
    return re.compile(_STREAM_LINE).fullmatch


def _request_line(line: str) -> Optional[RequestRecord]:
    """``_request`` of the line's JSON, a repeated key refused; the writer's own line is read without ``json.loads``."""
    m = _stream_line_match()(line)
    if m is None:
        return _request(_loads(line))
    arrival, cached, prefill, source_id = m.groups()
    return RequestRecord(source_id, int(cached), int(prefill), None if arrival is None else float(arrival))


def stream_records(path: str | Path) -> Iterator[RequestRecord]:
    """A JSON Lines stream file's records, skipping any manifest line, each read as the iteration reaches it."""
    return _read_jsonl(path, "request record", _request_line)


def read_stream(path: str | Path) -> list[RequestRecord]:
    """Every record of a stream file: ``list(stream_records(path))``."""
    return list(stream_records(path))
