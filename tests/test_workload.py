import dataclasses
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvroof.catalog import MAX_TOKENS, json_object
from kvroof.errors import WorkloadError
from kvroof.workload import (
    FINQA_LIKE,
    NARRATIVEQA_LIKE,
    SHAREGPT_LIKE,
    SYNTH_SLICE,
    RequestRecord,
    StreamProfile,
    SynthesizedStream,
    read_conversations,
    read_stream,
    summarize,
    synthesize_stream,
    trace_records,
    write_stream,
    _request,
    _request_line,
    _stream_line,
    _stream_line_match,
)



def read_documents(path):
    """Each document line's requests, as ``analyze --kind document`` reads them."""
    return list(trace_records(path, "document"))


def read_outcome(build, line):
    """What a stream-line builder gives: the record with the types and sign of its values, or the error."""
    try:
        r = build(line)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return ("error", type(exc).__name__, str(exc))
    if r is None:
        return None
    a = r.arrival_time
    return (
        r.source_id,
        r.cached_tokens,
        type(r.cached_tokens),
        r.prefill_tokens,
        type(r.prefill_tokens),
        repr(a),
        type(a),
        None if a is None else math.copysign(1.0, a),
    )


# One valid line for each reader.
VALID_LINES = {
    read_stream: '{"source_id": "ok", "cached_tokens": 1, "prefill_tokens": 1}',
    read_conversations: '{"conversation_id": "ok", "turns": [{"query_tokens": 1}]}',
    read_documents: '{"doc_id": "ok", "doc_tokens": 5, "question_tokens": [1]}',
}


def stream_dict(r):
    """The keys of ``r``'s stream line: all five, less ``arrival_time`` when it is None."""
    keys = {"source_id": r.source_id, "cached_tokens": r.cached_tokens, "prefill_tokens": r.prefill_tokens,
            "kappa_ratio": r.kappa_ratio, "arrival_time": r.arrival_time}
    if r.arrival_time is None:
        del keys["arrival_time"]
    return keys


def assert_reads_like_json_loads(line):
    reference = read_outcome(lambda x: _request(json.loads(x, object_pairs_hook=json_object)), line)
    assert read_outcome(_request_line, line) == reference


STREAM_LINE = '{"arrival_time": 1.5, "cached_tokens": 4000, "kappa_ratio": 100.0, "prefill_tokens": 40, "source_id": "r"}\n'


def conversation_records(tmp_path, turns):
    """The requests ``read_conversations`` reads from a one-line trace of (query, response) turns."""
    path = tmp_path / "conv.jsonl"
    line = {"conversation_id": "c0", "turns": [{"query_tokens": q, "response_tokens": r} for q, r in turns]}
    path.write_text(json.dumps(line) + "\n")
    (records,) = read_conversations(path)
    return records


def document_records(tmp_path, doc_tokens, questions):
    """The requests ``read_documents`` reads from a one-line trace."""
    path = tmp_path / "docs.jsonl"
    path.write_text(json.dumps({"doc_id": "d", "doc_tokens": doc_tokens, "question_tokens": questions}) + "\n")
    (records,) = read_documents(path)
    return records


class TestExpandConversation:
    def test_three_turn_example(self, tmp_path):
        # turn tokens accumulate 3 -> 6 -> 11, so cached/computed run 0/3, 4/2, 8/3
        records = conversation_records(tmp_path, [(3, 1), (2, 2), (3, 1)])
        assert [(r.cached_tokens, r.prefill_tokens) for r in records] == [(0, 3), (4, 2), (8, 3)]
        assert [r.source_id for r in records] == ["c0/turn1", "c0/turn2", "c0/turn3"]

    def test_single_turn(self, tmp_path):
        records = conversation_records(tmp_path, [(5, 7)])
        assert len(records) == 1
        assert records[0].cached_tokens == 0

    def test_unit_accumulation(self, tmp_path):
        records = conversation_records(tmp_path, [(1, 0), (1, 0), (1, 0)])
        assert [r.cached_tokens for r in records] == [0, 1, 2]

    @given(
        turns=st.lists(
            st.tuples(st.integers(1, 500), st.integers(0, 500)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cached_plus_prefill_is_running_total(self, tmp_path, turns):
        records = conversation_records(tmp_path, turns)
        assert len(records) == len(turns)
        seen = 0
        for (q, r), rec in zip(turns, records):
            assert rec.cached_tokens + rec.prefill_tokens == seen + q
            seen += q + r
        # strictly increasing cached counts whenever every turn has tokens
        cached = [rec.cached_tokens for rec in records]
        assert all(b > a for a, b in zip(cached, cached[1:]))

    def test_empty_conversation_rejected(self, tmp_path):
        path = tmp_path / "conv.jsonl"
        path.write_text('{"conversation_id": "x", "turns": []}\n')
        with pytest.raises(WorkloadError) as info:
            read_conversations(path)
        assert str(info.value) == (
            f"{path}: line 1: bad conversation object: conversation 'x': turns must be a non-empty array, got []")


class TestExpandDocument:
    def test_case_study_ratio(self, tmp_path):
        (rec,) = document_records(tmp_path, 65_000, [32])
        assert rec.cached_tokens == 65_000
        assert rec.kappa_ratio == 2031.25

    def test_unit_ratio(self, tmp_path):
        (rec,) = document_records(tmp_path, 32, [32])
        assert rec.kappa_ratio == 1.0

    def test_questions_share_document(self, tmp_path):
        records = document_records(tmp_path, 500, [3, 5, 7])
        assert len(records) == 3
        assert {r.cached_tokens for r in records} == {500}
        assert [r.prefill_tokens for r in records] == [3, 5, 7]
        assert [r.source_id for r in records] == ["d/q1", "d/q2", "d/q3"]


class TestSummarize:
    def test_odd_count_median(self):
        records = [RequestRecord(f"r{i}", i, 1) for i in (1, 2, 3, 4, 5)]
        assert summarize(records).kappa_ratio.percentiles[50] == 3

    def test_single_record(self):
        summary = summarize([RequestRecord("r", 10, 5)])
        stats = summary.kappa_ratio
        assert all(v == 2.0 for v in stats.percentiles.values())
        assert stats.minimum == stats.maximum == stats.mean == 2.0

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            summarize([])

    def test_against_numpy_inverted_cdf_large(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 10**6, size=100_000)
        records = [RequestRecord(f"r{i}", int(v), 1) for i, v in enumerate(values)]
        summary = summarize(records)
        for p, got in summary.cached_tokens.percentiles.items():
            expected = np.percentile(values, p, method="inverted_cdf")
            assert got == expected

    @given(
        values=st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
        pct=st.sampled_from([10, 50, 90, 95, 99]),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_numpy_inverted_cdf_property(self, values, pct):
        records = [RequestRecord(f"r{i}", v, 1) for i, v in enumerate(values)]
        summary = summarize(records)
        expected = float(np.percentile(np.array(values), pct, method="inverted_cdf"))
        assert summary.cached_tokens.percentiles[pct] == expected
        assert summary.cached_tokens.minimum <= summary.cached_tokens.percentiles[50]
        assert summary.cached_tokens.percentiles[50] <= summary.cached_tokens.maximum
        ordered = [summary.cached_tokens.percentiles[p] for p in (10, 50, 90, 95, 99)]
        assert ordered == sorted(ordered)


class TestProfiles:
    def test_sharegpt_profile_moments(self):
        records = list(synthesize_stream(SHAREGPT_LIKE, rps=100, duration_s=100, seed=11))
        assert len(records) >= 9000
        mean_k = sum(r.cached_tokens for r in records) / len(records)
        mean_t = sum(r.prefill_tokens for r in records) / len(records)
        assert mean_k == pytest.approx(11_115, rel=0.10)
        assert mean_t == pytest.approx(82, rel=0.10)

    def test_sharegpt_median_ratio(self):
        records = list(synthesize_stream(SHAREGPT_LIKE, rps=10, duration_s=100, seed=5))[:1000]
        ratios = sorted(r.kappa_ratio for r in records)
        p50 = ratios[math.ceil(0.5 * len(ratios)) - 1]
        assert 70 <= p50 <= 140

    def test_profile_parameter_targets(self):
        assert SHAREGPT_LIKE.mean_prefill_tokens == pytest.approx(82, rel=0.001)
        assert SHAREGPT_LIKE.mean_cached_tokens == pytest.approx(11_115, rel=0.001)
        assert SHAREGPT_LIKE.median_kappa_ratio == pytest.approx(100, rel=0.001)
        assert NARRATIVEQA_LIKE.mean_prefill_tokens == pytest.approx(12, rel=0.001)
        assert NARRATIVEQA_LIKE.median_kappa_ratio == pytest.approx(5000, rel=0.001)
        assert FINQA_LIKE.mean_prefill_tokens == pytest.approx(23, rel=0.001)
        assert FINQA_LIKE.median_kappa_ratio == pytest.approx(10_000, rel=0.001)

    def test_degenerate_profile_rejected(self):
        with pytest.raises(WorkloadError):
            StreamProfile("bad", 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(WorkloadError):
            StreamProfile("bad", math.nan, 1.0, 1.0, 1.0)


class TestSynthesizeStream:
    def test_poisson_count(self):
        records = synthesize_stream(SHAREGPT_LIKE, rps=70, duration_s=60, seed=123)
        expected = 70 * 60
        assert abs(len(records) - expected) <= 3 * math.sqrt(expected)

    def test_arrivals_sorted_within_duration(self):
        records = synthesize_stream(SHAREGPT_LIKE, rps=20, duration_s=10, seed=9)
        times = [r.arrival_time for r in records]
        assert times == sorted(times)
        assert all(0 <= t <= 10 for t in times)

    def test_deterministic_given_seed(self, tmp_path):
        a = synthesize_stream(NARRATIVEQA_LIKE, rps=50, duration_s=20, seed=77)
        b = synthesize_stream(NARRATIVEQA_LIKE, rps=50, duration_s=20, seed=77)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_stream(a, pa)
        write_stream(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize(
        "rps, duration_s, seed",
        [(213, 1, 2300), (213, 1, 248), (213, 1, 7), (0.5, 3, 1), (50, 2.5, 9), (1e4, 0.01, 3)],
    )
    def test_arrivals_match_a_running_sum_per_gap(self, rps, duration_s, seed):
        # the reference: add the gaps one at a time, across blocks, until past the end
        rng = np.random.default_rng(seed)
        block = max(256, int(rps * duration_s * 1.2) + 1)
        expected = []
        t = 0.0
        while t <= duration_s:
            for g in rng.exponential(1.0 / rps, size=block):
                t += g
                if t > duration_s:
                    break
                expected.append(float(t))
        records = list(synthesize_stream(SHAREGPT_LIKE, rps=rps, duration_s=duration_s, seed=seed))
        assert [r.arrival_time.hex() for r in records] == [a.hex() for a in expected]
        assert all(type(r.arrival_time) is float for r in records)

    def test_different_seed_differs(self):
        a = synthesize_stream(SHAREGPT_LIKE, rps=50, duration_s=5, seed=1)
        b = synthesize_stream(SHAREGPT_LIKE, rps=50, duration_s=5, seed=2)
        assert [r.arrival_time for r in a] != [r.arrival_time for r in b]

    def test_gap_distribution_is_exponential(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rps = 100.0
        records = synthesize_stream(SHAREGPT_LIKE, rps=rps, duration_s=100, seed=4)
        times = np.array([r.arrival_time for r in records])
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert len(gaps) >= 9000
        result = scipy_stats.kstest(gaps, "expon", args=(0, 1 / rps))
        assert result.pvalue >= 0.01

    def test_bad_rate_rejected(self):
        with pytest.raises(WorkloadError):
            synthesize_stream(SHAREGPT_LIKE, rps=0, duration_s=10, seed=1)
        with pytest.raises(WorkloadError):
            synthesize_stream(SHAREGPT_LIKE, rps=5, duration_s=0, seed=1)
        with pytest.raises(WorkloadError, match="^seed must be an integer >= 0, got -1$"):
            synthesize_stream(SHAREGPT_LIKE, rps=5, duration_s=1, seed=-1)

    def test_records_are_built_a_slice_at_a_time(self):
        stream = synthesize_stream(SHAREGPT_LIKE, rps=3000, duration_s=3, seed=4)
        n = len(stream)  # known before any record is built
        assert n > 2 * SYNTH_SLICE and n % SYNTH_SLICE
        records = iter(stream)
        first = next(records)
        assert (first.source_id, type(first.cached_tokens), type(first.arrival_time)) == ("sharegpt-like-000000", int,
                                                                                           float)
        rest = list(records)
        assert len(rest) == n - 1 and rest[-1].source_id == f"sharegpt-like-{n - 1:06d}"
        # every iteration builds the same records anew
        assert [dataclasses.astuple(r) for r in stream] == [dataclasses.astuple(r) for r in [first, *rest]]

    def test_ids_keep_one_width_past_a_million_records(self):
        # Draws made directly with numpy: only the first and last slices' records are built.
        n = 10**6 + 1
        arrivals, counts = np.arange(n, dtype=float), np.ones(n, dtype=np.int64)
        last = (n - 1) // SYNTH_SLICE * SYNTH_SLICE
        stream = SynthesizedStream("s", arrivals, counts, counts)
        ids = [r.source_id for start in (0, last) for r in stream._slice(start)]
        assert ids[:2] == ["s-0000000", "s-0000001"] and ids[-2:] == ["s-0999999", "s-1000000"]
        assert len(set(map(len, ids))) == 1
        assert all(a < b for a, b in itertools.pairwise(ids))
        # one record fewer keeps six digits, so streams of at most 10^6 records keep their bytes
        shorter = SynthesizedStream("s", arrivals[:-1], counts[:-1], counts[:-1])
        assert [r.source_id for r in shorter._slice(last)][-1] == "s-999999"

    def test_synth_and_write_peak_under_120_bytes_per_request(self, tmp_path):
        # The draws are arrays of 8 bytes a number; records are built and written a slice at a time.
        tracemalloc.start()
        try:
            write_stream(synthesize_stream(SHAREGPT_LIKE, rps=500, duration_s=100, seed=1), tmp_path / "s.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len((tmp_path / "s.jsonl").read_text().splitlines())
        assert n > 50_000
        assert peak / n <= 120


class TestJsonLines:
    def test_stream_round_trip(self, tmp_path):
        records = list(synthesize_stream(FINQA_LIKE, rps=30, duration_s=5, seed=2))
        path = tmp_path / "s.jsonl"
        write_stream(records, path, manifest={"seed": 2})
        again = read_stream(path)
        assert [
            (r.source_id, r.cached_tokens, r.prefill_tokens, r.arrival_time) for r in again
        ] == [(r.source_id, r.cached_tokens, r.prefill_tokens, r.arrival_time) for r in records]

    def test_stream_bytes_match_json_dumps(self, tmp_path):
        """Each line is ``json.dumps(stream_dict(r), sort_keys=True)``, after the manifest line."""
        records = [
            RequestRecord("plain", 4000, 40, arrival_time=0.0),
            RequestRecord("naïve-中文-🙂", 1, 3, arrival_time=1e-07),
            RequestRecord('say "hi"', 0, 7, arrival_time=2.5),
            RequestRecord("back\\slash\tand\nnewline", 123456789, 1, arrival_time=123456.789),
            RequestRecord("no-arrival", 10, 3),
            RequestRecord("\x00\x1f\x7f", 2**40, 999, arrival_time=1e22),
            RequestRecord("int-arrival", 5, 5, arrival_time=3),
        ]
        records += synthesize_stream(SHAREGPT_LIKE, rps=50, duration_s=2, seed=9)
        manifest = {"tool": "kvroof", "command": ["synth", "--out", "s é.jsonl"], "seed": 9}
        path = tmp_path / "s.jsonl"
        write_stream(records, path, manifest=manifest)
        expected = [json.dumps({"_manifest": manifest}, sort_keys=True)]
        expected += [json.dumps(stream_dict(r), sort_keys=True) for r in records]
        assert path.read_bytes() == "".join(line + "\n" for line in expected).encode()
        write_stream(records, path)
        assert path.read_bytes() == "".join(line + "\n" for line in expected[1:]).encode()

    @settings(max_examples=300, deadline=None)
    @given(
        source_id=st.text(),
        cached=st.integers(0, 2**70),
        prefill=st.integers(1, 2**70),
        arrival=st.one_of(st.none(), st.floats(), st.integers(0, 10**30)),
    )
    def test_fast_path_reads_written_lines_as_json_loads(self, source_id, cached, prefill, arrival):
        finite = arrival is None or math.isfinite(arrival)
        fits = max(cached, prefill) <= MAX_TOKENS
        try:
            record = RequestRecord(source_id, cached, prefill, arrival)
        except WorkloadError as exc:
            if fits:
                assert not finite and "arrival_time must be a finite number or null" in str(exc)
            else:
                assert f"_tokens must be an integer <= {MAX_TOKENS}, got " in str(exc)
        else:
            assert finite and fits  # NaN and Infinity are not JSON
            assert_reads_like_json_loads(_stream_line(record))

    @pytest.mark.parametrize("args, text", [
        (("a", True, 2, 1.0), "request 'a': cached_tokens must be an integer >= 0, got true"),
        (("b", np.int64(3), 2, 1.0), "request 'b': cached_tokens must be an integer >= 0, got "),
        (("c", 3, np.int64(2), 1.0), "request 'c': prefill_tokens must be an integer >= 1, got "),
        (("d", 3, 2, math.nan), "request 'd': arrival_time must be a finite number or null, got NaN"),
        (("e", 3, 2, math.inf), "request 'e': arrival_time must be a finite number or null, got Infinity"),
        (("f", 3, 2, -math.inf), "request 'f': arrival_time must be a finite number or null, got -Infinity"),
        (("g", 1, 2, 10**400), "request 'g': arrival_time must be a finite number or null, got 1000000000"),
        (("h", 1, 2, True), "request 'h': arrival_time must be a finite number or null, got true"),
        (({1}, 1, 2, 1.0), "request source_id must be a string, got {1}"),
        (("i", 10**5000, 1), f"request 'i': cached_tokens must be an integer <= {MAX_TOKENS}, "
                              f"got an integer of more than {sys.get_int_max_str_digits()} digits"),
        (("j" * 10**6, -1, 1), "request 'jjjj"),
    ], ids=["bool count", "numpy cached count", "numpy prefill count", "NaN arrival", "inf arrival",
            "-inf arrival", "int arrival beyond floats", "bool arrival", "set id", "5001-digit count", "long id"])
    def test_record_refuses_what_the_reader_refuses(self, args, text):
        with pytest.raises(WorkloadError) as info:
            RequestRecord(*args)
        assert str(info.value).startswith(text)
        assert len(str(info.value)) < 300  # ids and values are cut

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        source_id=st.one_of(st.text(), st.integers(), st.none()),
        cached=st.one_of(st.integers(-1, 2), st.integers(MAX_TOKENS - 1, MAX_TOKENS + 1), st.booleans(),
                         st.integers(0, 2**62).map(np.int64), st.floats()),
        prefill=st.one_of(st.integers(0, 2), st.integers(MAX_TOKENS - 1, MAX_TOKENS + 1), st.booleans(),
                          st.integers(1, 2**62).map(np.int64), st.floats()),
        arrival=st.one_of(st.none(), st.floats(), st.just(-0.0), st.integers(-10**400, 10**400),
                          st.integers(0, 2**64), st.floats().map(np.float64), st.booleans()),
    )
    def test_a_record_is_refused_by_field_or_written_as_json_dumps(self, tmp_path, source_id, cached, prefill,
                                                                    arrival):
        checks = [
            ("source_id", isinstance(source_id, str)),
            ("cached_tokens", type(cached) is int and 0 <= cached <= MAX_TOKENS),
            ("prefill_tokens", type(prefill) is int and 1 <= prefill <= MAX_TOKENS),
            ("arrival_time", arrival is None or (isinstance(arrival, float) and math.isfinite(arrival))
             or (type(arrival) is int and abs(arrival) <= sys.float_info.max)),
        ]
        bad = [name for name, ok in checks if not ok]
        try:
            r = RequestRecord(source_id, cached, prefill, arrival)
        except WorkloadError as exc:
            assert bad and f"{bad[0]} must be " in str(exc)
            return
        assert not bad
        stored = None if arrival is None else float(arrival)
        assert (type(r.arrival_time), repr(r.arrival_time)) == (type(stored), repr(stored))  # -0.0 kept
        path = tmp_path / "s.jsonl"
        write_stream([r], path)
        line = path.read_text(encoding="utf-8")
        assert line == json.dumps(stream_dict(r), sort_keys=True) + "\n"
        (again,) = read_stream(path)
        assert [(type(v), repr(v)) for v in (again.source_id, again.cached_tokens, again.prefill_tokens,
                                              again.arrival_time)] == [
            (type(v), repr(v)) for v in (r.source_id, r.cached_tokens, r.prefill_tokens, r.arrival_time)]

    @pytest.mark.parametrize("value, shown", [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
    @pytest.mark.parametrize("field, low, make", [
        ("cached_tokens", 0, lambda v: RequestRecord("r", v, 1)),
        ("prefill_tokens", 1, lambda v: RequestRecord("r", 0, v)),
    ])
    def test_record_refuses_non_finite_counts(self, value, shown, field, low, make):
        # NaN passed the old "< 0" and "< 1" range tests, and +inf passed them too
        with pytest.raises(WorkloadError) as info:
            make(value)
        assert str(info.value) == f"request 'r': {field} must be an integer >= {low}, got {shown}"

    @pytest.mark.parametrize("reader, line", [
        (read_stream, "[" * 10**5),
        (read_conversations, '{"conversation_id": "c", "turns": ' + "[" * 10**5),
        (read_documents, '{"doc_id": ' + "[" * 10**5),
    ], ids=["stream", "conversation", "document"])
    def test_too_deep_json_names_the_line(self, tmp_path, reader, line):
        path = tmp_path / "deep.jsonl"
        path.write_text(VALID_LINES[reader] + "\n" + line + "\n")
        with pytest.raises(WorkloadError) as info:
            reader(path)
        assert str(info.value) == f"{path}: line 2: JSON nested too deeply to read"

    def test_numpy_and_int_arrivals_are_stored_as_floats(self, tmp_path):
        records = [RequestRecord("a", 3, 2, np.float64(0.5)), RequestRecord("b", 3, 2, 7)]
        assert [type(r.arrival_time) for r in records] == [float, float]
        path = tmp_path / "s.jsonl"
        write_stream(records, path)
        assert [(r.source_id, r.arrival_time) for r in read_stream(path)] == [("a", 0.5), ("b", 7.0)]

    def test_fast_path_takes_synthesized_lines(self):
        for r in synthesize_stream(SHAREGPT_LIKE, rps=50, duration_s=2, seed=9):
            line = _stream_line(r)
            assert _stream_line_match()(line) is not None
            assert_reads_like_json_loads(line)

    @pytest.mark.parametrize(
        "old, new, fast",
        [
            ("", "", True),
            ("1.5", "-0", False),
            ("1.5", "3", False),
            ("1.5", "-0.0", True),
            ("1.5", "1e400", True),
            ("1.5", "1e-400", True),
            ("1.5", "1E+2", True),
            pytest.param("1.5", "1" + "0" * 400, False, id="401-digit-arrival"),
            ("1.5", "null", False),
            ("1.5", '"1.5"', False),
            ('"arrival_time": 1.5, ', "", True),
            ("4000", "1.0", False),
            ("4000", "true", False),
            ("4000", "04000", False),
            ("4000", "\u0664\u0660", False),
            pytest.param("4000", "9" * 5000, True, id="5000-digit-token"),
            ("40,", "0,", True),
            ("40,", "-1,", False),
            ("100.0", "NaN", False),
            ("100.0", "100", False),
            pytest.param("100.0", "1" * 5000, False, id="5000-digit-kappa"),
            pytest.param('"arrival_time": 1.5, "cached_tokens": 4000', '"cached_tokens": 4000, "arrival_time": 1.5',
                         False, id="reordered-keys"),
            pytest.param('"arrival_time": 1.5, ', '"arrival_time": 0.5, "arrival_time": 1.5, ', False, id="duplicate-key"),
            (": 40", ":  40", False),
            ("}\n", "}\r\n", False),
            ("}\n", "} \n", False),
            ("}\n", "}", True),
            ('"r"', '"r\\u00e9"', False),
            ('"r"', '"r\u00e9\u4e2d\u2028"', True),
            ('"r"', '"a\tb"', False),
            ('"r"', '""', True),
            ('"r"', "7", False),
            ('"source_id": "r"', '"source_id": "r", "x": 1', False),
            pytest.param(STREAM_LINE, '{"_manifest": {"seed": 1}}\n', False, id="manifest"),
            pytest.param(STREAM_LINE, "[1, 2]\n", False, id="array"),
        ],
    )
    def test_fast_path_reads_edited_lines_as_json_loads(self, old, new, fast):
        line = STREAM_LINE.replace(old, new, 1)
        assert (_stream_line_match()(line) is not None) == fast
        assert_reads_like_json_loads(line)

    def test_conversation_file(self, tmp_path):
        path = tmp_path / "conv.jsonl"
        path.write_text(
            json.dumps(
                {
                    "conversation_id": "t1",
                    "turns": [
                        {"query_tokens": 3, "response_tokens": 1},
                        {"query_tokens": 2, "response_tokens": 2},
                        {"query_tokens": 3, "response_tokens": 1},
                    ],
                }
            )
            + "\n"
        )
        (records,) = read_conversations(path)
        assert [(r.cached_tokens, r.prefill_tokens) for r in records] == [(0, 3), (4, 2), (8, 3)]

    def test_document_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"doc_id": "d", "doc_tokens": 100, "question_tokens": [4]}) + "\n")
        (records,) = read_documents(path)
        assert [(r.source_id, r.cached_tokens, r.prefill_tokens) for r in records] == [("d/q1", 100, 4)]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "d", "doc_tokens": 1, "question_tokens": [1]}\n{oops\n')
        with pytest.raises(WorkloadError, match="line 2"):
            read_documents(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source_id": "a", "cached_tokens": 1, "prefill_tokens": 1}\n\n\n{oops\n')
        with pytest.raises(WorkloadError, match="bad.jsonl: line 4: invalid JSON"):
            read_stream(path)

    def test_line_separator_inside_a_string(self, tmp_path):
        # U+2028 and U+0085 are line breaks to str.splitlines, but not to JSON Lines
        path = tmp_path / "s.jsonl"
        path.write_text('{"source_id": "a\u2028b\x85c", "cached_tokens": 1, "prefill_tokens": 2}\n',
                        encoding="utf-8")
        (record,) = read_stream(path)
        assert record.source_id == "a\u2028b\x85c"

    @pytest.mark.parametrize(
        "reader, bad_line",
        [
            (read_stream, '{"source_id": "a", "cached_tokens": "abc", "prefill_tokens": 1}'),
            (read_stream, '{"source_id": "a", "cached_tokens": Infinity, "prefill_tokens": 1}'),
            (read_stream, '{"source_id": "a", "cached_tokens": 1.9, "prefill_tokens": 1}'),
            (read_stream, '{"source_id": "a", "cached_tokens": 1, "prefill_tokens": true}'),
            (read_stream, '{"source_id": "a", "cached_tokens": 1, "prefill_tokens": 1, "arrival_time": true}'),
            (read_stream, '{"source_id": "a", "cached_tokens": 1, "prefill_tokens": 1, "arrival_time": "2.5"}'),
            (read_stream, '[1, 2]'),
            (read_conversations, '{"conversation_id": "c", "turns": [{"query_tokens": "x"}]}'),
            (read_conversations, '{"conversation_id": "c", "turns": [{"query_tokens": 0}]}'),
            (read_documents, '{"doc_id": "d", "doc_tokens": 5, "question_tokens": ["q"]}'),
            # every key is checked, and a token count is a JSON integer: 5.0 is not one
            (read_conversations, '{"conversation_id": "c", "turns": [{"query_tokens": 5, "respons_tokens": 100}]}'),
            (read_conversations, '{"conversation_id": "c", "turns": [{"query_tokens": 5}], "title": "x"}'),
            (read_conversations, '{"conversation_id": "c", "turns": [{"query_tokens": 5.0}]}'),
            (read_documents, '{"doc_id": "d", "doc_tokens": 5, "question_tokens": [1], "questions": ["q"]}'),
            (read_documents, '{"doc_id": "d", "doc_tokens": 5.0, "question_tokens": [1]}'),
            (read_stream, '{"source_id": "a", "cached_tokens": 1, "prefill_tokens": 1, "cached_token": 2}'),
            (read_stream, '{"source_id": "a", "cached_tokens": 10.0, "prefill_tokens": 1}'),
        ],
    )
    def test_bad_values_report_line_number(self, tmp_path, reader, bad_line):
        path = tmp_path / "bad.jsonl"
        path.write_text(VALID_LINES[reader] + "\n" + bad_line + "\n")
        with pytest.raises(WorkloadError, match="bad.jsonl: line 2: "):
            reader(path)

    @pytest.mark.parametrize(
        "reader, line, text",
        [
            (read_conversations, '{"conversation_id": "c", "turns": "ab"}',
             'bad conversation object: conversation \'c\': turns must be a non-empty array, got "ab"'),
            (read_conversations, '{"conversation_id": "c", "turns": {"a": 1}}',
             'bad conversation object: conversation \'c\': turns must be a non-empty array, got {"a": 1}'),
            (read_documents, '{"doc_id": "d", "doc_tokens": 5, "question_tokens": 5}',
             "bad document object: document 'd': question_tokens must be an array, got 5"),
        ],
    )
    def test_array_fields_refuse_other_values_by_name(self, tmp_path, reader, line, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(WorkloadError) as info:
            reader(path)
        assert str(info.value) == f"{path}: line 1: {text}"


def pairs_text(pairs, colons, comma):
    """A JSON object written from (key, value text) pairs, which may repeat a key; ``colons`` yields each separator."""
    return "{" + comma.join(json.dumps(key) + next(colons) + value for key, value in pairs) + "}"


def first_repeat(keys):
    """The first key of ``keys`` that an earlier one already named, or None."""
    return next((k for i, k in enumerate(keys) if k in keys[:i]), None)


def read_line(reader, tmp_path, line):
    """What ``reader`` gives for a file of one ``line``: its one list of requests, or the error text after the line."""
    path = tmp_path / "trace.jsonl"
    path.write_text(line, encoding="utf-8")
    try:
        (records,) = reader(path)
    except WorkloadError as exc:
        prefix = f"{path}: line 1: "
        assert str(exc).startswith(prefix), exc
        return str(exc)[len(prefix):]
    return records


class TestTraceRepeatedKeys:
    """A trace line that repeats a key at any level is refused, whatever its spacing; any other reads as written."""

    @given(
        cid=st.one_of(
            st.text(max_size=4).map(lambda t: json.dumps(t, ensure_ascii=False)),
            st.sampled_from(['{"x": 1}', '{"x": 1, "x": 2}', '{"x" :1}', '["turns"]', "7"]),
        ),
        turn_keys=st.lists(st.lists(st.sampled_from(["query_tokens", "query_tokens", "response_tokens"]),
                                    min_size=1, max_size=3), min_size=1, max_size=3),
        top_keys=st.permutations(["conversation_id", "turns", "turns", "conversation_id"]).map(
            lambda keys: keys[:2] if len(set(keys[:2])) == 2 else keys[:3]),
        colons=st.lists(st.sampled_from([": ", ":", " : ", "\t:", ":\t", "  :"]), min_size=1, max_size=4),
        comma=st.sampled_from([", ", ",", " , ", ",\t"]),
        odd_turn=st.sampled_from([None, "[1]", '["a", "b"]', '"ab"', "7", "{}"]),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_conversation_line_refuses_a_repeat_at_either_level(self, tmp_path, cid, turn_keys, top_keys, colons,
                                                                 comma, odd_turn):
        colon = itertools.cycle(colons)  # one key's colon may be spaced while another's is not
        turns = [pairs_text([(k, str(i + 1)) for i, k in enumerate(keys)], colon, comma) for keys in turn_keys]
        turns = "[" + comma.join(turns + [odd_turn] * (odd_turn is not None)) + "]"
        line = pairs_text([(k, cid if k == "conversation_id" else turns) for k in top_keys], colon, comma) + "\n"
        got = read_line(read_conversations, tmp_path, line)
        # each object is checked as it closes: those inside each value in turn, then the line's own
        closing = []
        for k in top_keys:
            closing += [["x", "x"] if cid == '{"x": 1, "x": 2}' else []] if k == "conversation_id" else turn_keys
        key = next(filter(None, map(first_repeat, closing + [top_keys])), None)
        if key is not None:
            assert got == f"bad conversation object: a JSON object repeats key '{key}'"
        elif odd_turn is not None or any("query_tokens" not in keys for keys in turn_keys):
            assert got.startswith("bad conversation object: turn"), got
        else:
            reference, cached = [], 0
            for i, keys in enumerate(turn_keys, start=1):
                q = keys.index("query_tokens") + 1
                r = keys.index("response_tokens") + 1 if "response_tokens" in keys else 0
                reference.append(RequestRecord(f"{json.loads(cid)}/turn{i}", cached, q))
                cached += q + r
            assert got == reference

    @pytest.mark.parametrize(
        "line, key",
        [
            ('{"doc_id": "d", "doc_tokens": 5, "question_tokens": [1], "doc_tokens": 6}', "doc_tokens"),
            ('{"doc_id": "d", "doc_tokens": 5, "question_tokens": [1], "doc_tokens" : 6}', "doc_tokens"),
            ('{"doc_id" : "d", "doc_tokens": 5, "question_tokens": [1], "doc_tokens": 6}', "doc_tokens"),
            ('{"doc_id": {"a": 1, "a": 2}, "doc_tokens": 5, "question_tokens": [1]}', "a"),
            ('{"doc_id": "q\\"", "doc_tokens": 5, "question_tokens": [1], "question_tokens": [2]}',
             "question_tokens"),
            ('{"doc_id": "d", "doc_tokens": 5, "question_tokens": [1]}', None),
            ('{"doc_id": " d\\u00e9", "doc_tokens" : 5, "question_tokens": [1]}', None),
        ],
    )
    def test_document_line_refuses_a_repeated_key(self, tmp_path, line, key):
        got = read_line(read_documents, tmp_path, line + "\n")
        if key is None:
            doc = json.loads(line)
            assert got == [RequestRecord(f"{doc['doc_id']}/q1", doc["doc_tokens"], doc["question_tokens"][0])]
        else:
            assert got == f"bad document object: a JSON object repeats key '{key}'"
