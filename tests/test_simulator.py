import dataclasses
import json
import math
import random
import signal
import tracemalloc
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvroof import simulator
from kvroof.analytics import ttft
from kvroof.catalog import HardwareSpec, ModelSpec, by_name, default_catalog, kv_bytes_per_token
from kvroof.errors import SimulationError
from kvroof.simulator import (
    MAX_TOKEN_BUDGET,
    REPORT_PERCENTILES,
    IterationStats,
    SimConfig,
    compare_policies,
    run_sim,
    schedule_fifo,
    schedule_utilization_aware,
)
from kvroof.workload import SHAREGPT_LIKE, RequestRecord, nearest_rank_percentile, synthesize_stream

MODELS, HARDWARE = default_catalog()
M = by_name(MODELS)
H = by_name(HARDWARE)

UNIT_MODEL = ModelSpec(
    name="unit-model",
    total_params=1,
    active_params=1,
    attention_kind="GQA",
    layers=1,
    kv_heads=1,
    head_dim=1,
    precision_bytes=2,
)  # 4 bytes/token of KV, 2 FLOP/token

UNIT_HW = HardwareSpec(
    name="unit-testbed",
    compute_throughput=2.0,
    link_bandwidth_peak=math.inf,
    vram_effective=40.0,  # 10 token-equivalents
)


def unit_config(budget=5, alpha=0.0, chunking=True, vram_tokens=10):
    hw = HardwareSpec(
        name="unit-testbed",
        compute_throughput=2.0,
        link_bandwidth_peak=math.inf,
        vram_effective=4.0 * vram_tokens,
    )
    return SimConfig(
        model=UNIT_MODEL,
        hardware=hw,
        bandwidth_mode="peak",
        token_budget=budget,
        overlap_alpha=alpha,
        allow_chunked_prefill=chunking,
    )


FOUR_REQUESTS = [
    RequestRecord("r1", 4, 1, arrival_time=0.0),
    RequestRecord("r2", 3, 2, arrival_time=0.0),
    RequestRecord("r3", 0, 3, arrival_time=0.0),
    RequestRecord("r4", 1, 4, arrival_time=0.0),
]


@contextmanager
def time_limit(seconds):
    """Fail with ``TimeoutError`` instead of hanging when the block runs too long."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cand(order, prefill, cached=0, arrival=0.0):
    """A ready request; it pins cached + prefill tokens of VRAM once admitted."""
    return RequestRecord(f"c{order}", cached, prefill, arrival_time=arrival)


class TestFourRequestInstance:
    def test_fifo_three_iterations(self):
        report = run_sim(unit_config(), FOUR_REQUESTS, "fifo")
        assert [s.scheduled_tokens for s in report.iterations] == [3, 5, 2]
        assert report.iterations[0].vram_used == 40.0  # 10/10 token-equivalents

    def test_utilization_two_iterations(self):
        report = run_sim(unit_config(), FOUR_REQUESTS, "utilization")
        assert [s.scheduled_tokens for s in report.iterations] == [5, 5]
        assert report.iterations[0].vram_used == 40.0

    def test_compare(self):
        comparison = compare_policies(unit_config(), FOUR_REQUESTS)
        assert {name: len(rep.iterations) for name, rep in comparison.reports} == {"fifo": 3, "utilization": 2}
        # reordering trades early-request latency for fewer iterations
        (deltas,) = comparison.to_dict()["ttft_deltas_vs_first"]
        assert deltas["policy"] == "utilization"
        assert deltas["deltas"]["r4"] < 0

    def test_identical_policies_zero_deltas(self):
        comparison = compare_policies(unit_config(), FOUR_REQUESTS, ("fifo", "fifo"))
        (deltas,) = comparison.to_dict()["ttft_deltas_vs_first"]
        assert all(d == 0.0 for d in deltas["deltas"].values())

    def test_empty_stream(self):
        comparison = compare_policies(unit_config(), [])
        assert all(len(rep.iterations) == 0 for _, rep in comparison.reports)
        report = run_sim(unit_config(), [], "fifo")
        assert report.completed == 0 and report.mean_scheduled_tokens == 0.0


class TestFifoPolicy:
    def test_zero_budget_empty_selection(self):
        queue = [cand(0, 5)]
        assert schedule_fifo(queue, 0, 100, 0.0) == []

    def test_all_fit_order_preserved(self):
        # policies take ready requests in arrival order; run_sim sorts them
        queue = [cand(0, 1, arrival=0.0), cand(1, 2, arrival=1.0), cand(2, 3, arrival=2.0)]
        picks = schedule_fifo(queue, 100, 100, 2.0)
        assert [(p[0], p[1]) for p in picks] == [(0, 1), (1, 2), (2, 3)]

    def test_head_of_line_blocks_on_vram(self):
        queue = [cand(0, 1, 49, arrival=0.0), cand(1, 1, arrival=1.0)]
        picks = schedule_fifo(queue, 100, 10, 1.0)
        assert picks == []  # the head does not fit; no reordering past it

    def test_last_request_chunked(self):
        queue = [cand(0, 3), cand(1, 10, arrival=1.0)]
        picks = schedule_fifo(queue, 5, 100, 1.0, allow_chunking=True)
        assert [(p[0], p[1]) for p in picks] == [(0, 3), (1, 2)]

    def test_no_chunking_stops_whole(self):
        queue = [cand(0, 3), cand(1, 10, arrival=1.0)]
        picks = schedule_fifo(queue, 5, 100, 1.0, allow_chunking=False)
        assert [(p[0], p[1]) for p in picks] == [(0, 3)]


class TestUtilizationPolicy:
    def test_four_request_first_round(self):
        queue = [
            cand(0, 1, 4),
            cand(1, 2, 3),
            cand(2, 3, 0),
            cand(3, 4, 1),
        ]
        picks = schedule_utilization_aware(queue, 5, 10, 0.0)
        assert sorted(p[0] for p in picks) == [0, 3]
        assert sum(p[1] for p in picks) == 5

    def test_infinite_vram_matches_fifo_totals(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 10)
            queue = [
                cand(i, rng.randint(1, 50), rng.randint(0, 10), arrival=float(i))
                for i in range(n)
            ]
            budget = rng.randint(1, 80)
            fifo_total = sum(n for _, n in schedule_fifo(queue, budget, math.inf, 0.0))
            ua_total = sum(n for _, n in schedule_utilization_aware(queue, budget, math.inf, 0.0))
            assert ua_total == fifo_total

    def test_waited_requests_go_in_fifo_order(self):
        queue = [cand(i, i + 1, arrival=float(i)) for i in range(5)]  # each has waited 10 - i s
        picks = schedule_utilization_aware(queue, 1000, 1000, 10.0)
        fifo = schedule_fifo(queue, 1000, 1000, 10.0)
        assert [(p[0], p[1]) for p in picks] == [(p[0], p[1]) for p in fifo]

    def test_exact_search_tie_goes_to_arrival(self):
        # a (K=1) and b (K=0) arrive together; b is ready first, but the tie
        # between "a whole + b chunked" and "b whole + a chunked" goes to a
        stream = [RequestRecord("a", 1, 3, arrival_time=0.0), RequestRecord("b", 0, 3, arrival_time=0.0)]
        report = run_sim(unit_config(budget=4, vram_tokens=20), stream, "utilization")
        assert report.request_ttft == {"a": 4.0, "b": 6.0}

    def test_greedy_top_up_skips_admitted_requests(self):
        # 13 requests that have not waited: more than EXACT_SEARCH_LIMIT, so the
        # greedy pass admits two whole and chunks the next one not yet admitted
        queue = [cand(i, 10, arrival=1.0) for i in range(13)]
        assert len(queue) > simulator.EXACT_SEARCH_LIMIT
        picks = schedule_utilization_aware(queue, 25, 1000, 1.0)
        assert picks == [(0, 10), (1, 10), (2, 5)]
        assert len({i for i, _ in picks}) == len(picks)

    def test_never_below_fifo_at_zero_wait(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(1, 8)
            queue = [
                cand(i, rng.randint(1, 20), rng.randint(0, 15), arrival=float(i))
                for i in range(n)
            ]
            budget = rng.randint(1, 40)
            vram = rng.randint(1, 40)
            fifo_total = sum(x for _, x in schedule_fifo(queue, budget, vram, 0.0))
            ua_total = sum(x for _, x in schedule_utilization_aware(queue, budget, vram, 0.0))
            assert ua_total >= fifo_total


def brute_force_best_tokens(queue, budget, vram, chunking=True):
    """Independent oracle: max schedulable tokens over all subsets plus one chunk."""
    n = len(queue)
    best = 0
    for mask in range(1 << n):
        tok = sum(queue[i].prefill_tokens for i in range(n) if mask >> i & 1)
        vr = sum(queue[i].vram_tokens for i in range(n) if mask >> i & 1)
        if tok > budget or vr > vram:
            continue
        extra = 0
        if chunking:
            for i in range(n):
                if not mask >> i & 1 and vr + queue[i].vram_tokens <= vram:
                    extra = max(extra, min(budget - tok, queue[i].prefill_tokens))
        best = max(best, tok + extra)
    return best


class TestBruteForceOracle:
    def test_utilization_matches_optimal_small_instances(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 8)
            queue = [
                cand(i, rng.randint(1, 25), rng.randint(0, 20), arrival=float(i))
                for i in range(n)
            ]
            budget = rng.randint(1, 60)
            vram = rng.randint(1, 50)
            ua_total = sum(x for _, x in schedule_utilization_aware(queue, budget, vram, 0.0))
            assert ua_total == brute_force_best_tokens(queue, budget, vram)


def random_stream(rng, n=None):
    n = n if n is not None else rng.randint(1, 25)
    t = 0.0
    records = []
    for i in range(n):
        t += rng.expovariate(2.0)
        records.append(
            RequestRecord(
                source_id=f"s{i}",
                cached_tokens=rng.randint(0, 40),
                prefill_tokens=rng.randint(1, 12),
                arrival_time=t,
            )
        )
    return records


class TestRunSimInvariants:
    @pytest.mark.parametrize("policy", ["fifo", "utilization"])
    def test_conservation_safety_work(self, policy):
        rng = random.Random(99)
        for _ in range(120):
            budget = rng.randint(2, 20)
            vram_tokens = rng.randint(60, 120)  # above the largest possible K+T
            alpha = rng.choice([0.0, 0.5, 1.0])
            config = unit_config(budget=budget, alpha=alpha, vram_tokens=vram_tokens)
            stream = random_stream(rng)
            report = run_sim(config, stream, policy)
            # conservation: every request's prefill work sums to T
            assert report.completed == len(stream)
            total_sched = sum(s.scheduled_tokens for s in report.iterations)
            assert total_sched == sum(r.prefill_tokens for r in stream)
            # safety: budget and VRAM ceilings hold on every iteration
            for s in report.iterations:
                assert s.scheduled_tokens <= budget
                assert s.vram_used <= config.hardware.vram_effective * (1 + 1e-12)
                assert s.t_end >= s.t_start
            # time monotone across iterations
            starts = [s.t_start for s in report.iterations]
            assert starts == sorted(starts)

    def test_single_request_matches_analytics(self):
        model = M["Qwen3-235B-A22B"]
        hw = H["H100-PCIe5-measured"]
        config = SimConfig(model=model, hardware=hw, bandwidth_mode="sustained", token_budget=4000)
        rec = RequestRecord("solo", 65_536, 64, arrival_time=2.5)
        report = run_sim(config, [rec], "fifo")
        expected = ttft(RequestRecord("solo", 65_536, 64), model, hw, 0.0, True).ttft
        assert report.request_ttft["solo"] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_single_request_ttft_independent_of_alpha(self, alpha):
        # A request's transfer never overlaps its own compute, so a lone
        # request's TTFT is the closed form's at alpha 0 whatever alpha is.
        model = M["Qwen3-235B-A22B"]
        hw = H["H100-PCIe5-measured"]
        config = SimConfig(model=model, hardware=hw, bandwidth_mode="sustained", token_budget=4000,
                           overlap_alpha=alpha)
        expected = ttft(RequestRecord("solo", 65_536, 64), model, hw, 0.0, True).ttft
        at_zero = run_sim(config, [RequestRecord("solo", 65_536, 64, arrival_time=0.0)], "fifo")
        assert at_zero.request_ttft["solo"] == expected
        # TTFT is a difference of clock readings, so a later arrival may differ in the last bits
        rec = RequestRecord("solo", 65_536, 64, arrival_time=2.5)
        report = run_sim(config, [rec], "fifo")
        assert report.request_ttft["solo"] == pytest.approx(expected, rel=1e-9)
        if alpha > 0:  # the closed form overlaps within the request; the simulator does not
            assert ttft(RequestRecord("solo", 65_536, 64), model, hw, alpha, True).ttft < expected

    def test_pure_compute_single_iteration(self):
        model = M["Qwen3-235B-A22B"]
        hw = H["B200-PCIe5"]
        config = SimConfig(model=model, hardware=hw, token_budget=4000)
        report = run_sim(config, [RequestRecord("p", 0, 100, arrival_time=0.0)], "fifo")
        assert len(report.iterations) == 1
        assert report.iterations[0].scheduled_tokens == 100
        assert report.compute_busy_fraction == 1.0

    def test_deterministic_byte_identical(self):
        rng = random.Random(3)
        stream = random_stream(rng, n=40)
        config = unit_config(budget=7, alpha=0.5, vram_tokens=60)
        a = run_sim(config, stream, "utilization")
        b = run_sim(config, stream, "utilization")
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_oversized_request_rejected_not_dropped_silently(self):
        config = unit_config(vram_tokens=10)
        stream = [
            RequestRecord("ok", 4, 1, arrival_time=0.0),
            RequestRecord("huge", 100, 5, arrival_time=0.0),
        ]
        report = run_sim(config, stream, "fifo")
        assert [r.id for r in report.rejected] == ["huge"]
        assert report.completed == 1
        assert "ok" in report.request_ttft

    def test_no_starvation_under_utilization(self):
        rng = random.Random(17)
        for _ in range(40):
            stream = random_stream(rng)
            report = run_sim(unit_config(budget=4, vram_tokens=60), stream, "utilization")
            assert report.completed == len(stream)

    @pytest.mark.parametrize("policy", ["fifo", "utilization"])
    def test_residents_continue_first(self, policy):
        # r0 is chunked 4 + 1; at t=4 it finishes before r1, which does not
        # fit the pool until r0 frees it
        stream = [RequestRecord("r0", 4, 5, arrival_time=0.0), RequestRecord("r1", 1, 1, arrival_time=1.0)]
        report = run_sim(unit_config(budget=4, vram_tokens=10), stream, policy)
        assert [s.scheduled_tokens for s in report.iterations] == [4, 1, 1]

    def test_unsorted_stream_rejected(self):
        stream = [
            RequestRecord("a", 1, 1, arrival_time=5.0),
            RequestRecord("b", 1, 1, arrival_time=1.0),
        ]
        with pytest.raises(SimulationError):
            run_sim(unit_config(), stream, "fifo")

    def test_negative_arrival_rejected(self):
        # NaN and infinite arrivals once hung the loop; tests/test_cli.py
        # checks them in a subprocess under a timeout.
        with pytest.raises(SimulationError, match="'a'"):
            run_sim(unit_config(), [RequestRecord("a", 1, 1, arrival_time=-1.0)], "fifo")

    def test_duplicate_source_id_rejected(self):
        stream = [RequestRecord("a", 1, 1, arrival_time=0.0), RequestRecord("a", 2, 1, arrival_time=1.0)]
        with pytest.raises(SimulationError, match="duplicate source_id 'a'"):
            run_sim(unit_config(), stream, "fifo")

    def test_unschedulable_without_chunking_fails_fast(self):
        # T above the budget with chunking off can never run; say so before simulating
        stream = [RequestRecord(f"s{i}", 1, 2, arrival_time=float(i)) for i in range(3)]
        stream.insert(1, RequestRecord("long", 1, 11, arrival_time=0.5))
        with pytest.raises(SimulationError, match="request 'long': prefill_tokens 11 exceed token_budget 10"):
            run_sim(unit_config(budget=10, chunking=False, vram_tokens=40), stream, "fifo")

    def test_zero_token_iteration_raises(self, monkeypatch):
        # a policy that picks requests but schedules no tokens would stop the clock
        def idle_picks(ready, budget, free, now, allow_chunking):
            return [(i, 0) for i in range(len(ready))]

        monkeypatch.setitem(simulator.POLICIES, "fifo", idle_picks)
        stream = [RequestRecord("a", 1, 2, arrival_time=0.0), RequestRecord("b", 0, 3, arrival_time=1.0)]
        with time_limit(5), pytest.raises(SimulationError, match="0 tokens"):
            run_sim(unit_config(), stream, "fifo")

    @pytest.mark.parametrize("picks", [
        lambda ready: [(i, r.prefill_tokens + 1) for i, r in enumerate(ready)],
        lambda ready: [(0, ready[0].prefill_tokens), (0, 1)],  # the same request twice
    ], ids=["too many tokens", "picked twice"])
    def test_over_scheduling_policy_raises(self, monkeypatch, picks):
        monkeypatch.setitem(simulator.POLICIES, "fifo", lambda ready, *_, **__: picks(ready))
        stream = [RequestRecord("a", 0, 2, arrival_time=0.0)]
        with pytest.raises(SimulationError, match="policy over-scheduled request 'a'"):
            run_sim(unit_config(), stream, "fifo")

    def test_policy_that_never_admits_leaves_requests_unfinished(self, monkeypatch):
        monkeypatch.setitem(simulator.POLICIES, "fifo", lambda *_, **__: [])
        stream = [RequestRecord("a", 1, 2, arrival_time=0.0), RequestRecord("b", 0, 3, arrival_time=1.0)]
        with time_limit(5), pytest.raises(SimulationError, match="2 unfinished request\\(s\\); first: 'a'"):
            run_sim(unit_config(), stream, "fifo")

    def test_integer_arrivals_keep_a_float_clock(self):
        stream = [RequestRecord("a", 0, 2, arrival_time=3), RequestRecord("b", 0, 1, arrival_time=7)]
        report = run_sim(unit_config(), stream, "fifo")
        assert [repr(row[1]) for row in report.iteration_rows()] == ["3.0", "7.0"]
        assert report.request_ttft == {"a": 2.0, "b": 1.0}

    def test_missing_arrival_rejected(self):
        with pytest.raises(SimulationError):
            run_sim(unit_config(), [RequestRecord("a", 1, 1)], "fifo")

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            run_sim(unit_config(), [], "nope")

    def test_work_conservation_fifo_chunking(self):
        # whenever work remained unscheduled, either the budget was full or
        # the next-in-line request did not fit the free VRAM
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(1, 12)
            queue = [
                cand(i, rng.randint(1, 15), rng.randint(0, 10), arrival=float(i))
                for i in range(n)
            ]
            budget = rng.randint(1, 50)
            vram = rng.randint(1, 60)
            picks = schedule_fifo(queue, budget, vram, 0.0)
            sched = sum(x for _, x in picks)
            picked = {p[0] for p in picks}
            leftovers = [i for i in range(n) if i not in picked]
            if leftovers and sched < budget:
                vram_left = vram - sum(queue[i].vram_tokens for i in picked)
                first = queue[min(leftovers)]
                assert first.vram_tokens > vram_left


@st.composite
def sim_case(draw):
    """A small random platform, config and stream; with chunking off, T <= budget."""
    chunking = draw(st.booleans())
    budget = draw(st.integers(1, 20))
    hw = HardwareSpec(
        name="prop-testbed",
        compute_throughput=draw(st.sampled_from([1.0, 2.0, 7.0])),
        link_bandwidth_peak=draw(st.sampled_from([math.inf, 1.0, 4.0, 13.0])),
        vram_effective=4.0 * draw(st.integers(5, 80)),
    )
    config = SimConfig(model=UNIT_MODEL, hardware=hw, bandwidth_mode="peak", token_budget=budget,
                       overlap_alpha=draw(st.floats(0.0, 1.0)), allow_chunked_prefill=chunking)
    t_max = 40 if chunking else budget
    rows = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0, 3.7]), st.integers(0, 40),
                                   st.integers(1, t_max)), max_size=25))
    stream, t = [], 0.0
    for i, (gap, k, n) in enumerate(rows):
        t += gap
        stream.append(RequestRecord(f"p{i}", k, n, arrival_time=t))
    return config, stream, draw(st.sampled_from(["fifo", "utilization"]))


class TestRunSimProperties:
    @given(sim_case())
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, case):
        config, stream, policy = case
        before = [(r.source_id, r.cached_tokens, r.prefill_tokens, r.arrival_time) for r in stream]
        report = run_sim(config, stream, policy)
        # run_sim reads the records and never writes them
        assert [(r.source_id, r.cached_tokens, r.prefill_tokens, r.arrival_time) for r in stream] == before
        rejected = {r.id for r in report.rejected}
        accepted = [r for r in stream if r.source_id not in rejected]
        # every request is rejected or finishes, and each accepted one exactly once
        assert report.completed + len(report.rejected) == len(stream)
        assert sorted(report.request_ttft) == sorted(r.source_id for r in accepted)
        assert sum(s.scheduled_tokens for s in report.iterations) == sum(r.prefill_tokens for r in accepted)
        prev_end = -math.inf
        for s in report.iterations:
            assert s.scheduled_tokens <= config.token_budget
            assert s.vram_used <= config.hardware.vram_effective
            assert s.t_end >= s.t_start >= prev_end
            prev_end = s.t_end
        assert 0.0 <= report.compute_busy_fraction <= 1.0
        assert 0.0 <= report.transfer_busy_fraction <= 1.0

    @given(sim_case())
    @settings(max_examples=200, deadline=None)
    def test_token_stats_and_rows_match_the_sorted_reference(self, case):
        report = run_sim(*case)
        log = report.iterations
        assert list(report.iteration_rows()) == [
            (s.index, s.t_start, s.t_end, s.scheduled_tokens, s.vram_used, s.queue_depth)
            for s in (log[i] for i in range(len(log)))
        ]
        values = sorted(float(s) for s in log.scheduled_tokens)
        if values:
            assert report.mean_scheduled_tokens == sum(values) / len(values)
            assert report.scheduled_token_percentiles == {
                p: nearest_rank_percentile(values, p) for p in REPORT_PERCENTILES
            }
        else:
            assert report.mean_scheduled_tokens == 0.0
            assert report.scheduled_token_percentiles == dict.fromkeys(REPORT_PERCENTILES, 0.0)

    @given(st.lists(st.integers(1, 2**40), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_token_stats_from_counts_over_wide_values(self, tokens):
        mean, percentiles = simulator._scheduled_token_stats(array("q", tokens))
        values = sorted(float(s) for s in tokens)
        assert mean == sum(values) / len(values)
        assert percentiles == {p: nearest_rank_percentile(values, p) for p in REPORT_PERCENTILES}


class TestIterationLog:
    def test_reads_as_a_sequence_of_rows(self):
        log = run_sim(unit_config(), FOUR_REQUESTS, "fifo").iterations
        rows = list(log)
        assert [s.index for s in rows] == [0, 1, 2]
        assert log[-1] == rows[2] == IterationStats(2, rows[2].t_start, rows[2].t_end, 2, rows[2].vram_used, 0)
        assert list(reversed(log)) == rows[::-1]
        with pytest.raises(IndexError):
            log[3]

    def test_budget_up_to_64_bits(self):
        hw = dataclasses.replace(UNIT_HW, vram_effective=1e300)
        config = dataclasses.replace(unit_config(), hardware=hw, token_budget=MAX_TOKEN_BUDGET)
        report = run_sim(config, [RequestRecord("a", 0, MAX_TOKEN_BUDGET, arrival_time=0.0)], "fifo")
        assert [s.scheduled_tokens for s in report.iterations] == [MAX_TOKEN_BUDGET]
        with pytest.raises(SimulationError, match=r"token_budget must be an integer in \[1, 9223372036854775807\]"):
            dataclasses.replace(config, token_budget=MAX_TOKEN_BUDGET + 1)

    def test_report_retains_under_64_bytes_per_iteration(self):
        # A seeded 20k-request stream on the sustained pairing: about one iteration per request.
        stream = synthesize_stream(SHAREGPT_LIKE, rps=200, duration_s=100, seed=20)
        config = SimConfig(M["Qwen3-30B-A3B"], H["Unified-HBM"])
        tracemalloc.start()
        try:
            report = run_sim(config, stream, "fifo")
            n = len(report.iterations)
            held = tracemalloc.get_traced_memory()[0]
            report.iterations = None
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n > 10_000
        assert freed / n < 64


class TestTransferChannel:
    def test_transfers_serialize_fifo(self):
        # two equal requests: the second waits for the first's transfer
        model = UNIT_MODEL
        hw = HardwareSpec(
            name="slow-link", compute_throughput=2.0, link_bandwidth_peak=4.0, vram_effective=400.0
        )
        config = SimConfig(model=model, hardware=hw, bandwidth_mode="peak", token_budget=100)
        stream = [
            RequestRecord("a", 2, 1, arrival_time=0.0),  # transfer 2*4/4 = 2s
            RequestRecord("b", 2, 1, arrival_time=0.0),
        ]
        report = run_sim(config, stream, "fifo")
        # a: ready at 2, computes 1s -> ttft 3. b's transfer starts at 2 but the
        # channel is frozen during a's iteration [2,3] (alpha=0), so it finishes
        # at 5; b computes [5,6] -> ttft 6.
        assert report.request_ttft["a"] == pytest.approx(3.0)
        assert report.request_ttft["b"] == pytest.approx(6.0)

    def test_alpha_zero_freezes_channel_during_compute(self):
        model = UNIT_MODEL
        hw = HardwareSpec(
            name="slow-link", compute_throughput=2.0, link_bandwidth_peak=4.0, vram_effective=400.0
        )
        stream = [
            RequestRecord("a", 2, 4, arrival_time=0.0),  # transfer 2s, compute 4s
            RequestRecord("b", 2, 1, arrival_time=0.0),
        ]
        frozen = run_sim(
            SimConfig(model=model, hardware=hw, bandwidth_mode="peak", token_budget=100,
                      overlap_alpha=0.0),
            stream,
            "fifo",
        )
        overlapped = run_sim(
            SimConfig(model=model, hardware=hw, bandwidth_mode="peak", token_budget=100,
                      overlap_alpha=1.0),
            stream,
            "fifo",
        )
        # with no overlap, b's transfer waits out a's 4s iteration:
        # a xfer [0,2], a compute [2,6], b xfer [6,8], b compute [8,9]
        assert frozen.request_ttft["b"] == pytest.approx(9.0)
        # with full overlap, b transfers during a's iteration ([2,4]) and
        # computes right after the boundary: [6,7]
        assert overlapped.request_ttft["b"] == pytest.approx(7.0)
        assert overlapped.request_ttft["b"] < frozen.request_ttft["b"]

    def test_reduced_bandwidth_lowers_compute_busy_fraction(self):
        model = M["Qwen3-235B-A22B"]
        stream = [
            RequestRecord(f"q{i}", 8000, 128, arrival_time=0.05 * i) for i in range(40)
        ]
        fast = run_sim(
            SimConfig(model=model, hardware=H["H100-PCIe5"], bandwidth_mode="peak",
                      token_budget=4000),
            stream,
            "fifo",
        )
        slow = run_sim(
            SimConfig(model=model, hardware=H["H100-PCIe5-measured"], bandwidth_mode="sustained",
                      token_budget=4000),
            stream,
            "fifo",
        )
        assert slow.compute_busy_fraction < fast.compute_busy_fraction


def powered_config(idle_watts, tdp_watts):
    hw = dataclasses.replace(UNIT_HW, idle_watts=idle_watts, tdp_watts=tdp_watts)
    return SimConfig(model=UNIT_MODEL, hardware=hw, bandwidth_mode="peak", token_budget=5)


class TestPowerProxy:
    """The report's power figure: idle + (tdp - idle) * compute_busy_fraction."""

    def test_endpoints_and_midpoint(self):
        report = run_sim(powered_config(100.0, 100.0), FOUR_REQUESTS, "fifo")
        assert report.mean_power_watts == 100.0
        idle_report = run_sim(powered_config(100.0, 700.0), [], "fifo")
        assert idle_report.mean_power_watts == 100.0

    def test_linear_interpolation(self):
        # one token per second: busy [0, 1] and [7, 8] over an 8 s span
        stream = [RequestRecord("a", 0, 1, arrival_time=0.0), RequestRecord("b", 0, 1, arrival_time=7.0)]
        report = run_sim(powered_config(100.0, 700.0), stream, "fifo")
        assert report.compute_busy_fraction == 0.25
        assert report.mean_power_watts == 250.0

    def test_peak_below_idle_rejected(self):
        with pytest.raises(ValueError):
            powered_config(200.0, 100.0)

    def test_configured_power_in_report(self):
        config = powered_config(100.0, 700.0)
        report = run_sim(config, FOUR_REQUESTS, "fifo")
        assert report.mean_power_watts == pytest.approx(
            100.0 + 600.0 * report.compute_busy_fraction
        )

    def test_catalog_platform_power_and_inline_none(self):
        stream = [RequestRecord(f"q{i}", 4000, 64, arrival_time=0.01 * i) for i in range(20)]
        hw = H["Unified-HBM"]
        report = run_sim(SimConfig(model=M["Qwen3-30B-A3B"], hardware=hw), stream, "fifo")
        assert 0 < report.compute_busy_fraction < 1
        assert report.mean_power_watts == (
            hw.idle_watts + (hw.tdp_watts - hw.idle_watts) * report.compute_busy_fraction
        )
        inline = dataclasses.replace(hw, idle_watts=None, tdp_watts=None)
        report = run_sim(SimConfig(model=M["Qwen3-30B-A3B"], hardware=inline), stream, "fifo")
        assert report.mean_power_watts is None
