import dataclasses
import json
import math
import random
import signal
import sys
import tracemalloc
from array import array
from collections import deque
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvroof import simulator
from kvroof.analytics import max_concurrent, ttft
from kvroof.catalog import MAX_TOKENS, HardwareSpec, ModelSpec, by_name, default_catalog, kv_bytes_per_token
from kvroof.errors import SimulationError, WorkloadError
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
        assert report.iterations.vram_used[0] == 40.0  # 10/10 token-equivalents

    def test_utilization_two_iterations(self):
        report = run_sim(unit_config(), FOUR_REQUESTS, "utilization")
        assert [s.scheduled_tokens for s in report.iterations] == [5, 5]
        assert report.iterations.vram_used[0] == 40.0

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

    @pytest.mark.parametrize("infinite_link, iterations, differ, mean_ttfts", [
        (True, (49, 48), 974, (0.01928, 0.01867)),
        (False, (1181, 1181), 0, (0.09957, 0.09957)),
    ])
    def test_poisson_arrivals_differ_once_compute_saturates(self, infinite_link, iterations, differ, mean_ttfts):
        # Poisson arrivals never share an instant, yet with an infinite link (the saturated
        # benchmark's platform) requests queue on compute and the packer picks among them;
        # the real link releases one request at a time, and the policies agree
        hw = H["Unified-HBM"]
        if infinite_link:
            hw = HardwareSpec(name="Unified-HBM-infinite-link", compute_throughput=hw.compute_throughput,
                              link_bandwidth_peak=math.inf, vram_effective=hw.vram_effective)
        records = list(synthesize_stream(SHAREGPT_LIKE, rps=12000, duration_s=0.1, seed=3))
        (_, fifo), (_, util) = compare_policies(SimConfig(model=M["Qwen3-30B-A3B"], hardware=hw), records).reports
        assert len(records) == 1180
        assert (len(fifo.iterations), len(util.iterations)) == iterations
        assert sum(fifo.request_ttft[r.source_id] != util.request_ttft[r.source_id] for r in records) == differ
        means = tuple(sum(rep.request_ttft.values()) / len(records) for rep in (fifo, util))
        assert means == pytest.approx(mean_ttfts, rel=1e-3)


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
        assert report.iterations.scheduled_tokens[0] == 100
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

    @pytest.mark.parametrize("rows, error", [
        # a repeated id before an arrival out of order: the repeat
        ([("a", 0.0), ("a", 1.0), ("b", 0.5)], "duplicate source_id 'a'"),
        # an arrival out of order before a repeated id: the arrival
        ([("a", 1.0), ("b", 0.5), ("a", 2.0)], "request 'b': arrival_time 0.5 must be >= 0 and sorted (not before 1.0)"),
        # ids that do not ascend are sorted to find the repeat, which is named in stream order
        ([("b", 0.0), ("a", 1.0), ("b", 2.0)], "duplicate source_id 'b'"),
        ([("c", 0.0), ("b", 1.0), ("a", 2.0), ("b", 3.0), ("a", 4.0)], "duplicate source_id 'b'"),
        # a rejected request's id counts, before or after the accepted one
        ([("a", 0.0), ("big", 1.0), ("big", 2.0)], "duplicate source_id 'big'"),
        ([("a", 0.0), ("b", 0.5), ("c", 0.6), ("big", 1.0), ("big", 2.0)], "duplicate source_id 'big'"),
        ([("a", 0.0), ("b", 1.0), ("big", 2.0), ("a", 3.0)], "duplicate source_id 'a'"),
        # a repeated id on a record without an arrival: the arrival
        ([("a", 0.0), ("a", None)], "request 'a' has no arrival_time"),
        # a repeated id on a record too long to run without chunking: the repeat
        ([("a", 0.0), ("a", 1.0, 11)], "duplicate source_id 'a'"),
        # a repeated id of a rejected request before a T too long to run without chunking: the repeat
        ([("a", 0.0), ("big", 1.0), ("big", 2.0), ("c", 3.0, 11)], "duplicate source_id 'big'"),
        # a T too long to run without chunking before a repeated id: the T
        ([("a", 0.0, 11), ("b", 1.0), ("b", 2.0)], "request 'a': prefill_tokens 11 exceed token_budget 10, "
                                                  "and chunked prefill is off"),
    ])
    def test_first_fault_in_stream_order_is_reported(self, rows, error):
        # vram_tokens 20 rejects "big" (K 30); with chunking off, a T of 11 cannot run
        stream = [RequestRecord(sid, 30 if sid == "big" else 1, *rest or (1,), arrival_time=t) for sid, t, *rest in rows]
        with pytest.raises(SimulationError) as info:
            run_sim(unit_config(budget=10, chunking=False, vram_tokens=20), stream, "fifo")
        assert str(info.value) == error

    @pytest.mark.parametrize("repeat", [True, False], ids=["repeat", "no repeat"])
    @pytest.mark.parametrize("fault", ["arrival", "reader", "no arrival", "prefill"])
    def test_a_fault_read_after_requests_finished_is_reported_in_stream_order(self, fault, repeat):
        # Each request finishes before the next arrives, so when the fault at 2,500 is read,
        # READ_AHEAD records at a time, the ranks before about 2,048 hold ids, not records.
        stream = [RequestRecord("r10" if repeat and i == 1500 else f"r{i}", 0, 1, arrival_time=2.0 * i)
                  for i in range(3000)]
        requests = stream
        if fault == "arrival":
            stream[2500] = dataclasses.replace(stream[2500], arrival_time=4997.5)
            error = SimulationError("request 'r2500': arrival_time 4997.5 must be >= 0 and sorted (not before 4998.0)")
        elif fault == "no arrival":
            stream[2500] = dataclasses.replace(stream[2500], arrival_time=None)
            error = SimulationError("request 'r2500' has no arrival_time")
        elif fault == "prefill":  # raised after its record is taken in
            stream[2500] = dataclasses.replace(stream[2500], prefill_tokens=6)
            error = SimulationError("request 'r2500': prefill_tokens 6 exceed token_budget 5, and chunked prefill is off")
        else:
            error = WorkloadError("stream.jsonl: line 2501: not JSON")

            def reader():
                yield from stream[:2500]
                raise error
            requests = reader()
        expected = SimulationError("duplicate source_id 'r10'") if repeat else error
        with pytest.raises((SimulationError, WorkloadError)) as info:
            run_sim(unit_config(chunking=False), requests, "fifo")
        assert (type(info.value), str(info.value)) == (type(expected), str(expected))

    @pytest.mark.parametrize("order", ["ascending", "three runs", "descending"])
    @pytest.mark.parametrize("rejected", [0, 5, 60])
    def test_ids_in_any_order_are_checked_and_listed_by_id(self, order, rejected):
        # Ascending ids are in id order as they are; three runs, or ids that descend, are
        # sorted. The sorted rejected ids are bisected into either order.
        n = 138
        ids = {"ascending": range(n), "three runs": [*range(50, n), *range(20, 50), *range(20)],
               "descending": range(n - 1, -1, -1)}[order]
        big = set(range(0, n, n // rejected)) if rejected else set()  # stream positions too big for the pool
        stream = [RequestRecord(f"r{i:04d}", 30 if t in big else 0, 1 + i % 3, arrival_time=0.1 * t)
                  for t, i in enumerate(ids)]
        report = run_sim(unit_config(budget=4), stream, "fifo")
        assert len(report.rejected) == len(big)
        assert list(report.ttft_by_id()) == sorted(report.request_ttft.items())
        for shape in ((0, 1), (30, 1)):  # a repeat that would be accepted, and one that would be rejected
            for t in (1, n // 2, n - 1):
                sid = stream[t].source_id
                with pytest.raises(SimulationError, match=f"^duplicate source_id '{sid}'$"):
                    run_sim(unit_config(budget=4), [*stream, RequestRecord(sid, *shape, arrival_time=0.1 * n)], "fifo")

    @given(accepted=st.lists(st.text("abc", max_size=3), max_size=12), rejected=st.lists(st.text("abc", max_size=3),
                                                                                     max_size=5), ascend=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_id_order_is_a_set_check_and_a_sort(self, accepted, rejected, ascend):
        # ids that ascend are in id order as they are, others are sorted; either way the
        # sorted rejected ids are bisected into the order
        if ascend:
            accepted = sorted(set(accepted))
        refused = [simulator.RejectedRequest(id=sid, vram_bytes=1.0) for sid in rejected]
        ids = accepted + rejected
        order = simulator._id_order(accepted, refused)
        assert (order is None) == (len(set(ids)) < len(ids))
        if order is not None:
            assert [accepted[k] for k in order] == sorted(accepted)

    def test_id_order_merges_sorted_runs(self):
        # more ids than one run holds: each run's ranks are sorted, and the runs merged
        n = 1024 * 5 + 7
        ids = [f"r-{i * 2654435761 % 2**32:010d}" for i in range(n)]
        order = simulator._id_order(ids, [simulator.RejectedRequest(id="r-", vram_bytes=1.0)])
        assert isinstance(order, array) and [ids[k] for k in order] == sorted(ids)
        for first, last in ((0, n - 1), (3, 4000), (2000, 2001)):  # a repeat within a run and across runs
            repeated = ids[:last] + [ids[first]] + ids[last + 1:]
            assert simulator._id_order(repeated, []) is None
        assert simulator._id_order(ids, [simulator.RejectedRequest(id=ids[-1], vram_bytes=1.0)]) is None

    def test_mean_ttft_is_the_finishing_order_sum(self):
        # a's cache takes 5 s on a 4 B/s link, paused while b and c compute, so b, then c,
        # finish before a; in that order the TTFTs sum to a float other than in arrival order
        hw = HardwareSpec(name="unit-testbed", compute_throughput=2.0, link_bandwidth_peak=4.0, vram_effective=40.0)
        config = dataclasses.replace(unit_config(), hardware=hw)
        stream = [RequestRecord("a", 5, 1, arrival_time=0.0), RequestRecord("b", 0, 2, arrival_time=0.8),
                  RequestRecord("c", 0, 1, arrival_time=0.9)]
        report = run_sim(config, stream, "fifo")
        ttft = report.request_ttft
        assert ttft == {"a": 9.0, "b": 2.8 - 0.8, "c": 3.8 - 0.9}
        assert report.mean_ttft == (ttft["b"] + ttft["c"] + ttft["a"]) / 3 != (ttft["a"] + ttft["b"] + ttft["c"]) / 3
        assert compare_policies(config, stream, ["fifo"]).to_dict()["policies"][0]["mean_ttft"] == report.mean_ttft

    def test_zero_ttft_counts_as_finished(self):
        # on an infinite accelerator and link every prefill takes no time: a TTFT of 0.0 is a finished request's
        hw = dataclasses.replace(UNIT_HW, compute_throughput=math.inf)
        config = dataclasses.replace(unit_config(), hardware=hw)
        stream = [RequestRecord("a", 1, 2, arrival_time=0.0), RequestRecord("b", 0, 3, arrival_time=1.0)]
        report = run_sim(config, stream, "fifo")
        assert report.request_ttft == {"a": 0.0, "b": 0.0}
        assert report.completed == 2 and report.mean_ttft == 0.0

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


@st.composite
def faulty_sim_case(draw):
    """``sim_case`` with, half the time, one record made faulty: no arrival, an arrival before the last,
    another record's id, or a T above the budget."""
    config, stream, policy = draw(sim_case())
    if stream and draw(st.booleans()):
        i = draw(st.integers(0, len(stream) - 1))
        r = stream[i]
        stream[i] = draw(st.sampled_from([
            dataclasses.replace(r, arrival_time=None),
            dataclasses.replace(r, arrival_time=r.arrival_time - 0.5),
            dataclasses.replace(r, source_id=stream[draw(st.integers(0, len(stream) - 1))].source_id),
            dataclasses.replace(r, prefill_tokens=config.token_budget + 1),
        ]))
    return config, stream, policy


def run_outcome(config, requests, policy):
    """The bytes of everything a run reports, or its error text."""
    try:
        return report_outcome(run_sim(config, requests, policy))
    except SimulationError as exc:
        return str(exc)


def report_outcome(report):
    """The bytes of everything ``report`` holds."""
    log = report.iterations
    floats = array("d", [report.compute_busy_fraction, report.transfer_busy_fraction, report.mean_ttft,
                         report.simulated_seconds, report.mean_scheduled_tokens])
    return (report.ids, report.ttft.tobytes(), list(report.id_order), floats.tobytes(),
            [(r.id, r.vram_bytes) for r in report.rejected],
            *(column.tobytes() for column in (log.t_start, log.t_end, log.scheduled_tokens, log.vram_used,
                                              log.queue_depth)))


class TestRunSimProperties:
    @given(faulty_sim_case(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_a_one_shot_iterator_runs_as_the_list(self, case, read_ahead):
        # run_sim reads its requests once, READ_AHEAD at a time as the clock reaches them; a
        # generator read a few at a time gives the same bits as the list, and a faulty stream
        # the same error, also when faults are read after requests have finished. compare_policies
        # reads a one-shot stream once: each policy's report is run_sim's over the list, a faulty
        # stream raises the first error those runs give, and the later reports hold the first's ids
        config, stream, policy = case
        outcomes = [run_outcome(config, stream, p) for p in simulator.POLICIES]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "READ_AHEAD", read_ahead)
            lazy = run_outcome(config, (r for r in stream), policy)
            try:
                reports = compare_policies(config, (r for r in stream)).reports
            except SimulationError as exc:
                reports = str(exc)
        assert lazy == run_outcome(config, stream, policy)
        if isinstance(reports, str):
            assert reports == next(o for o in outcomes if isinstance(o, str))
        else:
            assert [report_outcome(rep) for _, rep in reports] == outcomes
            (_, first), *rest = reports
            assert all(sid is kept for _, rep in rest for sid, kept in zip(rep.ids, first.ids, strict=True))

    @given(sim_case(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_ids_never_change_the_schedule(self, case, rng):
        # the same records under other distinct ids, in another order: every bit of the run is
        # the same, and each id is reported under its new name
        config, stream, policy = case
        names = [f"q{i}" for i in range(len(stream))]
        rng.shuffle(names)
        renamed = [dataclasses.replace(r, source_id=n) for r, n in zip(stream, names)]
        rename = {r.source_id: n for r, n in zip(stream, names)}
        ids, ttft, _, floats, rejected, *log = run_outcome(config, stream, policy)
        new_ids, new_ttft, _, new_floats, new_rejected, *new_log = run_outcome(config, renamed, policy)
        assert (new_ttft, new_floats, new_log) == (ttft, floats, log)
        assert new_ids == [rename[sid] for sid in ids]
        assert new_rejected == [(rename[sid], vram) for sid, vram in rejected]
        report, new_report = run_sim(config, stream, policy), run_sim(config, renamed, policy)
        assert new_report.request_ttft == {rename[sid]: done for sid, done in report.request_ttft.items()}

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
            for s in log
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


class TestClosedFormConcurrency:
    """Where the simulator and the closed form model the same case, they agree: identical requests at
    t = 0, on a link and token budget that never bind, peak at ``max_concurrent``'s floor resident."""

    @given(
        model=st.sampled_from(MODELS),
        hw=st.sampled_from(HARDWARE),
        cached=st.integers(0, 10**6),
        prefill=st.integers(1, 10**5),
        # the pool in units of one request's footprint; whole units put the pool on the boundary
        pool=st.one_of(st.integers(1, 40).map(float), st.floats(0.0, 40.0, exclude_min=True)),
        alpha=st.sampled_from([0.0, 1.0]),
        policy=st.sampled_from(sorted(simulator.POLICIES)),
    )
    @settings(max_examples=200, deadline=None)
    def test_peak_residents_are_the_floor(self, model, hw, cached, prefill, pool, alpha, policy):
        tokens, b_kv = cached + prefill, kv_bytes_per_token(model)
        # Both link figures, since setting only the peak leaves a catalog's sustained figure in use; and
        # infinite, since at alpha 0 even 1e30 B/s binds: 27 GB take 2.7e-20 s, not below half the spacing
        # of floats at t = 2.4e-4 s, so each boundary of a short iteration released one more request.
        hw = dataclasses.replace(hw, link_bandwidth_peak=math.inf, link_bandwidth_sustained=math.inf,
                                 vram_effective=pool * tokens * b_kv)
        config = SimConfig(model, hw, token_budget=10**9, overlap_alpha=alpha)
        record = RequestRecord("r", cached, prefill)
        limit = max_concurrent(record, model, hw.vram_effective)
        # one more than fits, so that the pool, not the stream, bounds the peak
        stream = [RequestRecord(f"r{i}", cached, prefill, 0.0) for i in range(limit.floor + 1)]
        report = run_sim(config, stream, policy)
        assert max(report.iterations.vram_used, default=0.0) == limit.floor * tokens * b_kv
        assert report.completed == (len(stream) if limit.floor else 0)


class TestIterationLog:
    def test_iterates_as_rows_of_its_columns(self):
        log = run_sim(unit_config(), FOUR_REQUESTS, "fifo").iterations
        rows = list(log)
        assert len(log) == 3 and [s.index for s in rows] == [0, 1, 2]
        assert rows[2] == IterationStats(2, log.t_start[2], log.t_end[2], 2, log.vram_used[2], 0)

    def test_budget_up_to_64_bits(self):
        hw = dataclasses.replace(UNIT_HW, vram_effective=1e300)
        config = dataclasses.replace(unit_config(), hardware=hw, token_budget=MAX_TOKEN_BUDGET)
        # 1023 requests of MAX_TOKENS (2**53) and one of 2**53 - 1 fill the budget in one iteration
        stream = [RequestRecord(f"r{i}", 0, MAX_TOKENS, arrival_time=0.0) for i in range(1023)]
        stream.append(RequestRecord("last", 0, MAX_TOKENS - 1, arrival_time=0.0))
        report = run_sim(config, stream, "fifo")
        assert [s.scheduled_tokens for s in report.iterations] == [MAX_TOKEN_BUDGET]
        with pytest.raises(SimulationError, match=r"token_budget must be an integer in \[1, 9223372036854775807\]"):
            dataclasses.replace(config, token_budget=MAX_TOKEN_BUDGET + 1)

    def test_report_retains_under_64_bytes_per_iteration(self):
        # A seeded 20k-request stream on the sustained pairing: about one iteration per request.
        stream = list(synthesize_stream(SHAREGPT_LIKE, rps=200, duration_s=100, seed=20))
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

    @pytest.mark.parametrize("ascending", [True, False], ids=["ascending ids", "other ids"])
    def test_run_sim_peaks_under_80_bytes_per_request(self, ascending):
        # The records are the stream's; run_sim adds its accepted list, the
        # iteration log (about one iteration per request here), the TTFT column
        # and, for ids that do not ascend, their order, and keeps nothing per id.
        # Listing the TTFTs by id then allocates nothing per request.
        stream = list(synthesize_stream(SHAREGPT_LIKE, rps=200, duration_s=100, seed=1))
        if not ascending:  # a bijection of the ranks, so the ids stay distinct
            stream = [dataclasses.replace(r, source_id=f"r-{i * 2654435761 % 2**32:010d}") for i, r in enumerate(stream)]
        config = SimConfig(M["Qwen3-30B-A3B"], H["Unified-HBM"])
        tracemalloc.start()
        try:
            report = run_sim(config, stream, "fifo")
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            deque(report.ttft_by_id(), maxlen=0)
            listing = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(stream) > 20_000
        assert peak / len(stream) <= 80
        assert listing / len(stream) < 1


    def test_run_sim_keeps_no_finished_record(self):
        # A lazy stream below capacity: run_sim holds the records in flight and drops each one
        # once it finishes. Beyond the id strings, which the report keeps, it then holds per
        # request its id slot (8 B), its TTFT (8 B) and about one iteration (40 B), plus a few
        # slices of the stream being built and read ahead: at most 100 B. A record kept past
        # its finish would add about 100 B more: its object, its int and its float. So does
        # compare_policies with one policy, which keeps no record for another.
        stream = synthesize_stream(SHAREGPT_LIKE, rps=200, duration_s=250, seed=3)
        config = SimConfig(M["Qwen3-30B-A3B"], H["Unified-HBM"])
        n = len(stream)
        for run in (lambda: run_sim(config, stream, "fifo"),
                    lambda: compare_policies(config, stream, ("fifo",)).reports[0][1]):
            tracemalloc.start()
            try:
                report = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert n > 40_000 and report.completed + len(report.rejected) == n
            assert max(report.iterations.queue_depth) < 20  # below capacity: few requests in flight at once
            id_bytes = sum(map(sys.getsizeof, report.ids))
            assert (peak - id_bytes) / n < 100


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
