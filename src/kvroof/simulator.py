"""Iteration-level prefill scheduler simulation with KV offloading.

The simulated system has three coupled resources:

* one host-to-device transfer channel, serving requests with cached tokens
  FIFO by arrival (transfer seconds = K * kv_bytes / bandwidth);
* a VRAM pool for KV caches: a request pins (K + T) * kv_bytes from the
  moment a scheduler iteration first admits it until its prefill finishes,
  at which point the bytes free immediately;
* the accelerator, which runs batched iterations: compute seconds =
  scheduled_tokens * flops_per_token / compute_throughput.

A request's state is where it is. An accepted request is in exactly one
place: not yet arrived, waiting for the channel, on the channel, ready,
resident (admitted and holding VRAM until its prefill finishes), or
finished. Arrivals with no cached tokens are ready at once. At each
iteration boundary the residents continue first, in arrival order, each
for as much of its remaining prefill as the per-iteration token budget
allows; the policy then admits ready requests into the budget and free
VRAM that are left. Requests that have waited go first: FIFO admits in
arrival order, and the utilization-aware policy admits whole, in arrival
order, every request that arrived before the boundary, then packs the
rest. Boundaries are compute-synchronous, so a transfer that completes
mid-iteration makes its request ready for the next boundary. When nothing
is schedulable, time skips to the next arrival or transfer completion.

``overlap_alpha`` throttles the channel while compute is active: 0 freezes
transfers during compute (fully serialized resources), 1 lets them proceed
at full rate. It overlaps one request's transfer with other requests'
compute only, never with its own: a request is not ready until its whole
cache is on the device, so a lone request's TTFT is the closed form's at
alpha 0 whatever alpha is.

``run_sim`` is one flat event loop, and each trip at clock t does four
things in turn. It retires the picks of an iteration that has ended. It
settles t at the channel rate, alpha while an iteration runs and 1
otherwise: it takes in the arrivals due by t, then starts transfers and
releases those that are instant at that rate. With nothing running, it
continues the residents and asks the policy for admissions; an iteration
that starts runs the channel at rate alpha from there on. Last, it moves t
to the earliest of the running iteration's end, the next arrival and the
transfer's end, or with nothing to run jumps to the next arrival or
transfer end. A selection of 0 tokens, or an idle jump that would not move
the clock, raises ``SimulationError`` instead of spinning.

Requests whose footprint exceeds the whole pool are rejected when they are
read, and reported. With chunked prefill off, an accepted request whose T
exceeds the token budget could never be scheduled, so the run fails when
it is read.

``run_sim`` reads its requests once, at most ``READ_AHEAD`` accepted
records ahead of the clock, and never writes them. A request is known by
its arrival rank, and one list by rank holds each: its record from when it
is read until its prefill finishes, then its id, about 80 bytes with the
string; at the end that list is the report's ids. ``residents`` maps a
rank to the prefill tokens left, and policies pick by position in the
ready list they are given. With the TTFT in a typed column, 8 bytes, NaN
until it finishes, and the iteration log, 40 bytes an iteration, that is
all a long run grows by. The ranks' id order is
decided once, after the loop: ``range`` when the ids ascend, as a
synthesized stream's do, else a sort into an ``array('q')``. The ids are
distinct, found without a set, if they ascend along it and bisecting the
sorted rejected ids into it finds none.

The first fault in stream order is reported, whether the reader (such as
``workload.stream_records``) or the simulator finds it; a record's own
faults in this order: no arrival, an arrival out of order, a repeated id,
a T that cannot run. Repeated ids are named by a scan with a set over the
ids kept, made only after a fault or when the ids are not distinct. A
fault of the policy is raised when the loop meets it, before a repeated
id, found at the end, or a fault more than ``READ_AHEAD`` records ahead.

VRAM is accounted in integer token-equivalents (K + T per request) so that
pool arithmetic is exact; byte figures in reports are scaled back through
kv_bytes_per_token.

The iteration log is kept as five typed columns (``IterationLog``), 40
bytes per iteration, so a run of 10^6 iterations holds no object per
iteration; rows are built only when read.

The loop is single-threaded and deterministic: identical inputs produce
identical reports. Independent simulations may run concurrently.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count, islice, pairwise, starmap
from operator import attrgetter, lt
from typing import Iterable, Iterator, Optional, Sequence

from .catalog import (HardwareSpec, ModelSpec, flops_per_token, is_count, is_number, kv_bytes_per_token, lookup,
                      quote, refuse)
from .errors import SimulationError, WorkloadError
from .workload import RequestRecord, nearest_rank

ITERATION_CSV_COLUMNS = ["iter", "t_start", "t_end", "scheduled_tokens", "vram_used_bytes", "queue_depth"]

REPORT_PERCENTILES = (50, 90, 99)

# The utilization-aware policy packs leftover budget by exhaustive subset
# search when at most this many candidates remain, greedily otherwise.
EXACT_SEARCH_LIMIT = 12

# Accepted records run_sim reads at a time, ahead of the clock: read one per
# arrival, between events, they made ``kvroof simulate`` about 6% slower.
READ_AHEAD = 1024
# Ids that do not ascend are put in order as this many sorted runs of ranks, merged.
ID_SORT_RUNS = 16

# An iteration schedules at most token_budget tokens, and the log keeps them
# as 64-bit signed integers.
MAX_TOKEN_BUDGET = 2**63 - 1


@dataclass(frozen=True)
class SimConfig:
    model: ModelSpec
    hardware: HardwareSpec
    bandwidth_mode: str = "sustained"  # "peak" | "sustained"
    token_budget: int = 4000
    overlap_alpha: float = 0.0
    allow_chunked_prefill: bool = True

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("bandwidth_mode", self.bandwidth_mode in ("peak", "sustained"), "'peak' or 'sustained'"),
            ("token_budget", is_count(self.token_budget) and self.token_budget <= MAX_TOKEN_BUDGET,
             f"an integer in [1, {MAX_TOKEN_BUDGET}]"),
            ("overlap_alpha", is_number(self.overlap_alpha) and 0.0 <= self.overlap_alpha <= 1.0, "a number in [0, 1]"),
            ("allow_chunked_prefill", isinstance(self.allow_chunked_prefill, bool), "true or false"),
        ):
            if not ok:
                refuse("", name, getattr(self, name), rule, SimulationError)


@dataclass(slots=True)
class IterationStats:
    index: int
    t_start: float
    t_end: float
    scheduled_tokens: int
    vram_used: float  # bytes held during the iteration
    queue_depth: int  # requests known but not yet running at the boundary


class IterationLog:
    """A run's iterations as five typed columns; iteration i is position i of each.

    Iteration builds ``IterationStats`` rows on demand; ``rows`` gives the
    ``ITERATION_CSV_COLUMNS`` of each as raw ints and floats.
    """

    __slots__ = ("t_start", "t_end", "scheduled_tokens", "vram_used", "queue_depth")

    def __init__(self) -> None:
        self.t_start = array("d")
        self.t_end = array("d")
        self.scheduled_tokens = array("q")
        self.vram_used = array("d")
        self.queue_depth = array("q")

    def append(self, t_start: float, t_end: float, scheduled_tokens: int, vram_used: float, queue_depth: int) -> None:
        self.t_start.append(t_start)
        self.t_end.append(t_end)
        self.scheduled_tokens.append(scheduled_tokens)
        self.vram_used.append(vram_used)
        self.queue_depth.append(queue_depth)

    def __len__(self) -> int:
        return len(self.t_start)

    def __iter__(self) -> Iterator[IterationStats]:
        return starmap(IterationStats, self.rows())

    def rows(self) -> Iterator[tuple]:
        return zip(count(), self.t_start, self.t_end, self.scheduled_tokens, self.vram_used, self.queue_depth)


@dataclass(frozen=True)
class RejectedRequest:
    id: str
    vram_bytes: float


@dataclass
class SimReport:
    """One run's results, kept as columns rather than one object per request or iteration.

    ``iterations`` is an ``IterationLog``. ``ids`` is the accepted
    requests' ids in arrival order, so a request's index there is its
    arrival rank. ``ttft`` (``array('d')``) holds each request's TTFT at its rank,
    and ``id_order`` the ranks in id order: a ``range`` when the ids
    ascend, an ``array('q')`` otherwise. ``mean_ttft`` is the TTFTs summed
    in finishing order, over their count. ``request_ttft`` builds the
    id -> TTFT dict on demand; ``ttft_by_id`` gives its items without
    building it.
    """

    iterations: IterationLog
    ids: list[str]
    ttft: array
    id_order: Sequence[int]
    rejected: list[RejectedRequest]
    mean_scheduled_tokens: float
    scheduled_token_percentiles: dict[int, float]
    compute_busy_fraction: float
    transfer_busy_fraction: float
    simulated_seconds: float
    mean_ttft: float
    mean_power_watts: Optional[float] = None

    @property
    def completed(self) -> int:
        """Every accepted request has finished in a report ``run_sim`` returns."""
        return len(self.ids)

    @property
    def request_ttft(self) -> dict[str, float]:
        """Each finished request's TTFT by id, in id order."""
        return dict(self.ttft_by_id())

    def ttft_by_id(self) -> Iterator[tuple[str, float]]:
        """``request_ttft``'s items in id order, as ``json.dumps(..., sort_keys=True)`` orders them."""
        ids, ttft = self.ids, self.ttft
        return ((ids[k], ttft[k]) for k in self.id_order)

    def summary(self) -> dict:
        """Every key of ``to_dict`` but ``request_ttft``."""
        return {
            "completed": self.completed,
            "rejected": [{"id": r.id, "vram_bytes": r.vram_bytes} for r in self.rejected],
            "iterations": len(self.iterations),
            "mean_scheduled_tokens": self.mean_scheduled_tokens,
            "scheduled_token_percentiles": {str(k): v for k, v in self.scheduled_token_percentiles.items()},
            "compute_busy_fraction": self.compute_busy_fraction,
            "transfer_busy_fraction": self.transfer_busy_fraction,
            "simulated_seconds": self.simulated_seconds,
            "mean_power_watts": self.mean_power_watts,
        }

    def to_dict(self) -> dict:
        return {**self.summary(), "request_ttft": self.request_ttft}

    def iteration_rows(self) -> Iterator[tuple]:
        """The ``ITERATION_CSV_COLUMNS`` of each iteration, as raw ints and floats.

        ``csv.writer`` writes a float as its ``repr``.
        """
        return self.iterations.rows()


def _ascend(ids: Iterable[str]) -> bool:
    """Whether ``ids`` strictly ascend: then they are distinct, and in id order."""
    return all(starmap(lt, pairwise(ids)))


def _id_order(ids: Sequence[str], rejected: Sequence[RejectedRequest]) -> Optional[Sequence[int]]:
    """The ranks of the accepted ``ids`` in id order, or None if an id repeats among all the requests.

    Accepted ids that strictly ascend, as a synthesized stream's do, are in
    id order already; the ranks of others are sorted in ``ID_SORT_RUNS``
    runs, which are merged. Sorting makes an int object per rank, about 48
    bytes with its list slots, and this runs beside the whole iteration
    log, so only one run's ranks are objects at a time. No id repeats if
    they strictly ascend along the order, the sorted rejected ids do too,
    and ``bisect`` finds none of those among them.
    """
    n, key = len(ids), ids.__getitem__
    order: Sequence[int] = range(n)
    if not _ascend(ids):
        from heapq import merge  # here, not at module level: every cold start would pay for it
        step = max(1024, -(-n // ID_SORT_RUNS))
        runs = [array("q", sorted(range(i, min(i + step, n)), key=key)) for i in range(0, n, step)]
        order = array("q", merge(*runs, key=key))
        del runs
        if not _ascend(map(key, order)):
            return None
    rejected_ids = sorted(map(attrgetter("id"), rejected))
    i = 0
    for rid in rejected_ids:
        i = bisect_left(order, rid, i, key=key)
        if i < n and ids[order[i]] == rid:
            return None
    return order if _ascend(rejected_ids) else None


# (position in the ready list the policy was given, tokens to run)
Selection = list[tuple[int, int]]


def schedule_fifo(
    ready: Sequence[RequestRecord],
    token_budget: int,
    vram_free_tokens: float,
    now: float,
    allow_chunking: bool = True,
) -> Selection:
    """Arrival-order admission with head-of-line blocking.

    ``ready`` is in arrival order, as ``run_sim`` passes it. Requests are
    admitted in that order until the budget or the pool blocks. Only the
    last admitted request may be chunked, and a request that does not fit
    VRAM stops the scan rather than being skipped. ``now`` is unused; it
    gives both policies one call shape.
    """
    picks: Selection = []
    budget = token_budget
    free = vram_free_tokens
    for i, r in enumerate(ready):
        if budget <= 0:
            break
        if r.vram_tokens > free:
            break
        if r.prefill_tokens <= budget:
            n = r.prefill_tokens
        elif allow_chunking:
            n = budget
        else:
            break
        picks.append((i, n))
        free -= r.vram_tokens
        budget -= n
        if n < r.prefill_tokens:
            break
    return picks


def _best_subset_fill(
    cands: list[RequestRecord],
    budget: int,
    vram_free: float,
    allow_chunking: bool,
) -> Selection:
    """Exhaustive token-maximizing selection over a small candidate list.

    ``cands`` is in arrival order. Enumerates whole-request subsets within
    budget and VRAM, optionally topping up the leftover budget by chunking
    one more request. Ties are broken toward the earliest-arriving
    selection, and then toward running its earliest requests whole.
    Picks are positions in ``cands``.
    """
    n = len(cands)
    tokens = [r.prefill_tokens for r in cands]
    vram = [r.vram_tokens for r in cands]
    best_key = None
    best_pick: Selection = []
    for mask in range(1 << n):
        tok = 0
        vr = 0
        members = []
        ok = True
        for i in range(n):
            if mask >> i & 1:
                tok += tokens[i]
                vr += vram[i]
                if tok > budget or vr > vram_free:
                    ok = False
                    break
                members.append(i)
        if not ok:
            continue
        chunk: Optional[tuple[int, int]] = None
        if allow_chunking and tok < budget:
            leftover = budget - tok
            best_gain = 0
            for i in range(n):
                if mask >> i & 1 or vr + vram[i] > vram_free:
                    continue
                gain = min(leftover, tokens[i])
                if gain > best_gain:
                    best_gain = gain
                    chunk = (i, gain)
        total = tok + (chunk[1] if chunk else 0)
        ranks = tuple(sorted(members + [chunk[0]] if chunk else members))
        key = (-total, ranks)
        if best_key is None or key < best_key:
            best_key = key
            best_pick = [(i, tokens[i]) for i in members]
            if chunk:
                best_pick.append(chunk)
    return best_pick


def schedule_utilization_aware(
    ready: Sequence[RequestRecord],
    token_budget: int,
    vram_free_tokens: float,
    now: float,
    allow_chunking: bool = True,
) -> Selection:
    """Token-budget-maximizing admission; requests that have waited go first.

    ``ready`` is in arrival order, as ``run_sim`` passes it. Requests that
    arrived before ``now`` are admitted whole in that order while they fit.
    Whatever budget remains is packed with the rest: an exhaustive search
    when few are left, otherwise greedy largest-first, finally chunking one
    more request into any leftover budget.
    """
    picks: Selection = []
    budget = token_budget
    free = vram_free_tokens
    rest = []  # positions in ready
    for i, r in enumerate(ready):
        if r.arrival_time < now and r.prefill_tokens <= budget and r.vram_tokens <= free:
            picks.append((i, r.prefill_tokens))
            budget -= r.prefill_tokens
            free -= r.vram_tokens
        else:
            rest.append(i)
    if budget > 0 and rest:
        if len(rest) <= EXACT_SEARCH_LIMIT:
            fill = _best_subset_fill([ready[i] for i in rest], budget, free, allow_chunking)
            picks.extend((rest[j], n) for j, n in fill)
        else:
            taken: set[int] = set()
            for i in sorted(rest, key=lambda i: -ready[i].prefill_tokens):
                r = ready[i]
                if r.prefill_tokens <= budget and r.vram_tokens <= free:
                    picks.append((i, r.prefill_tokens))
                    budget -= r.prefill_tokens
                    free -= r.vram_tokens
                    taken.add(i)
            if allow_chunking and budget > 0:
                for i in rest:
                    if i not in taken and ready[i].vram_tokens <= free:
                        picks.append((i, min(budget, ready[i].prefill_tokens)))
                        break
    return picks


# Every scheduling policy, by the name that run_sim, compare_policies and the CLI use.
POLICIES = {"fifo": schedule_fifo, "utilization": schedule_utilization_aware}


def run_sim(
    config: SimConfig,
    requests: Iterable[RequestRecord],
    policy: str = "fifo",
) -> SimReport:
    """Replay a timed request stream through the scheduler.

    ``requests`` must be sorted by arrival time and carry arrival times. It is
    iterated once, ``READ_AHEAD`` accepted records at a time as the clock
    reaches them, so a lazy reader such as ``workload.stream_records`` works
    as a list does. ``by_rank`` holds a request's record from when it is
    read, at most ``READ_AHEAD`` ahead of the clock, until its prefill
    finishes, and then its id; at the end it is the report's ``ids``.
    """
    select = partial(lookup(POLICIES, policy, "policy", SimulationError), allow_chunking=config.allow_chunked_prefill)
    hw = config.hardware
    b_kv = kv_bytes_per_token(config.model)
    f_pf = flops_per_token(config.model)
    bw = hw.bandwidth(config.bandwidth_mode == "sustained")
    c_eff = hw.compute_throughput
    capacity_tokens = hw.vram_effective / b_kv
    budget = config.token_budget
    inf = math.inf

    by_rank: list[RequestRecord | str] = []  # a request's record until it finishes, then its id
    ttft = array("d")  # by arrival rank; NaN until the request finishes
    rejected: list[RejectedRequest] = []
    rejected_after: list[int] = []  # the accepted requests before each rejected one

    # Where each request is (see the module docstring): not yet read or pending,
    # waiting, chan_req, ready, residents, finished. All hold arrival ranks, so
    # sorting them gives arrival order.
    reader = _read_accepted(requests, capacity_tokens, b_kv, inf if config.allow_chunked_prefill else budget,
                            budget, by_rank, ttft, rejected, rejected_after)
    next(reader, None)
    head = 0  # the rank arriving next, at t_arr; by_rank[head:] is read ahead
    t_arr = by_rank[0].arrival_time if by_rank else inf
    t = t_begin = t_arr if by_rank else 0.0
    iterations = IterationLog()
    ttft_sum = 0.0  # in finishing order, one addition at a time
    waiting: deque[int] = deque()
    chan_req: Optional[int] = None
    chan_left = 0.0  # bytes still to move for chan_req
    ready: set[int] = set()
    residents: dict[int, int] = {}  # rank -> prefill tokens left to run
    used_tokens = 0  # VRAM held by residents, in token-equivalents
    chan_active = 0.0
    compute_active = 0.0
    alpha = config.overlap_alpha
    running: list[tuple[int, int]] = []  # (rank, tokens) of the iteration in progress; it ends at until

    while True:
        # Retire the picks of an iteration that has ended.
        if running and until <= t:
            for k, n in running:
                # get: a request a policy picked twice may have finished earlier in this loop
                remaining = residents.get(k, 0) - n
                if remaining < 0:
                    raise SimulationError(f"policy over-scheduled request {quote(_source_id(by_rank[k]))}")
                if remaining:
                    residents[k] = remaining
                else:
                    r = by_rank[k]
                    by_rank[k] = r.source_id
                    del residents[k]
                    used_tokens -= r.vram_tokens
                    ttft[k] = done = t - r.arrival_time
                    ttft_sum += done
            running = []
        rate = alpha if running else 1.0
        # Settle t: take in due arrivals, then release the transfers that are instant at rate.
        while t_arr <= t:
            if by_rank[head].cached_tokens == 0:
                ready.add(head)
            else:
                waiting.append(head)
            head += 1
            if head == len(by_rank):
                next(reader, None)
            t_arr = by_rank[head].arrival_time if head < len(by_rank) else inf
        while rate:
            if chan_req is None:
                if not waiting:
                    break
                chan_req = waiting.popleft()
                chan_left = by_rank[chan_req].cached_tokens * b_kv
            if t + chan_left / (bw * rate) > t:
                break
            # instant on an infinite link, or too little left to move the clock
            ready.add(chan_req)
            chan_req = None
        if not running:
            # Residents continue first, in arrival order; the policy admits into what is left.
            left = budget
            for k in sorted(residents):
                if not left:
                    break
                n = min(residents[k], left)
                running.append((k, n))
                left -= n
            if left and ready:
                keys = sorted(ready)
                picks = select([by_rank[k] for k in keys], left, capacity_tokens - used_tokens, t)
                running += [(keys[i], n) for i, n in picks]
            if running:
                depth = len(ready) + len(waiting) + (chan_req is not None)
                sched = 0
                for k, n in running:
                    sched += n
                    if k in ready:
                        ready.remove(k)
                        rec = by_rank[k]
                        residents[k] = rec.prefill_tokens
                        used_tokens += rec.vram_tokens
                if sched < 1:
                    raise SimulationError(f"policy scheduled {sched} tokens at t={t!r}; the clock would stop")
                duration = sched * f_pf / c_eff
                until = t + duration
                iterations.append(t, until, sched, used_tokens * b_kv, depth)
                compute_active += duration
                # The channel runs at alpha from here. Settling again at alpha would
                # release nothing: a transfer not instant at rate 1 is not instant at
                # alpha <= 1. An iteration that ends at t retires next trip.
                rate = alpha

        t_done = t + chan_left / (bw * rate) if chan_req is not None and rate else inf
        nxt = t_done if t_done < t_arr else t_arr
        if running:
            if until < nxt:
                nxt = until
        elif nxt == inf:
            break
        elif not nxt > t:
            # Nothing schedulable, and the next event does not move the clock.
            raise SimulationError(f"idle jump from t={t!r} to {nxt!r} does not move the clock")

        # Move to nxt, running the channel at rate.
        if nxt > t:
            if chan_req is not None and rate > 0:
                if nxt == t_done:
                    chan_left = 0.0
                else:
                    chan_left -= (nxt - t) * bw * rate
                chan_active += nxt - t
            t = nxt

    unfinished = sum(map(math.isnan, ttft))  # only a broken policy leaves any, each entry still a record
    id_order = None if unfinished else _id_order(by_rank, rejected)
    if id_order is None:  # an id may repeat: name the first
        _refuse_repeated_id(by_rank, rejected, rejected_after)
    if unfinished:
        first = next(r.source_id for r, done in zip(by_rank, ttft) if math.isnan(done))
        raise SimulationError(f"simulation ended with {unfinished} unfinished request(s); first: {quote(first)}")

    n_accepted = len(by_rank)
    span = t - t_begin
    mean_sched, percentiles = _scheduled_token_stats(iterations.scheduled_tokens)
    # min: the sum of iteration durations can round above the clock span
    compute_busy = min(1.0, compute_active / span) if span > 0 else (1.0 if compute_active > 0 else 0.0)
    transfer_busy = chan_active / span if span > 0 else 0.0
    return SimReport(
        iterations=iterations,
        ids=by_rank,
        ttft=ttft,
        id_order=id_order,
        rejected=rejected,
        mean_scheduled_tokens=mean_sched,
        scheduled_token_percentiles=percentiles,
        compute_busy_fraction=compute_busy,
        transfer_busy_fraction=transfer_busy,
        simulated_seconds=span,
        mean_ttft=ttft_sum / n_accepted if n_accepted else 0.0,
        mean_power_watts=_maybe_power(config, compute_busy),
    )


def _read_accepted(requests: Iterable[RequestRecord], capacity_tokens: float, b_kv: float, max_prefill: float,
                   budget: int, by_rank: list[RequestRecord | str], ttft: array, rejected: list[RejectedRequest],
                   rejected_after: list[int]) -> Iterator[None]:
    """Read ``run_sim``'s stream, each record checked as it is read; each step reads ``READ_AHEAD`` accepted ones.

    Each accepted record and a NaN TTFT go to ``by_rank`` and ``ttft``; a
    record larger than the pool goes to ``rejected``, and the number of
    accepted records before it to ``rejected_after``. ``max_prefill`` is the
    budget with chunked prefill off. A fault, the reader's too, is raised
    after any repeated id among the records taken in before it, and a T
    fault after taking its record in (see the module docstring).
    """
    prev = 0.0
    try:
        for rec in requests:
            if rec.arrival_time is None:
                raise SimulationError(f"request {quote(rec.source_id)} has no arrival_time")
            if not prev <= rec.arrival_time:
                raise SimulationError(f"request {quote(rec.source_id)}: arrival_time {rec.arrival_time!r} "
                                      f"must be >= 0 and sorted (not before {prev!r})")
            prev = rec.arrival_time
            if rec.vram_tokens > capacity_tokens:
                rejected.append(RejectedRequest(id=rec.source_id, vram_bytes=rec.vram_tokens * b_kv))
                rejected_after.append(len(by_rank))
                continue
            by_rank.append(rec)
            ttft.append(math.nan)
            if rec.prefill_tokens > max_prefill:
                raise SimulationError(f"request {quote(rec.source_id)}: prefill_tokens {rec.prefill_tokens} "
                                      f"exceed token_budget {budget}, and chunked prefill is off")
            if len(by_rank) % READ_AHEAD == 0:
                yield
    except (SimulationError, WorkloadError):  # name an earlier repeated id instead
        _refuse_repeated_id(by_rank, rejected, rejected_after)
        raise


def _source_id(entry: RequestRecord | str) -> str:
    """The id of a ``run_sim`` rank entry: a record, or the id it leaves once it finishes."""
    return entry if type(entry) is str else entry.source_id


def _refuse_repeated_id(by_rank: Sequence[RequestRecord | str], rejected: Sequence[RejectedRequest],
                        after: Sequence[int]) -> None:
    """Refuse the first id, in stream order, that repeats an earlier one.

    The stream order is the accepted ``by_rank`` entries' ids with each
    rejected id put back after ``after`` of them. A scan with a set, which
    ``run_sim`` makes only on its way to an error.
    """
    accepted = map(_source_id, by_rank)  # each run: the accepted ids up to a rejected one, then its id
    runs = [chain(islice(accepted, n - m), (r.id,)) for r, n, m in zip(rejected, after, (0, *after))]
    seen: set[str] = set()
    for sid in chain(*runs, accepted):
        if sid in seen:
            raise SimulationError(f"duplicate source_id {quote(sid)}")
        seen.add(sid)


def _scheduled_token_stats(scheduled: array) -> tuple[float, dict[int, float]]:
    """The mean and ``REPORT_PERCENTILES`` of the scheduled tokens, from a count per value.

    These are the mean and ``nearest_rank_percentile`` of the sorted tokens
    as floats, bit for bit: the integer sum divided by n is, because every
    partial sum of integer-valued floats below 2**53 is exact (above, this
    is the correctly rounded mean), and the nearest rank is found by walking
    the counts. Zero iterations give 0.0 throughout.
    """
    n = len(scheduled)
    if not n:
        return 0.0, dict.fromkeys(REPORT_PERCENTILES, 0.0)
    counts = sorted(Counter(scheduled).items())
    reached = list(accumulate(k for _, k in counts))  # iterations at or below each value
    return sum(scheduled) / n, {
        p: float(counts[bisect_left(reached, nearest_rank(n, p))][0]) for p in REPORT_PERCENTILES
    }


def _maybe_power(config: SimConfig, busy_fraction: float) -> Optional[float]:
    """Linear busy-fraction power: idle + (tdp - idle) * busy, if the platform rates both."""
    hw = config.hardware
    if hw.idle_watts is None or hw.tdp_watts is None:
        return None
    return hw.idle_watts + (hw.tdp_watts - hw.idle_watts) * busy_fraction


@dataclass
class PolicyComparison:
    """One stream replayed under several policies; every report read the same records, so ranks pair up."""

    reports: list[tuple[str, SimReport]]

    def to_dict(self) -> dict:
        base = self.reports[0][1]
        return {
            "policies": [
                {
                    "policy": name,
                    "iterations": len(rep.iterations),
                    "mean_scheduled_tokens": rep.mean_scheduled_tokens,
                    "compute_busy_fraction": rep.compute_busy_fraction,
                    "mean_ttft": rep.mean_ttft,
                }
                for name, rep in self.reports
            ],
            "ttft_deltas_vs_first": [
                {"policy": name, "deltas": {sid: v - b for sid, v, b in zip(rep.ids, rep.ttft, base.ttft)}}
                for name, rep in self.reports[1:]
            ],
        }


def compare_policies(
    config: SimConfig,
    requests: Iterable[RequestRecord],
    policies: Sequence[str] = tuple(POLICIES),
) -> PolicyComparison:
    """Replay one stream under each policy, reading ``requests`` once, lazily, in the first policy's run.

    With more than one policy, that run keeps each record it reads and the
    others replay them, so every report shares the first's id strings.
    """
    if not policies:
        raise SimulationError("need at least one policy")
    first, *rest = policies
    kept: list[RequestRecord] = []
    if rest:
        requests = (kept.append(r) or r for r in requests)
    reports = [(first, run_sim(config, requests, first))]
    reports += [(p, run_sim(config, kept, p)) for p in rest]
    return PolicyComparison(reports)
