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
that starts moves the clock from the next trip on, at rate alpha. Last, it
moves t to the earliest of the running iteration's end, the next arrival
and the transfer's end, or with nothing to run jumps to the next arrival or
transfer end. A selection of 0 tokens, or an idle jump that would not move
the clock, raises ``SimulationError`` instead of spinning.

Requests whose footprint exceeds the whole pool are rejected at admission
and reported. With chunked prefill off, an accepted request whose T exceeds
the token budget could never be scheduled, so the run fails at once.

``run_sim`` reads the request records and never writes them. A request is
known by its index in the accepted list, its arrival rank; ``residents``
maps that index to the prefill tokens the request has left, and policies
pick by position in the ready list they are given.

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
from itertools import accumulate, count, starmap
from typing import Iterator, Optional, Sequence

from .catalog import (HardwareSpec, ModelSpec, flops_per_token, is_count, is_number, kv_bytes_per_token, lookup,
                      refuse)
from .errors import SimulationError
from .workload import RequestRecord, nearest_rank

ITERATION_CSV_COLUMNS = ["iter", "t_start", "t_end", "scheduled_tokens", "vram_used_bytes", "queue_depth"]

REPORT_PERCENTILES = (50, 90, 99)

# The utilization-aware policy packs leftover budget by exhaustive subset
# search when at most this many candidates remain, greedily otherwise.
EXACT_SEARCH_LIMIT = 12

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


class IterationLog(Sequence):
    """A run's iterations as five typed columns; iteration i is position i of each.

    Indexing and iteration build ``IterationStats`` rows on demand; ``rows``
    gives the ``ITERATION_CSV_COLUMNS`` of each as raw ints and floats.
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

    def __getitem__(self, i: int) -> IterationStats:
        i = range(len(self))[i]  # a negative index counts from the end; out of range raises IndexError
        return IterationStats(
            i, self.t_start[i], self.t_end[i], self.scheduled_tokens[i], self.vram_used[i], self.queue_depth[i]
        )

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
    """One run's results; its iterations are kept as columns (``IterationLog``)."""

    iterations: IterationLog
    request_ttft: dict[str, float]
    rejected: list[RejectedRequest]
    mean_scheduled_tokens: float
    scheduled_token_percentiles: dict[int, float]
    compute_busy_fraction: float
    transfer_busy_fraction: float
    simulated_seconds: float
    completed: int
    mean_power_watts: Optional[float] = None

    def to_dict(self) -> dict:
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
            "request_ttft": self.request_ttft,
        }

    def iteration_rows(self) -> Iterator[tuple]:
        """The ``ITERATION_CSV_COLUMNS`` of each iteration, as raw ints and floats.

        ``csv.writer`` writes a float as its ``repr``.
        """
        return self.iterations.rows()


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
    requests: Sequence[RequestRecord],
    policy: str = "fifo",
) -> SimReport:
    """Replay a timed request stream through the scheduler.

    ``requests`` must be sorted by arrival time and carry arrival times.
    """
    select = partial(lookup(POLICIES, policy, "policy", SimulationError), allow_chunking=config.allow_chunked_prefill)
    hw = config.hardware
    b_kv = kv_bytes_per_token(config.model)
    f_pf = flops_per_token(config.model)
    bw = hw.bandwidth(config.bandwidth_mode == "sustained")
    c_eff = hw.compute_throughput
    capacity_tokens = hw.vram_effective / b_kv
    budget = config.token_budget

    rejected: list[RejectedRequest] = []
    accepted: list[RequestRecord] = []
    seen: set[str] = set()
    prev = 0.0
    for rec in requests:
        if rec.arrival_time is None:
            raise SimulationError(f"request '{rec.source_id}' has no arrival_time")
        if not (prev <= rec.arrival_time < math.inf):
            raise SimulationError(
                f"request '{rec.source_id}': arrival_time {rec.arrival_time!r} must be finite, "
                f">= 0 and sorted (not before {prev!r})"
            )
        if rec.source_id in seen:
            raise SimulationError(f"duplicate source_id '{rec.source_id}'")
        seen.add(rec.source_id)
        prev = rec.arrival_time
        if rec.vram_tokens > capacity_tokens:
            rejected.append(RejectedRequest(id=rec.source_id, vram_bytes=rec.vram_tokens * b_kv))
        elif rec.prefill_tokens > budget and not config.allow_chunked_prefill:
            raise SimulationError(
                f"request '{rec.source_id}': prefill_tokens {rec.prefill_tokens} exceed token_budget {budget}, "
                f"and chunked prefill is off"
            )
        else:
            accepted.append(rec)

    # Where each request is (see the module docstring): accepted[head:],
    # waiting, chan_req, ready, residents, ttfts. All but ttfts hold indices
    # into accepted, the arrival rank, so sorting them gives arrival order.
    iterations = IterationLog()
    ttfts: dict[str, float] = {}
    n_accepted = len(accepted)
    head = 0
    waiting: deque[int] = deque()
    chan_req: Optional[int] = None
    chan_left = 0.0  # bytes still to move for chan_req
    ready: set[int] = set()
    residents: dict[int, int] = {}  # index -> prefill tokens left to run
    used_tokens = 0  # VRAM held by residents, in token-equivalents
    t = float(accepted[0].arrival_time) if accepted else 0.0
    t_begin = t
    chan_active = 0.0
    compute_active = 0.0
    alpha = config.overlap_alpha
    inf = math.inf
    t_arr = t if accepted else inf  # of accepted[head]
    running: list[tuple[int, int]] = []  # (index, tokens) of the iteration in progress; it ends at until

    while True:
        # Retire the picks of an iteration that has ended.
        if running and until <= t:
            for k, n in running:
                # get: a request a policy picked twice may have finished earlier in this loop
                remaining = residents.get(k, 0) - n
                if remaining < 0:
                    raise SimulationError(f"policy over-scheduled request '{accepted[k].source_id}'")
                if remaining:
                    residents[k] = remaining
                else:
                    r = accepted[k]
                    del residents[k]
                    used_tokens -= r.vram_tokens
                    ttfts[r.source_id] = t - r.arrival_time
            running = []
        rate = alpha if running else 1.0
        # Settle t: take in due arrivals, then release the transfers that are instant at rate.
        while t_arr <= t:
            if accepted[head].cached_tokens == 0:
                ready.add(head)
            else:
                waiting.append(head)
            head += 1
            t_arr = float(accepted[head].arrival_time) if head < n_accepted else inf
        while rate:
            if chan_req is None:
                if not waiting:
                    break
                chan_req = waiting.popleft()
                chan_left = accepted[chan_req].cached_tokens * b_kv
            if t + chan_left / (bw * rate) > t:
                break
            # instant on an infinite link, or too little left to move the clock
            ready.add(chan_req)
            chan_req = None
        t_done = t + chan_left / (bw * rate) if chan_req is not None and rate else inf
        nxt = t_done if t_done < t_arr else t_arr

        if running:
            if until < nxt:
                nxt = until
        else:
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
                picks = select([accepted[k] for k in keys], left, capacity_tokens - used_tokens, t)
                running += [(keys[i], n) for i, n in picks]
            if running:
                depth = len(ready) + len(waiting) + (chan_req is not None)
                sched = 0
                for k, n in running:
                    sched += n
                    if k in ready:
                        ready.remove(k)
                        residents[k] = accepted[k].prefill_tokens
                        used_tokens += accepted[k].vram_tokens
                if sched < 1:
                    raise SimulationError(f"policy scheduled {sched} tokens at t={t!r}; the clock would stop")
                duration = sched * f_pf / c_eff
                until = t + duration
                iterations.append(t, until, sched, used_tokens * b_kv, depth)
                compute_active += duration
                nxt = t  # the iteration moves the clock from the next trip on, with the channel at alpha
            else:
                # Nothing schedulable: jump to the next event, at full channel rate.
                if nxt == inf:
                    break
                if not nxt > t:
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

    if len(ttfts) < len(accepted):
        first = next(r.source_id for r in accepted if r.source_id not in ttfts)
        raise SimulationError(
            f"simulation ended with {len(accepted) - len(ttfts)} unfinished request(s); first: '{first}'"
        )

    span = t - t_begin
    mean_sched, percentiles = _scheduled_token_stats(iterations.scheduled_tokens)
    # min: the sum of iteration durations can round above the clock span
    compute_busy = min(1.0, compute_active / span) if span > 0 else (1.0 if compute_active > 0 else 0.0)
    transfer_busy = chan_active / span if span > 0 else 0.0
    return SimReport(
        iterations=iterations,
        request_ttft=ttfts,
        rejected=rejected,
        mean_scheduled_tokens=mean_sched,
        scheduled_token_percentiles=percentiles,
        compute_busy_fraction=compute_busy,
        transfer_busy_fraction=transfer_busy,
        simulated_seconds=span,
        completed=len(ttfts),
        mean_power_watts=_maybe_power(config, compute_busy),
    )


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
    """The same stream replayed under several policies."""

    reports: list[tuple[str, SimReport]]

    def to_dict(self) -> dict:
        base = self.reports[0][1].request_ttft
        return {
            "policies": [
                {
                    "policy": name,
                    "iterations": len(rep.iterations),
                    "mean_scheduled_tokens": rep.mean_scheduled_tokens,
                    "compute_busy_fraction": rep.compute_busy_fraction,
                    "mean_ttft": (
                        sum(rep.request_ttft.values()) / len(rep.request_ttft)
                        if rep.request_ttft
                        else 0.0
                    ),
                }
                for name, rep in self.reports
            ],
            "ttft_deltas_vs_first": [
                {"policy": name, "deltas": {k: v - base[k] for k, v in rep.request_ttft.items() if k in base}}
                for name, rep in self.reports[1:]
            ],
        }


def compare_policies(
    config: SimConfig,
    requests: Sequence[RequestRecord],
    policies: Sequence[str] = tuple(POLICIES),
) -> PolicyComparison:
    """Replay one stream under each policy."""
    if not policies:
        raise SimulationError("need at least one policy")
    return PolicyComparison([(p, run_sim(config, requests, p)) for p in policies])
