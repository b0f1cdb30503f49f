"""Closed-form performance model for prefill with offloaded KV caches.

A request reloads K cached tokens over the host-device link and computes
T new prefill tokens on the accelerator. Everything below follows from the
two per-token constants derived in :mod:`kvroof.catalog`:

    transfer seconds  = K * kv_bytes_per_token / link_bandwidth
    prefill seconds   = T * flops_per_token / compute_throughput

The cached-to-new ratio K/T is compared against the critical ratio
(model factor F/B times hardware factor BW/C); above it the transfer
dominates and prefill is memory-bound. The VRAM pool bounds how many
requests are resident at once (:func:`max_concurrent`).

All functions are pure, operate in SI base units (bytes, FLOPs, seconds,
tokens), and are safe under concurrent invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .catalog import HardwareSpec, ModelSpec, flops_per_token, is_number, kv_bytes_per_token, refuse
from .errors import CatalogError, RooflineError, SimulationError

if TYPE_CHECKING:  # importing workload costs every command that needs only the closed form
    from .workload import RequestRecord


def RequestShape(cached_tokens: int, prefill_tokens: int) -> RequestRecord:
    """``RequestRecord("", cached_tokens, prefill_tokens)``: K cached, T newly computed.

    Only the name is left, for ``perfbench``, which builds ``RequestShape(K, T)``
    to call :func:`ttft`; ROADMAP item 6 removes it.
    """
    from .workload import RequestRecord

    return RequestRecord("", cached_tokens, prefill_tokens)


@dataclass(frozen=True)
class AnalyticBreakdown:
    """Latency decomposition of a single request.

    ``utilization`` is the fraction of time-to-first-token spent computing;
    ``pcie_overhead`` is the no-overlap transfer-to-compute ratio, which
    equals kappa_ratio / kappa_crit identically.
    """

    t_pcie: float
    t_prefill: float
    ttft: float
    utilization: float
    pcie_overhead: float
    kappa_ratio: float


class ConcurrencyLimit(NamedTuple):
    value: float  # un-floored request count permitted by the VRAM pool
    floor: int


def kappa_model(model: ModelSpec) -> float:
    """Model factor: prefill FLOPs per KV byte moved (FLOP/byte)."""
    return flops_per_token(model) / kv_bytes_per_token(model)


def kappa_hw(hw: HardwareSpec, use_sustained: bool = True) -> float:
    """Hardware factor: link bytes deliverable per FLOP of compute (byte/FLOP)."""
    return hw.bandwidth(use_sustained) / hw.compute_throughput


def kappa_crit(model: ModelSpec, hw: HardwareSpec, use_sustained: bool = True) -> float:
    """Cached-to-new token ratio at which transfer time equals compute time."""
    return kappa_model(model) * kappa_hw(hw, use_sustained)


def ttft(
    request: RequestRecord,
    model: ModelSpec,
    hw: HardwareSpec,
    overlap_alpha: float = 0.0,
    use_sustained: bool = True,
) -> AnalyticBreakdown:
    """Time to first token with partial transfer/compute overlap.

    ``overlap_alpha`` in [0, 1] scales how much of the shorter phase hides
    behind the longer one: 0 is fully sequential, 1 is perfect overlap.
    """
    if not (is_number(overlap_alpha) and 0.0 <= overlap_alpha <= 1.0):
        refuse("", "overlap_alpha", overlap_alpha, "a number in [0, 1]", SimulationError)
    t_pcie = request.cached_tokens * kv_bytes_per_token(model) / hw.bandwidth(use_sustained)
    t_prefill = request.prefill_tokens * flops_per_token(model) / hw.compute_throughput
    total = t_pcie + t_prefill - overlap_alpha * min(t_pcie, t_prefill)
    return AnalyticBreakdown(
        t_pcie=t_pcie,
        t_prefill=t_prefill,
        ttft=total,
        utilization=t_prefill / total,
        pcie_overhead=t_pcie / t_prefill,
        kappa_ratio=request.kappa_ratio,
    )


def max_concurrent(request: RequestRecord, model: ModelSpec, vram_effective: float) -> ConcurrencyLimit:
    """How many requests of this size fit in the KV VRAM pool at once.

    Each resident request pins (K + T) * kv_bytes_per_token bytes. The
    floor is the simulator's peak residents for identical requests on a
    link and token budget that never bind; ``value * T`` is the prefill
    tokens such a full pool holds.
    """
    if not (is_number(vram_effective) and 0 < vram_effective < math.inf):
        refuse("", "vram_effective", vram_effective, "a finite number > 0", CatalogError)
    value = vram_effective / (request.vram_tokens * kv_bytes_per_token(model))
    if not value < math.inf:  # the pool overflows a float in units of one request's bytes
        refuse("", "vram_effective / ((K + T) * kv_bytes_per_token)", value, "a finite number", CatalogError)
    return ConcurrencyLimit(value=value, floor=math.floor(value))


def arithmetic_intensity(kappa_ratio: float, model: ModelSpec) -> float:
    """FLOPs performed per byte transferred, as a function of the K/T ratio.

    A ratio of zero means no transfer at all and returns +inf (pure
    compute). At the critical ratio this equals the machine balance point
    compute_throughput / bandwidth.
    """
    if not 0 <= kappa_ratio < math.inf:
        refuse("", "kappa_ratio", kappa_ratio, "a finite number >= 0", RooflineError)
    if kappa_ratio == 0:
        return math.inf
    return flops_per_token(model) / (kappa_ratio * kv_bytes_per_token(model))
