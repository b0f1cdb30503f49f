"""Closed-form performance model for prefill with offloaded KV caches.

A request reloads K cached tokens over the host-device link and computes
T new prefill tokens on the accelerator. Everything below follows from the
two per-token constants derived in :mod:`kvroof.catalog`:

    transfer seconds  = K * kv_bytes_per_token / link_bandwidth
    prefill seconds   = T * flops_per_token / compute_throughput

The cached-to-new ratio K/T is compared against the critical ratio
(model factor F/B times hardware factor BW/C); above it the transfer
dominates and prefill is memory-bound.

All functions are pure, operate in SI base units (bytes, FLOPs, seconds,
tokens), and are safe under concurrent invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .catalog import HardwareSpec, ModelSpec, flops_per_token, kv_bytes_per_token

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RequestShape:
    """Token counts of one prefill request: K cached, T newly computed."""

    cached_tokens: int
    prefill_tokens: int

    def __post_init__(self) -> None:
        if self.cached_tokens < 0:
            raise ValueError("cached_tokens must be >= 0")
        if self.prefill_tokens < 1:
            raise ValueError("prefill_tokens must be >= 1")

    @property
    def kappa_ratio(self) -> float:
        return self.cached_tokens / self.prefill_tokens


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


class SchedTokens(NamedTuple):
    exact: float  # concurrency limit (un-floored) times prefill tokens
    approximate: float  # vram / (kappa_ratio * kv_bytes), valid when K >> T


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
    shape: RequestShape,
    model: ModelSpec,
    hw: HardwareSpec,
    overlap_alpha: float = 0.0,
    use_sustained: bool = True,
) -> AnalyticBreakdown:
    """Time to first token with partial transfer/compute overlap.

    ``overlap_alpha`` in [0, 1] scales how much of the shorter phase hides
    behind the longer one: 0 is fully sequential, 1 is perfect overlap.
    """
    if not 0.0 <= overlap_alpha <= 1.0:
        raise ValueError(f"overlap_alpha must be in [0, 1], got {overlap_alpha}")
    t_pcie = shape.cached_tokens * kv_bytes_per_token(model) / hw.bandwidth(use_sustained)
    t_prefill = shape.prefill_tokens * flops_per_token(model) / hw.compute_throughput
    total = t_pcie + t_prefill - overlap_alpha * min(t_pcie, t_prefill)
    return AnalyticBreakdown(
        t_pcie=t_pcie,
        t_prefill=t_prefill,
        ttft=total,
        utilization=t_prefill / total,
        pcie_overhead=t_pcie / t_prefill,
        kappa_ratio=shape.kappa_ratio,
    )


def max_concurrent(shape: RequestShape, model: ModelSpec, vram_effective: float) -> ConcurrencyLimit:
    """How many requests of this shape fit in the KV VRAM pool at once.

    Each resident request pins (K + T) * kv_bytes_per_token bytes. The
    un-floored value is reported alongside the floor because throughput
    estimates use the fractional figure.
    """
    if vram_effective <= 0:
        raise ValueError("vram_effective must be > 0")
    per_request = (shape.cached_tokens + shape.prefill_tokens) * kv_bytes_per_token(model)
    value = vram_effective / per_request
    return ConcurrencyLimit(value=value, floor=math.floor(value))


def sched_tokens(shape: RequestShape, model: ModelSpec, vram_effective: float) -> SchedTokens:
    """Prefill tokens schedulable per iteration under the VRAM constraint.

    The exact form multiplies the un-floored concurrency limit by T. The
    approximate form drops T from the denominator and is within 2% of the
    exact form once K >= 100 * T.
    """
    limit = max_concurrent(shape, model, vram_effective)
    exact = limit.value * shape.prefill_tokens
    ratio = shape.kappa_ratio
    if ratio == 0:
        approx = math.inf
    else:
        approx = vram_effective / (ratio * kv_bytes_per_token(model))
    return SchedTokens(exact=exact, approximate=approx)


def arithmetic_intensity(kappa_ratio: float | np.ndarray, model: ModelSpec) -> float | np.ndarray:
    """FLOPs performed per byte transferred, as a function of the K/T ratio.

    A ratio of zero means no transfer at all and returns +inf (pure
    compute). At the critical ratio this equals the machine balance point
    compute_throughput / bandwidth.

    A float64 array of ratios, each > 0, gives the array of intensities,
    every element bit-identical to the float form (IEEE division and
    multiplication round the same way in numpy).
    """
    if getattr(kappa_ratio, "ndim", 0):
        if not (kappa_ratio > 0).all():
            raise ValueError("kappa_ratio entries must be > 0")
    elif kappa_ratio < 0:
        raise ValueError("kappa_ratio must be >= 0")
    elif kappa_ratio == 0:
        return math.inf
    return flops_per_token(model) / (kappa_ratio * kv_bytes_per_token(model))


def memory_bound(
    shape: RequestShape, model: ModelSpec, hw: HardwareSpec, use_sustained: bool = True
) -> bool:
    """True when the transfer phase dominates (K/T above the critical ratio)."""
    return shape.kappa_ratio > kappa_crit(model, hw, use_sustained)
