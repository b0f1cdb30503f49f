"""Roofline curves over the cached-to-new token ratio.

Attainable throughput is bounded by a horizontal compute ceiling and a
diagonal ceiling whose slope is the host-device link bandwidth. Sweeping
the K/T ratio on a log grid traces where a model/platform pair flips from
compute-bound to bandwidth-bound; the flip coincides with the critical
ratio from :mod:`kvroof.analytics`.

Output is tabular data (CSV), not rendered plots.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .analytics import arithmetic_intensity, kappa_crit
from .catalog import HardwareSpec, ModelSpec

if TYPE_CHECKING:
    import numpy as np

CSV_COLUMNS = [
    "model",
    "hardware",
    "bandwidth_mode",
    "kappa_ratio",
    "arithmetic_intensity_flop_per_byte",
    "attainable_flops",
    "regime",
    "kappa_crit",
]


class Regime(str, Enum):
    COMPUTE_BOUND = "compute-bound"
    BANDWIDTH_BOUND = "bandwidth-bound"


@dataclass(frozen=True)
class RooflinePoint:
    kappa_ratio: float
    arithmetic_intensity: float
    attainable: float
    regime: Regime


@dataclass(frozen=True)
class RooflineSeries:
    """One model on one platform, points ordered by increasing K/T ratio."""

    model_name: str
    hw_name: str
    bandwidth_mode: str  # "peak" or "sustained"
    points: tuple[RooflinePoint, ...]
    kappa_crit_marker: float

    def detected_flip(self) -> Optional[float]:
        """K/T ratio of the first bandwidth-bound point, if the sweep crosses it."""
        for prev, cur in zip(self.points, self.points[1:]):
            if prev.regime is Regime.COMPUTE_BOUND and cur.regime is Regime.BANDWIDTH_BOUND:
                return cur.kappa_ratio
        return None


def attainable_flops(ai: float, hw: HardwareSpec, use_sustained: bool = True) -> float:
    """min(compute ceiling, ai * bandwidth) for arithmetic intensity ai > 0."""
    if not ai > 0:
        raise ValueError("arithmetic intensity must be > 0")
    return min(hw.compute_throughput, ai * hw.bandwidth(use_sustained))


def kappa_grid(kappa_min: float, kappa_max: float, points_per_decade: int = 16) -> np.ndarray:
    """Logarithmic K/T grid with both endpoints included."""
    if not 0 < kappa_min < kappa_max:
        raise ValueError("need 0 < kappa_min < kappa_max")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    import numpy as np  # here, not at module level: kvroof.cli starts faster without it

    decades = np.log10(kappa_max / kappa_min)
    n = int(np.ceil(decades * points_per_decade)) + 1
    return np.logspace(np.log10(kappa_min), np.log10(kappa_max), n)


def roofline_sweep(
    model: ModelSpec,
    hw_list: Sequence[HardwareSpec],
    kappa_min: float = 0.1,
    kappa_max: float = 1e5,
    points_per_decade: int = 16,
    use_sustained: bool = True,
) -> list[RooflineSeries]:
    """One series per platform over a shared log grid of K/T ratios."""
    if not hw_list:
        raise ValueError("hardware list must not be empty")
    grid = kappa_grid(kappa_min, kappa_max, points_per_decade)
    mode = "sustained" if use_sustained else "peak"
    series = []
    for hw in hw_list:
        ceiling = hw.compute_throughput
        marker = kappa_crit(model, hw, use_sustained)
        points = []
        for k in grid:
            ai = arithmetic_intensity(float(k), model)
            attain = attainable_flops(ai, hw, use_sustained)
            regime = Regime.COMPUTE_BOUND if attain == ceiling else Regime.BANDWIDTH_BOUND
            points.append(
                RooflinePoint(
                    kappa_ratio=float(k),
                    arithmetic_intensity=ai,
                    attainable=attain,
                    regime=regime,
                )
            )
        series.append(
            RooflineSeries(
                model_name=model.name,
                hw_name=hw.name,
                bandwidth_mode=mode,
                points=tuple(points),
                kappa_crit_marker=marker,
            )
        )
    return series


def write_series_csv(
    series: Iterable[RooflineSeries],
    destination,
    header_comment: Optional[str] = None,
) -> None:
    """Write series as CSV to a path or text file object."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as fh:
            write_series_csv(series, fh, header_comment)
        return
    if header_comment:
        destination.write(f"# {header_comment}\n")
    writer = csv.writer(destination)
    writer.writerow(CSV_COLUMNS)
    for s in series:
        for p in s.points:
            writer.writerow(
                [
                    s.model_name,
                    s.hw_name,
                    s.bandwidth_mode,
                    repr(p.kappa_ratio),
                    repr(p.arithmetic_intensity),
                    repr(p.attainable),
                    p.regime.value,
                    repr(s.kappa_crit_marker),
                ]
            )


def series_csv_text(series: Iterable[RooflineSeries], header_comment: Optional[str] = None) -> str:
    buf = io.StringIO()
    write_series_csv(series, buf, header_comment)
    return buf.getvalue()
