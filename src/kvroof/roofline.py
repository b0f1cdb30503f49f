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
import math
from dataclasses import dataclass
from enum import Enum
from operator import is_
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .analytics import arithmetic_intensity, kappa_crit
from .catalog import HardwareSpec, ModelSpec, json_text, refuse
from .errors import RooflineError

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

# Most K/T points one grid may hold: each becomes a point of about 120 B per
# platform, about 1.1 GB over nine platforms. Sweeps in use have 6,001.
MAX_GRID_POINTS = 1_000_000


class Regime(str, Enum):
    COMPUTE_BOUND = "compute-bound"
    BANDWIDTH_BOUND = "bandwidth-bound"


class RooflinePoint(NamedTuple):
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


def attainable_flops(
    ai: float | np.ndarray, hw: HardwareSpec, use_sustained: bool = True
) -> float | np.ndarray:
    """min(compute ceiling, ai * bandwidth) for arithmetic intensity ai > 0.

    A float64 array of intensities gives the elementwise minimum, with the
    same bits as the float form.
    """
    array = getattr(ai, "ndim", 0) > 0
    if array:
        bad = ai[~(ai > 0)]
        if bad.size:
            refuse("", "each arithmetic intensity", bad[0].item(), "> 0", RooflineError)
    elif not ai > 0:
        refuse("", "arithmetic intensity", ai, "> 0", RooflineError)
    diagonal = ai * hw.bandwidth(use_sustained)
    if array:
        return diagonal.clip(max=hw.compute_throughput)
    return min(hw.compute_throughput, diagonal)


def kappa_grid(kappa_min: float, kappa_max: float, points_per_decade: int = 16) -> np.ndarray:
    """Logarithmic K/T grid with both endpoints included."""
    if not 0 < kappa_min < math.inf:
        refuse("", "kappa_min", kappa_min, "a finite number > 0", RooflineError)
    if not kappa_min < kappa_max < math.inf:
        refuse("", "kappa_max", kappa_max, f"a finite number > kappa_min ({json_text(kappa_min)})", RooflineError)
    if not points_per_decade >= 1:
        refuse("", "points_per_decade", points_per_decade, "a number >= 1", RooflineError)
    import numpy as np  # here, not at module level: kvroof.cli starts faster without it

    decades = np.log10(kappa_max / kappa_min)
    if not np.isfinite(decades):
        raise RooflineError(f"kappa_max / kappa_min overflows: {kappa_max!r} / {kappa_min!r}")
    if decades > 0 and points_per_decade > (MAX_GRID_POINTS - 1) / float(decades):
        raise RooflineError(f"points_per_decade is too large: the grid would exceed {MAX_GRID_POINTS} points")
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
    """One series per platform over a shared log grid of K/T ratios.

    Each series is computed as arrays over the whole grid, one numpy pass
    per formula, and then split into points holding Python floats.
    """
    if not hw_list:
        refuse("", "hardware list", hw_list, "non-empty", RooflineError)
    import numpy as np  # here, not at module level: kvroof.cli starts faster without it

    grid = kappa_grid(kappa_min, kappa_max, points_per_decade)
    mode = "sustained" if use_sustained else "peak"
    series = []
    # Python floats overflow to inf silently, and so do these arrays. An
    # intensity of 0 (k * kv_bytes overflowed) is refused by attainable_flops.
    with np.errstate(over="ignore"):
        ai = arithmetic_intensity(grid, model)
        attains = [attainable_flops(ai, hw, use_sustained) for hw in hw_list]
    ratios = grid.tolist()
    intensities = ai.tolist()
    for hw, attain in zip(hw_list, attains):
        regimes = [
            Regime.COMPUTE_BOUND if bound else Regime.BANDWIDTH_BOUND
            for bound in (attain == hw.compute_throughput).tolist()
        ]
        series.append(
            RooflineSeries(
                model_name=model.name,
                hw_name=hw.name,
                bandwidth_mode=mode,
                points=tuple(map(RooflinePoint, ratios, intensities, attain.tolist(), regimes)),
                kappa_crit_marker=kappa_crit(model, hw, use_sustained),
            )
        )
    return series


def write_series_csv(
    series: Iterable[RooflineSeries],
    destination,
    header_comment: Optional[str] = None,
) -> None:
    """Write series as CSV to a path or text file object.

    The rows are those ``csv.writer`` writes. Only the cells that are the
    same along a series (names, mode, regime and marker) can need quoting,
    so they go through ``csv.writer`` once per series; each row then adds
    the ``repr`` of its three floats, which never need quoting. The series
    of one sweep share their K/T and intensity floats, so those two cells
    are formatted once for as long as the next series holds the same objects.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="", encoding="utf-8") as fh:
            write_series_csv(series, fh, header_comment)
        return
    if header_comment:
        destination.write(f"# {header_comment}\n")
    writer = csv.writer(destination)
    writer.writerow(CSV_COLUMNS)
    end = writer.dialect.lineterminator
    grid: list[float] = []  # K/T and intensity of each point of the last series, interleaved
    cells: list[str] = []  # "k,ai" of each of those points
    for s in series:
        head = _csv_row([s.model_name, s.hw_name, s.bandwidth_mode]).removesuffix(end)
        marker = repr(s.kappa_crit_marker)
        tails = {regime: _csv_row([regime.value, marker]) for regime in Regime}
        floats = [x for p in s.points for x in p[:2]]
        if not (len(floats) == len(grid) and all(map(is_, floats, grid))):
            grid = floats
            cells = [f"{k!r},{ai!r}" for k, ai, _, _ in s.points]
        destination.writelines(
            f"{head},{kai},{p.attainable!r},{tails[p.regime]}" for kai, p in zip(cells, s.points)
        )


def _csv_row(cells: list[str]) -> str:
    """One row as ``csv.writer`` writes it, with its line terminator."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def series_csv_text(series: Iterable[RooflineSeries], header_comment: Optional[str] = None) -> str:
    buf = io.StringIO()
    write_series_csv(series, buf, header_comment)
    return buf.getvalue()
