import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvroof.analytics import arithmetic_intensity, kappa_crit
from kvroof.catalog import HardwareSpec, ModelSpec, by_name, default_catalog
from kvroof.errors import RooflineError
from kvroof.roofline import (
    CSV_COLUMNS,
    Regime,
    attainable_flops,
    kappa_grid,
    roofline_sweep,
    series_csv_text,
)

MODELS, HARDWARE = default_catalog()
M = by_name(MODELS)
H = by_name(HARDWARE)


def toy_hw(compute, bw):
    return HardwareSpec(name="hw", compute_throughput=compute, link_bandwidth_peak=bw, vram_effective=1e9)


class TestAttainable:
    def test_compute_ceiling_at_infinite_ai(self):
        hw = toy_hw(1e15, 64e9)
        assert attainable_flops(math.inf, hw) == 1e15

    def test_exactly_at_knee(self):
        hw = toy_hw(1e15, 64e9)
        knee = hw.compute_throughput / hw.bandwidth()
        assert attainable_flops(knee, hw) == 1e15

    def test_half_knee_on_diagonal(self):
        hw = toy_hw(1e15, 64e9)
        knee = hw.compute_throughput / hw.bandwidth()
        assert attainable_flops(knee / 2, hw) == pytest.approx(0.5e15, rel=1e-12)

    def test_nonpositive_ai_rejected(self):
        with pytest.raises(ValueError):
            attainable_flops(0, toy_hw(1e15, 64e9))


class TestSweep:
    def test_qwen_h100_flip_near_7_8(self):
        (series,) = roofline_sweep(M["Qwen3-235B-A22B"], [H["H100-PCIe5"]], use_sustained=False)
        flip = series.detected_flip()
        assert flip is not None
        assert series.kappa_crit_marker == pytest.approx(7.8, rel=0.05)
        step = 10 ** (1 / 16)
        assert series.kappa_crit_marker < flip <= series.kappa_crit_marker * step * 1.0001

    def test_deepseek_h100_flip_near_36(self):
        (series,) = roofline_sweep(M["DeepSeek-V3"], [H["H100-PCIe5"]], use_sustained=False)
        assert series.kappa_crit_marker == pytest.approx(36, rel=0.05)

    def test_qwen_nvlink_flip_near_41_5(self):
        (series,) = roofline_sweep(M["Qwen3-235B-A22B"], [H["GH-NVLink-C2C"]])
        assert series.kappa_crit_marker == pytest.approx(41.5, rel=0.05)

    def test_one_flip_per_series_and_marker_within_one_step(self):
        step = 10 ** (1 / 16)
        for model in MODELS:
            series_list = roofline_sweep(model, HARDWARE, use_sustained=False)
            for series in series_list:
                regimes = [p.regime for p in series.points]
                flips = sum(
                    1
                    for a, b in zip(regimes, regimes[1:])
                    if a is Regime.COMPUTE_BOUND and b is Regime.BANDWIDTH_BOUND
                )
                assert flips == 1
                assert not any(
                    a is Regime.BANDWIDTH_BOUND and b is Regime.COMPUTE_BOUND
                    for a, b in zip(regimes, regimes[1:])
                )
                flip = series.detected_flip()
                # flip is the first grid point past the marker
                assert flip / series.kappa_crit_marker <= step * 1.0001
                assert flip > series.kappa_crit_marker

    def test_points_sorted_and_attainable_monotone(self):
        (series,) = roofline_sweep(M["Qwen3-235B-A22B"], [H["B200-PCIe5"]])
        ks = [p.kappa_ratio for p in series.points]
        assert ks == sorted(ks)
        # attainable is nondecreasing in AI; AI decreases along the series
        attains = [p.attainable for p in series.points]
        assert all(a >= b - 1e-9 for a, b in zip(attains, attains[1:]))
        ceiling = H["B200-PCIe5"].compute_throughput
        for p in series.points:
            expected = min(ceiling, p.arithmetic_intensity * H["B200-PCIe5"].bandwidth())
            assert p.attainable == expected
            assert (p.regime is Regime.COMPUTE_BOUND) == (
                p.arithmetic_intensity * H["B200-PCIe5"].bandwidth() >= ceiling
            )

    @given(
        model=st.sampled_from(MODELS),
        hw=st.one_of(
            st.sampled_from(HARDWARE),
            st.builds(toy_hw, st.floats(1e12, 1e17), st.floats(1e8, 1e13)),
        ),
        kappa_min=st.floats(1e-4, 1e4),
        decades=st.floats(0.01, 6),
        points_per_decade=st.integers(1, 60),
        use_sustained=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_are_the_scalar_formulas_bit_for_bit(
        self, model, hw, kappa_min, decades, points_per_decade, use_sustained
    ):
        kappa_max = kappa_min * 10**decades
        grid = kappa_grid(kappa_min, kappa_max, points_per_decade)
        (series,) = roofline_sweep(model, [hw], kappa_min, kappa_max, points_per_decade, use_sustained)
        assert len(series.points) == len(grid)
        for k, p in zip(grid, series.points):
            assert type(p.kappa_ratio) is float and p.kappa_ratio == float(k)
            ai = arithmetic_intensity(float(k), model)
            attain = attainable_flops(ai, hw, use_sustained)
            assert type(p.arithmetic_intensity) is float and p.arithmetic_intensity == ai
            assert type(p.attainable) is float and p.attainable == attain
            assert (p.regime is Regime.COMPUTE_BOUND) == (attain == hw.compute_throughput)

    def test_empty_hardware_list_rejected(self):
        with pytest.raises(ValueError):
            roofline_sweep(M["Qwen3-235B-A22B"], [])

    @given(
        compute=st.floats(1e13, 1e16),
        bw=st.floats(1e9, 1e11),
        scale=st.floats(1.1, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_scaling_moves_flip(self, compute, bw, scale):
        model = M["Qwen3-235B-A22B"]
        base = toy_hw(compute, bw)
        scaled = toy_hw(compute, bw * scale)
        k1 = kappa_crit(model, base)
        k2 = kappa_crit(model, scaled)
        assert k2 == pytest.approx(k1 * scale, rel=1e-9)
        s1 = roofline_sweep(model, [base], kappa_min=k1 / 100, kappa_max=k1 * 100)[0]
        s2 = roofline_sweep(model, [scaled], kappa_min=k2 / 100, kappa_max=k2 * 100)[0]
        assert s2.kappa_crit_marker / s1.kappa_crit_marker == pytest.approx(scale, rel=1e-9)


class TestCsv:
    def test_columns_and_regime_strings(self):
        series = roofline_sweep(M["DeepSeek-V3"], [H["H100-PCIe5"]])
        text = series_csv_text(series, header_comment="meta")
        lines = text.strip().splitlines()
        assert lines[0] == "# meta"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert any(",compute-bound," in line for line in lines[2:])
        assert any(",bandwidth-bound," in line for line in lines[2:])

    def test_rows_are_what_csv_writer_writes(self):
        awkward = 'a,b "c"\nd'
        model = dataclasses.replace(M["Llama-3.1-70B"], name="model " + awkward)
        hardware = [dataclasses.replace(H["A100-PCIe4"], name="hw " + awkward), H["H100-PCIe5"]]
        series = roofline_sweep(model, hardware, 1.0, 1e3, 7, use_sustained=False)
        expected = io.StringIO()
        expected.write("# meta\n")
        writer = csv.writer(expected)
        writer.writerow(CSV_COLUMNS)
        for s in series:
            for p in s.points:
                writer.writerow([
                    s.model_name, s.hw_name, s.bandwidth_mode, repr(p.kappa_ratio),
                    repr(p.arithmetic_intensity), repr(p.attainable), p.regime.value,
                    repr(s.kappa_crit_marker),
                ])
        assert {p.regime for s in series for p in s.points} == set(Regime)
        assert series_csv_text(series, header_comment="meta") == expected.getvalue()

    def test_grid_default_span(self):
        grid = kappa_grid(0.1, 1e5, 16)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(1e5)
        assert len(grid) == 6 * 16 + 1

    @pytest.mark.parametrize("call, args, text", [
        (kappa_grid, (math.nan, 1e5), "kappa_min must be a finite number > 0, got NaN"),
        (kappa_grid, (-1, 1e5), "kappa_min must be a finite number > 0, got -1"),
        (kappa_grid, (math.inf, 1e5), "kappa_min must be a finite number > 0, got Infinity"),
        (kappa_grid, (10.0, 1.0), "kappa_max must be a finite number > kappa_min (10.0), got 1.0"),
        (kappa_grid, (0.1, math.inf), "kappa_max must be a finite number > kappa_min (0.1), got Infinity"),
        (kappa_grid, (0.1, math.nan), "kappa_max must be a finite number > kappa_min (0.1), got NaN"),
        (kappa_grid, (0.1, 1e5, 0), "points_per_decade must be a number >= 1, got 0"),
        (kappa_grid, (0.1, 1e5, math.nan), "points_per_decade must be a number >= 1, got NaN"),
        (attainable_flops, (0.0, H["H100-PCIe5"]), "arithmetic intensity must be > 0, got 0.0"),
        (attainable_flops, (math.nan, H["H100-PCIe5"]), "arithmetic intensity must be > 0, got NaN"),
        (attainable_flops, (np.array([1.0, -2.0, 0.0]), H["H100-PCIe5"]),
         "each arithmetic intensity must be > 0, got -2.0"),
        (roofline_sweep, (M["Qwen3-235B-A22B"], []), "hardware list must be non-empty, got []"),
    ])
    def test_grid_refusals_show_the_value_as_json(self, call, args, text):
        with pytest.raises(RooflineError) as info:
            call(*args)
        assert str(info.value) == text
