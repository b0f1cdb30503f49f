import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvroof.analytics import (
    RequestShape,
    arithmetic_intensity,
    kappa_crit,
    kappa_hw,
    kappa_model,
    max_concurrent,
    ttft,
)
from kvroof.catalog import (
    HardwareSpec,
    ModelSpec,
    by_name,
    default_catalog,
    kv_bytes_per_token,
)
from kvroof.errors import CatalogError, RooflineError, SimulationError, WorkloadError
from kvroof.workload import RequestRecord

MODELS, HARDWARE = default_catalog()
M = by_name(MODELS)
H = by_name(HARDWARE)


def toy_model(active=2, layers=1, heads=1, dim=1, p=2.0, name="toy"):
    return ModelSpec(
        name=name,
        total_params=active,
        active_params=active,
        attention_kind="GQA",
        layers=layers,
        kv_heads=heads,
        head_dim=dim,
        precision_bytes=p,
    )


def toy_hw(compute=10.0, bw=40.0, name="toy-hw", vram=1e9):
    return HardwareSpec(
        name=name, compute_throughput=compute, link_bandwidth_peak=bw, vram_effective=vram
    )


# Exact critical ratio fixture: kappa_m = 4/4 = 1, kappa_hw = 40/10 = 4.
EXACT_MODEL = toy_model(active=2, layers=1, heads=1, dim=1, p=2.0)
EXACT_HW = toy_hw(compute=10.0, bw=40.0)
EXACT_KCRIT = 4.0


rand_record = st.builds(
    RequestRecord,
    source_id=st.just("r"),
    cached_tokens=st.integers(0, 10**7),
    prefill_tokens=st.integers(1, 10**5),
)
rand_model = st.builds(
    toy_model,
    active=st.integers(1, 10**12),
    layers=st.integers(1, 150),
    heads=st.integers(1, 64),
    dim=st.integers(1, 256),
)
rand_hw = st.builds(
    toy_hw,
    compute=st.floats(1e12, 1e16),
    bw=st.floats(1e9, 1e12),
)


class TestKappaModel:
    def test_llama_405b(self):
        km = kappa_model(M["Llama-3.1-405B"])
        assert km == pytest.approx(810e9 / 516_096, rel=1e-12)
        assert km == pytest.approx(1.57e6, rel=0.01)

    def test_qwen3_30b_displayed(self):
        assert round(kappa_model(M["Qwen3-30B-A3B"]) / 1e6, 2) == 0.07

    def test_homogeneity_doubled_bytes_halves_kappa(self):
        base = toy_model(active=100, p=2.0)
        doubled = toy_model(active=100, p=4.0)
        assert kappa_model(doubled) == kappa_model(base) / 2


class TestKappaHw:
    def test_h100_pcie5(self):
        assert kappa_hw(H["H100-PCIe5"], use_sustained=False) * 1e6 == pytest.approx(34, rel=0.01)

    def test_b200_pcie4(self):
        assert kappa_hw(H["B200-PCIe4"], use_sustained=False) * 1e6 == pytest.approx(6.7, rel=0.01)

    def test_unit_ratio(self):
        hw = toy_hw(compute=123.0, bw=123.0)
        assert kappa_hw(hw) == 1.0


class TestKappaCrit:
    def test_llama_405b_h100(self):
        kc = kappa_crit(M["Llama-3.1-405B"], H["H100-PCIe5"], use_sustained=False)
        assert kc == pytest.approx(48.3, rel=0.15)
        assert 45 <= kc <= 55

    def test_deepseek_a100(self):
        kc = kappa_crit(M["DeepSeek-V3"], H["A100-PCIe4"], use_sustained=False)
        assert kc == pytest.approx(57, rel=0.15)

    def test_llama70b_sustained_15gbs(self):
        hw = HardwareSpec(
            name="h100-2pf",
            compute_throughput=2e15,
            link_bandwidth_peak=64e9,
            link_bandwidth_sustained=15e9,
            vram_effective=40e9,
        )
        assert kappa_crit(M["Llama-3.1-70B"], hw) == pytest.approx(3.2, abs=0.05)

    @given(model=rand_model, hw=rand_hw, scale=st.floats(0.1, 100))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_joint_scaling(self, model, hw, scale):
        scaled = toy_hw(compute=hw.compute_throughput * scale, bw=hw.link_bandwidth_peak * scale)
        assert kappa_crit(model, scaled) == pytest.approx(kappa_crit(model, hw), rel=1e-9)

    @given(model=rand_model, hw=rand_hw)
    @settings(max_examples=60, deadline=None)
    def test_doubles_with_bandwidth(self, model, hw):
        doubled = toy_hw(compute=hw.compute_throughput, bw=hw.link_bandwidth_peak * 2)
        assert kappa_crit(model, doubled) == pytest.approx(2 * kappa_crit(model, hw), rel=1e-9)


class TestTtft:
    def test_no_offload_is_pure_compute(self):
        out = ttft(RequestRecord("r", 0, 128), M["Qwen3-235B-A22B"], H["H100-PCIe5"])
        assert out.t_pcie == 0
        assert out.ttft == out.t_prefill
        assert out.utilization == 1.0

    def test_full_overlap_hides_shorter_phase(self):
        record = RequestRecord("r", 1, 10**5)  # tiny transfer, big compute
        out = ttft(record, M["Qwen3-235B-A22B"], H["H100-PCIe5"], overlap_alpha=1.0)
        assert out.t_pcie < out.t_prefill
        assert out.ttft == pytest.approx(out.t_prefill, rel=1e-12)

    def test_llama405b_case(self):
        hw = HardwareSpec(
            name="h100-2pf", compute_throughput=2e15, link_bandwidth_peak=64e9, vram_effective=40e9
        )
        out = ttft(RequestRecord("r", 65_000, 32), M["Llama-3.1-405B"], hw, use_sustained=False)
        assert out.t_pcie == pytest.approx(0.524, rel=0.01)
        assert out.t_prefill == pytest.approx(0.01296, rel=0.01)
        assert out.t_pcie / out.t_prefill == pytest.approx(40, rel=0.05)

    def test_alpha_out_of_range(self):
        with pytest.raises(SimulationError, match=r"^overlap_alpha must be a number in \[0, 1\], got 1.5$"):
            ttft(RequestRecord("r", 1, 1), EXACT_MODEL, EXACT_HW, overlap_alpha=1.5)

    @given(record=rand_record, model=rand_model, hw=rand_hw, a1=st.floats(0, 1), a2=st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_in_alpha_and_endpoints(self, record, model, hw, a1, a2):
        lo, hi = sorted((a1, a2))
        out0 = ttft(record, model, hw, 0.0)
        out_lo = ttft(record, model, hw, lo)
        out_hi = ttft(record, model, hw, hi)
        out1 = ttft(record, model, hw, 1.0)
        assert out0.ttft == out0.t_pcie + out0.t_prefill
        assert out_hi.ttft <= out_lo.ttft + 1e-12 * out_lo.ttft
        assert out1.ttft == pytest.approx(max(out1.t_pcie, out1.t_prefill), rel=1e-12)
        assert out_lo.ttft >= max(out_lo.t_pcie, out_lo.t_prefill) - 1e-12 * out_lo.ttft


class TestUtilizationAndOverhead:
    def test_no_offload(self):
        assert ttft(RequestRecord("r", 0, 10), EXACT_MODEL, EXACT_HW).utilization == 1.0

    def test_half_at_critical_ratio(self):
        record = RequestRecord("r", 8, 2)  # ratio 4 == EXACT_KCRIT
        assert record.kappa_ratio == EXACT_KCRIT == kappa_crit(EXACT_MODEL, EXACT_HW)
        assert ttft(record, EXACT_MODEL, EXACT_HW).utilization == 0.5
        assert ttft(record, EXACT_MODEL, EXACT_HW).pcie_overhead == 1.0

    def test_double_critical_ratio(self):
        record = RequestRecord("r", 16, 2)
        assert ttft(record, EXACT_MODEL, EXACT_HW).pcie_overhead == 2.0

    def test_qwen_65k_order_of_magnitude(self):
        # Empirical reference points: overhead near 86, utilization near 0.011
        # on real hardware. The ideal-compute model lands within one order of
        # magnitude; exact reproduction is out of scope.
        record = RequestRecord("r", 65_536, 64)
        poh = ttft(record, M["Qwen3-235B-A22B"], H["H100-PCIe5-measured"]).pcie_overhead
        u = ttft(record, M["Qwen3-235B-A22B"], H["H100-PCIe5-measured"]).utilization
        assert 86 / 10 <= poh <= 86 * 10
        assert 0.011 / 10 <= u <= 0.011 * 10

    @given(record=rand_record, model=rand_model, hw=rand_hw)
    @settings(max_examples=150, deadline=None)
    def test_overhead_identity(self, record, model, hw):
        poh = ttft(record, model, hw).pcie_overhead
        assert poh == pytest.approx(record.kappa_ratio / kappa_crit(model, hw), rel=1e-9)

    @given(record=rand_record, model=rand_model, hw=rand_hw)
    @settings(max_examples=150, deadline=None)
    def test_utilization_identity(self, record, model, hw):
        u = ttft(record, model, hw).utilization
        poh = ttft(record, model, hw).pcie_overhead
        assert u == pytest.approx(1.0 / (1.0 + poh), rel=1e-9)


class TestVramOps:
    def test_b200_case_study(self):
        limit = max_concurrent(RequestRecord("r", 65_000, 32), M["Llama-3.1-405B"], 60e9)
        assert limit.value == pytest.approx(1.79, abs=0.01)
        assert limit.floor == 1

    def test_exact_fit(self):
        record = RequestRecord("r", 3, 1)
        vram = 4 * kv_bytes_per_token(EXACT_MODEL)
        limit = max_concurrent(record, EXACT_MODEL, vram)
        assert limit.value == 1.0 and limit.floor == 1

    @given(record=rand_record, model=rand_model, vram=st.floats(1e6, 1e12))
    @settings(max_examples=80, deadline=None)
    def test_linear_in_vram(self, record, model, vram):
        one = max_concurrent(record, model, vram)
        two = max_concurrent(record, model, 2 * vram)
        assert two.value == pytest.approx(2 * one.value, rel=1e-12)

    # Prefill tokens a full pool holds: the concurrency limit, un-floored, times T.
    def test_schedulable_tokens_b200(self):
        tokens = max_concurrent(RequestRecord("r", 65_000, 32), M["Llama-3.1-405B"], 60e9).value * 32
        assert tokens == pytest.approx(57, abs=1)
        assert tokens / 4000 == pytest.approx(0.0143, abs=0.001)

    def test_schedulable_tokens_moderate(self):
        tokens = max_concurrent(RequestRecord("r", 6_400, 100), M["Llama-3.1-405B"], 60e9).value * 100
        assert tokens / 4000 == pytest.approx(0.45, abs=0.02)

    def test_schedulable_tokens_sharegpt_averages(self):
        tokens = max_concurrent(RequestRecord("r", 11_115, 82), M["Qwen3-235B-A22B"], 92e9).value * 82
        assert tokens == pytest.approx(3509, rel=0.01)


class TestArithmeticIntensity:
    def test_balance_point_at_critical_ratio(self):
        ai = arithmetic_intensity(EXACT_KCRIT, EXACT_MODEL)
        assert ai == EXACT_HW.compute_throughput / EXACT_HW.bandwidth()

    def test_inverse_proportionality(self):
        ai1 = arithmetic_intensity(EXACT_KCRIT, EXACT_MODEL)
        ai10 = arithmetic_intensity(10 * EXACT_KCRIT, EXACT_MODEL)
        assert ai10 == pytest.approx(ai1 / 10, rel=1e-12)

    def test_llama405b_memory_bound_point(self):
        ai = arithmetic_intensity(2000, M["Llama-3.1-405B"])
        assert ai == pytest.approx(785, rel=0.01)
        balance = 2e15 / 64e9  # 31,250 FLOP/byte
        assert ai < balance

    def test_zero_ratio_is_infinite(self):
        assert arithmetic_intensity(0, EXACT_MODEL) == math.inf

    def test_negative_ratio_rejected(self):
        with pytest.raises(RooflineError, match="^kappa_ratio must be a finite number >= 0, got -1$"):
            arithmetic_intensity(-1, EXACT_MODEL)


# Each refusal uses the rule text and error class of the type that owns the field.
REFUSALS = {
    "boolean alpha": (lambda: ttft(RequestRecord("r", 3, 1), EXACT_MODEL, EXACT_HW, True), SimulationError,
                      "overlap_alpha must be a number in [0, 1], got true"),
    "string alpha": (lambda: ttft(RequestRecord("r", 3, 1), EXACT_MODEL, EXACT_HW, "x"), SimulationError,
                     'overlap_alpha must be a number in [0, 1], got "x"'),
    "NaN alpha": (lambda: ttft(RequestRecord("r", 3, 1), EXACT_MODEL, EXACT_HW, math.nan), SimulationError,
                  "overlap_alpha must be a number in [0, 1], got NaN"),
    "infinite vram": (lambda: max_concurrent(RequestRecord("r", 3, 1), EXACT_MODEL, math.inf), CatalogError,
                      "vram_effective must be a finite number > 0, got Infinity"),
    "NaN vram": (lambda: max_concurrent(RequestRecord("r", 3, 1), EXACT_MODEL, math.nan), CatalogError,
                 "vram_effective must be a finite number > 0, got NaN"),
    "boolean vram": (lambda: max_concurrent(RequestRecord("r", 3, 1), EXACT_MODEL, True), CatalogError,
                     "vram_effective must be a finite number > 0, got true"),
    "zero vram": (lambda: max_concurrent(RequestRecord("r", 3, 1), EXACT_MODEL, 0), CatalogError,
                  "vram_effective must be a finite number > 0, got 0"),
    # a 1-bit toy model holds 0.25 KV bytes per token, so 1.7e308 bytes overflow a float in requests
    "pool overflows the request count": (
        lambda: max_concurrent(RequestRecord("r", 0, 1), toy_model(p=0.125), 1.7e308), CatalogError,
        "vram_effective / ((K + T) * kv_bytes_per_token) must be a finite number, got Infinity"),
    "NaN ratio": (lambda: arithmetic_intensity(math.nan, EXACT_MODEL), RooflineError,
                  "kappa_ratio must be a finite number >= 0, got NaN"),
    "infinite ratio": (lambda: arithmetic_intensity(math.inf, EXACT_MODEL), RooflineError,
                       "kappa_ratio must be a finite number >= 0, got Infinity"),
    "negative ratio": (lambda: arithmetic_intensity(-1.0, EXACT_MODEL), RooflineError,
                       "kappa_ratio must be a finite number >= 0, got -1.0"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_name_the_field_and_show_the_value_as_json(case):
    call, error, text = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == text


class TestShapes:
    def test_invalid_shapes(self):
        with pytest.raises(WorkloadError, match="^request '': cached_tokens must be an integer >= 0, got -1$"):
            RequestShape(-1, 1)
        with pytest.raises(WorkloadError, match="^request '': prefill_tokens must be an integer >= 1, got 0$"):
            RequestShape(0, 0)

    @pytest.mark.parametrize("count, shown", [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
    def test_non_finite_counts_never_reach_max_concurrent(self, count, shown):
        # NaN passed the old "< 0" test and ended in a bare ValueError from math.floor
        with pytest.raises(WorkloadError, match=f"^request '': cached_tokens must be an integer >= 0, got {shown}$"):
            max_concurrent(RequestShape(count, 1), EXACT_MODEL, 1e9)

    def test_kappa_ratio_exact(self):
        assert RequestShape(65_000, 32).kappa_ratio == 2031.25

    @pytest.mark.parametrize("cached, prefill", [(0, 1), (65_536, 64), (11_115, 82)])
    def test_benchmark_call_is_the_record_call(self, cached, prefill):
        # perfbench bounds each simulated TTFT with ttft(RequestShape(K, T), model, hw, 0.0, use_sustained)
        model, hw = M["Qwen3-235B-A22B"], H["H100-PCIe5-measured"]
        shape = RequestShape(cached, prefill)
        assert isinstance(shape, RequestRecord)
        record = RequestRecord("r", cached, prefill, 0.0)
        assert ttft(shape, model, hw, 0.0, True) == ttft(record, model, hw, 0.0, True)
