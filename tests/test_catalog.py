import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvroof.catalog import (
    HardwareSpec,
    ModelSpec,
    by_name,
    default_catalog,
    flops_per_token,
    kv_bytes_per_token,
    loads_catalog,
    lookup,
    read_document,
    serialize_catalog,
)
from kvroof.errors import CatalogError, KvroofError, SimulationError
from kvroof.workload import SHAREGPT_LIKE, StreamProfile, synthesize_stream


def gqa(name="m", total=int(1e9), active=int(1e9), layers=80, heads=8, dim=128, p=2.0):
    return ModelSpec(
        name=name,
        total_params=total,
        active_params=active,
        attention_kind="GQA",
        layers=layers,
        kv_heads=heads,
        head_dim=dim,
        precision_bytes=p,
    )


def mla(name="m", total=int(1e9), active=int(1e9), layers=61, rank=512, rope=64, p=2.0):
    return ModelSpec(
        name=name,
        total_params=total,
        active_params=active,
        attention_kind="MLA",
        layers=layers,
        kv_lora_rank=rank,
        qk_rope_dim=rope,
        precision_bytes=p,
    )


class TestKvBytesPerToken:
    def test_llama_70b(self):
        # 2 * 80 * 8 * 128 * 2 = 327,680 bytes, about 328 KB
        assert kv_bytes_per_token(gqa(layers=80, heads=8, dim=128, p=2)) == 327_680

    def test_qwen3_235b(self):
        assert kv_bytes_per_token(gqa(layers=94, heads=4, dim=128, p=2)) == 192_512

    def test_deepseek_v3_mla_sum_form(self):
        # hand arithmetic: 61 * (512 + 64) * 2
        assert kv_bytes_per_token(mla(layers=61, rank=512, rope=64, p=2)) == 61 * 576 * 2 == 70_272

    def test_zero_precision_rejected(self):
        with pytest.raises(CatalogError):
            gqa(p=0)

    def test_fractional_precision_half_byte(self):
        # 4-bit storage halves the 8-bit footprint exactly
        assert kv_bytes_per_token(gqa(p=0.5)) == kv_bytes_per_token(gqa(p=1.0)) / 2

    @given(
        layers=st.integers(1, 200),
        heads=st.integers(1, 64),
        dim=st.integers(1, 256),
        bits=st.integers(1, 32),
        bump=st.integers(1, 8),
        which=st.sampled_from(["layers", "heads", "dim", "bits"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_each_gqa_field(self, layers, heads, dim, bits, bump, which):
        base = dict(layers=layers, heads=heads, dim=dim, p=bits / 8)
        grown = dict(base)
        if which == "bits":
            grown["p"] = (bits + bump) / 8
        else:
            grown[which] += bump
        assert kv_bytes_per_token(gqa(**grown)) >= kv_bytes_per_token(gqa(**base))

    @given(
        layers=st.integers(1, 200),
        rank=st.integers(1, 1024),
        rope=st.integers(1, 256),
        bump=st.integers(1, 8),
        which=st.sampled_from(["layers", "rank", "rope"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_mla_field(self, layers, rank, rope, bump, which):
        base = dict(layers=layers, rank=rank, rope=rope)
        grown = dict(base)
        grown[which] += bump
        assert kv_bytes_per_token(mla(**grown)) >= kv_bytes_per_token(mla(**base))


class TestFlopsPerToken:
    def test_llama_405b(self):
        assert flops_per_token(gqa(total=405_000_000_000, active=405_000_000_000)) == 810e9

    def test_unit_anchor(self):
        assert flops_per_token(gqa(total=1, active=1)) == 2

    def test_qwen3_235b_active(self):
        assert flops_per_token(gqa(total=235_000_000_000, active=22_000_000_000)) == 44e9

    @given(active=st.integers(1, 10**13))
    @settings(max_examples=50, deadline=None)
    def test_always_twice_active(self, active):
        assert flops_per_token(gqa(total=10**13, active=active)) == 2 * active


class TestSpecInvariants:
    def test_gqa_missing_field_named(self):
        with pytest.raises(CatalogError, match="head_dim"):
            ModelSpec(
                name="bad",
                total_params=1,
                active_params=1,
                attention_kind="GQA",
                layers=2,
                kv_heads=2,
            )

    def test_mla_missing_field_named(self):
        with pytest.raises(CatalogError, match="qk_rope_dim"):
            ModelSpec(
                name="bad",
                total_params=1,
                active_params=1,
                attention_kind="MLA",
                layers=2,
                kv_lora_rank=8,
            )

    def test_unused_group_must_be_absent(self):
        with pytest.raises(CatalogError, match="kv_lora_rank"):
            ModelSpec(
                name="bad",
                total_params=1,
                active_params=1,
                attention_kind="GQA",
                layers=2,
                kv_heads=2,
                head_dim=2,
                kv_lora_rank=8,
            )

    def test_active_exceeds_total(self):
        with pytest.raises(CatalogError, match="active_params"):
            gqa(total=10, active=11)

    def test_sustained_above_peak_rejected(self):
        with pytest.raises(CatalogError, match="sustained"):
            HardwareSpec(
                name="h",
                compute_throughput=1e15,
                link_bandwidth_peak=32e9,
                link_bandwidth_sustained=64e9,
                vram_effective=1e9,
            )

    def test_sustained_defaults_to_peak(self):
        hw = HardwareSpec(
            name="h", compute_throughput=1e15, link_bandwidth_peak=32e9, vram_effective=1e9
        )
        assert hw.link_bandwidth_sustained == hw.link_bandwidth_peak
        assert hw.bandwidth(True) == hw.bandwidth(False) == 32e9

    def test_idle_above_tdp_rejected(self):
        with pytest.raises(CatalogError, match="idle_watts"):
            HardwareSpec(
                name="h",
                compute_throughput=1e15,
                link_bandwidth_peak=32e9,
                vram_effective=1e9,
                tdp_watts=400,
                idle_watts=500,
            )


class TestCatalogIO:
    def test_default_catalog_contents(self):
        models, hardware = default_catalog()
        names = {m.name for m in models}
        assert names == {
            "Llama-3.1-70B",
            "Llama-3.1-405B",
            "Qwen3-30B-A3B",
            "Qwen3-235B-A22B",
            "DeepSeek-V3",
        }
        hw_names = {h.name for h in hardware}
        for expected in ("A100-PCIe4", "H100-PCIe5", "B200-PCIe5", "GH-NVLink-C2C", "Unified-HBM"):
            assert expected in hw_names

    def test_empty_file_is_empty_catalog(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        models, hardware = loads_catalog(read_document(path, "catalog"))
        assert models == [] and hardware == []

    def test_negative_bandwidth_cites_field(self):
        text = json.dumps(
            {
                "hardware": [
                    {
                        "name": "bad",
                        "compute_throughput": 1e15,
                        "link_bandwidth_peak": -1,
                        "vram_effective": 1e9,
                    }
                ]
            }
        )
        with pytest.raises(CatalogError, match="link_bandwidth_peak"):
            loads_catalog(text)

    def test_duplicate_names_rejected(self):
        models, hardware = default_catalog()
        doubled = serialize_catalog(models + [models[0]], hardware)
        with pytest.raises(CatalogError, match="duplicate"):
            loads_catalog(doubled)

    def test_unknown_field_rejected(self):
        text = json.dumps({"models": [{"name": "x", "bogus": 1}]})
        with pytest.raises(CatalogError, match="bogus"):
            loads_catalog(text)

    def test_parse_error_has_location(self):
        with pytest.raises(CatalogError, match="line"):
            loads_catalog("{not json", source="f.json")

    def test_round_trip(self):
        models, hardware = default_catalog()
        again_m, again_h = loads_catalog(serialize_catalog(models, hardware))
        assert again_m == models
        assert again_h == hardware

    def test_by_name(self):
        models, _ = default_catalog()
        assert by_name(models)["DeepSeek-V3"].attention_kind == "MLA"


GOOD_HW = {"name": "h", "compute_throughput": 1e15, "link_bandwidth_peak": 32e9, "vram_effective": 1e9}
GOOD_MODEL = {"name": "m", "total_params": 10, "active_params": 10, "attention_kind": "GQA", "layers": 2,
              "kv_heads": 1, "head_dim": 1, "precision_bytes": 2}

# (catalog document, text the error must contain)
BAD_CATALOGS = {
    "root key typo": ({"model": [GOOD_MODEL]}, "unknown key(s) ['model']"),
    "models a number": ({"models": 5}, "models must be a JSON array"),
    "models null": ({"models": None}, "models must be a JSON array"),
    "hardware a string": ({"hardware": "abc"}, "hardware must be a JSON array"),
    "NaN precision_bytes": ({"models": [{**GOOD_MODEL, "precision_bytes": math.nan}]}, "precision_bytes"),
    "infinite precision_bytes": ({"models": [{**GOOD_MODEL, "precision_bytes": math.inf}]}, "precision_bytes"),
    "boolean layers": ({"models": [{**GOOD_MODEL, "layers": True}]}, "layers"),
    "numeric model name": ({"models": [{**GOOD_MODEL, "name": 5}]}, "name"),
    "NaN compute_throughput": ({"hardware": [{**GOOD_HW, "compute_throughput": math.nan}]}, "compute_throughput"),
    "boolean compute_throughput": ({"hardware": [{**GOOD_HW, "compute_throughput": True}]}, "compute_throughput"),
    "NaN vram_effective": ({"hardware": [{**GOOD_HW, "vram_effective": math.nan}]}, "vram_effective"),
    "NaN tdp_watts": ({"hardware": [{**GOOD_HW, "tdp_watts": math.nan}]}, "tdp_watts"),
    "negative tdp_watts": ({"hardware": [{**GOOD_HW, "tdp_watts": -5}]}, "tdp_watts"),
    "numeric hardware name": ({"hardware": [{**GOOD_HW, "name": 5}]}, "name"),
}

# Each catalog table's valid entry and its required keys; an entry without one is named by its place.
REQUIRED_KEYS = {
    "models": (GOOD_MODEL, ("name", "total_params", "active_params", "attention_kind", "layers")),
    "hardware": (GOOD_HW, ("name", "compute_throughput", "link_bandwidth_peak")),
}
BAD_CATALOGS.update({
    f"{table} entry without {key}": (
        {table: [{k: v for k, v in good.items() if k != key}]},
        f"c.json: {table}[0]: missing key(s) ['{key}']; required: {', '.join(required)}",
    )
    for table, (good, required) in REQUIRED_KEYS.items()
    for key in required
})


@pytest.mark.parametrize("case", sorted(BAD_CATALOGS))
def test_bad_catalog_raises_catalog_error(case):
    doc, fragment = BAD_CATALOGS[case]
    with pytest.raises(CatalogError) as info:
        loads_catalog(json.dumps(doc), source="c.json")
    assert type(info.value) is CatalogError
    assert fragment in str(info.value)
    assert str(info.value).startswith("c.json: ")


GOOD_MLA = {**GOOD_MODEL, "attention_kind": "MLA", "kv_heads": None, "head_dim": None, "kv_lora_rank": 4,
            "qk_rope_dim": 2}
GOOD_POWER_HW = {**GOOD_HW, "tdp_watts": 300, "idle_watts": 50}
GOOD_PROFILE = {"name": "p", "prefill_log_mean": 3.0, "prefill_log_sigma": 1.2, "cached_log_mean": 8.0,
                "cached_log_sigma": 1.4}


def _synth(**kw):
    return synthesize_stream(SHAREGPT_LIKE, seed=0, **kw)


# (builder, valid arguments, field, bad value, the end of the refusal)
REFUSALS = [
    (ModelSpec, GOOD_MODEL, "name", "", 'model name must be a non-empty string, got ""'),
    (ModelSpec, GOOD_MODEL, "attention_kind", "gqa", "attention_kind must be 'GQA' or 'MLA', got \"gqa\""),
    (ModelSpec, GOOD_MODEL, "total_params", 10.0, "total_params must be a positive integer, got 10.0"),
    (ModelSpec, GOOD_MODEL, "active_params", 0, "active_params must be a positive integer, got 0"),
    (ModelSpec, GOOD_MODEL, "active_params", 20, "active_params must be <= total_params, got 20"),
    (ModelSpec, GOOD_MODEL, "layers", True, "layers must be a positive integer, got true"),
    (ModelSpec, GOOD_MODEL, "precision_bytes", 0.3,
     "precision_bytes must be a positive multiple of 1/8 (whole bits), got 0.3"),
    (ModelSpec, GOOD_MODEL, "kv_heads", -1, "kv_heads must be a positive integer, got -1"),
    (ModelSpec, GOOD_MODEL, "head_dim", None, "head_dim must be a positive integer, got null"),
    (ModelSpec, GOOD_MODEL, "kv_lora_rank", 4, "kv_lora_rank must be null or absent for attention_kind GQA, got 4"),
    (ModelSpec, GOOD_MODEL, "qk_rope_dim", 2, "qk_rope_dim must be null or absent for attention_kind GQA, got 2"),
    (ModelSpec, GOOD_MLA, "kv_lora_rank", None, "kv_lora_rank must be a positive integer, got null"),
    (ModelSpec, GOOD_MLA, "qk_rope_dim", "2", 'qk_rope_dim must be a positive integer, got "2"'),
    (ModelSpec, GOOD_MLA, "kv_heads", 8, "kv_heads must be null or absent for attention_kind MLA, got 8"),
    (ModelSpec, GOOD_MLA, "head_dim", 128, "head_dim must be null or absent for attention_kind MLA, got 128"),
    (HardwareSpec, GOOD_HW, "name", 5, "hardware name must be a non-empty string, got 5"),
    (HardwareSpec, GOOD_HW, "compute_throughput", "fast", 'compute_throughput must be a number > 0, got "fast"'),
    (HardwareSpec, GOOD_HW, "link_bandwidth_peak", math.nan, "link_bandwidth_peak must be a number > 0, got NaN"),
    (HardwareSpec, GOOD_HW, "vram_effective", 0, "vram_effective must be a number > 0, got 0"),
    (HardwareSpec, GOOD_HW, "link_bandwidth_sustained", 64e9,
     "link_bandwidth_sustained must be a number > 0 and <= link_bandwidth_peak, got 64000000000.0"),
    (HardwareSpec, GOOD_HW, "tdp_watts", math.inf, "tdp_watts must be a finite number >= 0, got Infinity"),
    (HardwareSpec, GOOD_HW, "idle_watts", -1, "idle_watts must be a finite number >= 0, got -1"),
    (HardwareSpec, GOOD_POWER_HW, "idle_watts", 400, "idle_watts must be <= tdp_watts, got 400"),
    (StreamProfile, GOOD_PROFILE, "prefill_log_sigma", 0, "prefill_log_sigma must be a finite number > 0, got 0"),
    (StreamProfile, GOOD_PROFILE, "cached_log_sigma", math.inf,
     "cached_log_sigma must be a finite number > 0, got Infinity"),
    (StreamProfile, GOOD_PROFILE, "prefill_log_mean", math.nan, "prefill_log_mean must be a finite number, got NaN"),
    (StreamProfile, GOOD_PROFILE, "cached_log_mean", -math.inf,
     "cached_log_mean must be a finite number, got -Infinity"),
    (_synth, {"rps": 10.0, "duration_s": 1.0}, "rps", 0, "rps must be > 0, got 0"),
    (_synth, {"rps": 10.0, "duration_s": 1.0}, "duration_s", -1.5, "duration_s must be > 0, got -1.5"),
    (_synth, {"rps": 10.0, "duration_s": 1.0}, "rps", 2e7, "rps * duration_s must be <= 10000000, got 20000000.0"),
]


@pytest.mark.parametrize(
    "build, good, field, value, text",
    [pytest.param(*case, id=f"{case[0].__name__}-{case[2]}-{case[3]!r}") for case in REFUSALS],
)
def test_refusal_names_the_field_and_shows_the_value_as_json(build, good, field, value, text):
    build(**good)  # the valid arguments alone are accepted
    with pytest.raises(KvroofError) as info:
        build(**{**good, field: value})
    assert str(info.value).endswith(text)


def test_lookup_lists_every_name():
    pool = {"b": 1, "a": 2}
    assert lookup(pool, "a", "model") == 2
    with pytest.raises(CatalogError, match=r'^unknown model "c"; available: a, b$'):
        lookup(pool, "c", "model")
    with pytest.raises(SimulationError, match=r'^unknown policy "C"; available: a, b$'):
        lookup(pool, "C", "policy", SimulationError)
