"""The abstract's first claim, computed from the catalog and the bundled profiles.

The abstract says typical workloads exceed the critical ratio ``kappa_crit``
by orders of magnitude. This file pins what the model gives on every model x
PCIe pairing of the catalog, at sustained link bandwidth, and where the
claim does not hold: the ``sharegpt-like`` median K/T of 100 falls below
``kappa_crit`` for Llama-3.1-405B and DeepSeek-V3 on A100-PCIe5. The
document profiles clear it everywhere by more than an order of magnitude.
"""

import pytest

from kvroof.analytics import kappa_crit
from kvroof.catalog import by_name, default_catalog
from kvroof.workload import PROFILES

MODELS, HARDWARE = default_catalog()
M = by_name(MODELS)
H = by_name(HARDWARE)
PCIE = [hw.name for hw in HARDWARE if "PCIe" in hw.name]

# kappa_crit at sustained bandwidth, four significant figures
KAPPA_CRIT_PCIE = {
    ("Llama-3.1-70B", "A100-PCIe4"): 22.98,
    ("Llama-3.1-70B", "A100-PCIe5"): 45.96,
    ("Llama-3.1-70B", "H100-PCIe4"): 7.272,
    ("Llama-3.1-70B", "H100-PCIe5"): 14.54,
    ("Llama-3.1-70B", "H100-PCIe5-measured"): 3.409,
    ("Llama-3.1-70B", "B200-PCIe4"): 2.884,
    ("Llama-3.1-70B", "B200-PCIe5"): 5.769,
    ("Llama-3.1-405B", "A100-PCIe4"): 84.41,
    ("Llama-3.1-405B", "A100-PCIe5"): 168.8,
    ("Llama-3.1-405B", "H100-PCIe4"): 26.71,
    ("Llama-3.1-405B", "H100-PCIe5"): 53.43,
    ("Llama-3.1-405B", "H100-PCIe5-measured"): 12.52,
    ("Llama-3.1-405B", "B200-PCIe4"): 10.6,
    ("Llama-3.1-405B", "B200-PCIe5"): 21.19,
    ("Qwen3-30B-A3B", "A100-PCIe4"): 3.611,
    ("Qwen3-30B-A3B", "A100-PCIe5"): 7.222,
    ("Qwen3-30B-A3B", "H100-PCIe4"): 1.143,
    ("Qwen3-30B-A3B", "H100-PCIe5"): 2.286,
    ("Qwen3-30B-A3B", "H100-PCIe5-measured"): 0.5357,
    ("Qwen3-30B-A3B", "B200-PCIe4"): 0.4533,
    ("Qwen3-30B-A3B", "B200-PCIe5"): 0.9065,
    ("Qwen3-235B-A22B", "A100-PCIe4"): 12.29,
    ("Qwen3-235B-A22B", "A100-PCIe5"): 24.58,
    ("Qwen3-235B-A22B", "H100-PCIe4"): 3.89,
    ("Qwen3-235B-A22B", "H100-PCIe5"): 7.781,
    ("Qwen3-235B-A22B", "H100-PCIe5-measured"): 1.824,
    ("Qwen3-235B-A22B", "B200-PCIe4"): 1.543,
    ("Qwen3-235B-A22B", "B200-PCIe5"): 3.086,
    ("DeepSeek-V3", "A100-PCIe4"): 56.63,
    ("DeepSeek-V3", "A100-PCIe5"): 113.3,
    ("DeepSeek-V3", "H100-PCIe4"): 17.92,
    ("DeepSeek-V3", "H100-PCIe5"): 35.85,
    ("DeepSeek-V3", "H100-PCIe5-measured"): 8.402,
    ("DeepSeek-V3", "B200-PCIe4"): 7.109,
    ("DeepSeek-V3", "B200-PCIe5"): 14.22,
}


def margin(profile: str, pairing: tuple[str, str]) -> float:
    """How many times the profile's median K/T exceeds the pairing's kappa_crit."""
    model, hw = pairing
    return PROFILES[profile].median_kappa_ratio / kappa_crit(M[model], H[hw], True)


def test_pairings_are_every_model_on_every_pcie_platform():
    assert len(PCIE) == 7 and len(MODELS) == 5
    assert sorted(KAPPA_CRIT_PCIE) == sorted((m.name, hw) for m in MODELS for hw in PCIE)


@pytest.mark.parametrize("pairing", sorted(KAPPA_CRIT_PCIE), ids="/".join)
def test_kappa_crit(pairing):
    model, hw = pairing
    assert kappa_crit(M[model], H[hw], True) == pytest.approx(KAPPA_CRIT_PCIE[pairing], rel=1e-3)


def test_kappa_crit_range():
    low = min(KAPPA_CRIT_PCIE, key=KAPPA_CRIT_PCIE.get)
    high = max(KAPPA_CRIT_PCIE, key=KAPPA_CRIT_PCIE.get)
    assert low == ("Qwen3-30B-A3B", "B200-PCIe4")
    assert KAPPA_CRIT_PCIE[low] == pytest.approx(0.453, rel=1e-3)
    assert high == ("Llama-3.1-405B", "A100-PCIe5")
    assert KAPPA_CRIT_PCIE[high] == pytest.approx(168.8, rel=1e-3)


@pytest.mark.parametrize("profile, median", [("sharegpt-like", 100), ("narrativeqa-like", 5000),
                                             ("finqa-like", 10000)])
def test_profile_median_ratio(profile, median):
    assert PROFILES[profile].median_kappa_ratio == pytest.approx(median, rel=1e-3)


@pytest.mark.parametrize("profile, least", [("narrativeqa-like", 29.6), ("finqa-like", 59.2)])
def test_document_profiles_clear_kappa_crit_everywhere(profile, least):
    margins = {p: margin(profile, p) for p in KAPPA_CRIT_PCIE}
    worst = min(margins, key=margins.get)
    assert worst == ("Llama-3.1-405B", "A100-PCIe5")
    assert margins[worst] == pytest.approx(least, rel=1e-3)


def test_sharegpt_clears_kappa_crit_narrowly_and_not_everywhere():
    margins = {p: margin("sharegpt-like", p) for p in KAPPA_CRIT_PCIE}
    assert sum(m < 10 for m in margins.values()) == 17
    below = {p: m for p, m in margins.items() if m < 1}
    assert below == {
        ("Llama-3.1-405B", "A100-PCIe5"): pytest.approx(0.592, rel=1e-3),
        ("DeepSeek-V3", "A100-PCIe5"): pytest.approx(0.883, rel=1e-3),
    }
