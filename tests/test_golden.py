"""Golden-output guard: SHA-256 digests of what the CLI writes.

Each case runs one CLI command on fixed inputs and hashes its output files
and standard output; the ``run_sim`` sweep instead hashes the reports of
many small seeded simulations run in-process. Manifest lines are stripped
first, because they record temporary paths. JSON reports are checked to be
in their canonical form and then hashed with the manifest removed, so the
guard covers every other byte. A digest
changes only when an output changes. To accept an intended change, run
``GOLDEN_PRINT=1 pytest -s tests/test_golden.py`` and copy the printed digests.
"""

import hashlib
import json
import math
import os
import random

import pytest

from kvroof.catalog import HardwareSpec, ModelSpec, by_name, default_catalog
from kvroof.cli import EXIT_OK, main
from kvroof.errors import SimulationError
from kvroof.simulator import SimConfig, compare_policies
from kvroof.workload import PROFILES, SYNTH_SLICE, RequestRecord, synthesize_stream

from conftest import fixture_path


def strip_manifest(data: bytes) -> bytes:
    """Drop manifest lines: ``# manifest ...`` comments and ``{"_manifest": ...}`` records."""
    lines = data.split(b"\n")
    return b"\n".join(
        line for line in lines if not line.startswith((b"# manifest", b'{"_manifest"'))
    )


def canonical_report(data: bytes) -> bytes:
    """A report or comparison JSON without its manifest."""
    doc = json.loads(data)
    assert json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n" == data
    doc.pop("manifest")
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(args, capsys) -> bytes:
    assert main(args) == EXIT_OK
    return strip_manifest(capsys.readouterr().out.encode())


def digests_of(tmp_path, files: list, stdout: bytes = None) -> dict:
    out = {}
    for name in files:
        data = (tmp_path / name).read_bytes()
        out[name] = sha(canonical_report(data) if name.endswith(".json") else strip_manifest(data))
    if stdout is not None:
        out["stdout"] = sha(stdout)
    return out


def check(case: str, got: dict) -> None:
    if os.environ.get("GOLDEN_PRINT"):
        print(f"\n{case!r}: {json.dumps(got, indent=4, sort_keys=True)},")
    assert got == GOLDEN[case]


CONVERSATIONS = "".join(
    json.dumps(
        {
            "conversation_id": f"c{i}",
            "turns": [
                {"query_tokens": 5 + 7 * i + 3 * j, "response_tokens": 11 * j + i}
                for j in range(1 + i % 4)
            ],
        }
    )
    + "\n"
    for i in range(12)
)

DOCUMENTS = "".join(
    json.dumps(
        {
            "doc_id": f"d{i}",
            "doc_tokens": 1000 * (i + 1) + 17,
            "question_tokens": [3 + i + q for q in range(1 + i % 3)],
        }
    )
    + "\n"
    for i in range(9)
)


def test_kappa(tmp_path, capsys):
    stdout = run(["kappa", "--out", str(tmp_path / "kappa.csv")], capsys)
    check("kappa", digests_of(tmp_path, ["kappa.csv"], stdout))


@pytest.mark.parametrize("model", ["Qwen3-235B-A22B", "DeepSeek-V3"])
def test_roofline(tmp_path, capsys, model):
    run(["roofline", "--model", model, "--out", str(tmp_path / "roof.csv")], capsys)
    check(f"roofline-{model}", digests_of(tmp_path, ["roof.csv"]))


@pytest.mark.parametrize("kind, text", [("conversation", CONVERSATIONS), ("document", DOCUMENTS)])
def test_analyze(tmp_path, capsys, kind, text):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(text)
    stdout = run(["analyze", str(trace), "--kind", kind, "--out", str(tmp_path / "a.csv")], capsys)
    check(f"analyze-{kind}", digests_of(tmp_path, ["a.csv"], stdout))


@pytest.mark.parametrize("profile", ["sharegpt", "finqa"])
def test_synth(tmp_path, capsys, profile):
    run(["synth", "--profile", profile, "--rps", "40", "--duration", "3", "--seed", "11",
         "--out", str(tmp_path / "s.jsonl")], capsys)
    check(f"synth-{profile}", digests_of(tmp_path, ["s.jsonl"]))


def test_synth_second_arrival_block(tmp_path, capsys):
    # 213 rps for 1 s draws a first block of 256 gaps; at this seed they end
    # before 1 s, so the arrivals continue into a second block.
    run(["synth", "--profile", "sharegpt", "--rps", "213", "--duration", "1", "--seed", "2300",
         "--out", str(tmp_path / "s.jsonl")], capsys)
    assert len((tmp_path / "s.jsonl").read_text().splitlines()) == 1 + 268
    check("synth-second-block", digests_of(tmp_path, ["s.jsonl"]))


def test_synth_across_slices(tmp_path, capsys):
    # More records than two slices of SYNTH_SLICE, and not a multiple of it: the
    # digest was recorded when synth built every record at once.
    stdout = run(["synth", "--profile", "narrativeqa", "--rps", "3000", "--duration", "3", "--seed", "17",
                  "--out", str(tmp_path / "s.jsonl")], capsys)
    n = len((tmp_path / "s.jsonl").read_text().splitlines()) - 1
    assert n == 9285 and n > 2 * SYNTH_SLICE and n % SYNTH_SLICE
    assert stdout.decode() == f"wrote {n} requests to {tmp_path / 's.jsonl'}\n"
    check("synth-across-slices", digests_of(tmp_path, ["s.jsonl"]))


def test_simulate_compare_fixture(tmp_path, capsys):
    stdout = run(["simulate", "--config", fixture_path("scheduling_fixture_config.json"),
                  "--stream", fixture_path("scheduling_fixture_stream.jsonl"),
                  "--compare", "--out", str(tmp_path)], capsys)
    files = ["comparison.json", "report_fifo.json", "report_utilization.json",
             "iterations_fifo.csv", "iterations_utilization.csv"]
    check("simulate-compare", digests_of(tmp_path, files, stdout))


def test_simulate_fifo_synth_stream(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    run(["synth", "--profile", "sharegpt", "--rps", "200", "--duration", "2", "--seed", "3",
         "--out", str(stream)], capsys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "Qwen3-30B-A3B", "hardware": "Unified-HBM"}))
    stdout = run(["simulate", "--config", str(config), "--stream", str(stream),
                  "--policy", "fifo", "--out", str(tmp_path)], capsys)
    check("simulate-fifo", digests_of(tmp_path, ["report.json", "iterations.csv"], stdout))


def test_simulate_compare_throttled_link_no_chunking(tmp_path, capsys):
    # A finite link kept busy, chunking off and the utilization policy on a
    # catalog platform: a case the two tests above do not reach.
    stream = tmp_path / "stream.jsonl"
    run(["synth", "--profile", "sharegpt", "--rps", "300", "--duration", "2", "--seed", "5",
         "--out", str(stream)], capsys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "Qwen3-235B-A22B", "hardware": "H100-PCIe5-measured",
                                  "bandwidth_mode": "peak", "overlap_alpha": 0.5,
                                  "allow_chunked_prefill": False}))
    stdout = run(["simulate", "--config", str(config), "--stream", str(stream),
                  "--compare", "--out", str(tmp_path)], capsys)
    files = ["comparison.json", "report_fifo.json", "report_utilization.json",
             "iterations_fifo.csv", "iterations_utilization.csv"]
    check("simulate-compare-throttled", digests_of(tmp_path, files, stdout))


def test_simulate_compare_greedy_packing(tmp_path, capsys):
    # A burst on a fast link with a small budget: the utilization policy packs
    # more than EXACT_SEARCH_LIMIT candidates greedily, which no case above reaches.
    stream = tmp_path / "stream.jsonl"
    run(["synth", "--profile", "sharegpt", "--rps", "3000", "--duration", "0.2", "--seed", "5",
         "--out", str(stream)], capsys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "Qwen3-30B-A3B",
                                  "hardware": {"name": "burst-testbed", "compute_throughput": 1e14,
                                               "link_bandwidth_peak": 1e15, "vram_effective": 2e10},
                                  "token_budget": 256, "overlap_alpha": 1}))
    stdout = run(["simulate", "--config", str(config), "--stream", str(stream),
                  "--compare", "--out", str(tmp_path)], capsys)
    files = ["comparison.json", "report_fifo.json", "report_utilization.json",
             "iterations_fifo.csv", "iterations_utilization.csv"]
    check("simulate-compare-greedy", digests_of(tmp_path, files, stdout))


# 4 bytes of KV and 2 FLOPs per token, so small integers give exact sweeps.
SWEEP_MODEL = ModelSpec(name="sweep-model", total_params=1, active_params=1, attention_kind="GQA",
                        layers=1, kv_heads=1, head_dim=1, precision_bytes=2)


def random_sweep_case(rng: random.Random):
    """A small random config and stream: infinite or slow compute and links, any alpha, chunking on or off."""
    peak = rng.choice([math.inf, 4.0, 1e-3, rng.uniform(0.5, 100.0)])
    hw = HardwareSpec(
        name="sweep-testbed",
        compute_throughput=rng.choice([math.inf, 2.0, rng.uniform(0.5, 20.0)]),
        link_bandwidth_peak=peak,
        link_bandwidth_sustained=rng.choice([None, peak * rng.uniform(0.1, 1.0)]),
        vram_effective=4.0 * rng.randint(4, 40),
    )
    config = SimConfig(model=SWEEP_MODEL, hardware=hw, bandwidth_mode=rng.choice(["peak", "sustained"]),
                       token_budget=rng.randint(1, 12), overlap_alpha=rng.choice([0.0, 0.5, 1.0, rng.random()]),
                       allow_chunked_prefill=rng.random() < 0.7)
    requests, t = [], 0.0
    for i in range(rng.randint(0, 8)):
        t += rng.choice([0.0, rng.uniform(0.0, 3.0)])
        requests.append(RequestRecord(f"q{i}", rng.choice([0, rng.randint(1, 12)]), rng.randint(1, 10), t))
    return config, requests


def sweep_cases():
    rng = random.Random(11)
    for _ in range(600):
        yield random_sweep_case(rng)
    models, hardware = (by_name(specs) for specs in default_catalog())
    stream = list(synthesize_stream(PROFILES["sharegpt-like"], rps=400, duration_s=0.1, seed=7))
    for hw in ("H100-PCIe5-measured", "GH-NVLink-C2C", "Unified-HBM"):
        for alpha in (0.0, 0.5, 1.0):
            yield SimConfig(models["Qwen3-30B-A3B"], hardware[hw], token_budget=2048, overlap_alpha=alpha), stream


def test_run_sim_sweep():
    # Every report, iteration row and comparison of many small simulations,
    # in one digest: a change to run_sim or its reports that moves any byte fails here.
    h = hashlib.sha256()
    for config, requests in sweep_cases():
        try:
            comparison = compare_policies(config, requests)
        except SimulationError as exc:
            h.update(f"error: {exc}\n".encode())
            continue
        h.update(json.dumps(comparison.to_dict(), sort_keys=True).encode())
        for _, report in comparison.reports:
            h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
            h.update(json.dumps(list(report.iteration_rows())).encode())
    check("run_sim-sweep", {"digest": h.hexdigest()})


GOLDEN = {
    "run_sim-sweep": {
        "digest": "77e09bd8a71b60b7babf712a281464baa63e8cb601e4cc21f35a83af72f54c82",
    },
    "kappa": {
        "kappa.csv": "6b01c5e9ef7d988be69f8be312c769443e86a1191e07b07cfbb372a6c886ba0f",
        "stdout": "29fa473118a34bcfdeded800367eb8d81e060c56d03846f84e04427887da2c3d",
    },
    "roofline-Qwen3-235B-A22B": {
        "roof.csv": "8d2a74459716287f2404e01d3c60fe2d38ece33ec743ff6e52ea5fc301410c62",
    },
    "roofline-DeepSeek-V3": {
        "roof.csv": "4a7bafaa16f6506ac9e2c1f43eb361b26dd58b34b33c8ec2d6844fc316b672ac",
    },
    "analyze-conversation": {
        "a.csv": "e2980e75379c4ed14d8fafd101f343aa2eedbf522661db04fb3718e94aca93ee",
        "stdout": "729087b54102fe1b83309b7b356a9d95bdf19a2428147724d7a1046e6f3a93a3",
    },
    "analyze-document": {
        "a.csv": "395c14b13bb898948f177efec40deb8f69b0b95c16a31a1b4c227b533b23bd76",
        "stdout": "e8907c5f1d5537ca3eee9118dbb5239cbf461effc846a2ace235007ddaed30bf",
    },
    "synth-sharegpt": {
        "s.jsonl": "e1a512e16c8317ae0fec54ec5709bf8c553ce465747d724c65a5e61b84d9a4a9",
    },
    "synth-finqa": {
        "s.jsonl": "832de362c8e4f46db3b957496f6af98ecb0a4b3a62521f37ecbda7214c8ef284",
    },
    "synth-second-block": {
        "s.jsonl": "44bbfacd279ddcfa8a3b96d50edcef21313878b4a85df7159ba8aeab26a5c705",
    },
    "synth-across-slices": {
        "s.jsonl": "7c50bc6ed0e5692844b9680dc03612354c75b0335746ec5826a61678c1b72f7e",
    },
    "simulate-compare": {
        "comparison.json": "cdc6e3f731ade3e16e45217f117c8d2e56e9fde4e974fbd5e1bff54d6dd29dce",
        "iterations_fifo.csv": "0da9cc937d14449663e3ef749500e50a2d4dc33319814d2e138368b287902d2d",
        "iterations_utilization.csv": "d53577b3d68de27b425ce7d44e8161a3c2ef5b67d0d2bce2c1323e98efce1cdf",
        "report_fifo.json": "ec23c439388d68f25338143b419cb9e54cbc5db737ae562c7ec57fc181402e8e",
        "report_utilization.json": "fdef04510730c8c7a6a6893d1d3641dad74c469c3c89d8a28fea9511ca5c635a",
        "stdout": "f29005add3de771b67e71cc3d667da6a1dceac9a774d80d85f6ecb34050421e0",
    },
    "simulate-fifo": {
        "iterations.csv": "95cd4cb2a4733d000a92eb1d38a2cdfee728f71426839d0e3b5b6eb6010c300e",
        "report.json": "54811e037776f0ea3362e80ff4cef5b9a99f3251965faffc3f07e4d17819ee43",
        "stdout": "f77a7e843795b3028e5a2dc7ffd9ad461d59754a768495ec7cee72a491dea70f",
    },
    "simulate-compare-throttled": {
        "comparison.json": "c11200127a94a4a9916434c471bd5dfdf01b4330baf6706f7ce7f15f5bece2b2",
        "iterations_fifo.csv": "7df41dc76009f690c248267c9a49b1f1f7b651d73d411c33f75dabf7a3dc77d0",
        "iterations_utilization.csv": "7df41dc76009f690c248267c9a49b1f1f7b651d73d411c33f75dabf7a3dc77d0",
        "report_fifo.json": "71909752639f8b3db9cb54cf768cfc5c450d2ee424bd9c84d0edc326a4954fc5",
        "report_utilization.json": "71909752639f8b3db9cb54cf768cfc5c450d2ee424bd9c84d0edc326a4954fc5",
        "stdout": "0ea8d89c878ba44c624605c879f4b104725a810ba17d3b7c6f43895e31c205f7",
    },
    "simulate-compare-greedy": {
        "comparison.json": "a00f518ff60a29d3c262c08d2d884862fa6dc3e96b255f5bcba3f4483a6197a2",
        "iterations_fifo.csv": "afff912a0bbc9c13e81965af05d3d8637ddfd2329bfd71e94d0453e9e389fb5e",
        "iterations_utilization.csv": "c32fba57fef19b81e30bfd26ede5588b58aa5f2b9aa8f5c64733d4b2eb1a5dad",
        "report_fifo.json": "0f39a56239bfa1316fd7da52908f5e3ff041d558173425b34796a33a33a17839",
        "report_utilization.json": "85e8881eb244f9c3ec9679e5dfea9cbd9a896d8a927a51baea46138c7eaffd73",
        "stdout": "e7b47d61ffde7178e26b161d91b5c1a784aa94032094d571436c3899bee9062c",
    },
}
