import ast
import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kvroof
import kvroof.cli
import kvroof.errors
from kvroof.analytics import kappa_crit, kappa_hw, kappa_model
from kvroof.catalog import by_name, default_catalog, default_catalog_text
from kvroof.cli import EXIT_DATA, EXIT_OK, Catalog, RunManifest, _analysis_row, _load_sim_config, _write_json, main
from kvroof.simulator import compare_policies
from kvroof.workload import RequestRecord, read_stream

from conftest import catalog_json, fixture_path

MODELS, HARDWARE = default_catalog()
M = by_name(MODELS)
H = by_name(HARDWARE)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env() -> dict:
    """The environment for a child Python that imports this checkout's kvroof."""
    src = str(Path(kvroof.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestKappaCommand:
    def test_single_pair_row(self, capsys):
        code, out, _ = run(
            ["kappa", "--models", "Qwen3-235B-A22B", "--hw", "H100-PCIe5"], capsys
        )
        assert code == EXIT_OK
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert len(rows) == 2  # header + one pair
        assert "Qwen3-235B-A22B" in rows[1]

    def test_numbers_match_library(self, capsys):
        code, out, _ = run(["kappa", "--bandwidth", "peak"], capsys)
        assert code == EXIT_OK
        rows = [line.split() for line in out.splitlines() if line and not line.startswith("#")]
        header, body = rows[0], rows[1:]
        assert len(body) == len(MODELS) * len(HARDWARE)
        for row in body:
            model, hw = M[row[0]], H[row[1]]
            assert row[2] == f"{kappa_model(model) / 1e6:.4f}"
            assert row[3] == f"{kappa_hw(hw, False) * 1e6:.4f}"
            assert row[4] == f"{kappa_crit(model, hw, False):.4f}"

    def test_sustained_flag_h100_measured(self, capsys):
        code, out, _ = run(
            [
                "kappa",
                "--models",
                "Llama-3.1-70B",
                "--hw",
                "H100-PCIe5-measured",
                "--bandwidth",
                "sustained",
            ],
            capsys,
        )
        assert code == EXIT_OK
        row = [line for line in out.splitlines() if "Llama-3.1-70B" in line][0]
        kc = float(row.split()[-1])
        assert kc == pytest.approx(3.3, rel=0.10)

    def test_si_flag(self, capsys):
        code, out, _ = run(
            ["kappa", "--models", "Llama-3.1-70B", "--hw", "H100-PCIe5", "--si"], capsys
        )
        assert code == EXIT_OK
        assert "B/FLOP" in out

    def test_unknown_model_lists_available(self, capsys):
        code, _, err = run(["kappa", "--models", "nope"], capsys)
        assert code == EXIT_DATA
        assert "unknown model" in err
        assert "Qwen3-235B-A22B" in err

    def test_manifest_present(self, capsys):
        _, out, _ = run(["kappa", "--models", "DeepSeek-V3", "--hw", "A100-PCIe4"], capsys)
        manifest_lines = [line for line in out.splitlines() if line.startswith("# manifest")]
        assert len(manifest_lines) == 1
        doc = json.loads(manifest_lines[0].removeprefix("# manifest "))
        assert doc["tool"].startswith("kvroof")
        assert doc["catalog_sha256"]

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kappa", "--bandwidth", "warp"])
        assert exc.value.code == 2


class TestRooflineCommand:
    def test_writes_csv_with_single_flip(self, tmp_path, capsys):
        out_path = tmp_path / "roof.csv"
        code, _, _ = run(
            ["roofline", "--model", "Qwen3-235B-A22B", "--hw", "H100-PCIe5,B200-PCIe5",
             "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# manifest")
        reader = csv.DictReader(lines[1:])
        per_hw = {}
        for row in reader:
            per_hw.setdefault(row["hardware"], []).append(row["regime"])
        for regimes in per_hw.values():
            flips = sum(
                1 for a, b in zip(regimes, regimes[1:]) if a == "compute-bound" and b == "bandwidth-bound"
            )
            assert flips == 1

    def test_what_if_entries_scale_flip(self, tmp_path, capsys):
        out_path = tmp_path / "whatif.csv"
        code, _, _ = run(
            ["roofline", "--model", "Qwen3-235B-A22B",
             "--hw", "H100-PCIe5,GH-NVLink-C2C,Unified-HBM", "--bandwidth", "peak",
             "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_path.read_text().splitlines()[1:]))
        crit = {r["hardware"]: float(r["kappa_crit"]) for r in rows}
        assert crit["GH-NVLink-C2C"] / crit["H100-PCIe5"] == pytest.approx(5.3, abs=0.3)
        assert crit["Unified-HBM"] / crit["GH-NVLink-C2C"] == pytest.approx(9, abs=0.5)

    def test_unwritable_out_is_data_error(self, tmp_path, capsys):
        code, _, err = run(
            ["roofline", "--model", "DeepSeek-V3", "--out", str(tmp_path / "no" / "dir.csv")],
            capsys,
        )
        assert code == EXIT_DATA
        assert "error" in err

    @pytest.mark.parametrize("name", ["all", "Llama-3.1-70B,Qwen3-30B-A3B"])
    def test_model_takes_one_catalog_name(self, tmp_path, capsys, name):
        # a list or "all" once wrote the first model's sweep alone, without a word
        out_path = tmp_path / "roof.csv"
        code, _, err = run(["roofline", "--model", name, "--out", str(out_path)], capsys)
        assert code == EXIT_DATA
        assert err == f'error: unknown model "{name}"; available: {", ".join(sorted(M))}\n'
        assert not out_path.exists()


class TestAnalyzeCommand:
    def test_conversation_table(self, tmp_path, capsys):
        trace = tmp_path / "conv.jsonl"
        trace.write_text(
            json.dumps(
                {
                    "conversation_id": "t1",
                    "turns": [
                        {"query_tokens": 3, "response_tokens": 1},
                        {"query_tokens": 2, "response_tokens": 2},
                        {"query_tokens": 3, "response_tokens": 1},
                    ],
                }
            )
            + "\n"
        )
        records_csv = tmp_path / "records.csv"
        code, out, _ = run(
            ["analyze", str(trace), "--kind", "conversation", "--out", str(records_csv)], capsys
        )
        assert code == EXIT_OK
        assert "requests: 3" in out
        rows = list(csv.DictReader(records_csv.read_text().splitlines()[1:]))
        assert [(int(r["cached_tokens"]), int(r["prefill_tokens"])) for r in rows] == [
            (0, 3),
            (4, 2),
            (8, 3),
        ]

    def test_document_single(self, tmp_path, capsys):
        trace = tmp_path / "doc.jsonl"
        trace.write_text(json.dumps({"doc_id": "d", "doc_tokens": 64, "question_tokens": [8]}) + "\n")
        code, out, _ = run(["analyze", str(trace), "--kind", "document"], capsys)
        assert code == EXIT_OK
        assert "requests: 1" in out

    def test_empty_file_is_error(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        code, _, err = run(["analyze", str(trace), "--kind", "document"], capsys)
        assert code == EXIT_DATA

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"doc_id": "d", "doc_tokens": 5, "question_tokens": [1]}\nnot json\n')
        code, _, err = run(["analyze", str(trace), "--kind", "document"], capsys)
        assert code == EXIT_DATA
        assert "line 2" in err


    @given(
        source_id=st.text(alphabet=st.one_of(st.sampled_from(',"\r\n \t\x00\u2028'), st.characters())),
        cached=st.integers(0, 2**53),
        prefill=st.integers(1, 2**53),
    )
    @settings(max_examples=300, deadline=None)
    def test_row_is_what_csv_writer_writes(self, source_id, cached, prefill):
        record = RequestRecord(source_id, cached, prefill)
        expected = io.StringIO()
        csv.writer(expected).writerow([source_id, cached, prefill, repr(record.kappa_ratio)])
        assert _analysis_row(record) == expected.getvalue()


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["synth", "--profile", "sharegpt", "--rps", "5", "--duration", "4", "--seed", "9"]
        assert run(args + ["--out", str(a)], capsys)[0] == EXIT_OK
        assert run(args + ["--out", str(b)], capsys)[0] == EXIT_OK
        # identical bytes apart from the output path recorded in the manifest
        strip = lambda p: "\n".join(p.read_text().splitlines()[1:])
        assert strip(a) == strip(b)
        first = json.loads(a.read_text().splitlines()[0])
        assert first["_manifest"]["seed"] == 9

    def test_rerunning_manifest_command_reproduces_bytes(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        args = ["synth", "--profile", "finqa", "--rps", "3", "--duration", "5", "--seed", "1",
                "--out", str(out)]
        assert run(args, capsys)[0] == EXIT_OK
        original = out.read_bytes()
        manifest = json.loads(out.read_text().splitlines()[0])["_manifest"]
        replay = manifest["command"][1:]  # drop argv[0]
        assert run(replay, capsys)[0] == EXIT_OK
        assert out.read_bytes() == original

    def test_unknown_profile(self, tmp_path, capsys):
        code, _, err = run(
            ["synth", "--profile", "mystery", "--rps", "1", "--duration", "1",
             "--out", str(tmp_path / "x.jsonl")],
            capsys,
        )
        assert code == EXIT_DATA
        assert "unknown profile" in err


class TestSimulateCommand:
    def test_fixture_compare_three_vs_two(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code, out, _ = run(
            ["simulate", "--config", fixture_path("scheduling_fixture_config.json"),
             "--stream", fixture_path("scheduling_fixture_stream.jsonl"),
             "--compare", "--out", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK
        assert "fifo=3" in out and "utilization=2" in out
        doc = json.loads((out_dir / "comparison.json").read_text())
        counts = {p["policy"]: p["iterations"] for p in doc["comparison"]["policies"]}
        assert counts == {"fifo": 3, "utilization": 2}
        iter_csv = (out_dir / "iterations_fifo.csv").read_text().splitlines()
        assert iter_csv[1] == "iter,t_start,t_end,scheduled_tokens,vram_used_bytes,queue_depth"
        assert len(iter_csv) == 2 + 3

    def test_json_outputs_are_the_bytes_of_json_dumps(self, tmp_path):
        catalog = Catalog(M, H)
        config = _load_sim_config(fixture_path("scheduling_fixture_config.json"), catalog)
        comparison = compare_policies(config, read_stream(fixture_path("scheduling_fixture_stream.jsonl")))
        manifest = RunManifest(tool="kvroof test", command=["kvroof", "simulate", "--compare"], catalog="<bundled>",
                               catalog_sha256="0" * 64)
        for key, body in (("report", comparison.reports[0][1].to_dict()), ("comparison", comparison.to_dict())):
            path = tmp_path / f"{key}.json"
            _write_json(path, manifest, key, body)
            doc = {"manifest": manifest.as_dict(), key: body}
            assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def test_zero_length_stream_empty_report(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_dir = tmp_path / "sim"
        code, _, _ = run(
            ["simulate", "--config", fixture_path("scheduling_fixture_config.json"),
             "--stream", str(empty), "--out", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["report"]["completed"] == 0
        assert doc["report"]["iterations"] == 0

    def test_config_referencing_catalog_names(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "model": "Qwen3-235B-A22B",
                    "hardware": "H100-PCIe5-measured",
                    "bandwidth_mode": "sustained",
                    "token_budget": 4000,
                }
            )
        )
        stream = tmp_path / "one.jsonl"
        stream.write_text(
            json.dumps(
                {"source_id": "solo", "cached_tokens": 4096, "prefill_tokens": 64,
                 "arrival_time": 0.0}
            )
            + "\n"
        )
        out_dir = tmp_path / "sim"
        code, _, _ = run(
            ["simulate", "--config", str(config), "--stream", str(stream), "--out", str(out_dir)],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["report"]["completed"] == 1

    def test_config_catalog_mismatch(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "NoSuchModel", "hardware": "H100-PCIe5"}))
        stream = tmp_path / "s.jsonl"
        stream.write_text("")
        code, _, err = run(
            ["simulate", "--config", str(config), "--stream", str(stream),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == EXIT_DATA
        assert "NoSuchModel" in err


class TestColdStart:
    """Importing numpy costs a cold start about 50 ms; only synthesis needs it."""

    @pytest.mark.parametrize(
        "args",
        [
            ["kappa", "--out", "kappa.csv"],
            ["roofline", "--model", "DeepSeek-V3", "--out", "roofline.csv"],
            ["analyze", "conversation.jsonl", "--kind", "conversation", "--out", "records.csv"],
            ["simulate", "--config", fixture_path("scheduling_fixture_config.json"),
             "--stream", fixture_path("scheduling_fixture_stream.jsonl"), "--compare", "--out", "sim"],
        ],
        ids=["kappa", "roofline", "analyze", "simulate"],
    )
    def test_command_does_not_import_numpy(self, tmp_path, args):
        (tmp_path / "conversation.jsonl").write_text(
            '{"conversation_id": "c", "turns": [{"query_tokens": 3, "response_tokens": 1}]}\n'
        )
        script = (
            "import sys\n"
            "import kvroof.analytics, kvroof.roofline\n"
            "print('numpy' in sys.modules)\n"
            "import kvroof.cli\n"
            "code = kvroof.cli.main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "False", "import kvroof.analytics, kvroof.roofline imported numpy"
        assert lines[-1] == f"{EXIT_OK} False", f"kvroof {args[0]} imported numpy"


class TestCollector:
    """``main`` pauses the cyclic collector for the command and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("args, code", [(["kappa"], EXIT_OK), (["kappa", "--models", "Nope"], EXIT_DATA)],
                             ids=["exit-0", "exit-3"])
    def test_state_is_restored(self, capsys, monkeypatch, enabled, args, code):
        seen = []
        kappa = kvroof.cli._cmd_kappa
        monkeypatch.setattr(kvroof.cli, "_cmd_kappa", lambda *a: seen.append(gc.isenabled()) or kappa(*a))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert main(args) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert seen == [False]

    def test_state_is_restored_on_a_usage_error(self, capsys):
        was = gc.isenabled()
        with pytest.raises(SystemExit):
            main(["kappa", "--no-such-option"])
        assert gc.isenabled() is was
        capsys.readouterr()


class TestOptionsPerCommand:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--bandwidth", "peak", "--config", "c.json", "--stream", "s.jsonl", "--out", "o"],
            ["simulate", "--seed", "1", "--config", "c.json", "--stream", "s.jsonl", "--out", "o"],
            ["synth", "--bandwidth", "peak", "--rps", "1", "--duration", "1", "--out", "s.jsonl"],
            ["analyze", "--bandwidth", "peak", "t.jsonl", "--kind", "document"],
        ],
        ids=["simulate-bandwidth", "simulate-seed", "synth-bandwidth", "analyze-bandwidth"],
    )
    def test_option_nothing_reads_is_usage_error(self, args, capsys):
        # simulate takes its bandwidth from the config's bandwidth_mode
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    def test_policy_and_compare_are_exclusive(self, capsys):
        # --compare runs every policy, so a --policy beside it would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", "c.json", "--stream", "s.jsonl", "--out", "o",
                  "--policy", "utilization", "--compare"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_default_policy_and_compare_are_exclusive(self, capsys):
        # "fifo" is the default policy, but given beside --compare it is still ignored
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", "c.json", "--stream", "s.jsonl", "--out", "o",
                  "--policy", "fifo", "--compare"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestCatalogSelection:
    def test_env_var_catalog(self, tmp_path, capsys, monkeypatch):
        models, hardware = default_catalog()
        trimmed = tmp_path / "cat.json"
        trimmed.write_text(catalog_json(models[:1], hardware[:1]))
        monkeypatch.setenv("KVROOF_CATALOG", str(trimmed))
        code, out, _ = run(["kappa"], capsys)
        assert code == EXIT_OK
        rows = [line for line in out.splitlines() if line and not line.startswith(("#", "model"))]
        assert len(rows) == 1

    def test_catalog_flag_overrides(self, tmp_path, capsys):
        models, hardware = default_catalog()
        trimmed = tmp_path / "cat.json"
        trimmed.write_text(catalog_json(models[:2], hardware[:3]))
        code, out, _ = run(["kappa", "--catalog", str(trimmed)], capsys)
        assert code == EXIT_OK
        rows = [line for line in out.splitlines() if line and not line.startswith(("#", "model"))]
        assert len(rows) == 6


PLATFORM = {"model": "Qwen3-30B-A3B", "hardware": "Unified-HBM"}
GOOD_LINE = '{"source_id": "a", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": 0.0}\n'
# An integer of 401 digits, as refusals show it: its first SHOWN_CHARS characters.
HUGE_COUNT = "1" + "0" * 99 + "... (cut; 401 characters in all)"
INLINE_HW = {"name": "x", "compute_throughput": 1e15, "link_bandwidth_peak": 1e11,
             "vram_effective": 1e10, "bogus": 1}

# (config, as an object or as its text, or the command's arguments for kappa,
# roofline and synth; input text; command kind): each must be refused with exit 3.
BAD_INPUTS = {
    "non-numeric token_budget": ({**PLATFORM, "token_budget": "lots"}, GOOD_LINE, "simulate"),
    "typo key": ({**PLATFORM, "tokn_budget": 100}, GOOD_LINE, "simulate"),
    "power block": ({**PLATFORM, "power": {"idle_watts": 1, "peak_watts": 2}}, GOOD_LINE, "simulate"),
    "aging block": ({**PLATFORM, "aging": {"credit_per_second": 1, "credit_weight": 1}}, GOOD_LINE, "simulate"),
    "inline hardware unknown field": ({**PLATFORM, "hardware": INLINE_HW}, GOOD_LINE, "simulate"),
    "non-integer cached_tokens": (
        PLATFORM,
        '{"source_id": "a", "cached_tokens": "abc", "prefill_tokens": 5, "arrival_time": 0.0}\n',
        "simulate",
    ),
    "fractional cached_tokens": (
        PLATFORM,
        '{"source_id": "a", "cached_tokens": 1.9, "prefill_tokens": 5, "arrival_time": 0.0}\n',
        "simulate",
    ),
    "boolean arrival_time": (
        PLATFORM,
        '{"source_id": "a", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": true}\n',
        "simulate",
    ),
    "string arrival_time": (
        PLATFORM,
        '{"source_id": "a", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": "2.5"}\n',
        "simulate",
    ),
    "non-integer query_tokens": (None, '{"conversation_id": "c", "turns": [{"query_tokens": "x"}]}\n', "analyze"),
    "NaN arrival": (
        PLATFORM,
        GOOD_LINE + '{"source_id": "b", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": NaN}\n',
        "simulate",
    ),
    "infinite arrival": (
        PLATFORM,
        GOOD_LINE + '{"source_id": "b", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": Infinity}\n',
        "simulate",
    ),
    "duplicate id": (PLATFORM, GOOD_LINE + GOOD_LINE, "simulate"),
    "output directory is a file": (PLATFORM, GOOD_LINE, "simulate into a file"),
    "non-object config root": ([PLATFORM], GOOD_LINE, "simulate"),
    "non-numeric vram_effective": ({**PLATFORM, "vram_effective": "big"}, GOOD_LINE, "simulate"),
    "infinite token_budget": ({**PLATFORM, "token_budget": math.inf}, GOOD_LINE, "simulate"),
    "string allow_chunked_prefill": ({**PLATFORM, "allow_chunked_prefill": "false"}, GOOD_LINE, "simulate"),
    "fractional token_budget": ({**PLATFORM, "token_budget": 4000.7}, GOOD_LINE, "simulate"),
    "integral float token_budget": ({**PLATFORM, "token_budget": 4000.0}, GOOD_LINE, "simulate"),
    "boolean token_budget": ({**PLATFORM, "token_budget": True}, GOOD_LINE, "simulate"),
    "string token_budget": ({**PLATFORM, "token_budget": "50"}, GOOD_LINE, "simulate"),
    "token_budget beyond 64 bits": ({**PLATFORM, "token_budget": 2**63}, GOOD_LINE, "simulate"),
    "boolean overlap_alpha": ({**PLATFORM, "overlap_alpha": True}, GOOD_LINE, "simulate"),
    "string overlap_alpha": ({**PLATFORM, "overlap_alpha": "0.5"}, GOOD_LINE, "simulate"),
    "boolean vram_effective": ({**PLATFORM, "vram_effective": True}, GOOD_LINE, "simulate"),
    "numeric string vram_effective": ({**PLATFORM, "vram_effective": "1e12"}, GOOD_LINE, "simulate"),
    "NaN vram_effective": ({**PLATFORM, "vram_effective": math.nan}, GOOD_LINE, "simulate"),
    "inline hardware boolean compute_throughput": (
        {**PLATFORM, "hardware": {"name": "x", "compute_throughput": True, "link_bandwidth_peak": 1e11,
                                  "vram_effective": 1e10}},
        GOOD_LINE,
        "simulate",
    ),
    "misspelled response_tokens": (
        None, '{"conversation_id": "c", "turns": [{"query_tokens": 5, "respons_tokens": 100}]}\n', "analyze"
    ),
    "extra conversation key": (
        None, '{"conversation_id": "c", "turns": [{"query_tokens": 5}], "title": "x"}\n', "analyze"
    ),
    "integral float query_tokens": (None, '{"conversation_id": "c", "turns": [{"query_tokens": 5.0}]}\n', "analyze"),
    "document questions key": (
        None, '{"doc_id": "d", "doc_tokens": 5, "question_tokens": [1], "questions": ["q"]}\n', "analyze document"
    ),
    "integral float doc_tokens": (
        None, '{"doc_id": "d", "doc_tokens": 5.0, "question_tokens": [1]}\n', "analyze document"
    ),
    "string turns": (None, '{"conversation_id": "c", "turns": "ab"}\n', "analyze"),
    "object turns": (None, '{"conversation_id": "c", "turns": {"a": 1}}\n', "analyze"),
    "integer question_tokens": (None, '{"doc_id": "d", "doc_tokens": 5, "question_tokens": 5}\n', "analyze document"),
    "unknown stream key": (
        PLATFORM,
        '{"source_id": "a", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": 0.0, "cached_token": 3}\n',
        "simulate",
    ),
    "integral float cached_tokens": (
        PLATFORM,
        '{"source_id": "a", "cached_tokens": 10.0, "prefill_tokens": 5, "arrival_time": 0.0}\n',
        "simulate",
    ),
    "manifest key beside request keys": (
        PLATFORM,
        '{"_manifest": {}, "source_id": "a", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": 0.0}\n'
        + GOOD_LINE.replace('"a"', '"b"'),
        "simulate",
    ),
    "roofline zero points per decade": (["--points-per-decade", "0"], "", "roofline"),
    "roofline negative kappa_min": (["--kappa-min", "-1"], "", "roofline"),
    "roofline NaN kappa_min": (["--kappa-min", "nan"], "", "roofline"),
    "roofline kappa_min above kappa_max": (["--kappa-min", "10", "--kappa-max", "1"], "", "roofline"),
    "roofline infinite kappa_max": (["--kappa-max", "inf"], "", "roofline"),
    "roofline grid ratio overflows": (["--kappa-min", "1e-320"], "", "roofline"),
    "roofline zero arithmetic intensity": (["--kappa-max", "1e304"], "", "roofline"),
    # 10 ** log10(largest float) rounds past the float range; the grid refuses it rather than raise OverflowError
    "roofline grid point overflows": (
        ["--kappa-min", "1", "--kappa-max", "1.7976931348623157e308", "--points-per-decade", "1"], "", "roofline"
    ),
    "synth infinite duration": (["--rps", "10", "--duration", "inf"], "", "synth"),
    "synth infinite rps": (["--rps", "inf", "--duration", "1"], "", "synth"),
    "synth rps times duration overflows": (["--rps", "1e200", "--duration", "1e200"], "", "synth"),
    "synth stream too large": (["--rps", "1e18", "--duration", "10"], "", "synth"),
    "synth negative seed": (["--rps", "10", "--duration", "1", "--seed", "-1"], "", "synth"),
    "roofline grid too large": (["--points-per-decade", "1000000000000000000"], "", "roofline"),
    "roofline points per decade overflow a float": (["--points-per-decade", "1" + "0" * 400], "", "roofline"),
    "kappa repeated model": (["--models", "Llama-3.1-70B,Llama-3.1-70B", "--hw", "A100-PCIe4"], "", "kappa"),
    "roofline repeated hardware": (["--hw", "A100-PCIe4, A100-PCIe4"], "", "roofline"),
    "empty catalog file": (["--catalog", "input.jsonl"], "", "kappa"),
    "config repeated key": (
        '{"model": "Qwen3-30B-A3B", "model": "Llama-3.1-70B", "hardware": "Unified-HBM"}', GOOD_LINE, "simulate"
    ),
    "stream repeated key": (
        PLATFORM,
        '{"source_id": "a", "source_id": "b", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": 0.0}\n',
        "simulate",
    ),
    "conversation repeated key": (
        None, '{"conversation_id": "c", "turns": [{"query_tokens": 5}], "turns": [{"query_tokens": 7}]}\n', "analyze"
    ),
    "document repeated key": (
        None, '{"doc_id": "d", "doc_tokens": 5, "question_tokens": [1], "doc_tokens": 6}\n', "analyze document"
    ),
}

VALID_CONFIG = {**PLATFORM, "token_budget": 100}
VALID_CONVERSATION = {"conversation_id": "c", "turns": [{"query_tokens": 5, "response_tokens": 2}]}
VALID_DOCUMENT = {"doc_id": "d", "doc_tokens": 100, "question_tokens": [4, 5]}
VALID_REQUEST = {"source_id": "a", "cached_tokens": 10, "prefill_tokens": 5, "arrival_time": 0.0}

# Each kind of object a config, trace or stream holds: a valid one, the start of its key errors, its required keys.
KEY_KINDS = {
    "config": (VALID_CONFIG, "config", ("model", "hardware")),
    "conversation": (VALID_CONVERSATION, "bad conversation object: conversation", ("conversation_id", "turns")),
    "turn": (VALID_CONVERSATION["turns"][0], "bad conversation object: turn", ("query_tokens",)),
    "document": (VALID_DOCUMENT, "bad document object: document", ("doc_id", "doc_tokens", "question_tokens")),
    "request": (VALID_REQUEST, "bad request record: request", ("source_id", "cached_tokens", "prefill_tokens")),
}


def _without(kind: str, key: str) -> tuple:
    """The BAD_INPUTS entry for a ``kind`` object that lacks ``key``; a turn sits in a valid conversation."""
    obj = {k: v for k, v in KEY_KINDS[kind][0].items() if k != key}
    if kind == "config":
        return obj, GOOD_LINE, "simulate"
    if kind == "request":
        return PLATFORM, json.dumps(obj) + "\n", "simulate"
    line = {**VALID_CONVERSATION, "turns": [obj]} if kind == "turn" else obj
    return None, json.dumps(line) + "\n", "analyze document" if kind == "document" else "analyze"


# The end of the error for each missing required key.
MISSING_KEY_TEXTS = {
    f"{kind} without {key}": f"{where}: missing key(s) ['{key}']; required: {', '.join(required)}"
    for kind, (_, where, required) in KEY_KINDS.items()
    for key in required
}
BAD_INPUTS.update({case: _without(*case.split(" without ")) for case in MISSING_KEY_TEXTS})

# The BAD_INPUTS whose error comes from one line of the input file, which it names.
BAD_LINES = {
    "non-integer cached_tokens", "fractional cached_tokens", "boolean arrival_time", "string arrival_time",
    "non-integer query_tokens", "misspelled response_tokens", "extra conversation key",
    "integral float query_tokens", "document questions key", "integral float doc_tokens", "unknown stream key",
    "integral float cached_tokens", "manifest key beside request keys", "string turns", "object turns",
    "integer question_tokens", "stream repeated key", "conversation repeated key", "document repeated key",
} | {case for case in MISSING_KEY_TEXTS if not case.startswith("config")}

# The whole error line of some BAD_INPUTS; ``{data}`` is the input file. The repeats once
# exited 0: kappa wrote the row twice, roofline the series twice, and json.loads kept a
# repeated key's last value, so the config ran Llama-3.1-70B, the stream request 'b', the
# conversation one turn of T = 7 and the document 6 tokens.
ERROR_TEXTS = {
    "kappa repeated model": 'model names must be distinct, got "Llama-3.1-70B,Llama-3.1-70B"',
    "roofline repeated hardware": 'hardware names must be distinct, got "A100-PCIe4, A100-PCIe4"',
    "roofline zero arithmetic intensity": "arithmetic intensity must be > 0, got 0.0",
    "roofline grid point overflows": "each kappa_ratio must be a finite number > 0, got Infinity",
    "empty catalog file": "input.jsonl: invalid JSON at line 1: Expecting value",
    "config repeated key": "config.json: a JSON object repeats key 'model'",
    "stream repeated key": "{data}: line 1: bad request record: a JSON object repeats key 'source_id'",
    "conversation repeated key": "{data}: line 1: bad conversation object: a JSON object repeats key 'turns'",
    "document repeated key": "{data}: line 1: bad document object: a JSON object repeats key 'doc_tokens'",
}

# The BAD_INPUTS whose stream fault only the simulator finds; simulate names the stream file.
BAD_STREAMS = {"duplicate id", "NaN arrival", "infinite arrival"}

# Each file simulate reads, with a byte that is never UTF-8: "\xff".
NOT_UTF8 = {
    "stream": GOOD_LINE.encode()
    + b'{"source_id": "b\xff", "cached_tokens": 1, "prefill_tokens": 1, "arrival_time": 1.0}\n',
    "config": b'{"model": "Qwen3-30B-A3B\xff", "hardware": "Unified-HBM"}',
    "catalog": b'{"models": [], "hardware": [], "\xff": 1}',
}


class TestErrorContract:
    """Bad input exits 3 with an ``error:`` line, never a traceback or a hang."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_3(self, tmp_path, case):
        config, text, kind = BAD_INPUTS[case]
        data = tmp_path / "input.jsonl"
        data.write_text(text)
        if kind.startswith("analyze"):
            args = ["analyze", str(data), "--kind", "document" if kind == "analyze document" else "conversation"]
        elif kind == "kappa":
            args = ["kappa", *config]
        elif kind == "roofline":
            args = ["roofline", "--model", "Llama-3.1-70B", *config, "--out", "roofline.csv"]
        elif kind == "synth":
            args = ["synth", *config, "--out", "stream.jsonl"]
        else:
            (tmp_path / "config.json").write_text(config if isinstance(config, str) else json.dumps(config))
            if kind == "simulate into a file":
                (tmp_path / "out").write_text("")
            args = ["simulate", "--config", "config.json", "--stream", str(data), "--out", "out"]
        proc = subprocess.run(
            [sys.executable, "-m", "kvroof.cli", *args],
            cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == EXIT_DATA, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr + proc.stdout
        if case in BAD_LINES:
            assert f"{data}: line 1: " in proc.stderr
        if case in BAD_STREAMS:
            assert f"{data}: " in proc.stderr
        if case in MISSING_KEY_TEXTS:
            where = "config.json" if case.startswith("config") else f"{data}: line 1"
            assert proc.stderr == f"error: {where}: {MISSING_KEY_TEXTS[case]}\n"
        if case in ERROR_TEXTS:
            assert proc.stderr == f"error: {ERROR_TEXTS[case].format(data=data)}\n"

    def test_non_object_trace_line_shows_the_value(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("[1]\n")
        code, _, err = run(["analyze", str(trace), "--kind", "conversation"], capsys)
        assert code == EXIT_DATA
        assert err == f"error: {trace}: line 1: bad conversation object: conversation must be a JSON object, got [1]\n"

    def test_roofline_grid_refusal_reads_as_json(self, tmp_path, capsys):
        code, _, err = run(["roofline", "--model", "Llama-3.1-70B", "--kappa-min", "nan",
                            "--out", str(tmp_path / "r.csv")], capsys)
        assert code == EXIT_DATA
        assert err == "error: kappa_min must be a finite number > 0, got NaN\n"

    def test_stream_without_arrivals_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(PLATFORM))
        stream = tmp_path / "input.jsonl"
        stream.write_text('{"source_id": "a", "cached_tokens": 10, "prefill_tokens": 5}\n')
        code, _, err = run(["simulate", "--config", str(config), "--stream", str(stream),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DATA
        assert err == f"error: {stream}: request 'a' has no arrival_time\n"

    @pytest.mark.parametrize("bad", sorted(NOT_UTF8))
    def test_bytes_that_are_not_utf8_exit_3(self, tmp_path, capsys, bad):
        good = {"stream": GOOD_LINE.encode(), "config": json.dumps(PLATFORM).encode(),
                "catalog": default_catalog_text().encode()}
        for name, data in good.items():
            (tmp_path / name).write_bytes(NOT_UTF8[name] if name == bad else data)
        code, _, err = run(["simulate", "--catalog", str(tmp_path / "catalog"), "--config", str(tmp_path / "config"),
                            "--stream", str(tmp_path / "stream"), "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {tmp_path / bad}: " + ("line 2: " if bad == "stream" else ""))
        assert "not UTF-8" in err

    @pytest.mark.parametrize("name, model", [("m5.json", 5), ("mn.json", "Nope")])
    def test_spec_errors_name_the_config_file_once(self, tmp_path, capsys, name, model):
        config = tmp_path / name
        config.write_text(json.dumps({"model": model, "hardware": "Unified-HBM"}))
        stream = tmp_path / "input.jsonl"
        stream.write_text(GOOD_LINE)
        code, _, err = run(["simulate", "--config", str(config), "--stream", str(stream),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {config}: ")
        assert err.count(name) == 1

    @pytest.mark.parametrize("key, value, shown", [
        ("token_budget", True, "got true"),
        ("token_budget", 2**63, "must be an integer in [1, 9223372036854775807], got 9223372036854775808"),
        ("allow_chunked_prefill", "false", 'got "false"'),
        ("overlap_alpha", math.nan, "got NaN"),
    ])
    def test_bad_config_value_reads_as_json(self, tmp_path, capsys, key, value, shown):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**PLATFORM, key: value}))
        stream = tmp_path / "input.jsonl"
        stream.write_text(GOOD_LINE)
        code, _, err = run(["simulate", "--config", str(config), "--stream", str(stream),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DATA
        assert err.rstrip().endswith(shown)

    def test_removed_key_is_named(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BAD_INPUTS["aging block"][0]))
        stream = tmp_path / "input.jsonl"
        stream.write_text(GOOD_LINE)
        code, _, err = run(["simulate", "--config", str(config), "--stream", str(stream),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DATA
        assert "unknown key(s) ['aging']" in err

    def test_inline_spec_missing_key_is_named(self, tmp_path, capsys):
        # was "hardware: HardwareSpec.__init__() missing 1 required positional argument: 'link_bandwidth_peak'"
        config = tmp_path / "config.json"
        hardware = {k: v for k, v in INLINE_HW.items() if k not in ("bogus", "link_bandwidth_peak")}
        config.write_text(json.dumps({**PLATFORM, "hardware": hardware}))
        stream = tmp_path / "input.jsonl"
        stream.write_text(GOOD_LINE)
        code, _, err = run(["simulate", "--config", str(config), "--stream", str(stream),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DATA
        assert err == (f"error: {config}: hardware: missing key(s) ['link_bandwidth_peak']; "
                       "required: name, compute_throughput, link_bandwidth_peak, vram_effective\n")

    @pytest.mark.parametrize("command", ["kappa", "simulate"])
    def test_platform_without_vram_effective_misses_the_key(self, tmp_path, capsys, command):
        # was "vram_effective must be a number > 0, got 0.0", a value the input never held
        hardware = {k: v for k, v in CATALOG_HW.items() if k != "vram_effective"}
        path = tmp_path / "input.json"
        if command == "kappa":
            path.write_text(json.dumps({"models": [CATALOG_MODEL], "hardware": [hardware]}))
            code, _, err = run(["kappa", "--catalog", str(path)], capsys)
            where = "hardware[0]"
        else:
            path.write_text(json.dumps({**PLATFORM, "hardware": hardware}))
            (tmp_path / "s.jsonl").write_text(GOOD_LINE)
            code, _, err = run(["simulate", "--config", str(path), "--stream", str(tmp_path / "s.jsonl"),
                                "--out", str(tmp_path / "out")], capsys)
            where = "hardware"
        assert code == EXIT_DATA
        assert err == (f"error: {path}: {where}: missing key(s) ['vram_effective']; "
                       "required: name, compute_throughput, link_bandwidth_peak, vram_effective\n")

    @pytest.mark.parametrize("value, shown", [("NaN", "NaN"), ("-Infinity", "-Infinity"),
                                              ("1" + "0" * 400, HUGE_COUNT)])
    def test_bad_arrival_is_refused_by_the_reader(self, tmp_path, capsys, value, shown):
        # a non-finite arrival was refused by the simulator, without the line
        stream = tmp_path / "s.jsonl"
        stream.write_text(GOOD_LINE + GOOD_LINE.replace('"a"', '"b"').replace("0.0", value))
        (tmp_path / "config.json").write_text(json.dumps(PLATFORM))
        code, _, err = run(["simulate", "--config", str(tmp_path / "config.json"), "--stream", str(stream),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DATA
        assert err == (f"error: {stream}: line 2: bad request record: request 'b': arrival_time must be "
                       f"a finite number or null, got {shown}\n")

    @pytest.mark.parametrize("kind", ["catalog", "config", "stream", "conversation", "document"])
    def test_too_deep_json_exits_3(self, tmp_path, capsys, kind):
        # 10^5 "[" once ended in a RecursionError traceback with exit 1
        files = {"catalog": default_catalog_text(), "config": json.dumps(PLATFORM), "stream": GOOD_LINE,
                 "conversation": json.dumps(VALID_CONVERSATION), "document": json.dumps(VALID_DOCUMENT)}
        files[kind] = "[" * 10**5
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        if kind in ("conversation", "document"):
            args = ["analyze", str(tmp_path / kind), "--kind", kind]
        else:
            args = ["simulate", "--catalog", str(tmp_path / "catalog"), "--config", str(tmp_path / "config"),
                    "--stream", str(tmp_path / "stream"), "--out", str(tmp_path / "out")]
        code, _, err = run(args, capsys)
        assert code == EXIT_DATA
        line = "" if kind in ("catalog", "config") else "line 1: "
        assert err == f"error: {tmp_path / kind}: {line}JSON nested too deeply to read\n"


class TestOversizedInputs:
    """Counts no float holds and values too long to show exit 3 with one short line naming the field."""

    def simulate(self, tmp_path, capsys, config, stream_text):
        (tmp_path / "config.json").write_text(json.dumps(config))
        (tmp_path / "s.jsonl").write_text(stream_text)
        return run(["simulate", "--config", str(tmp_path / "config.json"), "--stream", str(tmp_path / "s.jsonl"),
                    "--out", str(tmp_path / "out")], capsys)

    def test_stream_count_beyond_max_tokens(self, tmp_path, capsys):
        # was an OverflowError traceback with exit 1
        line = json.dumps({**VALID_REQUEST, "cached_tokens": 10**400}) + "\n"
        code, _, err = self.simulate(tmp_path, capsys, PLATFORM, line)
        assert code == EXIT_DATA
        assert err == (f"error: {tmp_path / 's.jsonl'}: line 1: bad request record: request 'a': cached_tokens "
                       f"must be an integer <= 9007199254740992, got {HUGE_COUNT}\n")

    def test_stream_count_at_max_tokens_is_read(self, tmp_path, capsys):
        line = json.dumps({**VALID_REQUEST, "cached_tokens": 2**53}) + "\n"
        code, out, _ = self.simulate(tmp_path, capsys, PLATFORM, line)
        assert code == EXIT_OK
        assert "completed 0, rejected 1" in out

    def test_document_count_beyond_max_tokens(self, tmp_path, capsys):
        # was an OverflowError traceback with exit 1
        trace = tmp_path / "d.jsonl"
        trace.write_text(json.dumps({**VALID_DOCUMENT, "doc_tokens": 10**400}) + "\n")
        code, _, err = run(["analyze", str(trace), "--kind", "document"], capsys)
        assert code == EXIT_DATA
        assert err == (f"error: {trace}: line 1: bad document object: document 'd': doc_tokens "
                       f"must be an integer <= 9007199254740992, got {HUGE_COUNT}\n")

    def test_conversation_history_beyond_max_tokens(self, tmp_path, capsys):
        trace = tmp_path / "c.jsonl"
        turns = [{"query_tokens": 2**53, "response_tokens": 2**53}, {"query_tokens": 1}]
        trace.write_text(json.dumps({"conversation_id": "c", "turns": turns}) + "\n")
        code, _, err = run(["analyze", str(trace), "--kind", "conversation"], capsys)
        assert code == EXIT_DATA
        assert err == (f"error: {trace}: line 1: bad conversation object: request 'c/turn2': cached_tokens "
                       f"must be an integer <= 9007199254740992, got 18014398509481984\n")

    def test_integer_of_more_digits_than_python_reads(self, tmp_path, capsys):
        # was a ValueError traceback with exit 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(PLATFORM)[:-1] + ', "token_budget": ' + "9" * 5000 + "}")
        (tmp_path / "s.jsonl").write_text(GOOD_LINE)
        code, _, err = run(["simulate", "--config", str(config), "--stream", str(tmp_path / "s.jsonl"),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DATA
        assert err.startswith(f"error: {config}: Exceeds the limit (4300 digits) for integer string conversion")
        assert err.count("\n") == 1

    def test_long_value_is_cut(self, tmp_path, capsys):
        # the whole array was shown: an error line of 3 MB
        code, _, err = self.simulate(tmp_path, capsys, {**PLATFORM, "model": [0] * 10**6}, GOOD_LINE)
        assert code == EXIT_DATA
        shown = "[" + "0, " * 33 + "... (cut; 3000000 characters in all)"
        assert err == (f"error: {tmp_path / 'config.json'}: model must be a catalog name or an inline object, "
                       f"got {shown}\n")

    def test_trace_without_requests_names_the_file(self, tmp_path, capsys):
        trace = tmp_path / "d.jsonl"
        trace.write_text(json.dumps({**VALID_DOCUMENT, "question_tokens": []}) + "\n")
        code, _, err = run(["analyze", str(trace), "--kind", "document"], capsys)
        assert code == EXIT_DATA
        assert err == f"error: {trace}: trace produced no requests\n"

    @pytest.mark.parametrize("table, key, text", [
        ("models", "layers", "model 'm': layers must be an integer <= 9007199254740992"),
        ("hardware", "compute_throughput", "hardware 'h': compute_throughput must be a number > 0"),
    ])
    def test_catalog_number_beyond_floats(self, tmp_path, capsys, table, key, text):
        # was an OverflowError traceback with exit 1
        entries = {"models": dict(CATALOG_MODEL), "hardware": dict(CATALOG_HW)}
        entries[table][key] = 10**400
        catalog = tmp_path / "c.json"
        catalog.write_text(json.dumps({name: [entry] for name, entry in entries.items()}))
        code, _, err = run(["kappa", "--catalog", str(catalog)], capsys)
        assert code == EXIT_DATA
        assert err == f"error: {catalog}: {table}[0]: {text}, got {HUGE_COUNT}\n"

    def test_long_id_is_cut(self, tmp_path, capsys):
        # the whole id was shown: an error line of 1 MB
        line = json.dumps({**VALID_REQUEST, "source_id": "a" * 10**6, "cached_tokens": -1}) + "\n"
        code, _, err = self.simulate(tmp_path, capsys, PLATFORM, line)
        assert code == EXIT_DATA
        shown = "'" + "a" * 100 + "... (cut; 1000000 characters in all)'"
        assert err == (f"error: {tmp_path / 's.jsonl'}: line 1: bad request record: request {shown}: "
                       "cached_tokens must be an integer >= 0, got -1\n")

    def test_long_unknown_key_is_cut(self, tmp_path, capsys):
        # the whole key was shown: an error line of 1 MB
        code, _, err = self.simulate(tmp_path, capsys, {**PLATFORM, "k" * 10**6: 1}, GOOD_LINE)
        assert code == EXIT_DATA
        shown = "['" + "k" * 98 + "... (cut; 1000004 characters in all)"
        assert err.startswith(f"error: {tmp_path / 'config.json'}: config: unknown key(s) {shown}; accepted: ")
        assert len(err) < 500


CATALOG_MODEL = {"name": "m", "total_params": 10, "active_params": 10, "attention_kind": "GQA", "layers": 2,
                 "kv_heads": 1, "head_dim": 1, "precision_bytes": 2}
CATALOG_HW = {"name": "h", "compute_throughput": 1e15, "link_bandwidth_peak": 32e9, "vram_effective": 1e9,
              "tdp_watts": 300, "idle_watts": 50}

# Each kind of JSON object kvroof reads: a valid one with every key it takes, the file that holds it, and
# how it sits in that file.
FUZZ_KINDS = {
    "model": (CATALOG_MODEL, "catalog.json", lambda o: {"models": [o], "hardware": [CATALOG_HW]}),
    "hardware": (CATALOG_HW, "catalog.json", lambda o: {"models": [CATALOG_MODEL], "hardware": [o]}),
    "config": ({**VALID_CONFIG, "vram_effective": 1e10, "bandwidth_mode": "peak", "overlap_alpha": 0.5,
                "allow_chunked_prefill": False}, "config.json", lambda o: o),
    "conversation": (VALID_CONVERSATION, "trace.jsonl", lambda o: o),
    "turn": (VALID_CONVERSATION["turns"][0], "trace.jsonl", lambda o: {**VALID_CONVERSATION, "turns": [o]}),
    "document": (VALID_DOCUMENT, "trace.jsonl", lambda o: o),
    "request": (VALID_REQUEST, "stream.jsonl", lambda o: o),
}
# A value of each JSON type, to put in place of another.
JSON_VALUES = [None, True, False, "x", "", 0, -1, 1.5, 2**53 + 1, [], [1], {}, {"a": 1}]
NEST = "\x00nest\x00"  # stands for a nested array in the object until it is written out


def nested_text(kind: str, key: str, depth: int) -> str:
    """The text of a ``kind`` file whose object holds ``depth`` nested arrays under ``key``."""
    valid, _, place = FUZZ_KINDS[kind]
    return json.dumps(place({**valid, key: NEST})).replace(json.dumps(NEST), "[" * depth + "]" * depth)


@st.composite
def mutated_text(draw, kind: str) -> str:
    """The text of a ``kind`` file whose object has one key dropped, renamed, retyped or nested deeply."""
    valid, _, place = FUZZ_KINDS[kind]
    obj = dict(valid)
    key = draw(st.sampled_from(sorted(obj)))
    how = draw(st.sampled_from(["drop", "rename", "retype", "nest"]))
    if how == "nest":
        return nested_text(kind, key, draw(st.sampled_from([2, 10**5])))
    if how == "drop":
        del obj[key]
    elif how == "rename":
        new = draw(st.text(max_size=12))
        obj = {new if k == key else k: v for k, v in obj.items()}
    else:
        obj[key] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(place(obj))


class TestMutatedInputs:
    """A valid object of each kind, mutated once, is read (exit 0) or refused with one error line (exit 3)."""

    def check(self, tmp_path, kind, text):
        files = {"catalog.json": "", "config.json": json.dumps(PLATFORM), "stream.jsonl": GOOD_LINE,
                 "trace.jsonl": ""}
        name = FUZZ_KINDS[kind][1]
        files[name] = text
        for file, content in files.items():
            (tmp_path / file).write_text(content, encoding="utf-8")
        path = tmp_path / name
        if kind in ("model", "hardware"):
            args = ["kappa", "--catalog", str(path)]
        elif kind in ("conversation", "turn", "document"):
            args = ["analyze", str(path), "--kind", "document" if kind == "document" else "conversation"]
        else:
            args = ["simulate", "--config", str(tmp_path / "config.json"), "--stream", str(tmp_path / "stream.jsonl"),
                    "--out", str(tmp_path / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        err = err.getvalue()
        assert code in (EXIT_OK, EXIT_DATA), err
        if code == EXIT_DATA:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            # Faults of a line name the line; two are faults of the whole file: a request only the
            # simulator refuses, and a trace without one request.
            whole_file = (f"error: {path}: request ", f"error: {path}: trace produced no requests")
            assert err.startswith(f"error: {path}: line 1: " if name.endswith(".jsonl") else f"error: {path}: ") or (
                name.endswith(".jsonl") and err.startswith(whole_file)), err

    @pytest.mark.parametrize("kind", sorted(FUZZ_KINDS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_0_or_3_with_one_error_line(self, tmp_path, kind, data):
        self.check(tmp_path, kind, data.draw(mutated_text(kind)))

    @pytest.mark.parametrize("kind", sorted(FUZZ_KINDS))
    def test_nesting_about_the_recursion_limit(self, tmp_path, kind):
        # the parser follows a value nested just short of the limit, and showing it in an error then recursed
        # deeper: those depths ended in a RecursionError traceback
        key = next(iter(FUZZ_KINDS[kind][0]))
        limit = sys.getrecursionlimit()
        for depth in range(limit - 150, limit + 1):
            self.check(tmp_path, kind, nested_text(kind, key, depth))


# A locale whose encoding is ASCII, with Python's UTF-8 mode and locale coercion off.
ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


class TestLocale:
    """Outputs are UTF-8 and stdout escapes what the locale cannot encode, whatever the locale."""

    def run_ascii(self, args, cwd):
        env = {k: v for k, v in subprocess_env().items() if k != "PYTHONIOENCODING"}
        proc = subprocess.run([sys.executable, "-m", "kvroof.cli", *args], cwd=cwd, env={**env, **ASCII_LOCALE},
                              capture_output=True, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert b"Traceback" not in proc.stdout + proc.stderr
        return proc.stdout

    def test_analyze_out(self, tmp_path):
        (tmp_path / "eur.jsonl").write_text('{"conversation_id": "c\u20ac", "turns": [{"query_tokens": 5}]}\n',
                                            encoding="utf-8")
        self.run_ascii(["analyze", "eur.jsonl", "--kind", "conversation", "--out", "eur.csv"], tmp_path)
        assert (tmp_path / "eur.csv").read_bytes().splitlines()[2] == "c\u20ac/turn1,0,5,0.0".encode()

    def test_kappa_out(self, tmp_path):
        models, hardware = default_catalog()
        catalog = catalog_json([dataclasses.replace(models[0], name="M\u20ac")], hardware[:1])
        (tmp_path / "cat.json").write_text(catalog, encoding="utf-8")
        stdout = self.run_ascii(["kappa", "--catalog", "cat.json", "--out", "k.csv"], tmp_path)
        assert stdout.splitlines()[1].startswith(b"M\\u20ac ")
        assert (tmp_path / "k.csv").read_bytes().splitlines()[2].startswith("M\u20ac,".encode())


def _text_mode_calls_without_encoding(path: Path) -> list[str]:
    """``open``, ``read_text`` and ``write_text`` calls in ``path`` that use text mode without ``encoding=``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if name not in ("open", "read_text", "write_text"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode) or Path(path).open(mode)
        mode = keywords.get("mode", node.args[at] if name == "open" and len(node.args) > at else None)
        if isinstance(mode, ast.Constant) and "b" in str(mode.value):
            continue  # binary
        if "encoding" not in keywords:
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_every_text_file_is_opened_with_an_encoding():
    sources = sorted(Path(kvroof.__file__).parent.glob("*.py"))
    assert sources
    assert [call for path in sources for call in _text_mode_calls_without_encoding(path)] == []


def _raises_of_other_errors(path: Path) -> list[str]:
    """``raise`` statements in ``path`` that raise neither a ``kvroof.errors`` class nor the
    ``error`` parameter of ``refuse``/``lookup``; a bare ``raise`` re-raises and passes."""
    package_errors = {name for name, cls in vars(kvroof.errors).items()
                      if isinstance(cls, type) and issubclass(cls, kvroof.errors.KvroofError)}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_helpers = {node for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                  and func.name in ("refuse", "lookup") for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = getattr(raised, "id", None)
        if name in package_errors or (name == "error" and node in in_helpers):
            continue
        found.append(f"{path.name}:{node.lineno} raise {ast.unparse(raised)}")
    return found


def test_every_raise_is_a_package_error():
    sources = sorted(Path(kvroof.__file__).parent.glob("*.py"))
    assert sources
    assert [r for path in sources for r in _raises_of_other_errors(path)] == []


def _values_quoted_by_hand(path: Path) -> list[str]:
    """F-string values in ``path`` put between single quotes by hand, ``'{x}'``, rather than
    through ``catalog.quote``, which cuts a long id, name, key or path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.JoinedStr):
            continue
        for before, value, after in zip(node.values, node.values[1:], node.values[2:]):
            if (isinstance(value, ast.FormattedValue) and isinstance(before, ast.Constant)
                    and isinstance(after, ast.Constant) and before.value.endswith("'")
                    and after.value.startswith("'")):
                found.append(f"{path.name}:{node.lineno} '{{{ast.unparse(value.value)}}}'")
    return found


def test_no_value_is_quoted_by_hand():
    sources = sorted(Path(kvroof.__file__).parent.glob("*.py"))
    assert sources
    assert [q for path in sources for q in _values_quoted_by_hand(path)] == []
