"""The benchmark's workloads: generated inputs, CLI steps, output checks and traced passes.

Each workload makes its inputs from the workload seed, names the ``kvroof``
CLI steps of one pass, checks what a pass wrote, and replays the same steps
in-process under a tracer. The traced replay calls only stable public names
of the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from kvroof.analytics import RequestShape, kappa_crit, kappa_hw, kappa_model, ttft
from kvroof.catalog import HardwareSpec, by_name, loads_catalog
from kvroof.roofline import roofline_sweep, write_series_csv
from kvroof.simulator import SimConfig, run_sim
from kvroof.workload import (
    PROFILES,
    expand_conversation,
    read_conversations,
    read_stream,
    summarize,
    synthesize_stream,
    write_stream,
)

from spans import Tracer

MODEL = "Qwen3-30B-A3B"
PLATFORM = "Unified-HBM"
POLICIES = ("fifo", "utilization")
# Roofline sweep range of the CLI defaults; every catalog pair flips inside it.
KAPPA_MIN, KAPPA_MAX = 0.1, 1e5


class SetupError(Exception):
    """Inputs for a workload could not be generated."""


@dataclass(frozen=True)
class Step:
    name: str
    argv: list[str]


def kvroof(*args: str) -> list[str]:
    return [sys.executable, "-m", "kvroof.cli", *args]


def bundled_catalog() -> str:
    """Text of the catalog that ships with the package."""
    return resources.files("kvroof").joinpath("data/default_catalog.json").read_text()


def catalog():
    return loads_catalog(bundled_catalog())


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _unique_keys(pairs: list) -> dict:
    out = dict(pairs)
    if len(out) != len(pairs):
        raise ValueError("an object repeats a key")
    return out


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def check_simulation(stream: Path, report: Path, iterations: Path, config: SimConfig) -> list[str]:
    """Conservation, ordering, VRAM and closed-form bounds of one simulate output."""
    shapes: dict[str, tuple[int, int]] = {}
    arrivals: dict[str, float] = {}
    records = 0
    for line in stream.read_text().splitlines():
        obj = json.loads(line)
        if "_manifest" not in obj:
            records += 1
            shapes[obj["source_id"]] = (obj["cached_tokens"], obj["prefill_tokens"])
            arrivals[obj["source_id"]] = obj["arrival_time"]
    doc = json.loads(report.read_text(), object_pairs_hook=_unique_keys)["report"]
    rejected = {r["id"] for r in doc["rejected"]}
    ttfts = doc["request_ttft"]
    accepted = set(shapes) - rejected
    problems = []
    if doc["completed"] + len(doc["rejected"]) != records:
        problems.append(f"completed + rejected = {doc['completed'] + len(doc['rejected'])}, stream has {records}")
    if set(ttfts) != accepted or doc["completed"] != len(ttfts):
        problems.append("TTFTs do not cover the accepted requests exactly once")
    scheduled = 0
    last_start = -math.inf
    pool = config.hardware.vram_effective
    for row in _csv_rows(iterations):
        scheduled += int(row["scheduled_tokens"])
        t_start = float(row["t_start"])
        if t_start < last_start:
            problems.append(f"iteration {row['iter']}: t_start decreases")
        last_start = t_start
        if float(row["vram_used_bytes"]) > pool * (1 + 1e-12):
            problems.append(f"iteration {row['iter']}: vram_used_bytes exceeds the pool")
    expected = sum(shapes[rid][1] for rid in accepted)
    if scheduled != expected:
        problems.append(f"scheduled tokens sum to {scheduled}, accepted T sums to {expected}")
    # A simulated TTFT is the difference of two clock readings, so besides
    # 1e-9 relative it may fall short by a few units in the last place of the
    # completion time: a microsecond TTFT 50 s into a stream is exact only to
    # about 1e-9 of itself. A real overlap of transfer and compute falls short
    # by microseconds.
    use_sustained = config.bandwidth_mode == "sustained"
    below = 0
    for rid in accepted & set(ttfts):
        bound = ttft(RequestShape(*shapes[rid]), config.model, config.hardware, 0.0, use_sustained).ttft
        if ttfts[rid] < bound - 1e-9 * bound - 4 * math.ulp(arrivals[rid] + ttfts[rid]):
            below += 1
    if below:
        problems.append(f"{below} TTFT(s) below the closed-form no-overlap bound")
    return problems


def check_roofline(path: Path, platforms: int) -> list[str]:
    """Every series starts compute-bound and flips to bandwidth-bound exactly once."""
    regimes: dict[tuple[str, str], list[str]] = {}
    for row in _csv_rows(path):
        regimes.setdefault((row["model"], row["hardware"]), []).append(row["regime"])
    problems = []
    if len(regimes) != platforms:
        problems.append(f"{len(regimes)} series, expected {platforms}")
    for (model, hw), seq in regimes.items():
        flips = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        if flips != 1 or seq[0] != "compute-bound":
            problems.append(f"{model} on {hw}: {flips} regime change(s), starts {seq[0]}")
    return problems


def _report_doc(report) -> dict:
    """``SimReport.to_dict`` as it reads back from the JSON the CLI writes."""
    return json.loads(json.dumps(report.to_dict()))


def _write_report(report, out: Path, suffix: str) -> int:
    """Serialize a report the way ``kvroof simulate`` does; returns bytes written."""
    text = json.dumps({"report": report.to_dict()}, indent=2, sort_keys=True) + "\n"
    (out / f"report{suffix}.json").write_text(text)
    with open(out / f"iterations{suffix}.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(report.iteration_rows())
    return len(text) + (out / f"iterations{suffix}.csv").stat().st_size


def _sim_counts(policy: str, report) -> dict[str, float]:
    ttfts = sorted(report.request_ttft.values())
    depths = [s.queue_depth for s in report.iterations]
    p = policy
    return {
        f"simulator.iterations.{p}": len(report.iterations),
        f"simulator.mean_queue_depth.{p}": sum(depths) / len(depths),
        f"simulator.max_queue_depth.{p}": max(depths),
        f"sim.completed.{p}": report.completed,
        f"sim.rejected.{p}": len(report.rejected),
        f"sim.ttft_p50_s.{p}": _nearest_rank(ttfts, 50),
        f"sim.ttft_p99_s.{p}": _nearest_rank(ttfts, 99),
        f"sim.compute_busy_fraction.{p}": report.compute_busy_fraction,
        f"sim.transfer_busy_fraction.{p}": report.transfer_busy_fraction,
        f"sim.simulated_seconds.{p}": report.simulated_seconds,
        f"sim.mean_scheduled_tokens.{p}": report.mean_scheduled_tokens,
    }


class Workload:
    """One benchmark workload. Paths are relative to its work directory."""

    name = ""

    def prepare(self, work: Path, seed: int, run_step) -> None:
        """Write the pass's generated inputs into ``work`` (untimed)."""

    def steps(self, seed: int) -> list[Step]:
        raise NotImplementedError

    def outputs(self) -> dict[str, str]:
        """Output file -> the step that writes it; repeated passes must match byte for byte."""
        raise NotImplementedError

    def requests(self, work: Path) -> int:
        """Requests one pass handles."""
        raise NotImplementedError

    def check(self, work: Path, stdout: dict[str, str]) -> dict[str, list[str]]:
        """Problems found in one pass's outputs, by step."""
        raise NotImplementedError

    def traced(self, work: Path, seed: int, tracer: Tracer, catalog_text: str) -> tuple[dict, list[str]]:
        """Replay the steps in-process; returns per-layer counts and problems."""
        raise NotImplementedError


def _count_records(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip() and '"_manifest"' not in line)


class _SimulateWorkload(Workload):
    policies: tuple[str, ...] = ()

    def _reports(self) -> list[tuple[str, str, str]]:
        if len(self.policies) == 1:
            return [(self.policies[0], "out/report.json", "out/iterations.csv")]
        return [(p, f"out/report_{p}.json", f"out/iterations_{p}.csv") for p in self.policies]

    def _config(self, models, hardware) -> SimConfig:
        raise NotImplementedError

    def requests(self, work: Path) -> int:
        return _count_records(work / "stream.jsonl")

    def check(self, work, stdout):
        config = self._config(*catalog())
        problems = []
        for policy, report, iterations in self._reports():
            problems += [
                f"{policy}: {p}"
                for p in check_simulation(work / "stream.jsonl", work / report, work / iterations, config)
            ]
        return {"simulate": problems}

    def _simulate_traced(self, work, tracer, catalog_text) -> tuple[dict, list[str]]:
        with tracer.span("catalog.load"):
            models, hardware = loads_catalog(catalog_text)
        config = self._config(models, hardware)
        with tracer.span("workload.read_stream"):
            records = read_stream(work / "traced" / "stream.jsonl")
        counts: dict[str, float] = {}
        report_bytes = 0
        problems = []
        for policy, report_path, _ in self._reports():
            with tracer.span(f"simulator.run_sim.{policy}"):
                report = run_sim(config, records, policy)
            with tracer.span(f"simulator.report.{policy}"):
                report_bytes += _write_report(report, work / "traced", f"_{policy}")
            counts.update(_sim_counts(policy, report))
            cli_doc = json.loads((work / report_path).read_text())["report"]
            if _report_doc(report) != cli_doc:
                problems.append(f"{policy}: in-process report differs from the CLI's {report_path}")
        counts["simulator.report_mb"] = report_bytes / 1e6
        counts["workload.records"] = len(records)
        counts["workload.stream_mb"] = (work / "traced" / "stream.jsonl").stat().st_size / 1e6
        return counts, problems


class Sustained(_SimulateWorkload):
    """Poisson ``sharegpt-like`` traffic below capacity, simulated with FIFO."""

    name = "sustained"
    policies = ("fifo",)

    def __init__(self, rps: float = 2000, duration: float = 50) -> None:
        self.rps = rps
        self.duration = duration

    def prepare(self, work, seed, run_step):
        (work / "config.json").write_text(json.dumps({"model": MODEL, "hardware": PLATFORM}) + "\n")

    def _config(self, models, hardware):
        return SimConfig(model=by_name(models)[MODEL], hardware=by_name(hardware)[PLATFORM])

    def steps(self, seed):
        return [
            Step("synth", kvroof("synth", "--profile", "sharegpt-like", "--rps", repr(self.rps),
                                 "--duration", repr(self.duration), "--seed", str(seed),
                                 "--out", "stream.jsonl")),
            Step("simulate", kvroof("simulate", "--config", "config.json", "--stream", "stream.jsonl",
                                    "--policy", "fifo", "--out", "out")),
        ]

    def outputs(self):
        return {"stream.jsonl": "synth", "out/report.json": "simulate", "out/iterations.csv": "simulate"}

    def traced(self, work, seed, tracer, catalog_text):
        (work / "traced").mkdir(exist_ok=True)
        with tracer.span("catalog.load"):
            loads_catalog(catalog_text)
        with tracer.span("workload.synth"):
            records = synthesize_stream(PROFILES["sharegpt-like"], self.rps, self.duration, seed)
        with tracer.span("workload.write_stream"):
            write_stream(records, work / "traced" / "stream.jsonl", manifest={"seed": seed})
        return self._simulate_traced(work, tracer, catalog_text)


class Saturated(_SimulateWorkload):
    """A one-second mixed burst on an infinite link, simulated under both policies."""

    name = "saturated"
    policies = POLICIES
    profiles = ("sharegpt-like", "narrativeqa-like")

    def __init__(self, sharegpt_rps: float = 12000, narrativeqa_rps: float = 2000, duration: float = 1) -> None:
        self.rates = (sharegpt_rps, narrativeqa_rps)
        self.duration = duration

    def _platform(self, hardware) -> dict:
        base = by_name(hardware)[PLATFORM]
        return {
            "name": f"{PLATFORM}-infinite-link",
            "compute_throughput": base.compute_throughput,
            "link_bandwidth_peak": math.inf,
            "vram_effective": base.vram_effective,
        }

    def _config(self, models, hardware):
        return SimConfig(model=by_name(models)[MODEL], hardware=HardwareSpec(**self._platform(hardware)))

    def prepare(self, work, seed, run_step):
        """Two seeded ``kvroof synth`` runs merged by arrival, and an inline-platform config."""
        lines = []
        for i, (profile, rps) in enumerate(zip(self.profiles, self.rates), start=1):
            out = f"part{i}.jsonl"
            step = run_step(Step(f"prepare{i}", kvroof("synth", "--profile", profile, "--rps", repr(rps),
                                                       "--duration", repr(self.duration),
                                                       "--seed", str(seed * 2 + i), "--out", out)))
            if not step.ok:
                raise SetupError(f"kvroof synth for {profile} exited {step.returncode}")
            lines += [line for line in (work / out).read_text().splitlines() if '"_manifest"' not in line]
        keyed = [(json.loads(line), line) for line in lines]
        keyed.sort(key=lambda pair: (pair[0]["arrival_time"], pair[0]["source_id"]))
        text = "".join(line + "\n" for _, line in keyed)
        (work / "stream.jsonl").write_text(text)
        (work / "traced").mkdir(exist_ok=True)
        (work / "traced" / "stream.jsonl").write_text(text)
        _, hardware = catalog()
        (work / "config.json").write_text(json.dumps({"model": MODEL, "hardware": self._platform(hardware)}) + "\n")

    def steps(self, seed):
        return [Step("simulate", kvroof("simulate", "--config", "config.json", "--stream", "stream.jsonl",
                                        "--compare", "--out", "out"))]

    def outputs(self):
        out = {"out/comparison.json": "simulate"}
        for _, report, iterations in self._reports():
            out[report] = out[iterations] = "simulate"
        return out

    def traced(self, work, seed, tracer, catalog_text):
        return self._simulate_traced(work, tracer, catalog_text)


class Prep(Workload):
    """Trace analysis, roofline sweeps and the kappa table: every layer but the simulator."""

    name = "prep"

    def __init__(self, conversations: int = 25000, points_per_decade: int = 1000) -> None:
        self.conversations = conversations
        self.points_per_decade = points_per_decade

    def prepare(self, work, seed, run_step):
        """A conversation trace: geometric turn counts, log-normal query and response lengths."""
        rng = random.Random(seed)
        lines = []
        turns = 0
        for i in range(self.conversations):
            n = min(40, 1 + int(rng.expovariate(1 / 9)))
            turns += n
            body = [
                {"query_tokens": max(1, round(rng.lognormvariate(3.7, 1.0))),
                 "response_tokens": round(rng.lognormvariate(5.0, 1.0))}
                for _ in range(n)
            ]
            lines.append(json.dumps({"conversation_id": f"conv-{i:06d}", "turns": body}))
        (work / "conversations.jsonl").write_text("\n".join(lines) + "\n")
        (work / "turns.txt").write_text(f"{turns}\n")

    @staticmethod
    def _models() -> list[str]:
        return [m.name for m in catalog()[0]]

    @staticmethod
    def _table_size() -> int:
        models, hardware = catalog()
        return len(models) * len(hardware)

    def steps(self, seed):
        steps = [Step("analyze", kvroof("analyze", "conversations.jsonl", "--kind", "conversation",
                                        "--out", "analysis.csv"))]
        for model in self._models():
            steps.append(Step(f"roofline-{model}", kvroof("roofline", "--model", model, "--hw", "all",
                                                          "--points-per-decade", str(self.points_per_decade),
                                                          "--out", f"roofline_{model}.csv")))
        steps.append(Step("kappa", kvroof("kappa", "--out", "kappa.csv")))
        return steps

    def outputs(self):
        out = {"analysis.csv": "analyze", "kappa.csv": "kappa"}
        for model in self._models():
            out[f"roofline_{model}.csv"] = f"roofline-{model}"
        return out

    def requests(self, work):
        return int((work / "turns.txt").read_text())

    def check(self, work, stdout):
        turns = self.requests(work)
        problems: dict[str, list[str]] = {}
        reported = [line for line in stdout.get("analyze", "").splitlines() if line.startswith("requests: ")]
        rows = len(_csv_rows(work / "analysis.csv"))
        if reported != [f"requests: {turns}"] or rows != turns:
            problems["analyze"] = [f"analyze reports {reported} and {rows} rows for {turns} turns"]
        for model in self._models():
            problems[f"roofline-{model}"] = check_roofline(work / f"roofline_{model}.csv", len(catalog()[1]))
        kappa_rows = len(_csv_rows(work / "kappa.csv"))
        if kappa_rows != self._table_size():
            problems["kappa"] = [f"kappa table has {kappa_rows} rows, expected {self._table_size()}"]
        return problems

    def traced(self, work, seed, tracer, catalog_text):
        out = work / "traced"
        out.mkdir(exist_ok=True)
        problems = []
        with tracer.span("catalog.load"):
            loads_catalog(catalog_text)
        with tracer.span("workload.read_conversations"):
            traces = read_conversations(work / "conversations.jsonl")
        with tracer.span("workload.expand"):
            records = [r for tr in traces for r in expand_conversation(tr)]
        with tracer.span("workload.summarize"):
            summary = summarize(records)
        if summary.count != self.requests(work):
            problems.append(f"summarize counts {summary.count} requests")
        trace_requests = len(records)
        del traces, records  # the CLI's roofline steps start in fresh processes
        points = 0
        for name in self._models():
            with tracer.span("catalog.load"):
                models, hardware = loads_catalog(catalog_text)
            with tracer.span("roofline.sweep"):
                series = roofline_sweep(by_name(models)[name], hardware, KAPPA_MIN, KAPPA_MAX,
                                        self.points_per_decade, True)
            with tracer.span("roofline.csv_write"):
                write_series_csv(series, out / f"roofline_{name}.csv")
            points += sum(len(s.points) for s in series)
            cli_rows = _csv_rows(work / f"roofline_{name}.csv")
            if _csv_rows(out / f"roofline_{name}.csv") != cli_rows:
                problems.append(f"in-process roofline for {name} differs from the CLI's")
        with tracer.span("catalog.load"):
            models, hardware = loads_catalog(catalog_text)
        with tracer.span("analytics.kappa_table"):
            table = [(kappa_model(m), kappa_hw(h, True), kappa_crit(m, h, True)) for m in models for h in hardware]
        if len(table) != self._table_size():
            problems.append("kappa table has the wrong size")
        counts = {"workload.trace_requests": trace_requests, "roofline.points": points}
        return counts, problems


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Sustained(), Saturated(), Prep())}
