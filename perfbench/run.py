"""End-to-end and per-layer benchmark for kvroof.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sustained --seed 1 --seconds 50 --trace 0

A run generates the workload's inputs from ``--seed``, then repeats passes
for about ``--seconds`` seconds (at least two). A pass runs the workload's
``kvroof`` CLI steps as child processes, one at a time, each under a time
limit; its outputs are checked after the pass, outside the timed part.

* ``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
  the mean pass time, requests per second over all passes, the largest
  child RSS, and the median of cold starts timed between passes.
* ``--trace 1`` alternates those passes with an in-process replay of the
  same steps under a tracer, writes the spans to
  ``.perfbench/<workload>/spans.jsonl`` and reports the per-layer metrics.
  A metric of a step that the workload does not run reads 0.

``--workload all`` runs every workload in turn, ``saturated`` included,
which BENCHMARK.json does not list. All times are host
wall-clock time; simulated time appears only in the ``sim.*`` statistics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(SRC))
try:
    import workloads
    from spans import Tracer, self_times
except ModuleNotFoundError:  # not run from a kvroof checkout; main() says so
    workloads = None

# A CLI step that runs longer than this is killed and counts as failed.
STEP_LIMIT_S = 60.0
# No step may run past this point of a run, so a run ends within 180 s.
RUN_LIMIT_S = 150.0
# Cold starts timed after each pass, so that setup_s samples the whole run.
SETUP_PER_PASS = 3
# Two passes at least, so that repeated passes can be compared byte for byte.
MIN_PASSES = 2
# Workloads that run only when asked for by name or through ``all``: their
# figures swing too much with the load of a shared host for BENCHMARK.json's
# bounds (see README.md, "Workloads").
EXTRA_WORKLOADS = ("saturated",)
COLD_START = (
    "import time, kvroof.cli\n"
    "from kvroof.catalog import default_catalog\n"
    "default_catalog()\n"
    "print(time.monotonic())\n"
)


@dataclass
class StepResult:
    name: str
    returncode: int
    seconds: float
    rss_mb: float
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


@dataclass
class Tally:
    """Steps attempted and failed; a step fails on exit, time limit or output check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Launcher:
    """The helper process (launcher.py) that runs each CLI step and reports its rusage."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_child_env(), start_new_session=True,
        )

    def run(self, step, cwd: Path, limit: float) -> StepResult:
        logs = cwd / "logs"
        request = {"argv": step.argv, "cwd": str(cwd), "out": str(logs / f"{step.name}.out"),
                   "err": str(logs / f"{step.name}.err"), "limit": limit}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"step launcher exited with {self.proc.wait()}")
        returncode, seconds, rss_mb, timed_out = json.loads(reply)
        return StepResult(step.name, returncode, seconds, rss_mb, timed_out)

    def close(self) -> None:
        """Stop the launcher and any step it still runs; they share a process group."""
        os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def cold_start(cwd: Path) -> float:
    """Seconds from spawning an interpreter until kvroof.cli is imported and the catalog loaded."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", COLD_START], cwd=cwd, env=_child_env(),
        capture_output=True, text=True, timeout=STEP_LIMIT_S,
    )
    if done.returncode != 0:
        raise workloads.SetupError(f"cold start exited {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


def judge(wl, work: Path, results: list[StepResult], reference):
    """Problems of one CLI pass, by step, and the reference for later passes.

    The first pass gets the full output checks. A later pass must write the
    same bytes; a step whose outputs match inherits the first pass's verdict.
    """
    problems: dict[str, list[str]] = {r.name: [] for r in results}
    for r in results:
        if r.timed_out:
            problems[r.name].append(f"killed at the time limit after {r.seconds:.1f} s")
        elif r.returncode != 0:
            problems[r.name].append(f"exited {r.returncode}")
    outputs = wl.outputs()
    digests = {f: (workloads.digest(work / f) if (work / f).is_file() else None) for f in outputs}
    if reference is None:
        stdout = {r.name: (work / "logs" / f"{r.name}.out").read_text() for r in results}
        try:
            checked = wl.check(work, stdout)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            checked = {writer: [f"outputs unreadable: {exc!r}"] for writer in outputs.values()}
        reference = (digests, checked)
    ref_digests, checked = reference
    for f, writer in outputs.items():
        if digests[f] != ref_digests[f]:
            problems[writer].append(f"{f} differs from the first pass")
    for writer, found in checked.items():
        problems[writer] += found
    return problems, reference


def layer_metrics(tracer, root, counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass: span sums, self times and counts."""
    spans = tracer.subtree(root)
    own = self_times(spans)
    out: dict[str, float] = dict(counts)
    loads = []
    for s in spans[1:]:
        layer, step, *rest = s.name.split(".")
        key = f"{layer}.{step}_s" + (f".{rest[0]}" if step == "run_sim" else "")
        out[key] = out.get(key, 0.0) + s.seconds
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own[s.id]
        if s.name == "catalog.load":
            loads.append(s.seconds)
    out["catalog.load_s"] = statistics.median(loads)
    # Time inside the layer calls; the replay's own checks run between them.
    out["traced_total_s"] = sum(s.seconds for s in spans if s.parent == root.id)
    for policy in workloads.POLICIES:
        iterations = out.get(f"simulator.iterations.{policy}")
        if iterations:
            out[f"simulator.us_per_iteration.{policy}"] = out[f"simulator.run_sim_s.{policy}"] / iterations * 1e6
    if out.get("roofline.points"):
        out["roofline.us_per_point"] = out["roofline.sweep_s"] / out["roofline.points"] * 1e6
    return out


def traced_pass(wl, work: Path, seed: int, tracer, catalog_text: str, tally: Tally):
    with tracer.span("pass"):
        root = tracer.spans[-1]
        try:
            counts, problems = wl.traced(work, seed, tracer, catalog_text)
        except Exception:
            traceback.print_exc()
            counts, problems = None, ["in-process replay raised"]
    tally.record("traced", problems)
    return None if counts is None else layer_metrics(tracer, root, counts)


def measure(wl, seed: int, seconds: float, trace: bool, step_limit: float = STEP_LIMIT_S) -> dict:
    """One run of one workload; returns the raw figures and the tally."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    launcher = Launcher()
    try:
        return _measure(wl, seed, seconds, trace, work, deadline,
                        lambda step: launcher.run(step, work, min(step_limit, deadline - time.monotonic())))
    finally:
        launcher.close()


def _measure(wl, seed: int, seconds: float, trace: bool, work: Path, deadline: float, run) -> dict:
    wl.prepare(work, seed, run)
    if not trace:
        cold_start(work)  # byte-compiles once, as an installed package would have
    tally = Tally()
    tracer = Tracer(wl.name)
    catalog_text = workloads.bundled_catalog()
    walls, handled, rss, setup, layers = [], [], [], [], []
    reference = None
    window = time.monotonic()
    while True:
        start = time.perf_counter()
        results = [run(step) for step in wl.steps(seed)]
        wall = time.perf_counter() - start
        problems, reference = judge(wl, work, results, reference)
        for r in results:
            tally.record(r.name, problems[r.name])
        try:
            handled.append(wl.requests(work))
        except (OSError, ValueError):
            handled.append(0)
        walls.append(wall)
        rss.append(max(r.rss_mb for r in results))
        if trace:
            found = traced_pass(wl, work, seed, tracer, catalog_text, tally)
            if found is not None:
                # Paired with the CLI pass just before it, so that slow drifts
                # of the host's speed cancel.
                found["cli.overhead_s"] = wall - found["traced_total_s"]
                layers.append(found)
        else:
            setup += [cold_start(work) for _ in range(SETUP_PER_PASS)]
        rounds = len(walls)
        elapsed = time.monotonic() - window
        if rounds >= MIN_PASSES and elapsed * (rounds + 1) / rounds > seconds:
            break
        if time.monotonic() + elapsed / rounds > deadline:
            break
    if trace:
        tracer.write(work / "spans.jsonl")
        figures = {k: statistics.median(m[k] for m in layers if k in m) for k in {k for m in layers for k in m}}
    else:
        # Pass times are totalled rather than taking their median: on a shared
        # host the speed shifts between levels for tens of seconds at a time,
        # and a median snaps to one level where the total weighs them by time.
        figures = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(walls) / len(walls),
            "req_per_s": sum(handled) / sum(walls),
            "peak_rss_mb": max(rss),
        }
    return {"figures": figures, "tally": tally, "walls": walls, "setup": setup, "reference": reference}


def _report(name: str, seed: int, trace: bool, outcome: dict, metrics: list[dict]) -> dict:
    """Print one workload's metrics by name and unit; return them for the JSON line."""
    tally = outcome["tally"]
    walls = " ".join(f"{w:.3f}" for w in outcome["walls"])
    print(f"workload {name}  seed {seed}  trace {int(trace)}  pass walls [s]: {walls}")
    if outcome["setup"]:
        print("  setup repeats [s]: " + " ".join(f"{s:.4f}" for s in outcome["setup"]))
    values = {}
    for m in metrics:
        value = outcome["figures"].get(m["name"], 0.0)
        values[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} = {value!r} {m['unit']}")
    print(f"  error_rate = {tally.failed / tally.attempted!r} ratio ({tally.failed} of {tally.attempted} steps failed)")
    for f, d in sorted(outcome["reference"][0].items()):
        print(f"  sha256 {f} {d}")
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    return values


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if workloads is None or not (SRC / "kvroof" / "cli.py").is_file():
        print(f"error: no kvroof source under {SRC}; run from the root of a kvroof checkout", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    values = {}
    for name in chosen:
        try:
            outcome = measure(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except workloads.SetupError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        found = _report(name, args.seed, bool(args.trace), outcome, metrics)
        prefix = "" if len(chosen) == 1 else f"{name}."
        values.update({prefix + k: v for k, v in found.items()})
        attempted += outcome["tally"].attempted
        failed += outcome["tally"].failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
