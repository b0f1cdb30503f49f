"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

The file name does not match pytest's ``test_*.py`` pattern, so the
repository's test suite does not collect it and stays fast.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
from workloads import Prep, Saturated, Step, Sustained, kvroof

SEED = 3


def tiny():
    return [Sustained(rps=50, duration=2), Saturated(300, 60, 1), Prep(conversations=40, points_per_decade=4)]


def error_rate(outcome: dict) -> float:
    tally = outcome["tally"]
    return tally.failed / tally.attempted


class Corrupted(Sustained):
    """Duplicates the last row of iterations.csv after simulate has written it."""

    def steps(self, seed):
        corrupt = (
            "p = 'out/iterations.csv'; rows = open(p).read().splitlines(); "
            "open(p, 'w').write('\\n'.join(rows + rows[-1:]) + '\\n')"
        )
        return super().steps(seed) + [Step("corrupt", [sys.executable, "-c", corrupt])]


class Failing(Sustained):
    """Points simulate at a config file that does not exist, so it exits 3."""

    def steps(self, seed):
        synth, _ = super().steps(seed)
        return [synth, Step("simulate", kvroof("simulate", "--config", "missing.json",
                                               "--stream", "stream.jsonl", "--out", "out"))]


class Hanging(Sustained):
    def steps(self, seed):
        return super().steps(seed) + [Step("hang", [sys.executable, "-c", "import time; time.sleep(60)"])]


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_workload_end_to_end(self):
        spec = json.loads(run.SPEC.read_text())
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        per_layer = {m["name"] for m in spec["per_layer"]}
        for wl in tiny():
            with self.subTest(workload=wl.name):
                plain = run.measure(wl, SEED, 1, trace=False)
                self.assertEqual(error_rate(plain), 0.0, plain["tally"].problems)
                self.assertGreaterEqual(len(plain["walls"]), run.MIN_PASSES)
                self.assertEqual(set(plain["figures"]), end_to_end)
                self.assertTrue(all(v > 0 for v in plain["figures"].values()), plain["figures"])
                traced = run.measure(wl, SEED, 1, trace=True)
                self.assertEqual(error_rate(traced), 0.0, traced["tally"].problems)
                self.assertLessEqual(set(traced["figures"]) - {"traced_total_s"}, per_layer)
                self.assertIn("cli.overhead_s", traced["figures"])
                self.assertEqual(traced["reference"][0], plain["reference"][0], "outputs differ between runs")

    def test_corrupted_iterations_csv_is_an_error(self):
        outcome = run.measure(Corrupted(rps=50, duration=2), SEED, 1, trace=False)
        self.assertGreater(error_rate(outcome), 0.0)
        self.assertTrue(any("scheduled tokens" in p for p in outcome["tally"].problems), outcome["tally"].problems)

    def test_nonzero_exit_is_an_error(self):
        outcome = run.measure(Failing(rps=50, duration=2), SEED, 1, trace=False)
        self.assertGreater(error_rate(outcome), 0.0)
        self.assertTrue(any("exited 3" in p for p in outcome["tally"].problems), outcome["tally"].problems)

    def test_hang_is_killed_and_an_error(self):
        outcome = run.measure(Hanging(rps=50, duration=2), SEED, 1, trace=False, step_limit=1.0)
        self.assertGreater(error_rate(outcome), 0.0)
        self.assertTrue(any("time limit" in p for p in outcome["tally"].problems), outcome["tally"].problems)

    def test_step_rss_is_the_steps_own(self):
        ballast = b"\x01" * (120 * 2**20)  # lifts this process's high-water RSS above any tiny step's
        work = run.WORK / "rss"
        (work / "logs").mkdir(parents=True, exist_ok=True)
        launcher = run.Launcher()
        try:
            result = launcher.run(Step("tiny", [sys.executable, "-c", "pass"]), work, 10.0)
        finally:
            launcher.close()
        del ballast
        self.assertTrue(result.ok)
        self.assertLess(result.rss_mb, 60)

    def test_without_source_exits_nonzero_and_prints_no_result(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "prep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
