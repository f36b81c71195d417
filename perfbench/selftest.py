"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Checks that every workload reports every end-to-end metric with its unit,
that the traced run reports time where each layer does the work, that a
corrupted output counts as a failed job, and that the benchmark refuses to
run without the program's sources.  Takes about two minutes.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import io
import multiprocessing
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5

# Per-layer times that must be non-zero, by workload.
BUSY_LAYERS = {
    "chain": [
        "gbsm.synth_s", "sounder.deconv_s", "analysis.corr_s", "cli.self_s",
        "rss.gbsm_mb", "rss.sounder_mb", "rss.analyze_mb",
    ],
    "short-jobs": [
        "rss.blockage_mb", "rss.pathloss-fit_mb",
        "blockage.metis_s", "blockage.kirchhoff_s", "blockage.gtd_s", "pathloss.fit_s",
    ],
}


def in_fresh_process(fn, *args):
    """fn(*args) in a forked child.  A traced run loads chantool into the
    process that runs it; a later run in the same process would then spawn
    children from a process bigger than they are (see run.Child)."""
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
        return pool.submit(fn, *args).result()


def _small_run(name: str, trace: bool, seconds: float) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        record = run.run(name, SEED, seconds, trace, small=True)
        record["result"] = run.report(record)
    return record


def small_run(name: str, trace: bool) -> dict:
    return in_fresh_process(_small_run, name, trace, 0.0)


def corrupt_outputs(job_argv: list[str], how) -> None:
    out = job_argv[job_argv.index("--out") + 1]
    with open(out, "r+b") as handle:
        how(handle)


def truncate_half(handle) -> None:
    handle.truncate(os.fstat(handle.fileno()).st_size // 2)


def flip_middle_byte(handle) -> None:
    handle.seek(os.fstat(handle.fileno()).st_size // 2)
    byte = handle.read(1)
    handle.seek(-1, os.SEEK_CUR)
    handle.write(bytes([byte[0] ^ 0x01]))


class CorruptingChild(run.Child):
    """A child whose output file is damaged after it exits.  `jobs` lists
    the 0-based jobs to damage, counted over all passes; `how` does the
    damage."""

    jobs: set[int] = set()
    how = staticmethod(truncate_half)
    seen = 0

    def __init__(self, cmd, env, stderr_path):
        super().__init__(cmd, env, stderr_path)
        if "--out" in cmd and "--help" not in cmd:
            if CorruptingChild.seen in CorruptingChild.jobs:
                corrupt_outputs(cmd, CorruptingChild.how)
            CorruptingChild.seen += 1


def corrupted_run(jobs: set[int], how) -> dict:
    CorruptingChild.jobs, CorruptingChild.how, CorruptingChild.seen = jobs, how, 0
    run.Child = CorruptingChild
    # Enough seconds for at least two passes of the small chain.
    return _small_run("chain", False, 14.0)


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_metric_with_unit_on_every_workload(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = small_run(name, trace=False)["result"]
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    run.END_TO_END_UNITS,
                )
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                json.dumps(result)

    def test_traced_run_times_each_busy_layer(self):
        for name, busy in BUSY_LAYERS.items():
            with self.subTest(workload=name):
                record = small_run(name, trace=True)
                metrics = record["metrics"]
                self.assertTrue(record["result"]["correct"])
                self.assertEqual(metrics["trace.missing_wraps"], 0)
                self.assertEqual(metrics["trace.counter_errors"], 0)
                for layer in busy + ["import.scipy_s"]:
                    self.assertGreater(metrics[layer], 0, layer)
                with open(record["samples"]["trace_file"], "r", encoding="utf-8") as f:
                    self.assertTrue(json.load(f)["spans"])

    def test_truncated_output_counts_as_failed(self):
        # The sounder job of every pass.
        self._corrupted_run({1, 4, 7, 10}, truncate_half)

    def test_output_that_changes_between_passes_counts_as_failed(self):
        # The first pass is the reference; damage only the second pass's
        # gbsm archive.
        self._corrupted_run({3}, flip_middle_byte)

    def _corrupted_run(self, jobs: set[int], how) -> None:
        record = in_fresh_process(corrupted_run, jobs, how)
        result = record["result"]
        self.assertGreaterEqual(len(record["samples"]["passes"]), 2)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_reference_digest_mismatch_counts_as_failed(self):
        work = tempfile.mkdtemp(dir=run.WORK)
        try:
            workload = workloads.short_jobs(work, SEED, small=True)
            job = workload.jobs[0]
            env, _ = run.child_env()
            child = run.Child(run.chantool_cmd(*job.argv), env, os.path.join(work, "err"))
            checker = run.Checker(workload, {"crossing.csv": "0" * 64})
            self.assertEqual(checker.record("pass 0", [(child.exit_code, "")]), 1)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_refuses_to_run_without_sources(self):
        bare = tempfile.mkdtemp(dir=run.WORK)
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "short-jobs",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    os.makedirs(run.WORK, exist_ok=True)
    unittest.main()
