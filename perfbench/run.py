"""chantool benchmark: cold CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

Run from the root of a source checkout; the program is run from `src/`.

With `--trace 0` (timed run) the workload's inputs are generated from the
seed, then its jobs run as cold `python -m chantool ...` children, one at a
time (a closed loop with one client), in passes until `--seconds` have gone
by.  Measured from outside the program, per pass:

    wall_s       s    spawn of the pass's first child to exit of its last
    items_per_s  1/s  workload items / wall_s (CIR snapshots produced or
                      consumed; CLI jobs on short-jobs)
    cpu_s        s    user + sys of the pass's children, from os.wait4

Each of these is reported as its median over the passes, and also in
reference seconds (`wall_ref_s`, `items_per_ref_s`, `cpu_ref_s`), which
are the metrics of the result line.  Before each pass and after the last, a
cold calibration child (CALIBRATION) runs fixed Python-loop, FFT and
float-formatting work that uses numpy but not chantool; each pass is
divided by the mean wall time of the CAL_WINDOW calibration runs on either
side of it, times CAL_REF_S.  The speed of a shared host can drift by a
third within minutes; the calibration drifts with the jobs, so the
reference figures compare across runs where the raw ones do not.  The
other end-to-end metrics:

    setup_s      s    sum over the workload's jobs of the cold wall time of
                      `python -m chantool <subcommand> --help`; per
                      subcommand the median of up to SETUP_ROUNDS samples,
                      spread evenly over the run between passes
    peak_rss_mb  MB   largest ru_maxrss among a pass's children, from
                      os.wait4; median over passes
    failed_frac  -    jobs failed / jobs attempted (printed, and carried by
                      the result's `failed` and `attempted`)

With `--trace 1` (traced run) the same jobs run once cold, for the
per-child fault and context-switch counts and each subcommand's peak RSS
(`rss.<subcommand>_mb`), then in this process through
`chantool.cli.main`, alternately untraced and traced (see tracing.py), for
the per-layer numbers.  Import times come from `python -X importtime`.

Every output is checked: exit code 0, the file exists, its structure
(workloads.py), byte-identical across the passes of a run, and equal to the
digests in digests.json when the seed is the reference seed.  A job that
fails any of these counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (machine,
environment, every sample, failures) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

# The metrics of the result line, as BENCHMARK.json names them.
END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "items_per_ref_s": "1/s",
    "setup_s": "s",
    "cpu_ref_s": "s",
    "peak_rss_mb": "MB",
}
# Printed beside them and kept in the record, not in the result line.
RAW_UNITS = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s"}
# Rounds of cold `--help` runs, one per distinct subcommand each, when
# measuring setup_s.  They are spread over the run, like the passes, so
# setup_s and the pass metrics see the same drift of a shared host.
SETUP_ROUNDS = 5
# Cold `-X importtime` runs in a traced run.
IMPORT_REPEATS = 3
# The calibration child: about 1 s of work on the host the benchmark was
# written on, in the three kinds the jobs spend their time on.  Changing it
# changes every *_ref metric.
CALIBRATION = """
import numpy as np
acc = 0.0
for i in range(2000000):
    acc += (i % 7) * 0.5
x = np.exp(1j * np.arange(20000) * 1e-3)
for _ in range(140):
    x = np.fft.ifft(np.fft.fft(x))
text = ",".join(repr(v) for v in np.linspace(0.0, 1.0, 180000).tolist())
"""
# The *_ref metrics are seconds on a host where the calibration takes this.
CAL_REF_S = 1.0
# A pass is scaled by the mean of the calibration runs nearest to it, this
# many on each side (fewer at the ends of a run): enough to average out the
# calibration's own noise, few enough to follow the host's drift.
CAL_WINDOW = 2
# Subcommands whose peak RSS the traced run reports, one metric each.
RSS_SUBCOMMANDS = ("gbsm", "sounder", "analyze", "blockage", "pathloss-fit")
# A child still running after this long is killed and its job fails.
JOB_TIMEOUT_S = 60.0


def child_env() -> tuple[dict[str, str], dict[str, object]]:
    """Environment for the children, and a record of how it was made.

    CHANTOOL_THREADS is removed so the program runs as users get it, and
    every PYTHON* variable is removed so nothing inherited changes imports;
    PYTHONPATH then points at the checkout's src/ only.
    """
    removed = sorted(
        k for k in os.environ if k == "CHANTOOL_THREADS" or k.startswith("PYTHON")
    )
    env = {k: v for k, v in os.environ.items() if k not in removed}
    env["PYTHONPATH"] = SRC
    return env, {"removed": removed, "set": {"PYTHONPATH": SRC}}


class Child:
    """One cold child process: wall time, exit code and its own rusage.

    On Linux a child's ru_maxrss also counts the peak RSS of the process
    that spawned it (the child starts as that process and only then runs
    exec).  So the benchmark keeps its own peak below every child's: it
    writes inputs in a child, reads large outputs a line at a time and
    imports neither scipy nor chantool before the timed children have run.
    cold_pass() checks this.
    """

    def __init__(self, cmd: list[str], env: dict[str, str], stderr_path: str):
        with open(stderr_path, "wb") as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, self.usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.end = time.perf_counter()
        # wait4 reaped the child; tell Popen so it does not wait again.
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.stderr_path = stderr_path

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-400:].decode("utf-8", "replace").strip()


def chantool_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "chantool", *args]


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Checker:
    """Checks each pass's outputs and counts attempted and failed jobs."""

    def __init__(self, workload, reference: dict[str, str] | None):
        self.workload = workload
        self.reference = reference
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def job_failure(self, job, exit_code: int, stderr: str) -> str | None:
        if exit_code != 0:
            return f"exit {exit_code}: {stderr}"
        missing = [p for p in job.outputs if not os.path.isfile(p)]
        if missing:
            return f"missing output {missing}"
        try:
            problem = job.check()
        except (ValueError, KeyError, IndexError, OSError) as err:
            problem = f"malformed output: {err!r}"
        if problem:
            return problem
        for path in job.outputs:
            name = os.path.basename(path)
            digest = sha256(path)
            if self.first.setdefault(name, digest) != digest:
                return f"{name} differs from the run's first pass"
            if self.reference is not None and self.reference.get(name) != digest:
                return f"{name} differs from the digest recorded for the reference seed"
        return None

    def record(self, label: str, results: list[tuple[int, str]]) -> int:
        """results: (exit code, stderr) per job, in job order; returns the
        number of failed jobs.  Outputs are removed after checking, so a
        job that writes nothing cannot pass on a previous pass's file."""
        failed = 0
        for job, (exit_code, stderr) in zip(self.workload.jobs, results):
            self.attempted += 1
            problem = self.job_failure(job, exit_code, stderr)
            if problem:
                failed += 1
                self.failures.append(f"{label} {' '.join(job.argv[:1])}: {problem}")
            for path in job.outputs:
                if os.path.isfile(path):
                    os.unlink(path)
        return failed


def cold_pass(workload, env, logdir: str, checker: Checker, label: str):
    children = []
    for i, job in enumerate(workload.jobs):
        children.append(
            Child(chantool_cmd(*job.argv), env, os.path.join(logdir, f"job{i}.err"))
        )
        if children[-1].exit_code != 0:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if any(c.usage.ru_maxrss <= own for c in children):
        raise RuntimeError(
            f"the benchmark's own peak RSS ({own / 1024.0:.1f} MB) reached a child's, "
            "so the children's ru_maxrss would not be their own"
        )
    failed = checker.record(
        label, [(c.exit_code, c.stderr_tail() if c.exit_code else "") for c in children]
        + [(-1, "not run: an earlier job failed")] * (len(workload.jobs) - len(children)),
    )
    return children, failed


def another_fits(start: float, seconds: float, done: int) -> bool:
    """True while one more pass, as long as the mean of the `done` passes so
    far, would end within `seconds` of `start`; so a run measures whole
    passes and does not overrun."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def setup_round(subcommands, env, logdir: str, walls: dict[str, list[float]]) -> None:
    """One cold `--help` run of each subcommand, appended to walls."""
    for sub in subcommands:
        child = Child(chantool_cmd(sub, "--help"), env, os.path.join(logdir, "help.err"))
        if child.exit_code != 0:
            raise RuntimeError(f"`chantool {sub} --help` exited {child.exit_code}")
        walls.setdefault(sub, []).append(child.wall_s)


def calibrate(env, logdir: str) -> float:
    """Wall time of one cold calibration child."""
    child = Child([sys.executable, "-c", CALIBRATION], env, os.path.join(logdir, "cal.err"))
    if child.exit_code != 0:
        raise RuntimeError(
            f"the calibration child exited {child.exit_code}: {child.stderr_tail()}"
        )
    return child.wall_s


def timed_run(workload, env, logdir, checker, seconds: float) -> tuple[dict, dict]:
    subcommands = sorted({job.subcommand for job in workload.jobs})
    setup_walls: dict[str, list[float]] = {}
    passes, cal = [], []
    start = time.perf_counter()
    while True:
        # A setup round is due each time another 1/SETUP_ROUNDS of the run
        # has gone by; the first comes before the first pass.
        rounds = len(setup_walls.get(subcommands[0], []))
        due = start + rounds * seconds / SETUP_ROUNDS
        if rounds < SETUP_ROUNDS and time.perf_counter() >= due:
            setup_round(subcommands, env, logdir, setup_walls)
        cal.append(calibrate(env, logdir))
        children, failed = cold_pass(workload, env, logdir, checker, f"pass {len(passes)}")
        passes.append({
            "wall_s": children[-1].end - children[0].start,
            "cpu_s": sum(c.usage.ru_utime + c.usage.ru_stime for c in children),
            "peak_rss_mb": max(c.usage.ru_maxrss for c in children) / 1024.0,
            "job_walls": [c.wall_s for c in children],
            "failed": failed,
        })
        if not another_fits(start, seconds, len(passes)):
            break
    cal.append(calibrate(env, logdir))
    # cal[i] ran just before pass i and cal[i + 1] just after it.
    for i, p in enumerate(passes):
        near = cal[max(0, i + 1 - CAL_WINDOW) : i + 1 + CAL_WINDOW]
        p["host_factor"] = statistics.fmean(near) / CAL_REF_S
    wall = statistics.median(p["wall_s"] for p in passes)
    wall_ref = statistics.median(p["wall_s"] / p["host_factor"] for p in passes)
    metrics = {
        "wall_ref_s": wall_ref,
        "items_per_ref_s": workload.items / wall_ref,
        "setup_s": sum(statistics.median(setup_walls[job.subcommand]) for job in workload.jobs),
        "cpu_ref_s": statistics.median(p["cpu_s"] / p["host_factor"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
    }
    n = len(passes)
    samples = {
        "raw": raw,
        "calibration_walls": cal,
        "passes": passes,
        "setup_walls": setup_walls,
        "counts": {
            **{name: n for name in END_TO_END_UNITS}, **{name: n for name in RAW_UNITS},
            "setup_s": sum(len(v) for v in setup_walls.values()),
        },
    }
    return metrics, samples


def in_process_pass(workload, checker: Checker, label: str) -> float:
    from chantool import cli

    results = []
    start = time.perf_counter()
    for job in workload.jobs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            results.append((cli.main(list(job.argv)), sink))
    wall = time.perf_counter() - start
    results = [(code, sink.getvalue()[-400:].strip()) for code, sink in results]
    checker.record(label, results)
    return wall


def import_metrics(env, logdir: str) -> tuple[dict[str, float], list[dict]]:
    runs = []
    for i in range(IMPORT_REPEATS):
        err = os.path.join(logdir, f"importtime{i}.err")
        child = Child(
            [sys.executable, "-X", "importtime", "-c", "import chantool.cli"], env, err
        )
        if child.exit_code != 0:
            raise RuntimeError(f"importing chantool.cli exited {child.exit_code}")
        with open(err, "r", encoding="utf-8") as handle:
            runs.append(tracing.import_times(handle.read()))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}, runs


def traced_run(workload, env, logdir, checker, seconds: float, trace_path: str):
    # The in-process passes read this process's environment: run them, like
    # the children, as users get the program.
    os.environ.pop("CHANTOOL_THREADS", None)
    imports, import_runs = import_metrics(env, logdir)
    children, _ = cold_pass(workload, env, logdir, checker, "cold pass")
    proc = {
        "proc.minflt": sum(c.usage.ru_minflt for c in children),
        "proc.nivcsw": sum(c.usage.ru_nivcsw for c in children),
    }
    # Every workload reports every subcommand; 0 where it runs none.
    proc.update({f"rss.{sub}_mb": 0.0 for sub in RSS_SUBCOMMANDS})
    for job, child in zip(workload.jobs, children):
        key = f"rss.{job.subcommand}_mb"
        proc[key] = max(proc[key], child.usage.ru_maxrss / 1024.0)
    pairs, spans = [], []
    start = time.perf_counter()
    while not pairs or another_fits(start, seconds, len(pairs)):
        untraced = in_process_pass(workload, checker, f"untraced {len(pairs)}")
        tracer = tracing.Tracer(run_id=len(pairs))
        with tracing.installed(tracer) as missing:
            traced = in_process_pass(workload, checker, f"traced {len(pairs)}")
        layers = tracing.layer_metrics(tracer.spans, tracer.counts)
        layers.update({
            "trace.untraced_s": untraced,
            "trace.overhead_s": traced - untraced,
            "trace.spans": len(tracer.spans),
            "trace.missing_wraps": len(missing),
            "trace.counter_errors": tracer.counts.get("trace.counter_errors", 0),
        })
        pairs.append(layers)
        spans.extend(tracer.spans)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({
            "fields": ["name", "start", "end", "parent", "run"],
            "missing_wraps": missing,
            "spans": spans,
        }, handle)
    metrics = {k: statistics.median(p[k] for p in pairs) for k in pairs[0]}
    metrics.update(imports)
    metrics.update(proc)
    return metrics, {"pairs": pairs, "imports": import_runs, "trace_file": trace_path}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def machine_metadata() -> dict[str, object]:
    from importlib.metadata import version

    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
    }


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(top: str) -> str:
    """SHA-256 over the relative paths and contents of the source files."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode() + b"\0")
            digest.update(sha256(path).encode())
    return digest.hexdigest()


def write_inputs(name: str, work: str, seed: int, small: bool, env) -> None:
    """Write a workload's inputs into work, from a child process (see Child)."""
    code = (
        f"import sys; sys.dont_write_bytecode = True; sys.path.insert(0, {HERE!r}); "
        "import workloads; "
        f"workloads.WORKLOADS[{name!r}]({work!r}, {seed!r}, {small!r})"
    )
    child = Child([sys.executable, "-c", code], env, os.path.join(work, "inputs.err"))
    if child.exit_code != 0:
        raise RuntimeError(f"writing the inputs exited {child.exit_code}: {child.stderr_tail()}")


def reference_digests(name: str, seed: int, small: bool) -> dict[str, str] | None:
    if small or seed != workloads.REFERENCE_SEED or not os.path.isfile(DIGESTS):
        return None
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)["workloads"].get(name)


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the full record (see module docstring)."""
    env, env_record = child_env()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "small": small, "loadavg_start": os.getloadavg(), "environment": env_record,
        "machine": machine_metadata(),
    }
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    try:
        write_inputs(name, work, seed, small, env)
        workload = workloads.WORKLOADS[name](work, seed, small, write=False)
        checker = Checker(workload, reference_digests(name, seed, small))
        # Untimed: compiles chantool's bytecode into the checkout once, as
        # an installed program has it, and warms the file cache.
        warm = Child(chantool_cmd("--help"), env, os.path.join(work, "warm.err"))
        if warm.exit_code != 0:
            raise RuntimeError(f"`chantool --help` exited {warm.exit_code}: {warm.stderr_tail()}")
        if trace:
            trace_path = os.path.join(WORK, "results", f"{name}-seed{seed}.trace.json")
            metrics, samples = traced_run(workload, env, work, checker, seconds, trace_path)
        else:
            metrics, samples = timed_run(workload, env, work, checker, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({
        "loadavg_end": os.getloadavg(),
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": workload.items,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
        "metrics": metrics,
        "samples": samples,
    })
    suffix = "-small" if small else ""
    path = os.path.join(WORK, "results", f"{name}-seed{seed}-trace{int(trace)}{suffix}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    record["record_path"] = path
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"loadavg start {record['loadavg_start']}  end {record['loadavg_end']}")
    metrics = record["metrics"]
    if record["trace"]:
        units = {name: per_layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"  {name:26s} {value!r} {units[name]}")
    else:
        units = END_TO_END_UNITS
        counts = record["samples"]["counts"]
        for name, unit in RAW_UNITS.items():
            value = record["samples"]["raw"][name]
            print(f"  {name:15s} {value!r} {unit}  (median, n={counts[name]})")
        for name, unit in units.items():
            print(f"  {name:15s} {metrics[name]!r} {unit}  (median, n={counts[name]})")
    frac = record["failed"] / max(record["attempted"], 1)
    print(f"  {'failed_frac':15s} {frac!r} ratio  (n={record['attempted']} jobs)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"record {record['record_path']}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def record_digests() -> None:
    """Write digests.json from one cold pass of each workload at the
    reference seed.  Outputs are byte-identical by the program's contract,
    so this is needed only when a workload's inputs change."""
    env, _ = child_env()
    os.makedirs(WORK, exist_ok=True)
    out = {"seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name, build in workloads.WORKLOADS.items():
        work = tempfile.mkdtemp(prefix=f"{name}-digests-", dir=WORK)
        try:
            write_inputs(name, work, workloads.REFERENCE_SEED, False, env)
            checker = Checker(build(work, workloads.REFERENCE_SEED, False, write=False), None)
            cold_pass(checker.workload, env, work, checker, name)
            if checker.failures:
                raise RuntimeError("; ".join(checker.failures))
            out["workloads"][name] = checker.first
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGESTS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chantool", "cli.py")):
        print(f"error: no chantool sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


# The benchmark's directory holds its sources only; children still compile
# chantool's bytecode as an installed program would.
sys.dont_write_bytecode = True
sys.path.insert(0, SRC)
import tracing  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
