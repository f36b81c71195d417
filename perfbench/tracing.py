"""Spans around calls into chantool's modules, for the benchmark's traced run.

The tracer measures each module from outside: it replaces public names with
timing wrappers where they are looked up (`cli` imports its layer functions
by name, `analysis` imports `extract_mpcs`, `gbsm` looks up its own step
functions as module globals) and restores them afterwards.  Spans stay in
memory; `layer_metrics` folds them into the per-layer numbers.

A name a later change removes is skipped: its span reports zero calls and
its time falls into the parent's self time.
"""

from __future__ import annotations

import math
import os
import re
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter


class Tracer:
    """In-memory spans [name, start, end, parent index, run id] plus counters."""

    def __init__(self, run_id: int) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = run_id
        # Indices of the open spans.  The traced run is single-threaded
        # (CHANTOOL_THREADS unset), so one stack serves every call.
        self._stack: list[int] = []

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name, count=None):
        """Time every call of fn as a span; name may be a function of the
        call's arguments, and count(counts, args, kwargs, result) runs after
        the span has closed."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, _now(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = _now()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _fft_counter(tracer: Tracer, fn):
    """Count FFT calls and points at the numpy boundary, inside sounder spans."""

    def wrapper(a, n=None, axis=-1, *args, **kwargs):
        current = tracer.current()
        if current is not None and current.startswith("sounder."):
            shape = np.shape(a)
            points = int(np.prod(shape)) if n is None else n * int(np.prod(shape)) // shape[axis]
            tracer.counts["sounder.fft_calls"] += 1
            tracer.counts["sounder.fft_points"] += points
        return fn(a, n, axis, *args, **kwargs)

    return wrapper


# Counters.  Each reads only what a call takes or returns; a signature that
# no longer fits leaves the counter at zero rather than failing the run.


def _guarded(fn):
    def count(counts, args, kwargs, result):
        try:
            fn(counts, args, kwargs, result)
        except (AttributeError, IndexError, TypeError, ValueError):
            counts["trace.counter_errors"] += 1

    return count


@_guarded
def _count_run(counts, args, kwargs, seq):
    n_time, n_tx, n_rx, n_delay = seq.cir.shape
    counts["gbsm.steps"] += n_time
    counts["gbsm.snapshots"] += n_time * n_tx * n_rx
    counts["gbsm.delay_bins"] += n_delay


@_guarded
def _count_evolve(counts, args, kwargs, state):
    before = args[0]
    born = state.next_id - before.next_id
    counts["gbsm.born"] += born
    counts["gbsm.died"] += len(before.clusters) + born - len(state.clusters)


@_guarded
def _count_synth(counts, args, kwargs, snapshot):
    counts["gbsm.rays"] += sum(len(c.rays) for c in args[0].clusters)


@_guarded
def _count_write(counts, args, kwargs, size):
    counts["archive.write_bytes"] += size


@_guarded
def _count_read(counts, args, kwargs, seq):
    counts["archive.read_bytes"] += os.path.getsize(args[0])


@_guarded
def _count_text(counts, args, kwargs, result):
    # Outputs are ASCII, so characters equal bytes.
    counts["archive.text_bytes"] += len(args[1])


@_guarded
def _count_deconv(counts, args, kwargs, cir):
    counts["sounder.deconv_calls"] += 1


@_guarded
def _count_extract(counts, args, kwargs, mpcs):
    counts["sounder.extract_calls"] += 1
    counts["sounder.mpcs"] += len(mpcs)


@_guarded
def _count_corr(counts, args, kwargs, corr):
    counts["analysis.corr_cells"] += corr.values.size


@_guarded
def _count_segment(counts, args, kwargs, report):
    counts["analysis.intervals"] += len(report.intervals)


@_guarded
def _count_sweep(counts, args, kwargs, result):
    counts["blockage.positions"] += len(result)
    counts["blockage.nan_positions"] += sum(1 for _, v in result if math.isnan(v))


@_guarded
def _count_fit(counts, args, kwargs, model):
    counts["pathloss.samples"] += len(args[0])


@_guarded
def _count_load(counts, args, kwargs, cfg):
    counts["config.loads"] += 1


def _sweep_name(*args, **kwargs):
    model = kwargs.get("model", args[1] if len(args) > 1 else "unknown")
    return f"blockage.{model}"


def _targets(tracer: Tracer):
    """(module, attribute, replacement factory) for every wrapped name."""
    import numpy.fft

    from chantool import analysis, cli, gbsm

    def span(name, count=None):
        return lambda fn: tracer.wrap(fn, name, count)

    targets = [
        (cli, f"cmd_{sub}", span(f"cli.{sub}"))
        for sub in ("blockage", "pathloss_fit", "gbsm", "sounder", "analyze")
    ]
    targets += [
        (cli, "load_config", span("config.load", _count_load)),
        (cli, "read_archive", span("archive.read", _count_read)),
        (cli, "write_archive", span("archive.write", _count_write)),
        (cli, "atomic_write_text", span("archive.text", _count_text)),
        (cli, "run_scenario", span("gbsm.run", _count_run)),
        (gbsm, "init_clusters", span("gbsm.draw")),
        (gbsm, "evolve_clusters", span("gbsm.evolve", _count_evolve)),
        (gbsm, "synthesize_snapshot", span("gbsm.synth", _count_synth)),
        (cli, "deconvolve_cir", span("sounder.deconv", _count_deconv)),
        (cli, "extract_mpcs", span("sounder.extract", _count_extract)),
        (analysis, "extract_mpcs", span("sounder.extract", _count_extract)),
        (cli, "received_power", span("sounder.metrics")),
        (cli, "rms_delay_spread", span("sounder.metrics")),
        (cli, "path_loss_from_power", span("sounder.metrics")),
        (cli, "pdp_correlation_matrix", span("analysis.corr", _count_corr)),
        (cli, "stationary_intervals", span("analysis.segment", _count_segment)),
        (cli, "los_power_track", span("analysis.los")),
        (cli, "sweep_blocker", span(_sweep_name, _count_sweep)),
        (cli, "ci_fit", span("pathloss.fit", _count_fit)),
        (cli, "abg_fit", span("pathloss.fit", _count_fit)),
        (numpy.fft, "fft", lambda fn: _fft_counter(tracer, fn)),
        (numpy.fft, "ifft", lambda fn: _fft_counter(tracer, fn)),
    ]
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block; yields the names
    that could not be wrapped because the program no longer has them."""
    saved, missing = [], []
    try:
        for module, attr, make in _targets(tracer):
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Every per-layer metric, in report order.  Names ending in _s are seconds;
# the rest are counts, or bytes where the name says so.
TIME_METRICS = {
    # metric: (span name or prefix, "total" | "self")
    "config.load_s": ("config.load", "total"),
    "cli.self_s": ("cli.", "self"),
    "gbsm.run_s": ("gbsm.run", "total"),
    "gbsm.draw_s": ("gbsm.draw", "total"),
    "gbsm.evolve_s": ("gbsm.evolve", "total"),
    "gbsm.synth_s": ("gbsm.synth", "total"),
    "gbsm.self_s": ("gbsm.run", "self"),
    "archive.write_s": ("archive.write", "total"),
    "archive.read_s": ("archive.read", "total"),
    "archive.text_s": ("archive.text", "total"),
    "sounder.deconv_s": ("sounder.deconv", "total"),
    "sounder.extract_s": ("sounder.extract", "total"),
    "sounder.metrics_s": ("sounder.metrics", "total"),
    "analysis.corr_s": ("analysis.corr", "total"),
    "analysis.segment_s": ("analysis.segment", "total"),
    "analysis.los_self_s": ("analysis.los", "self"),
    "blockage.metis_s": ("blockage.metis", "total"),
    "blockage.kirchhoff_s": ("blockage.kirchhoff", "total"),
    "blockage.gtd_s": ("blockage.gtd", "total"),
    "pathloss.fit_s": ("pathloss.fit", "total"),
}
COUNT_METRICS = [
    "config.loads",
    "gbsm.steps", "gbsm.snapshots", "gbsm.delay_bins", "gbsm.born", "gbsm.died", "gbsm.rays",
    "archive.write_bytes", "archive.read_bytes", "archive.text_bytes",
    "sounder.deconv_calls", "sounder.fft_calls", "sounder.fft_points",
    "sounder.extract_calls", "sounder.mpcs",
    "analysis.corr_cells", "analysis.intervals",
    "blockage.positions", "blockage.nan_positions",
    "pathloss.samples",
]


def span_totals(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """Per span name: calls, total time and self time.  Self time is the
    span's duration minus its children's; children of one span run one
    after another, so their durations do not overlap."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[i]
    return {name: tuple(v) for name, v in out.items()}


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    totals = span_totals(spans)
    metrics: dict[str, float] = {}
    for metric, (key, kind) in TIME_METRICS.items():
        column = 1 if kind == "total" else 2
        metrics[metric] = sum(
            v[column] for name, v in totals.items()
            if name == key or (key.endswith(".") and name.startswith(key))
        )
    for metric in COUNT_METRICS:
        metrics[metric] = counts.get(metric, 0)
    return metrics


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """import.numpy_s, import.scipy_s and import.chantool_s from the output
    of `python -X importtime -c "import chantool.cli"`.

    The output lists each import after the imports it caused, indented one
    level deeper.  numpy and scipy are charged at their outermost entries;
    numpy modules first imported by scipy count as scipy.  chantool's time
    is its cumulative time minus the two.
    """
    entries = []  # (depth, module, cumulative seconds), in output order
    for match in _IMPORTTIME.finditer(stderr):
        entries.append((len(match.group(3)), match.group(4), int(match.group(2)) / 1e6))
    top = {"numpy": 0.0, "scipy": 0.0, "chantool": 0.0}
    stack: list[str] = []  # packages of the open ancestors, outermost first
    depths: list[int] = []
    for depth, module, cumulative in reversed(entries):
        while depths and depths[-1] >= depth:
            depths.pop()
            stack.pop()
        package = module.split(".", 1)[0]
        if package == "chantool" and "chantool" not in stack:
            top["chantool"] += cumulative
        elif package in ("numpy", "scipy") and "numpy" not in stack and "scipy" not in stack:
            top[package] += cumulative
        depths.append(depth)
        stack.append(package)
    return {
        "import.numpy_s": top["numpy"],
        "import.scipy_s": top["scipy"],
        "import.chantool_s": top["chantool"] - top["numpy"] - top["scipy"],
    }
