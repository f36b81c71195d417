"""Batch command line: scenario configs in, CSV curves and CIR archives out.

Subcommands: blockage, pathloss-fit, gbsm, sounder, analyze.  Exit codes:
0 success, 2 input or config error, 3 resource/sizing error.  All output
files are written atomically.  Every computation runs serially in one
thread, so repeated runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from chantool.analysis import (
    check_correlation_size,
    los_power_track,
    pdp_correlation_matrix,
    require_exact_symmetry,
    stationary_intervals,
)
from chantool.archive import (
    BLOCK_BYTES,
    ArchiveError,
    ArchiveHeader,
    atomic_write_bytes,
    atomic_write_text,
    open_archive,
    read_archive,  # noqa: F401  (perfbench/tracing.py wraps cli.read_archive)
    write_archive,
)
from chantool.blockage import (
    MODELS,
    BlockageScenario,
    Cylinder,
    Screen,
    sweep_blocker,
)
from chantool.config import (
    Config,
    blockage_settings,
    gbsm_config,
    load_config,
    sounder_settings,
)
from chantool.core import DB_FLOOR, FrequencyBand, Point3, pdp_from_cir
from chantool.gbsm import SizingError, run_scenario
from chantool.pathloss import RankDeficientError, abg_fit, ci_fit, sample_columns
from chantool.sounder import (
    calibrate,
    deconvolve_cir,
    extract_mpcs,
    path_loss_from_power,
    received_power,
    rms_delay_spread,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SIZING = 3


def _fmt(value: float) -> str:
    """Shortest round-trip decimal; repr already spells NaN as nan."""
    return repr(float(value))


def _require_section(cfg: Config, name: str) -> dict[str, object]:
    section = cfg.section(name)
    if section is None:
        raise cfg.error(name, None, f"missing [{name}] section")
    return section


def cmd_blockage(args) -> int:
    cfg = load_config(args.config)
    section = _require_section(cfg, "blockage")
    settings = blockage_settings(section)
    # A scenario sweeps one coordinate of the blocker path and reads the
    # other from its key; a key for the swept coordinate would be ignored.
    scenario = settings["scenario"]
    ignored = {"crossing": "lateral_offset_m", "along": "along_position_m"}[scenario]
    if ignored in section:
        raise cfg.error(
            "blockage", ignored, f"{ignored} does not apply to scenario = {scenario}"
        )
    chosen = args.model or ["all"]
    models = list(MODELS) if "all" in chosen else [m for m in MODELS if m in chosen]
    band = FrequencyBand.preset(float(settings["carrier_ghz"]))
    h = float(settings["antenna_height_m"])
    length = float(settings["link_length_m"])
    tx = Point3(0.0, 0.0, h)
    rx = Point3(length, 0.0, h)
    zc = float(settings["blocker_center_z_m"])

    if scenario == "crossing":
        positions = [round(-1.0 + 0.1 * i, 10) for i in range(21)]
        centers = [
            Point3(float(settings["along_position_m"]), lat, zc) for lat in positions
        ]
    else:
        positions = [round(1.0 + 0.2 * i, 10) for i in range(41)]
        centers = [
            Point3(along, float(settings["lateral_offset_m"]), zc)
            for along in positions
        ]

    screen = Screen(
        centers[0], float(settings["screen_width_m"]), float(settings["screen_height_m"])
    )
    cylinder = Cylinder(
        centers[0],
        float(settings["cylinder_radius_m"]),
        float(settings["cylinder_height_m"]),
    )
    columns = []
    for model in models:
        blocker = cylinder if model == "gtd" else screen
        scn = BlockageScenario(tx, rx, band, (blocker,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = sweep_blocker(scn, model, centers)
        values = [value for _, value in result]
        nan_count = sum(1 for v in values if math.isnan(v))
        print(f"{model}: {nan_count} NaN point(s)", file=sys.stderr)
        columns.append(values)

    header = "position_m," + ",".join(f"{m}_att_db" for m in models) + "\n"
    rows = [",".join(map(_fmt, row)) + "\n" for row in zip(positions, *columns)]
    atomic_write_text(args.out, "".join([header, *rows]))
    return EXIT_OK


def _parse_sample_rows(rows: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked columns of 'distance,frequency,loss' rows, by one float conversion."""
    counts = {row.count(",") for row in rows} - {2}
    if counts:
        raise ValueError(f"expected 3 columns, got {min(counts) + 1}")
    values = np.array(",".join(rows).split(",") if rows else [], dtype=np.float64)
    return sample_columns(*values.reshape(-1, 3).T)


def _read_samples_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked columns of a distance_m,freq_ghz,pl_db CSV; if the body
    fails as a whole, its lines are parsed one by one to cite the first bad one."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    body = [line for line in map(str.strip, lines) if line]
    if not body or body[0] != "distance_m,freq_ghz,pl_db":
        raise ValueError(
            f"{path}: expected header 'distance_m,freq_ghz,pl_db', "
            f"got {body[0] if body else '<empty>'!r}"
        )
    try:
        return _parse_sample_rows(body[1:])
    except ValueError as err:
        numbered = [(n, line.strip()) for n, line in enumerate(lines, 1) if line.strip()]
        for lineno, line in numbered[1:]:
            try:
                _parse_sample_rows([line])
            except ValueError as line_err:
                raise ValueError(f"{path}:{lineno}: {line_err}") from None
        raise ValueError(f"{path}: {err}") from None


def cmd_pathloss_fit(args) -> int:
    columns = _read_samples_csv(args.samples)
    model_name = args.model
    if args.config:
        section = load_config(args.config).section("pathloss") or {}
        if model_name is None:
            model_name = section.get("model")
    if model_name is None:
        model_name = "ci"
    try:
        if model_name == "ci":
            fit = ci_fit(*columns)
            params = {"n": fit.n}
        else:
            fit = abg_fit(*columns, fix_gamma=0.0 if model_name == "fi" else None)
            params = {"alpha": fit.alpha, "beta_db": fit.beta_db, "gamma": fit.gamma}
    except RankDeficientError as err:
        fi_helps = model_name == "abg" and columns[0].min() < columns[0].max()
        hint = " (use --model fi for single-frequency data)" if fi_helps else ""
        raise ValueError(f"{err}{hint}") from None
    report = {
        "model": model_name,
        "parameters": params,
        "sigma_db": fit.sigma_db,
        "residual_rms_db": fit.sigma_db,
        "sample_count": len(columns[0]),
    }
    atomic_write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_gbsm(args) -> int:
    cfg = load_config(args.config)
    section = _require_section(cfg, "gbsm")
    try:
        gcfg = gbsm_config(section, seed=args.seed)
    except ValueError as err:
        raise cfg.error("gbsm", None, str(err)) from None
    seq = run_scenario(gcfg)
    size = write_archive(args.out, seq)
    print(
        f"{seq.n_time} snapshots, mean clusters {seq.mean_cluster_count:.3f}, "
        f"{size} bytes"
    )
    return EXIT_OK


def cmd_sounder(args) -> int:
    # The config is settled before either capture is read, so a config
    # error costs no archive decode.
    cfg = load_config(args.config) if args.config else None
    try:
        budget, policy, band_fraction = sounder_settings(cfg and cfg.section("sounder") or {})
    except ValueError as err:
        raise cfg.error("sounder", None, str(err)) from None
    # Both headers are checked before either payload is decoded; the cal's
    # single capture is then its one block.  The rx captures stream through
    # one block buffer, widened to complex128 in sub-blocks of at most
    # BLOCK_BYTES: widening each capture alone, beside its FFT temporaries,
    # made the heap shrink and regrow on every capture.
    with open_archive(args.rx) as (rx, blocks), open_archive(args.cal) as (cal, cal_blocks):
        for name, shape in (("rx", rx.shape), ("cal", cal.shape)):
            if shape[1:3] != (1, 1):
                raise ArchiveError(f"{name} capture must have n_tx = n_rx = 1")
        if cal.shape[0] != 1:
            raise ArchiveError(f"cal has {cal.shape[0]} captures; need exactly 1")
        if rx.sample_period_s != cal.sample_period_s:
            raise ArchiveError("rx and cal sample periods differ")
        if rx.shape[3] != cal.shape[3]:
            raise ArchiveError(
                f"rx captures have {rx.shape[3]} samples, cal has {cal.shape[3]}"
            )
        [(_, cal_block)] = cal_blocks
        calibration = calibrate(cal_block[0, 0, 0], band_fraction, 1.0 / rx.sample_period_s)

        mpc_rows = ["snapshot,delay_ns,power_db\n"]
        stat_rows = ["snapshot,received_power_db,path_loss_db,rms_ds_ns\n"]
        step = max(1, BLOCK_BYTES // (16 * rx.shape[3]))
        captures = (
            y_rx
            for _, block in blocks
            for i in range(0, len(block), step)
            for y_rx in block[i : i + step, 0, 0].astype(np.complex128)
        )
        for t, y_rx in enumerate(captures):
            mpcs = extract_mpcs(deconvolve_cir(y_rx, calibration), policy)
            mpc_rows += [f"{t},{_fmt(m.delay_s * 1e9)},{_fmt(m.power_db)}\n" for m in mpcs]
            if mpcs:
                p_rx = received_power(mpcs)
                ds_ns = rms_delay_spread(mpcs) * 1e9
            else:
                p_rx = DB_FLOOR
                ds_ns = math.nan
            pl_db = path_loss_from_power(p_rx, budget)
            stat_rows.append(f"{t},{_fmt(p_rx)},{_fmt(pl_db)},{_fmt(ds_ns)}\n")
    atomic_write_text(args.out, "".join(mpc_rows + stat_rows))
    return EXIT_OK


def _read_pair(path: str) -> tuple[ArchiveHeader, np.ndarray]:
    """The header and pair (0, 0) of an archive of at least 2 snapshots, as a
    (time, delay) complex128 array; no other pair is decoded, and no payload
    at all if the snapshot count would overrun the correlation's byte budget."""
    with open_archive(path) as (header, blocks):
        if header.shape[0] < 2:
            raise ArchiveError(f"{path}: need at least 2 snapshots to analyze")
        check_correlation_size(header.shape[0])
        samples = np.empty((header.shape[0], header.shape[3]), dtype=np.complex128)
        for t, block in blocks:
            samples[t : t + len(block)] = block[:, 0, 0]
    return header, samples


def symmetric_matrix_rows(values: np.ndarray):
    """Yield each row of a square matrix as the bytes of
    ",".join(map(repr, row)) + "\\n", formatting every value once.

    Row i formats its columns i.. itself and gathers columns ..i-1 from the
    tokens that earlier rows formatted, so the matrix must be exactly
    symmetric: anything else raises ValueError before the first row, as a
    matrix too large for the store's int32 offsets raises SizingError.  The
    tokens wait in one byte store, each with its trailing comma, and every
    n/16 rows the store drops the columns already written, so the bytes it
    touches stay below the matrix's own 8n^2.
    """
    n = len(values)
    stride = max(1, n // 16)
    # After row m the store holds columns r.. of rows ..r-1 and columns j+1..
    # of rows j = r..m, r being the last compaction; a token is at most 25
    # bytes (a 24-character repr and its comma).  Allocated once, untouched
    # capacity costs no resident memory, and no regrowth copies the store.
    m = np.arange(n)
    r = m - m % stride
    tokens = int((r * (n - r) + (m - r + 1) * (2 * n - 2 - r - m) // 2).max(initial=0))
    if 25 * tokens >= 2**31:
        raise SizingError(f"{n} rows overrun the int32 offsets of the matrix text")
    require_exact_symmetry(values)
    store = np.empty(25 * tokens, dtype=np.uint8)
    starts = np.zeros(tokens + 1, dtype=np.int32)  # token starts in store, then the end
    base = np.zeros(n, dtype=np.int32)  # row j's first token in starts
    first = np.arange(1, n + 1, dtype=np.int32)  # row j's first stored column
    n_bytes = n_tokens = 0
    for i in range(n):
        if i and i % stride == 0:
            # Keep columns i.. of rows ..i-1, one leftward slice copy a row.
            lo = base[:i] + (i - first[:i])
            hi = np.append(base[1:i], n_tokens)
            spans = zip(lo.tolist(), hi.tolist(), starts[lo].tolist(), starts[hi].tolist())
            n_tokens = n_bytes = 0
            for j, (a, b, src, end) in enumerate(spans):
                store[n_bytes : n_bytes + end - src] = store[src:end]
                starts[n_tokens : n_tokens + b - a] = starts[a:b] - (src - n_bytes)
                base[j] = n_tokens
                n_tokens, n_bytes = n_tokens + b - a, n_bytes + end - src
            first[:i] = i
            starts[n_tokens] = n_bytes
        line = (",".join(map(repr, values[i, i:].tolist())) + "\n").encode()
        # Columns ..i-1: token (j, i) of every earlier row j, in one gather.
        k = base[:i] + (i - first[:i])
        at, size = starts[k], starts[k + 1] - starts[k]
        index = np.repeat(at - (np.cumsum(size) - size), size)  # intp, as indexing wants
        index += np.arange(len(index))
        yield b"".join((store[index], line))
        if i == n - 1:
            break
        # Columns i+1.. follow the first comma; the newline becomes a comma.
        raw = np.frombuffer(line, dtype=np.uint8)
        commas = np.flatnonzero(raw == ord(","))
        tail = len(raw) - 1 - commas[0]
        store[n_bytes : n_bytes + tail] = raw[commas[0] + 1 :]
        store[n_bytes + tail - 1] = ord(",")
        starts[n_tokens : n_tokens + len(commas)] = commas + (n_bytes - commas[0])
        base[i], n_tokens, n_bytes = n_tokens, n_tokens + len(commas), n_bytes + tail
        starts[n_tokens] = n_bytes


def cmd_analyze(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {args.threshold}")
    header, samples = _read_pair(args.archive)
    if args.los_track:
        track = los_power_track(samples, header.t0_s, header.dt_s, header.sample_period_s)
    corr = pdp_correlation_matrix(pdp_from_cir(samples))
    del samples  # the matrix text below needs no samples
    atomic_write_bytes(args.out, symmetric_matrix_rows(corr.values))

    stem, ext = os.path.splitext(args.out)
    if args.stationarity:
        report = stationary_intervals(corr, args.threshold)
        rows = [f"{start},{end}\n" for start, end in report.intervals]
        text = "".join(["start_index,end_index\n", *rows])
        atomic_write_text(f"{stem}_intervals{ext or '.csv'}", text)
    if args.los_track:
        rows = [f"{_fmt(t)},{_fmt(level)}\n" for t, level in track]
        text = "".join(["t_s,power_db\n", *rows])
        atomic_write_text(f"{stem}_los{ext or '.csv'}", text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chantool",
        description="Millimeter-wave channel toolkit batch runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("blockage", help="blocker trajectory attenuation sweep")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--model",
        action="append",
        choices=[*MODELS, "all"],
        help="repeatable; default all",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_blockage)

    p = sub.add_parser("pathloss-fit", help="fit a path loss model to samples")
    p.add_argument("samples", help="CSV with header distance_m,freq_ghz,pl_db")
    p.add_argument("--model", choices=["ci", "fi", "abg"], default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pathloss_fit)

    p = sub.add_parser("gbsm", help="generate a CIR archive")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gbsm)

    p = sub.add_parser("sounder", help="deconvolve captures into MPC lists")
    p.add_argument("--rx", required=True)
    p.add_argument("--cal", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sounder)

    p = sub.add_parser("analyze", help="PDP correlation and stationarity")
    p.add_argument("archive")
    p.add_argument("--stationarity", action="store_true")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--los-track", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SIZING
    # ConfigError, ArchiveError and GeometryError are ValueErrors.
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
