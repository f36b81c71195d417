"""Batch command line: scenario configs in, CSV curves and CIR archives out.

Subcommands: blockage, pathloss-fit, gbsm, sounder, analyze.  Exit codes:
0 success, 2 input or config error, 3 resource/sizing error.  All output
files are written atomically.  chantool's own code runs serially in one
thread, so repeated runs with identical inputs produce byte-identical files
under the same BLAS thread count: analyze's Gram product goes through BLAS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from chantool.analysis import (
    MAX_CORR_BYTES,
    check_correlation_size,
    los_power_track,
    pdp_correlation_matrix,
    require_exact_symmetry,
    stationary_intervals,
)
from chantool.archive import (
    BLOCK_BYTES,
    MAX_ANTENNAS,
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
    field_key,
    gbsm_config,
    load_config,
    sounder_settings,
)
from chantool.core import FrequencyBand, Point3, pdp_from_cir
from chantool.gbsm import FieldError, SizingError, run_scenario
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


@contextmanager
def _cited(cfg: Config, name: str):
    """Report a ValueError raised while building section name's parameter
    objects as a ConfigError: at the line of the key a FieldError names, and
    at the line of the section's header for any other."""
    try:
        yield
    except FieldError as err:
        raise cfg.error(name, field_key(err), str(err)) from None
    except ValueError as err:
        raise cfg.error(name, None, str(err)) from None


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
    zc = settings["blocker_center_z_m"]
    if scenario == "crossing":
        positions = [round(-1.0 + 0.1 * i, 10) for i in range(21)]
        centers = [Point3(settings["along_position_m"], lat, zc) for lat in positions]
    else:
        positions = [round(settings["link_length_m"] * (0.1 + 0.02 * i), 10) for i in range(41)]
        centers = [Point3(along, settings["lateral_offset_m"], zc) for along in positions]

    # Every parameter object is built before the first sweep, so a value
    # they refuse is reported against the file, before any output; a value
    # the sweeps refuse is cited at the section too.
    with _cited(cfg, "blockage"):
        band = FrequencyBand.preset(settings["carrier_ghz"])
        h = settings["antenna_height_m"]
        tx = Point3(0.0, 0.0, h)
        rx = Point3(settings["link_length_m"], 0.0, h)
        blockers = (
            Screen(centers[0], settings["screen_width_m"], settings["screen_height_m"]),
            Cylinder(centers[0], settings["cylinder_radius_m"], settings["cylinder_height_m"]),
        )
        scenarios = {type(b): BlockageScenario(tx, rx, band, (b,)) for b in blockers}
        columns = []
        for model in models:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = sweep_blocker(scenarios[MODELS[model]], model, centers)
            values = [value for _, value in result]
            nan_count = sum(1 for v in values if math.isnan(v))
            print(f"{model}: {nan_count} NaN point(s)", file=sys.stderr)
            columns.append(values)

    header = "position_m," + ",".join(f"{m}_att_db" for m in models) + "\n"
    rows = [",".join(map(_fmt, row)) + "\n" for row in zip(positions, *columns)]
    atomic_write_text(args.out, "".join([header, *rows]))
    return EXIT_OK


SAMPLES_HEADER = "distance_m,freq_ghz,pl_db"

# The samples CSV is read in blocks of whole lines of about this many
# characters, so the reader holds the parsed values and one block's text,
# never the whole file's text or one string per field of it.
SAMPLES_BLOCK_CHARS = 1 << 16


def _parse_sample_rows(rows: list[str]) -> np.ndarray:
    """The (row, column) float64 values of 'distance,frequency,loss' rows,
    by one float conversion, with their columns checked by sample_columns."""
    counts = {row.count(",") for row in rows} - {2}
    if counts:
        raise ValueError(f"expected 3 columns, got {min(counts) + 1}")
    values = np.array(",".join(rows).split(",") if rows else [], dtype=np.float64)
    values = values.reshape(-1, 3)
    sample_columns(*values.T)
    return values


def _read_samples_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked columns of a distance_m,freq_ghz,pl_db CSV, read in one
    pass of SAMPLES_BLOCK_CHARS blocks.  If a block fails as a whole, its
    lines are parsed one by one to cite the first bad one; blank lines count."""
    blocks, header, end = [], None, 0
    with open(path, "r", encoding="utf-8") as handle:
        while lines := handle.readlines(SAMPLES_BLOCK_CHARS):
            start, end = end, end + len(lines)
            rows = [line for line in map(str.strip, lines) if line]
            skip = 0  # 1 in the block that holds the header
            if header is None and rows:
                header, skip = rows[0], 1
                if header != SAMPLES_HEADER:
                    break
            try:
                blocks.append(_parse_sample_rows(rows[skip:]))
            except ValueError as err:
                numbered = enumerate(map(str.strip, lines), start + 1)
                for lineno, line in [(n, line) for n, line in numbered if line][skip:]:
                    try:
                        _parse_sample_rows([line])
                    except ValueError as line_err:
                        raise ValueError(f"{path}:{lineno}: {line_err}") from None
                raise ValueError(f"{path}: {err}") from None
    if header != SAMPLES_HEADER:
        raise ValueError(
            f"{path}: expected header {SAMPLES_HEADER!r}, got {header or '<empty>'!r}"
        )
    # The columns are views of one (row, column) array, as one conversion
    # of the whole body gives them.
    return tuple(np.concatenate(blocks).T)


def cmd_pathloss_fit(args) -> int:
    columns = _read_samples_csv(args.samples)
    try:
        if args.model == "ci":
            fit = ci_fit(*columns)
            params = {"n": fit.n}
        else:
            fit = abg_fit(*columns, fix_gamma=0.0 if args.model == "fi" else None)
            params = {"alpha": fit.alpha, "beta_db": fit.beta_db, "gamma": fit.gamma}
    except RankDeficientError as err:
        fi_helps = args.model == "abg" and columns[0].min() < columns[0].max()
        hint = " (use --model fi for single-frequency data)" if fi_helps else ""
        raise ValueError(f"{err}{hint}") from None
    report = {
        "model": args.model,
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
    with _cited(cfg, "gbsm"):
        gcfg = gbsm_config(section)
    for key in ("n_tx", "n_rx"):
        if getattr(gcfg, key) > MAX_ANTENNAS:
            raise cfg.error(
                "gbsm", key, f"{key} must be at most {MAX_ANTENNAS}, the archive's limit"
            )
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
    with _cited(cfg, "sounder"):
        budget, policy, band_fraction = sounder_settings(cfg and cfg.section("sounder") or {})
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
            p_rx = received_power(mpcs)
            ds_ns = rms_delay_spread(mpcs) * 1e9 if mpcs else math.nan
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
    """Yield each row of a square float64 matrix as the bytes of
    ",".join(map(repr, row)) + "\\n", formatting each distinct value of a
    row once.

    Row i formats the distinct bit patterns of its columns i.. in one call
    (bits, so 0.0 and -0.0 stay apart) and takes columns ..i-1 from the
    tokens that earlier rows formatted, so the matrix must be exactly
    symmetric: anything else raises ValueError before the first row.  Each
    token is padded with spaces to 24 bytes, the longest float64 repr.  Rows
    go in blocks of n/32 through one (block, n) buffer.  After a block, its
    columns of each later block are copied out as one tile, which that block
    takes transposed as its left columns, so at most n^2/4 tokens wait.  A
    wait over MAX_CORR_BYTES raises SizingError before the first row.
    """
    n = len(values)
    if 6 * n * n > MAX_CORR_BYTES:
        raise SizingError(
            f"{n} rows need a {6 * n * n}-byte matrix text store; limit {MAX_CORR_BYTES}"
        )
    require_exact_symmetry(values)
    k = max(1, n // 32)
    buffer = np.empty((k, n), dtype=[("token", "S24"), ("comma", "S1")])
    buffer["comma"] = b","
    tokens = buffer["token"]
    tiles = {}  # tiles[c]: one tile from each earlier block, for the block at row c
    for a in range(0, n, k):
        b = min(a + k, n)
        # Only the last block is short, so block j's tile fills columns jk..jk+k.
        for j, tile in enumerate(tiles.pop(a, [])):
            tokens[: b - a, j * k : j * k + k] = tile.T
        for i in range(a, b):
            bits, inverse = np.unique(values[i, i:].view(np.int64), return_inverse=True)
            text = ("%-24r" * len(bits)) % tuple(bits.view(np.float64).tolist())
            tokens[i - a, i:] = np.frombuffer(text.encode(), dtype="S24")[inverse]
            tokens[i - a, a:i] = tokens[: i - a, i]
            row_bytes = buffer[i - a].view(np.uint8)
            line = row_bytes[row_bytes != ord(" ")]
            line[-1] = ord("\n")
            yield line.tobytes()
        del bits, inverse, text, line  # the last row's; not to wait beside the tiles
        for c in range(b, n, k):
            tiles.setdefault(c, []).append(tokens[:, c : c + k].copy())


def cmd_analyze(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {args.threshold}")
    header, samples = _read_pair(args.archive)
    if args.los_track:
        track = los_power_track(samples, header.t0_s, header.dt_s, header.sample_period_s)
    pdp_db = pdp_from_cir(samples)
    del samples  # so the correlation and the matrix text run without them
    corr = pdp_correlation_matrix(pdp_db)
    del pdp_db
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
    p.add_argument("--model", choices=["ci", "fi", "abg"], default="ci")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pathloss_fit)

    p = sub.add_parser("gbsm", help="generate a CIR archive")
    p.add_argument("--config", required=True)
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
