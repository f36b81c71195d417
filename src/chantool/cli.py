"""Batch command line: scenario configs in, CSV curves and CIR archives out.

Subcommands: blockage, pathloss-fit, gbsm, sounder, analyze.  Exit codes:
0 success, 2 input or config error, 3 resource/sizing error.  Every output
file goes through archive.staged, which renames it into place last.
chantool's own code runs serially in one thread, so repeated runs with
identical inputs produce byte-identical files under the same BLAS thread
count and numpy SIMD dispatch: analyze's Gram product goes through BLAS, and
numpy's kernels for the CPU can round differently.
Importing this module before numpy loads defaults OPENBLAS_THREAD_TIMEOUT
to 4, so OpenBLAS's idle workers sleep at once instead of spinning on a
second core; that changes when they sleep, not how many threads split the
product, and a value already set wins.  Once numpy is loaded the value can
no longer act in this process and would only reach its children, so the
environment is left as it is.
A process starts at entry(), which freezes the heap; main(argv) runs in process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np  # noqa: E402  (after the OpenBLAS default)

from chantool.analysis import (
    THRESHOLD_RULE,
    check_correlation_size,
    los_power_track,
    pdp_correlation_matrix,
    stationary_intervals,
)
from chantool.archive import (
    MAX_ANTENNAS,
    ArchiveError,
    atomic_write_text,
    open_archive,
    read_archive,  # noqa: F401  (perfbench/tracing.py wraps cli.read_archive)
    staged,
    write_archive,
)
from chantool.blockage import MODELS, BlockageConfig, sweep_blocker
from chantool.config import build, gbsm_config, load_config, parse_config, sounder_settings
from chantool.core import CirSnapshot, check_fields, levels_db
from chantool.gbsm import (
    SizingError,
    run_scenario,  # noqa: F401  (perfbench/tracing.py wraps cli.run_scenario)
    stream_scenario,
)
from chantool.pathloss import (
    FitOverflowError,
    RankDeficientError,
    abg_fit,
    ci_fit,
    sample_columns,
)
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


def cmd_blockage(args) -> int:
    cfg = load_config(args.config)
    chosen = args.model or ["all"]
    models = list(MODELS) if "all" in chosen else [m for m in MODELS if m in chosen]
    # Every parameter object is built before the first sweep, so a value
    # they refuse is reported against the file, before any output; a value
    # the sweeps refuse is cited at the section too.
    with cfg.cited("blockage") as section:
        sweep = build(BlockageConfig, section)
        positions, centers = sweep.trajectory()
        scenarios = sweep.scenarios()
        columns = []
        for model in models:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = sweep_blocker(scenarios[MODELS[model]], model, centers)
            columns.append([value for _, value in result])
    # Counted once every sweep has run, so a refusal is the only line.
    for model, values in zip(models, columns):
        nan_count = sum(1 for v in values if math.isnan(v))
        print(f"{model}: {nan_count} NaN point(s)", file=sys.stderr)

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
    pass of SAMPLES_BLOCK_CHARS blocks.  A block that fails is parsed again a
    line at a time, which cites its first bad line (blank lines count): every
    check is per row, so some line fails on its own."""
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
            except ValueError:
                numbered = enumerate(map(str.strip, lines), start + 1)
                for lineno, line in [(n, line) for n, line in numbered if line][skip:]:
                    try:
                        blocks.append(_parse_sample_rows([line]))
                    except ValueError as err:
                        raise ValueError(f"{path}:{lineno}: {err}") from None
    if header != SAMPLES_HEADER:
        raise ValueError(
            f"{path}: expected header {SAMPLES_HEADER!r}, got {header or '<empty>'!r}"
        )
    # The columns are views of one (row, column) array, as one conversion
    # of the whole body gives them.
    return tuple(np.concatenate(blocks).T)


def cmd_pathloss_fit(args) -> int:
    columns = _read_samples_csv(args.samples)
    # Every refusal of a fit is about the samples, so each names their file.
    try:
        if args.model == "ci":
            fit = ci_fit(*columns)
            params = {"n": fit.n}
        else:
            fit = abg_fit(*columns, fix_gamma=0.0 if args.model == "fi" else None)
            params = {"alpha": fit.alpha, "beta_db": fit.beta_db, "gamma": fit.gamma}
    except RankDeficientError as err:
        fi_helps = args.model == "abg" and columns[0].min() < columns[0].max()
        hint = " (use --model fi, which fits no frequency term)" if fi_helps else ""
        raise ValueError(f"{args.samples}: {err.reason}{hint}") from None
    except FitOverflowError as err:
        overflow = f"the losses overflow the {args.model} fit"
        raise ValueError(f"{args.samples}: {overflow}: {err}") from None
    except ValueError as err:
        raise ValueError(f"{args.samples}: {err}") from None
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
    with cfg.cited("gbsm") as section:
        gcfg = gbsm_config(section)
        limit = f"at most {MAX_ANTENNAS}, the archive's limit"
        check_fields(gcfg, (limit, lambda v: v <= MAX_ANTENNAS, ("n_tx", "n_rx")))
    # The evolution runs and the run is sized here; write_archive stages
    # --out before it pulls the first block, so a refused path costs no
    # synthesis, and each block is written as it is made.  Extreme values
    # can overflow synthesis to inf or NaN; write_archive refuses such a
    # block, and numpy's warnings would only precede that line.
    with np.errstate(over="ignore", invalid="ignore"):
        run = stream_scenario(gcfg)
        size = write_archive(args.out, run)
    print(
        f"{run.n_time} snapshots, mean clusters {run.mean_cluster_count:.3f}, "
        f"{size} bytes"
    )
    return EXIT_OK


def cmd_sounder(args) -> int:
    # The config is settled before either capture is read, so a config
    # error costs no archive decode.  Without --config, [sounder] is absent.
    cfg = load_config(args.config) if args.config else parse_config("")
    with cfg.cited("sounder", required=False) as section:
        budget, policy, band_fraction = sounder_settings(section)
    # Both headers are checked before either payload is decoded; the cal's
    # single capture is then its one block.  The rx captures stream through
    # one block buffer, and each block is deconvolved as one complex128
    # array through one FFT pair; its CIRs are dropped before the next.
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
        if not math.isfinite(rx.sample_period_s * (rx.shape[3] - 1) * 1e9):
            raise ArchiveError(
                "rx's last delay in ns, sample_period_s * (n_delay - 1) * 1e9, must be finite"
            )
        [(_, cal_block)] = cal_blocks
        calibration = calibrate(cal_block[0, 0, 0], band_fraction, rx.sample_period_s)

        mpc_rows = ["snapshot,delay_ns,power_db\n"]
        stat_rows = ["snapshot,received_power_db,path_loss_db,rms_ds_ns\n"]
        for t0, block in blocks:
            cirs = deconvolve_cir(block[:, 0, 0], calibration)
            for t, cir in enumerate(cirs.samples, t0):
                mpcs = extract_mpcs(CirSnapshot(cirs.sample_period_s, cir), policy)
                mpc_rows += [f"{t},{_fmt(m.delay_s * 1e9)},{_fmt(m.power_db)}\n" for m in mpcs]
                p_rx = received_power(mpcs)
                ds_ns = rms_delay_spread(mpcs) * 1e9 if mpcs else math.nan
                pl_db = path_loss_from_power(p_rx, budget)
                stat_rows.append(f"{t},{_fmt(p_rx)},{_fmt(pl_db)},{_fmt(ds_ns)}\n")
            del cirs, cir
    atomic_write_text(args.out, "".join(mpc_rows + stat_rows))
    return EXIT_OK


# analyze decodes each archive block in strips of about this many bytes of
# complex128, so each strip's temporaries, its copy and the LOS search's,
# fit where the heap reuses them: whole 1 MiB blocks left about 2 MB more
# resident beside the correlation matrix on 1500 snapshots of 205 bins.
DECODE_STRIP_BYTES = 1 << 18


def _read_pair(path: str, los: bool) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """The |s|^2 of pair (0, 0) of an archive of at least 2 snapshots, as
    one (time, delay) float64 array, and with los its LOS track, decoded one
    archive block at a time: no other pair is decoded, and no payload at
    all if the snapshot count would overrun the correlation's byte budget."""
    with open_archive(path) as (header, blocks):
        if header.shape[0] < 2:
            raise ArchiveError(f"{path}: need at least 2 snapshots to analyze")
        check_correlation_size(header.shape[0])
        power = np.empty((header.shape[0], header.shape[3]))
        track = []
        strip = max(1, DECODE_STRIP_BYTES // (16 * header.shape[3]))
        for t, block in blocks:
            for a in range(0, len(block), strip):
                samples = block[a : a + strip, 0, 0].astype(np.complex128)
                rows = power[t + a : t + a + len(samples)]
                np.abs(samples, out=rows)
                np.square(rows, out=rows)
                if los:
                    track += los_power_track(samples, header.t0_s, header.dt_s, start=t + a)
    return power, track


def upper_row_blocks(held: list[np.ndarray]) -> list[np.ndarray]:
    """The upper triangle of the square matrix that held holds, in the row
    blocks that symmetric_matrix_rows writes: values[a:a+k, a:] for each a,
    k = n/32 (at least 1), each a copy.  The matrix is taken out of held,
    so that its one reference is here, and cut from the last block upward;
    after each cut ndarray.resize drops the rows cut, so the matrix and the
    blocks together stay near the matrix's own bytes."""
    values = held.pop()
    n = len(values)
    k = max(1, n // 32)
    blocks = []
    for a in reversed(range(0, n, k)):
        blocks.append(values[a : a + k, a:].copy())
        values.resize((a, n))
    return blocks[::-1]


def symmetric_matrix_rows(blocks: list[np.ndarray]):
    """Yield each row of a square float64 matrix, given as the blocks that
    upper_row_blocks cuts, as the bytes of ",".join(map(repr, row)) + "\\n",
    formatting each distinct value of a row once.  It empties the list as
    it goes: each block is released once its rows are written.

    Row i formats the distinct bit patterns of its columns i.. in one call
    (bits, so 0.0 and -0.0 stay apart) and takes columns ..i-1 from the
    tokens that earlier rows formatted, so the matrix must be exactly
    symmetric, as a CorrelationMatrix's values are; this writer does not
    check it.  Each token is padded with spaces to 24 bytes, the longest
    float64 repr.  Each block's rows go through one (block, n) buffer.
    After a block, its columns of each later block are copied out as one
    tile, which that block takes transposed as its left columns, so at most
    n^2/4 tokens wait: 6n^2 bytes, beside the blocks not yet written.  The
    two together stay near the 8n^2 bytes of the matrix, which
    analysis.MAX_CORR_BYTES bounds.
    """
    n = blocks[0].shape[1]
    k = len(blocks[0])
    buffer = np.empty((k, n), dtype=[("token", "S24"), ("comma", "S1")])
    buffer["comma"] = b","
    tokens = buffer["token"]
    tiles = {}  # tiles[c]: one tile from each earlier block, for the block at row c
    for a in range(0, n, k):
        block = blocks.pop(0)  # rows a..b-1, columns a..
        b = a + len(block)
        # Only the last block is short, so block j's tile fills columns jk..jk+k.
        for j, tile in enumerate(tiles.pop(a, [])):
            tokens[: b - a, j * k : j * k + k] = tile.T
        for i in range(a, b):
            bits, inverse = np.unique(block[i - a, i - a :].view(np.int64), return_inverse=True)
            text = ("%-24r" * len(bits)) % tuple(bits.view(np.float64).tolist())
            tokens[i - a, i:] = np.frombuffer(text.encode(), dtype="S24")[inverse]
            tokens[i - a, a:i] = tokens[: i - a, i]
            row_bytes = buffer[i - a].view(np.uint8)
            line = row_bytes[row_bytes != ord(" ")]
            line[-1] = ord("\n")
            yield line.tobytes()
        del block, bits, inverse, text, line  # not to wait beside the tiles
        for c in range(b, n, k):
            tiles.setdefault(c, []).append(tokens[:, c : c + k].copy())


def cmd_analyze(args) -> int:
    if args.threshold is not None and not args.stationarity:
        raise ValueError("--threshold applies only with --stationarity")
    threshold = 0.8 if args.threshold is None else args.threshold
    check_fields({"threshold": threshold}, THRESHOLD_RULE)
    # Every output is staged before the archive is read and renamed only
    # after the last is complete, so a failed run leaves none of them.
    stem, ext = os.path.splitext(args.out)
    names = ["corr"] + ["intervals"] * args.stationarity + ["los"] * args.los_track
    paths = [args.out] + [f"{stem}_{name}{ext or '.csv'}" for name in names[1:]]
    with staged(paths) as handles:
        out = dict(zip(names, handles))
        power, track = _read_pair(args.archive, "los" in out)
        # |s|^2 becomes the PDPs in dB where it lies, and the correlation
        # makes it linear again in place: beside the matrix it is the one
        # (snapshots, bins) array.
        corr = pdp_correlation_matrix(levels_db(power), overwrite_pdp=True)
        del power
        if "intervals" in out:
            report = stationary_intervals(corr, threshold)
            rows = [f"{start},{end}\n" for start, end in report.intervals]
            out["intervals"].write("".join(["start_index,end_index\n", *rows]).encode())
        # The text reads only the upper triangle, so the matrix is handed
        # over and shrinks as its row blocks are cut: it never waits beside
        # the text's tokens, nor beside half of itself.
        held = [corr.values]
        del corr
        out["corr"].writelines(symmetric_matrix_rows(upper_row_blocks(held)))
        if "los" in out:
            rows = [f"{_fmt(t)},{_fmt(level)}\n" for t, level in track]
            out["los"].write("".join(["t_s,power_db\n", *rows]).encode())
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
    p.add_argument("--threshold", type=float, help="with --stationarity; default 0.8")
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


def entry() -> int:
    """Process entry of `python -m chantool` and the `chantool` script.  It
    freezes the objects alive at dispatch, numpy's and scipy's among them, so
    the interpreter's final collection at exit skips them.  main() never
    freezes: a long-lived caller would stop collecting its own garbage."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
