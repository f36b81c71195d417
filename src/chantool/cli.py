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

from chantool.analysis import (
    los_power_track,
    pdp_correlation_matrix,
    stationary_intervals,
)
from chantool.archive import (
    BLOCK_BYTES,
    ArchiveError,
    atomic_write_bytes,
    atomic_write_text,
    read_archive,
    write_archive,
)
from chantool.blockage import (
    MODELS,
    BlockageScenario,
    Cylinder,
    GeometryError,
    Screen,
    sweep_blocker,
)
from chantool.config import (
    Config,
    ConfigError,
    blockage_settings,
    gbsm_config,
    load_config,
    sounder_settings,
)
from chantool.core import DB_FLOOR, FrequencyBand, Point3, pdp_from_cir
from chantool.gbsm import SizingError, run_scenario
from chantool.pathloss import PathLossSample, RankDeficientError, abg_fit, ci_fit
from chantool.sounder import (
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


def _require_config(args) -> Config:
    if not args.config:
        raise ConfigError("<args>", 0, "--config is required for this command")
    return load_config(args.config)


def _require_section(cfg: Config, name: str) -> dict[str, object]:
    section = cfg.section(name)
    if section is None:
        raise cfg.error(name, None, f"missing [{name}] section")
    return section


def cmd_blockage(args) -> int:
    cfg = _require_config(args)
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
    models = list(MODELS) if "all" in args.model else [
        m for m in MODELS if m in args.model
    ]
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


def _read_samples_csv(path: str) -> list[PathLossSample]:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0] != "distance_m,freq_ghz,pl_db":
        raise ValueError(
            f"{path}: expected header 'distance_m,freq_ghz,pl_db', "
            f"got {lines[0] if lines else '<empty>'!r}"
        )
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        try:
            d, f, pl = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value") from None
        samples.append(PathLossSample(distance_m=d, freq_ghz=f, pl_db=pl))
    return samples


def cmd_pathloss_fit(args) -> int:
    samples = _read_samples_csv(args.samples)
    model_name = args.model
    if args.config:
        section = load_config(args.config).section("pathloss") or {}
        if model_name is None:
            model_name = section.get("model")
    if model_name is None:
        model_name = "ci"
    try:
        if model_name == "ci":
            fit = ci_fit(samples)
            params = {"n": fit.n}
        else:
            fit = abg_fit(samples, fix_gamma=0.0 if model_name == "fi" else None)
            params = {"alpha": fit.alpha, "beta_db": fit.beta_db, "gamma": fit.gamma}
    except RankDeficientError as err:
        fi_helps = model_name == "abg" and len({s.distance_m for s in samples}) > 1
        hint = " (use --model fi for single-frequency data)" if fi_helps else ""
        raise ValueError(f"{err}{hint}") from None
    report = {
        "model": model_name,
        "parameters": params,
        "sigma_db": fit.sigma_db,
        "residual_rms_db": fit.sigma_db,
        "sample_count": len(samples),
    }
    atomic_write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_gbsm(args) -> int:
    cfg = _require_config(args)
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
    rx = read_archive(args.rx)
    cal = read_archive(args.cal)
    for name, seq in (("rx", rx), ("cal", cal)):
        if seq.cir.shape[1] != 1 or seq.cir.shape[2] != 1:
            raise ArchiveError(f"{name} capture must have n_tx = n_rx = 1")
    if cal.n_time not in (1, rx.n_time):
        raise ArchiveError(
            f"cal has {cal.n_time} snapshots, rx has {rx.n_time}; "
            "need 1 or a matching count"
        )
    if rx.sample_period_s != cal.sample_period_s:
        raise ArchiveError("rx and cal sample periods differ")
    sample_rate = 1.0 / rx.sample_period_s

    mpc_rows = ["snapshot,delay_ns,power_db\n"]
    stat_rows = ["snapshot,received_power_db,path_loss_db,rms_ds_ns\n"]
    for t in range(rx.n_time):
        y_rx = rx.cir[t, 0, 0]
        y_cal = cal.cir[min(t, cal.n_time - 1), 0, 0]
        cir = deconvolve_cir(
            y_rx, y_cal, band_fraction=band_fraction, sample_rate_hz=sample_rate
        )
        mpcs = extract_mpcs(cir, policy)
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


def cmd_analyze(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {args.threshold}")
    seq = read_archive(args.archive)
    if seq.n_time < 2:
        raise ArchiveError(f"{args.archive}: need at least 2 snapshots to analyze")
    corr = pdp_correlation_matrix(pdp_from_cir(seq.cir[:, 0, 0]))
    # Chunks of whole rows (~BLOCK_BYTES at ~20 characters a value) bound the text.
    step = max(1, BLOCK_BYTES // (20 * seq.n_time))
    blocks = (corr.values[i : i + step].tolist() for i in range(0, seq.n_time, step))
    chunks = ("".join(",".join(map(repr, r)) + "\n" for r in b).encode() for b in blocks)
    atomic_write_bytes(args.out, chunks)

    stem, ext = os.path.splitext(args.out)
    if args.stationarity:
        report = stationary_intervals(corr, args.threshold)
        rows = [f"{start},{end}\n" for start, end in report.intervals]
        text = "".join(["start_index,end_index\n", *rows])
        atomic_write_text(f"{stem}_intervals{ext or '.csv'}", text)
    if args.los_track:
        track = los_power_track(seq)
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
        default=None,
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
    if getattr(args, "model", None) is None and args.command == "blockage":
        args.model = ["all"]
    try:
        return args.func(args)
    except SizingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SIZING
    except (ConfigError, ArchiveError, GeometryError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
