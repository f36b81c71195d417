"""Acceptance suite: twelve end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line on the real stdout so the verdicts
survive pytest's capture.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
from scipy.special import airy

from chantool.analysis import pdp_correlation_matrix, stationary_intervals
from chantool.archive import capture_sequence, read_archive, write_archive
from chantool.blockage import (
    BlockageScenario,
    Cylinder,
    Screen,
    airy_zero,
    default_cylinder,
    default_screen,
    gtd_cylinder_attenuation,
    kirchhoff_screen_attenuation,
    metis_screen_attenuation,
    sweep_blocker,
)
from chantool.cli import main
from chantool.core import (
    BAND_28,
    BAND_39,
    Mpc,
    Point3,
    derive_substream,
    pdp_from_cir,
)
from chantool.gbsm import CirSequence, GbsmConfig, init_clusters, synthesize_snapshot
from chantool.pathloss import (
    AbgModel,
    CiModel,
    abg_eval,
    abg_fit,
    ci_eval,
    ci_fit,
    ci_preset,
)
from chantool.sounder import (
    WaveformSpec,
    calibrate,
    deconvolve_cir,
    extract_mpcs,
    noise_floor_db,
    received_power,
    rms_delay_spread,
    simulate_capture,
)

C = 299792458.0
FS = 1.28e9
H = 1.5
TX = Point3(0.0, 0.0, H)
RX = Point3(10.0, 0.0, H)


VERDICTS: list[str] = []


def report(criterion: int, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion:02d}] {status} ({elapsed:.2f} s): {detail}"
    VERDICTS.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert passed, f"criterion {criterion}: {detail}"


def crossing_positions():
    return [Point3(5.0, round(-1.0 + 0.1 * i, 10), 0.87) for i in range(21)]


def test_criterion_01_ci_path_loss_at_1km():
    t0 = time.perf_counter()
    value = ci_eval(ci_preset("paper-28"), 1000.0, 28.0)
    ok = 139.5 <= value <= 141.5 and value == pytest.approx(140.45, abs=0.01)
    report(1, ok, f"CI paper-28 at 1 km, 28 GHz = {value:.2f} dB in [139.5, 141.5]",
           time.perf_counter() - t0)


def test_criterion_02_kirchhoff_half_plane():
    t0 = time.perf_counter()
    half_plane = Screen(Point3(5.0, 0.0, H - 500.0), 4000.0, 1000.0)
    att = kirchhoff_screen_attenuation(TX, RX, BAND_28, half_plane)
    ok = abs(att - 6.02) <= 0.05
    report(2, ok, f"half-plane edge on the LOS = {att:.3f} dB (target 6.02 +/- 0.05)",
           time.perf_counter() - t0)


def test_criterion_03_blockage_bound_ordering():
    t0 = time.perf_counter()
    centers = crossing_positions()
    screen_scn = BlockageScenario(TX, RX, BAND_28, (default_screen(centers[0]),))
    cyl_scn = BlockageScenario(TX, RX, BAND_28, (default_cylinder(centers[0]),))
    metis = np.array([v for _, v in sweep_blocker(screen_scn, "metis", centers)])
    kirch = np.array([v for _, v in sweep_blocker(screen_scn, "kirchhoff", centers)])
    gtd = np.array([v for _, v in sweep_blocker(cyl_scn, "gtd", centers)])
    elapsed = time.perf_counter() - t0
    ok = (
        7.0 <= metis.max() <= 13.0
        and 12.0 <= kirch.max() <= 18.0
        and 12.0 <= gtd.max() <= 18.0
        and bool(np.all(metis <= kirch + 1e-9))
        and elapsed < 5.0
    )
    report(
        3,
        ok,
        f"peaks metis={metis.max():.2f} in [7,13], kirchhoff={kirch.max():.2f} "
        f"in [12,18], gtd={gtd.max():.2f} in [12,18]; metis <= kirchhoff "
        "at all 21 points",
        elapsed,
    )


def test_criterion_04_frequency_trend():
    t0 = time.perf_counter()
    screen = default_screen(Point3(5.0, 0.0, 0.87))
    deltas = []
    for model in (metis_screen_attenuation, kirchhoff_screen_attenuation):
        a28 = model(TX, RX, BAND_28, screen)
        a39 = model(TX, RX, BAND_39, screen)
        deltas.append(abs(a39 - a28))
    elapsed = time.perf_counter() - t0
    ok = max(deltas) <= 1.5 and elapsed < 5.0
    report(
        4,
        ok,
        f"mid-path KED |att(39) - att(28)|: metis {deltas[0]:.3f} dB, "
        f"kirchhoff {deltas[1]:.3f} dB, both <= 1.5 dB",
        elapsed,
    )


def test_criterion_05_gtd_asymmetry():
    t0 = time.perf_counter()
    near_tx = gtd_cylinder_attenuation(TX, RX, BAND_28,
                                       default_cylinder(Point3(1.0, 0.0, 0.87)))
    near_rx = gtd_cylinder_attenuation(TX, RX, BAND_28,
                                       default_cylinder(Point3(9.0, 0.0, 0.87)))
    elapsed = time.perf_counter() - t0
    ok = near_tx >= near_rx + 5.0 and elapsed < 5.0
    report(
        5,
        ok,
        f"GTD 1 m from tx = {near_tx:.2f} dB >= 1 m from rx = {near_rx:.2f} dB + 5",
        elapsed,
    )


def test_criterion_06_fit_recovery():
    t0 = time.perf_counter()
    n_samples = 10_000

    ci_truth = CiModel(n=2.637, sigma_db=5.47)
    stream = derive_substream(101, "ci-recovery", 0)
    d = np.exp(stream.uniform(np.log(10.0), np.log(800.0), n_samples))
    noise = stream.normal(0.0, ci_truth.sigma_db, n_samples)
    pl = [ci_eval(ci_truth, di, 28.0) + zi for di, zi in zip(d, noise)]
    ci_hat = ci_fit(d, np.full(n_samples, 28.0), pl)

    fi_truth = AbgModel(alpha=2.374, beta_db=67.31, gamma=0.0, sigma_db=6.57)
    stream = derive_substream(101, "fi-recovery", 0)
    d = np.exp(stream.uniform(np.log(10.0), np.log(800.0), n_samples))
    noise = stream.normal(0.0, fi_truth.sigma_db, n_samples)
    pl = [abg_eval(fi_truth, di, 28.0) + zi for di, zi in zip(d, noise)]
    fi_hat = abg_fit(d, np.full(n_samples, 28.0), pl, fix_gamma=0.0)

    elapsed = time.perf_counter() - t0
    ok = (
        abs(ci_hat.n - ci_truth.n) <= 0.05
        and abs(ci_hat.sigma_db - ci_truth.sigma_db) <= 0.3
        and abs(fi_hat.alpha - fi_truth.alpha) <= 0.05
        and abs(fi_hat.sigma_db - fi_truth.sigma_db) <= 0.3
        and elapsed < 5.0
    )
    report(
        6,
        ok,
        f"CI n={ci_hat.n:.4f} (truth 2.637 +/- 0.05), "
        f"sigma={ci_hat.sigma_db:.3f} (5.47 +/- 0.3); "
        f"FI alpha={fi_hat.alpha:.4f} (2.374 +/- 0.05), "
        f"sigma={fi_hat.sigma_db:.3f} (6.57 +/- 0.3)",
        elapsed,
    )


def test_criterion_07_sounder_round_trip():
    t0 = time.perf_counter()
    spec = WaveformSpec()
    snr_db = 30.0
    bins = (10, 50, 120)
    powers = (0.0, -6.0, -12.0)
    channel = [
        Mpc(b / FS, 10.0 ** (p / 20.0)) for b, p in zip(bins, powers)
    ]
    stream = derive_substream(7, "sounder-roundtrip", 0)
    y_rx, y_cal = simulate_capture(channel, spec, snr_db=snr_db, stream=stream)
    cir = deconvolve_cir(y_rx, calibrate(y_cal))
    mpcs = extract_mpcs(cir)
    gain_db = received_power(mpcs) - noise_floor_db(cir) - snr_db
    elapsed = time.perf_counter() - t0

    delays_ok = len(mpcs) == 3 and all(
        abs(round(m.delay_s * FS) - b) <= 1 for m, b in zip(mpcs, bins)
    )
    powers_ok = all(abs(m.power_db - p) <= 0.5 for m, p in zip(mpcs, powers))
    gain_ok = 35.0 <= gain_db <= 37.0
    ok = delays_ok and powers_ok and gain_ok and elapsed < 10.0
    report(
        7,
        ok,
        f"3-path round trip: delays +/-1 sample ({delays_ok}), powers +/-0.5 dB "
        f"({powers_ok}), processing gain {gain_db:.2f} dB in [35, 37]",
        elapsed,
    )


def test_criterion_08_rms_delay_spread_hand_cases():
    t0 = time.perf_counter()
    one = [Mpc(5e-8, 1.0)]
    two_equal = [Mpc(0.0, 1.0), Mpc(1e-7, 1.0)]
    two_weighted = [Mpc(0.0, 1.0), Mpc(1e-7, 0.5)]
    checks = [
        (rms_delay_spread(one), 0.0),
        (rms_delay_spread(two_equal), 5e-8),
        (rms_delay_spread(two_weighted), 4e-8),
    ]
    ok = abs(checks[0][0]) <= 1e-20
    for got, want in checks[1:]:
        ok = ok and abs(got - want) <= 1e-12 * want
    report(
        8,
        ok,
        "RMS delay spread exact: single path 0, equal two-path 50 ns, "
        "(1, 0.25)-weighted two-path 40 ns, all to 1e-12 relative",
        time.perf_counter() - t0,
    )


def test_criterion_09_gbsm_normalization_and_k():
    t0 = time.perf_counter()
    n_trials = 10_000
    results = {}
    for k_lin in (1.0, 3.0, 10.0):
        cfg = GbsmConfig(seed=900 + int(k_lin), k_factor_db=10.0 * math.log10(k_lin))
        los_bin = round(
            (cfg.rx_position - cfg.tx_position).norm() / C / cfg.delay_resolution_s
        )
        total = los = 0.0
        for i in range(n_trials):
            state = init_clusters(cfg, derive_substream(cfg.seed, "gbsm-init", i))
            p = np.abs(synthesize_snapshot(state, cfg, 0.0)[0, 0]) ** 2
            total += p.sum()
            los += p[los_bin]
        mean_energy = total / n_trials
        ratio = los / (total - los)
        results[k_lin] = (mean_energy, ratio)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    parts = []
    for k_lin, (energy, ratio) in results.items():
        ok = ok and abs(energy - 1.0) <= 0.03 and abs(ratio - k_lin) <= 0.05 * k_lin
        parts.append(f"K={k_lin:g}: E={energy:.4f}, ratio={ratio:.3f}")
    report(
        9,
        ok,
        "energy within 1 +/- 3% and LOS/NLOS within K +/- 5% over 10^4 draws "
        f"each ({'; '.join(parts)})",
        elapsed,
    )


def test_criterion_10_stationarity_detection(tmp_path):
    t0 = time.perf_counter()
    n_time, change = 1000, 700
    cir = np.zeros((n_time, 1, 1, 64), dtype=complex)
    wobble = 1.0 + 0.02 * np.sin(np.arange(n_time))
    cir[:change, 0, 0, 5] = 1.0 * wobble[:change]
    cir[:change, 0, 0, 20] = 0.5 * wobble[:change]
    cir[change:, 0, 0, 40] = 1.0 * wobble[change:]
    cir[change:, 0, 0, 55] = 0.5 * wobble[change:]
    path = str(tmp_path / "regimes.cirb")
    write_archive(path, CirSequence(0.0, 62.5e-6, 1.0 / FS, cir))

    seq = read_archive(path)
    corr = pdp_correlation_matrix(pdp_from_cir(seq.cir[:, 0, 0]))
    intervals = stationary_intervals(corr, 0.8).intervals
    elapsed = time.perf_counter() - t0
    boundary = intervals[1][0] if len(intervals) >= 2 else -1
    ok = len(intervals) == 2 and abs(boundary - change) <= 5 and elapsed < 10.0
    report(
        10,
        ok,
        f"two-regime archive: detected boundary {boundary} (target 700 +/- 5), "
        f"{len(intervals)} interval(s) at threshold 0.8",
        elapsed,
    )


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "all.ini"
    cfg_path.write_text(
        "[blockage]\nscenario = crossing\ncarrier_ghz = 28.0\n\n"
        "[gbsm]\nseed = 9\nduration_s = 0.003125\nn_tx = 2\nn_rx = 2\n\n"
        "[sounder]\ngr_dbi = 25.0\n"
    )
    samples_path = tmp_path / "samples.csv"
    stream = derive_substream(5, "acceptance-ci", 0)
    d = np.exp(stream.uniform(np.log(10.0), np.log(800.0), 200))
    pl = 32.4 + 20.0 * np.log10(28.0) + 10.0 * 2.637 * np.log10(d)
    samples_path.write_text(
        "distance_m,freq_ghz,pl_db\n"
        + "\n".join(f"{float(a)!r},28.0,{float(b)!r}" for a, b in zip(d, pl))
        + "\n"
    )
    spec = WaveformSpec()
    channel = [Mpc(10 / FS, 1.0), Mpc(60 / FS, 0.5)]
    y_rx, y_cal = simulate_capture(
        channel, spec, snr_db=35.0, stream=derive_substream(7, "acceptance-cap", 0)
    )
    frame = spec.n_samples / spec.sample_rate_hz
    rx_path, cal_path = str(tmp_path / "rx.cirb"), str(tmp_path / "cal.cirb")
    write_archive(rx_path, capture_sequence(y_rx, FS, frame))
    write_archive(cal_path, capture_sequence(y_cal, FS, frame))

    def run_all(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        base.mkdir()
        arc = str(base / "run.cirb")
        commands = [
            ["blockage", "--config", str(cfg_path), "--out", str(base / "blk.csv")],
            ["pathloss-fit", str(samples_path), "--model", "ci",
             "--out", str(base / "fit.json")],
            ["gbsm", "--config", str(cfg_path), "--out", arc],
            ["sounder", "--rx", rx_path, "--cal", cal_path, "--config",
             str(cfg_path), "--out", str(base / "mpcs.csv")],
            ["analyze", arc, "--stationarity", "--threshold", "0.8",
             "--los-track", "--out", str(base / "corr.csv")],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
        return {
            name.name: name.read_bytes() for name in sorted(base.iterdir())
        }

    runs = {tag: run_all(tag) for tag in ("r1", "r2", "r3", "r4")}
    elapsed = time.perf_counter() - t0
    names = set(runs["r1"])
    identical = all(
        runs[key][name] == runs["r1"][name] for key in runs for name in names
    )
    ok = identical and len(names) == 7 and elapsed < 60.0
    report(
        11,
        ok,
        f"5 subcommands x 4 runs: {len(names)} output files "
        "all byte-identical",
        elapsed,
    )


def test_criterion_12_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1207)
    n_cases = 200

    # KED reciprocity: swapping tx and rx never changes screen attenuation
    reciprocity_ok = True
    for _ in range(n_cases):
        length = rng.uniform(4.0, 30.0)
        h = rng.uniform(1.0, 2.5)
        tx = Point3(0.0, 0.0, h)
        rx = Point3(length, 0.0, h)
        center = Point3(
            rng.uniform(0.2, 0.8) * length, rng.uniform(-0.15, 0.15), 0.87
        )
        screen = Screen(center, 0.4, max(1.75, h + 0.3))
        model = metis_screen_attenuation if rng.uniform() < 0.5 else (
            kirchhoff_screen_attenuation
        )
        a = model(tx, rx, BAND_28, screen)
        b = model(rx, tx, BAND_28, screen)
        reciprocity_ok = reciprocity_ok and abs(a - b) < 1e-9

    # delay statistics: shift invariance of spread, exact scaling of power
    stats_ok = True
    for _ in range(n_cases):
        k = rng.integers(2, 12)
        delays = np.sort(rng.uniform(0.0, 4e-7, k))
        amps = rng.uniform(0.05, 1.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
        mpcs = [Mpc(d, a) for d, a in zip(delays, amps)]
        shift = rng.uniform(0.0, 1e-6)
        shifted = [Mpc(m.delay_s + shift, m.amplitude) for m in mpcs]
        ds0, ds1 = rms_delay_spread(mpcs), rms_delay_spread(shifted)
        stats_ok = stats_ok and abs(ds0 - ds1) <= 1e-12 * max(ds0, 1e-12)
        scale = rng.uniform(0.1, 10.0)
        scaled = [Mpc(m.delay_s, m.amplitude * scale) for m in mpcs]
        dp = received_power(scaled) - received_power(mpcs)
        stats_ok = stats_ok and abs(dp - 20.0 * math.log10(scale)) < 1e-9

    # creeping-wave truncation bound: in deep shadow (leading mode down by
    # >= 1.5 nepers over the shorter arc) the tail beyond the 5th mode stays
    # below the 5th term's magnitude
    from test_blockage import creeping_terms

    series_ok = True
    series_checked = 0
    while series_checked < n_cases:
        length = rng.uniform(4.0, 50.0)
        tx = Point3(0.0, 0.0, 1.5)
        rx = Point3(length, rng.uniform(-1.0, 1.0), 1.5)
        radius = rng.uniform(0.1, 0.5)
        frac = rng.uniform(0.15, 0.85)
        center = Point3(
            tx.x + frac * (rx.x - tx.x),
            tx.y + frac * (rx.y - tx.y) + rng.uniform(-0.6, 0.6) * radius,
            1.0,
        )
        cyl = Cylinder(center, radius, 10.0)
        try:
            terms, arcs = creeping_terms(tx, rx, BAND_28, cyl, 20)
        except (ValueError, ArithmeticError):
            continue
        big_m = (BAND_28.wavenumber * radius / 2.0) ** (1.0 / 3.0)
        re_om1 = (airy_zero(1) / radius) * big_m * math.cos(math.pi / 6.0)
        if re_om1 * min(arcs) < 1.5:
            continue
        tail = abs(sum(terms) - sum(terms[:5]))
        series_ok = series_ok and tail <= abs(terms[4]) + 1e-15
        series_checked += 1

    # Airy zeros: residual at the root and a sign change across it
    airy_ok = True
    for _ in range(n_cases):
        n = int(rng.integers(1, 21))
        root = airy_zero(n)
        residual = abs(airy(-root)[0])
        eps = rng.uniform(0.01, 0.1)
        left = airy(-(root - eps))[0]
        right = airy(-(root + eps))[0]
        airy_ok = airy_ok and residual < 1e-10 and left * right < 0.0

    elapsed = time.perf_counter() - t0
    ok = reciprocity_ok and stats_ok and series_ok and airy_ok and elapsed < 120.0
    report(
        12,
        ok,
        f"property suites, {n_cases} randomized cases each: KED reciprocity "
        f"({reciprocity_ok}), delay-stat shift/scale invariance ({stats_ok}), "
        f"creeping-series convergence ({series_ok}), Airy-zero residuals "
        f"({airy_ok})",
        elapsed,
    )
