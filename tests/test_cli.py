"""End-to-end tests for the command line front end."""

import json
import math
import os
import struct

import numpy as np
import pytest

from chantool import cli
from chantool.analysis import pdp_correlation_matrix
from chantool.archive import BLOCK_BYTES, capture_sequence, read_archive, write_archive
from chantool.cli import main
from chantool.config import SCHEMA
from chantool.core import Mpc, derive_substream, pdp_from_cir
from chantool.gbsm import CirSequence
from chantool.sounder import WaveformSpec, simulate_capture

FS = 1.28e9


def write(path, text):
    path.write_text(text)
    return str(path)


def poke_nan(path, step):
    """Overwrite the first real part of time step `step` with a float32 NaN."""
    with open(path, "r+b") as handle:
        n_tx, n_rx, n_delay = struct.unpack("<4sHIBBIddd", handle.read(40))[3:6]
        handle.seek(40 + 8 * n_tx * n_rx * n_delay * step)
        handle.write(struct.pack("<f", math.nan))
    return path


def read_rows(path):
    lines = open(path).read().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


BLOCKAGE_INI = "[blockage]\nscenario = crossing\ncarrier_ghz = 28.0\n"


class TestBlockage:
    def test_crossing_all_models(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", BLOCKAGE_INI)
        out = str(tmp_path / "curves.csv")
        assert main(["blockage", "--config", cfg, "--out", out]) == 0
        header, rows = read_rows(out)
        assert header == ["position_m", "metis_att_db", "kirchhoff_att_db", "gtd_att_db"]
        assert len(rows) == 21
        assert float(rows[0][0]) == -1.0
        assert float(rows[-1][0]) == 1.0
        assert float(rows[1][0]) - float(rows[0][0]) == pytest.approx(0.1)
        # NaN counts land on stderr, one line per model
        err = capsys.readouterr().err
        assert "metis: 0 NaN point(s)" in err
        assert "gtd: 0 NaN point(s)" in err

    def test_along_single_model(self, tmp_path):
        cfg = write(tmp_path / "c.ini", "[blockage]\nscenario = along\n")
        out = str(tmp_path / "along.csv")
        assert main(["blockage", "--config", cfg, "--model", "gtd", "--out", out]) == 0
        header, rows = read_rows(out)
        assert header == ["position_m", "gtd_att_db"]
        assert len(rows) == 41
        assert float(rows[0][0]) == 1.0
        assert float(rows[-1][0]) == pytest.approx(9.0)
        assert float(rows[1][0]) - float(rows[0][0]) == pytest.approx(0.2)

    def test_missing_section_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", "[gbsm]\nseed = 1\n")
        assert main(["blockage", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "missing [blockage]" in capsys.readouterr().err

    def test_unknown_key_exit_2_with_line(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", "[blockage]\nscenaroi = crossing\n")
        assert main(["blockage", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert ":2: unknown key" in capsys.readouterr().err
        # keys no command read, removed from the schema
        removed = [
            ("pathloss", "fix_gamma"), ("gbsm", "bandwidth_ghz"),
            *(("sounder", key) for key in (
                "pn_order", "pad_head", "pad_tail", "interp_factor",
                "rrc_rolloff", "sample_rate_ghz",
            )),
        ]
        for section, key in removed:
            cfg = write(tmp_path / "c.ini", f"{BLOCKAGE_INI}[{section}]\n{key} = 1\n")
            assert main(["blockage", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert f"{cfg}:5: unknown key '{key}'" in capsys.readouterr().err
        cfg = write(tmp_path / "c.ini", f"{BLOCKAGE_INI}[analysis]\nthreshold = 0.8\n")
        assert main(["blockage", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"{cfg}:4: unknown section [analysis]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, key",
        [("along", "along_position_m"), ("crossing", "lateral_offset_m")],
    )
    def test_key_the_scenario_sweeps_exit_2(self, tmp_path, capsys, scenario, key):
        cfg = write(tmp_path / "c.ini", f"[blockage]\nscenario = {scenario}\n{key} = 2.0\n")
        assert main(["blockage", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: {key} does not apply to scenario = {scenario}" in err
        assert not (tmp_path / "x.csv").exists()


def make_ci_samples(path, n=400, sigma=5.47):
    stream = derive_substream(5, "cli-ci-samples", 0)
    d = np.exp(stream.rng.uniform(np.log(10.0), np.log(800.0), n))
    pl = (
        32.4
        + 20.0 * np.log10(28.0)
        + 10.0 * 2.637 * np.log10(d)
        + stream.rng.normal(0.0, sigma, n)
    )
    lines = ["distance_m,freq_ghz,pl_db"]
    lines += [f"{float(di)!r},28.0,{float(pi)!r}" for di, pi in zip(d, pl)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestPathlossFit:
    def test_ci_recovery(self, tmp_path):
        samples = make_ci_samples(tmp_path / "s.csv")
        out = str(tmp_path / "fit.json")
        assert main(["pathloss-fit", samples, "--model", "ci", "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["model"] == "ci"
        assert 2.59 <= report["parameters"]["n"] <= 2.69
        assert report["sample_count"] == 400
        assert report["sigma_db"] == report["residual_rms_db"]

    def test_single_frequency_abg_exits_2_with_remedy(self, tmp_path, capsys):
        samples = make_ci_samples(tmp_path / "s.csv")
        code = main(["pathloss-fit", samples, "--model", "abg",
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "use --model fi for single-frequency data" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["ci", "fi", "abg"])
    def test_equal_distances_exit_2_without_remedy(self, tmp_path, capsys, model):
        rows = "".join(f"50.0,{f},{90.0 + f / 10}\n" for f in (28.0, 73.0, 140.0))
        samples = write(tmp_path / "s.csv", "distance_m,freq_ghz,pl_db\n" + rows)
        code = main(["pathloss-fit", samples, "--model", model,
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "distance" in err
        assert "--model fi" not in err

    def test_noiseless_sigma_vanishes(self, tmp_path):
        samples = make_ci_samples(tmp_path / "s.csv", sigma=0.0)
        out = str(tmp_path / "fit.json")
        assert main(["pathloss-fit", samples, "--model", "ci", "--out", out]) == 0
        assert json.loads(open(out).read())["sigma_db"] < 1e-6

    def test_fi_model(self, tmp_path):
        samples = make_ci_samples(tmp_path / "s.csv")
        out = str(tmp_path / "fit.json")
        assert main(["pathloss-fit", samples, "--model", "fi", "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["model"] == "fi"
        assert report["parameters"]["gamma"] == 0.0

    def test_bad_header_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "dist,freq,pl\n1.0,28.0,100.0\n")
        code = main(["pathloss-fit", bad, "--model", "ci",
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "expected header" in capsys.readouterr().err


GBSM_INI = (
    "[gbsm]\nseed = 9\nduration_s = 0.003125\nmean_clusters = 4.0\n"
    "n_tx = 2\nn_rx = 2\n"
)


class TestGbsm:
    def test_writes_archive_with_summary(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.ini", GBSM_INI)
        out = str(tmp_path / "run.cirb")
        assert main(["gbsm", "--config", cfg, "--out", out]) == 0
        seq = read_archive(out)
        assert seq.n_time == 50
        assert seq.cir.shape[1:3] == (2, 2)
        summary = capsys.readouterr().out
        assert summary.startswith("50 snapshots, mean clusters ")
        assert f"{os.path.getsize(out)} bytes" in summary

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "g.ini", GBSM_INI)
        p1, p2 = str(tmp_path / "a.cirb"), str(tmp_path / "b.cirb")
        assert main(["gbsm", "--config", cfg, "--out", p1]) == 0
        assert main(["gbsm", "--config", cfg, "--out", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write(tmp_path / "g.ini", GBSM_INI)
        p1, p2 = str(tmp_path / "a.cirb"), str(tmp_path / "b.cirb")
        assert main(["gbsm", "--config", cfg, "--out", p1]) == 0
        assert main(["gbsm", "--config", cfg, "--seed", "77", "--out", p2]) == 0
        assert open(p1, "rb").read() != open(p2, "rb").read()

    def test_oversized_run_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.ini", "[gbsm]\nduration_s = 1000.0\n")
        code = main(["gbsm", "--config", cfg, "--out", str(tmp_path / "x.cirb")])
        assert code == 3
        assert "snapshots" in capsys.readouterr().err


def make_captures(tmp_path, bins=(10, 50, 120), powers=(0.0, -6.0, -12.0),
                  snr_db=30.0, label="cli-sounder"):
    spec = WaveformSpec()
    channel = [
        Mpc.from_amplitude(b / FS, 10.0 ** (p / 20.0)) for b, p in zip(bins, powers)
    ]
    stream = derive_substream(7, label, 0)
    y_rx, y_cal = simulate_capture(channel, spec, snr_db=snr_db, stream=stream)
    frame = spec.n_samples / spec.sample_rate_hz
    rx_path = str(tmp_path / "rx.cirb")
    cal_path = str(tmp_path / "cal.cirb")
    write_archive(rx_path, capture_sequence(y_rx, FS, frame))
    write_archive(cal_path, capture_sequence(y_cal, FS, frame))
    return rx_path, cal_path


def split_tables(path):
    lines = open(path).read().strip().split("\n")
    stats_at = lines.index("snapshot,received_power_db,path_loss_db,rms_ds_ns")
    mpc_rows = [line.split(",") for line in lines[1:stats_at]]
    stat_rows = [line.split(",") for line in lines[stats_at + 1 :]]
    return mpc_rows, stat_rows


class TestSounder:
    def test_three_path_capture(self, tmp_path):
        rx, cal = make_captures(tmp_path)
        out = str(tmp_path / "mpcs.csv")
        assert main(["sounder", "--rx", rx, "--cal", cal, "--out", out]) == 0
        mpc_rows, stat_rows = split_tables(out)
        assert len(mpc_rows) == 3
        assert len(stat_rows) == 1
        delays = [float(r[1]) for r in mpc_rows]
        powers = [float(r[2]) for r in mpc_rows]
        assert delays == pytest.approx([10 / FS * 1e9, 50 / FS * 1e9, 120 / FS * 1e9],
                                       abs=1 / FS * 1e9)
        assert powers == pytest.approx([0.0, -6.0, -12.0], abs=0.5)
        assert float(stat_rows[0][3]) > 0.0  # multipath spreads delay

    def test_identical_rx_and_cal_single_zero_delay_row(self, tmp_path):
        rx, _ = make_captures(tmp_path, bins=(0,), powers=(0.0,), snr_db=math.inf)
        out = str(tmp_path / "self.csv")
        assert main(["sounder", "--rx", rx, "--cal", rx, "--out", out]) == 0
        mpc_rows, stat_rows = split_tables(out)
        assert len(mpc_rows) == 1
        assert float(mpc_rows[0][1]) == 0.0
        assert float(mpc_rows[0][2]) == pytest.approx(0.0, abs=1e-6)
        assert float(stat_rows[0][3]) == 0.0  # single path: zero spread

    def test_budget_override_shifts_path_loss_exactly(self, tmp_path):
        rx, cal = make_captures(tmp_path)
        base = str(tmp_path / "base.csv")
        bumped = str(tmp_path / "bumped.csv")
        cfg = write(tmp_path / "s.ini", "[sounder]\ngr_dbi = 25.0\n")
        assert main(["sounder", "--rx", rx, "--cal", cal, "--out", base]) == 0
        assert main(["sounder", "--rx", rx, "--cal", cal, "--config", cfg,
                     "--out", bumped]) == 0
        _, stat_base = split_tables(base)
        _, stat_bumped = split_tables(bumped)
        delta = float(stat_bumped[0][2]) - float(stat_base[0][2])
        assert delta == pytest.approx(5.0, abs=1e-12)

    def test_zero_calibration_exit_2(self, tmp_path, capsys):
        rx, _ = make_captures(tmp_path)
        dead = str(tmp_path / "dead.cirb")
        write_archive(dead, capture_sequence(np.zeros(20000, complex), FS, 1.0))
        out = str(tmp_path / "x.csv")
        assert main(["sounder", "--rx", rx, "--cal", dead, "--out", out]) == 2
        assert "calibration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[sounder]\ngr_dbi = 25.0\nmax_path = 5\n", ":3: unknown key 'max_path'"),
            ("\n[sounder]\nmax_paths = 0\n", ":2: max_paths must be >= 1"),
        ],
        ids=["unknown-key", "bad-value"],
    )
    def test_config_error_reported_before_captures_read(
        self, tmp_path, capsys, text, message
    ):
        cfg = write(tmp_path / "s.ini", text)
        missing = str(tmp_path / "missing.cirb")
        code = main(["sounder", "--rx", missing, "--cal", missing, "--config", cfg,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"{cfg}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["rx", "cal"])
    def test_nonfinite_capture_exit_2(self, tmp_path, capsys, which):
        rx, cal = make_captures(tmp_path)
        poke_nan({"rx": rx, "cal": cal}[which], 0)
        out = str(tmp_path / "x.csv")
        assert main(["sounder", "--rx", rx, "--cal", cal, "--out", out]) == 2
        assert "non-finite value at time step 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_multi_antenna_capture_rejected(self, tmp_path, capsys):
        rx, cal = make_captures(tmp_path)
        wide = str(tmp_path / "wide.cirb")
        seq = read_archive(rx)
        write_archive(
            wide,
            CirSequence(
                t0_s=0.0,
                dt_s=1.0,
                sample_period_s=seq.sample_period_s,
                cir=np.tile(seq.cir, (1, 2, 1, 1)),
            ),
        )
        assert main(["sounder", "--rx", wide, "--cal", cal,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "n_tx = n_rx = 1" in capsys.readouterr().err


def two_regime_archive(path, change_at=20, n_time=30, n_delay=64):
    cir = np.zeros((n_time, 1, 1, n_delay), dtype=complex)
    cir[:change_at, 0, 0, 5] = 1.0
    cir[:change_at, 0, 0, 20] = 0.5
    cir[change_at:, 0, 0, 40] = 1.0
    cir[change_at:, 0, 0, 55] = 0.5
    seq = CirSequence(t0_s=0.0, dt_s=1e-3, sample_period_s=1.0 / FS, cir=cir)
    write_archive(path, seq)
    return path


class TestAnalyze:
    def test_matrix_symmetric_and_intervals(self, tmp_path):
        arc = two_regime_archive(str(tmp_path / "two.cirb"))
        out = str(tmp_path / "corr.csv")
        assert main(["analyze", arc, "--stationarity", "--threshold", "0.8",
                     "--out", out]) == 0
        matrix = np.array([[float(v) for v in line.split(",")]
                           for line in open(out).read().strip().split("\n")])
        assert matrix.shape == (30, 30)
        assert np.abs(matrix - matrix.T).max() <= 1e-12
        assert np.abs(np.diag(matrix) - 1.0).max() <= 1e-12
        header, rows = read_rows(tmp_path / "corr_intervals.csv")
        assert header == ["start_index", "end_index"]
        assert rows == [["0", "19"], ["20", "29"]]

    def test_matrix_streams_in_row_chunks(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        cir = rng.normal(size=(300, 1, 1, 64)) + 1j * rng.normal(size=(300, 1, 1, 64))
        arc = str(tmp_path / "noise.cirb")
        write_archive(arc, CirSequence(0.0, 1e-3, 1.0 / FS, cir))
        sizes = []
        write_bytes = cli.atomic_write_bytes

        def recording(path, chunks):
            chunks = list(chunks)
            assert all(chunk.endswith(b"\n") for chunk in chunks)
            sizes.extend(len(chunk) for chunk in chunks)
            write_bytes(path, chunks)

        monkeypatch.setattr(cli, "atomic_write_bytes", recording)
        out = str(tmp_path / "corr.csv")
        assert main(["analyze", arc, "--out", out]) == 0
        assert len(sizes) >= 2
        assert max(sizes) < 2 * BLOCK_BYTES
        corr = pdp_correlation_matrix(pdp_from_cir(read_archive(arc).cir[:, 0, 0]))
        expected = "".join(",".join(map(repr, r)) + "\n" for r in corr.values.tolist())
        with open(out, "rb") as handle:
            assert handle.read() == expected.encode()

    def test_los_track_output(self, tmp_path):
        arc = two_regime_archive(str(tmp_path / "two.cirb"))
        out = str(tmp_path / "corr.csv")
        assert main(["analyze", arc, "--los-track", "--out", out]) == 0
        header, rows = read_rows(tmp_path / "corr_los.csv")
        assert header == ["t_s", "power_db"]
        assert len(rows) == 30
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-9)

    def test_threshold_out_of_range_exit_2(self, tmp_path, capsys):
        arc = two_regime_archive(str(tmp_path / "two.cirb"))
        code = main(["analyze", arc, "--stationarity", "--threshold", "1.5",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_malformed_archive_exit_2(self, tmp_path, capsys):
        arc = str(tmp_path / "bad.cirb")
        two_regime_archive(arc)
        blob = open(arc, "rb").read()
        open(arc, "wb").write(blob[:-3])
        code = main(["analyze", arc, "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "payload" in capsys.readouterr().err

    def test_nonfinite_archive_exit_2(self, tmp_path, capsys):
        arc = poke_nan(two_regime_archive(str(tmp_path / "two.cirb")), 7)
        out = str(tmp_path / "c.csv")
        assert main(["analyze", arc, "--stationarity", "--out", out]) == 2
        assert "non-finite value at time step 7" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("shape", [(4, 0, 1, 8), (4, 1, 1, 0)])
    def test_empty_axis_archive_exit_2(self, tmp_path, capsys, shape):
        arc = tmp_path / "empty.cirb"
        arc.write_bytes(struct.pack("<4sHIBBIddd", b"CIRB", 1, *shape, 1.0 / FS, 0.0, 1e-3))
        code = main(["analyze", str(arc), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "empty axis" in capsys.readouterr().err


class TestDeterminism:
    def test_blockage_and_gbsm_byte_identical_across_reruns(self, tmp_path):
        cfg = write(tmp_path / "c.ini", BLOCKAGE_INI + GBSM_INI)
        outputs = {}
        for run in ("a", "b"):
            blk = str(tmp_path / f"blk{run}.csv")
            arc = str(tmp_path / f"run{run}.cirb")
            assert main(["blockage", "--config", cfg, "--out", blk]) == 0
            assert main(["gbsm", "--config", cfg, "--out", arc]) == 0
            outputs[run] = (open(blk, "rb").read(), open(arc, "rb").read())
        assert outputs["a"] == outputs["b"]


# Base config per section for the key table below.  The gbsm base is a
# moving 2x2 run, so the angle, spacing and velocity keys bind.
BASE_KEYS = {
    "blockage": {"scenario": "crossing"},
    "pathloss": {},
    "gbsm": {
        "seed": "9", "duration_s": "0.000625", "n_tx": "2", "n_rx": "2",
        "rx_velocity_x_mps": "1.5",
    },
    "sounder": {},
}

NOISE_BOUND = {"rel_threshold_db": "80.0", "max_paths": "1000"}

# Every config key: (extra base keys it needs to bind, a non-default value).
KEY_TABLE = {
    ("blockage", "scenario"): ({}, "along"),
    ("blockage", "carrier_ghz"): ({}, "39.0"),
    ("blockage", "link_length_m"): ({}, "12.0"),
    ("blockage", "antenna_height_m"): ({}, "1.2"),
    ("blockage", "screen_width_m"): ({}, "0.6"),
    ("blockage", "screen_height_m"): ({}, "1.0"),
    ("blockage", "cylinder_radius_m"): ({}, "0.3"),
    ("blockage", "cylinder_height_m"): ({}, "1.0"),
    ("blockage", "blocker_center_z_m"): ({}, "0.6"),
    ("blockage", "along_position_m"): ({}, "3.0"),
    ("blockage", "lateral_offset_m"): ({"scenario": "along"}, "0.1"),
    ("pathloss", "model"): ({}, "fi"),
    ("gbsm", "carrier_ghz"): ({}, "39.0"),
    ("gbsm", "n_tx"): ({}, "1"),
    ("gbsm", "n_rx"): ({}, "1"),
    ("gbsm", "antenna_spacing_m"): ({}, "0.05"),
    ("gbsm", "k_factor_db"): ({}, "0.0"),
    ("gbsm", "mean_clusters"): ({}, "12.0"),
    ("gbsm", "rays_per_cluster"): ({}, "7"),
    ("gbsm", "delay_scale_s"): ({}, "1e-07"),
    ("gbsm", "per_cluster_shadow_db"): ({}, "6.0"),
    ("gbsm", "birth_rate_hz"): ({}, "20000.0"),
    ("gbsm", "death_rate_hz"): ({}, "20000.0"),
    ("gbsm", "snapshot_interval_s"): ({}, "0.0001"),
    ("gbsm", "duration_s"): ({}, "0.00125"),
    ("gbsm", "seed"): ({}, "10"),
    ("gbsm", "tx_velocity_x_mps"): ({}, "1.0"),
    ("gbsm", "tx_velocity_y_mps"): ({}, "1.0"),
    ("gbsm", "tx_velocity_z_mps"): ({}, "1.0"),
    ("gbsm", "rx_velocity_x_mps"): ({}, "3.0"),
    ("gbsm", "rx_velocity_y_mps"): ({}, "1.0"),
    ("gbsm", "rx_velocity_z_mps"): ({}, "1.0"),
    ("gbsm", "tx_position_x_m"): ({}, "1.0"),
    ("gbsm", "tx_position_y_m"): ({}, "1.0"),
    ("gbsm", "tx_position_z_m"): ({}, "2.0"),
    ("gbsm", "rx_position_x_m"): ({}, "20.0"),
    ("gbsm", "rx_position_y_m"): ({}, "1.0"),
    ("gbsm", "rx_position_z_m"): ({}, "2.0"),
    ("gbsm", "ray_angle_spread_rad"): ({}, "0.5"),
    ("gbsm", "ray_delay_scale_s"): ({}, "2e-08"),
    ("gbsm", "delay_resolution_s"): ({}, "5e-10"),
    ("sounder", "band_fraction"): ({}, "0.3"),
    ("sounder", "gt_dbi"): ({}, "25.0"),
    ("sounder", "gr_dbi"): ({}, "25.0"),
    ("sounder", "p_pa_dbm"): ({}, "30.0"),
    ("sounder", "p_cal_dbm"): ({}, "0.0"),
    ("sounder", "g_lna_db"): ({}, "20.0"),
    ("sounder", "l_cable_db"): ({}, "6.0"),
    ("sounder", "max_paths"): ({}, "1"),
    ("sounder", "rel_threshold_db"): ({}, "80.0"),
    # The noise-floor rule decides only under a low relative threshold, and
    # shows only when max_paths does not cap the count of noise peaks.
    ("sounder", "noise_margin_db"): (NOISE_BOUND, "20.0"),
    ("sounder", "noise_tail_fraction"): (NOISE_BOUND, "0.3"),
}

# Velocities must be horizontal: 0.0 is accepted and changes nothing, any
# other value is rejected.
ZERO_ONLY = {("gbsm", "tx_velocity_z_mps"), ("gbsm", "rx_velocity_z_mps")}


def command_for(tmp_path, section):
    if section == "pathloss":
        return ["pathloss-fit", make_ci_samples(tmp_path / "s.csv")]
    if section == "sounder":
        rx, cal = make_captures(tmp_path)
        return ["sounder", "--rx", rx, "--cal", cal]
    return [section]


class TestConfigContract:
    def test_key_table_is_the_schema(self):
        assert set(KEY_TABLE) == {(s, k) for s, keys in SCHEMA.items() for k in keys}

    @pytest.mark.parametrize(
        "section, key", list(KEY_TABLE), ids=[f"{s}.{k}" for s, k in KEY_TABLE]
    )
    def test_every_key_changes_output(self, tmp_path, capsys, section, key):
        extra, value = KEY_TABLE[section, key]
        base = {**BASE_KEYS[section], **extra}
        argv = command_for(tmp_path, section)

        def run(keys, tag):
            text = f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            out = tmp_path / f"{tag}.out"
            code = main([*argv, "--config", write(tmp_path / f"{tag}.ini", text),
                         "--out", str(out)])
            return code, out.read_bytes() if code == 0 else None

        code, before = run(base, "base")
        assert code == 0
        if (section, key) in ZERO_ONLY:
            assert run({**base, key: "0.0"}, "zero") == (0, before)
            assert run({**base, key: value}, "set") == (2, None)
            err = capsys.readouterr().err
            assert f"{tmp_path / 'set.ini'}:1: velocities must be horizontal" in err
        else:
            code, after = run({**base, key: value}, "set")
            assert code == 0
            assert after != before
