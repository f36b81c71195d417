"""End-to-end tests for the command line front end."""

import json
import math
import os
import stat
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chantool
from chantool import archive, cli, gbsm
from chantool.analysis import CorrelationMatrix, pdp_correlation_matrix
from chantool.archive import BLOCK_BYTES, capture_sequence, read_archive, write_archive
from chantool.cli import main
from chantool.config import SCHEMA
from chantool.core import Mpc, derive_substream, pdp_from_cir
from chantool.gbsm import CirSequence, SizingError
from chantool.sounder import WaveformSpec, simulate_capture
from test_pathloss import FROZEN_FITS, frozen_sample_columns

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


def poke_header_time(path, field, value):
    """Overwrite one float64 time field of an archive's header."""
    offset = {"sample_period_s": 16, "t0_s": 24, "dt_s": 32}[field]
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(struct.pack("<d", value))
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

    def test_along_sweep_spans_the_link(self, tmp_path):
        # From 10% to 90% of the link in 2% steps, whatever its length.
        cfg = write(tmp_path / "c.ini", "[blockage]\nscenario = along\nlink_length_m = 20.0\n")
        out = str(tmp_path / "along.csv")
        assert main(["blockage", "--config", cfg, "--model", "gtd", "--out", out]) == 0
        _, rows = read_rows(out)
        assert [row[0] for row in rows[:2]] + [rows[-1][0]] == ["2.0", "2.4", "18.0"]
        assert len(rows) == 41

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
            ("gbsm", "fix_gamma"), ("gbsm", "bandwidth_ghz"),
            *(("sounder", key) for key in (
                "pn_order", "pad_head", "pad_tail", "interp_factor",
                "rrc_rolloff", "sample_rate_ghz",
            )),
        ]
        for section, key in removed:
            cfg = write(tmp_path / "c.ini", f"{BLOCKAGE_INI}[{section}]\n{key} = 1\n")
            assert main(["blockage", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert f"{cfg}:5: unknown key '{key}'" in capsys.readouterr().err
        for section, key in (("analysis", "threshold = 0.8"), ("pathloss", "model = ci")):
            cfg = write(tmp_path / "c.ini", f"{BLOCKAGE_INI}[{section}]\n{key}\n")
            assert main(["blockage", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert f"{cfg}:4: unknown section [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("screen_width_m = -1", "screen width and height must be positive"),
            ("link_length_m = 0.0", "tx and rx must differ"),
            ("carrier_ghz = -28", "carrier_hz must be positive, got -28000000000.0"),
            # Refused by the sweep, not by a parameter type.
            ("link_length_m = 1e308", "non-finite path excess"),
        ],
        ids=["screen", "endpoints", "band", "sweep"],
    )
    def test_refused_value_cites_the_file(self, tmp_path, capsys, line, message):
        cfg = write(tmp_path / "b.ini", f"[blockage]\n{line}\n")
        out = tmp_path / "x.csv"
        assert main(["blockage", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {cfg}:1: {message}\n" in capsys.readouterr().err
        assert not out.exists()

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
    d = np.exp(stream.uniform(np.log(10.0), np.log(800.0), n))
    pl = (
        32.4
        + 20.0 * np.log10(28.0)
        + 10.0 * 2.637 * np.log10(d)
        + stream.normal(0.0, sigma, n)
    )
    lines = ["distance_m,freq_ghz,pl_db"]
    lines += [f"{float(di)!r},28.0,{float(pi)!r}" for di, pi in zip(d, pl)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def frozen_sample_rows(n=2000):
    """n seeded (distance, frequency, loss) rows, each value as its repr."""
    return [tuple(map(repr, row)) for row in zip(*(c.tolist() for c in frozen_sample_columns(n)))]


def samples_text(rows, sep=",", newline="\n"):
    lines = ["distance_m,freq_ghz,pl_db", *(sep.join(row) for row in rows)]
    return newline.join(lines) + newline


# Each layout must parse to the clean file's samples.
LAYOUTS = {
    "crlf": lambda rows: samples_text(rows, newline="\r\n"),
    "blank lines": lambda rows: "\n\n" + samples_text(rows, newline="\n \n") + "\t\n",
    "spaces": lambda rows: " " + samples_text(rows, sep=" , ").replace("\n", " \n"),
    "no final newline": lambda rows: samples_text(rows).rstrip("\n"),
    "all at once": lambda rows: samples_text(rows, sep=" ,\t", newline="\r\n\r\n").rstrip(),
}


class TestPathlossFit:
    @pytest.mark.parametrize("model", sorted(FROZEN_FITS))
    def test_frozen_fits_on_2000_rows(self, tmp_path, model):
        samples = write(tmp_path / "s.csv", samples_text(frozen_sample_rows()))
        out = str(tmp_path / "fit.json")
        assert main(["pathloss-fit", samples, "--model", model, "--out", out]) == 0
        report = json.loads(open(out).read())
        params, sigma = FROZEN_FITS[model]
        assert {k: float.hex(v) for k, v in report["parameters"].items()} == params
        assert float.hex(report["sigma_db"]) == sigma
        assert report["sample_count"] == 2000

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("model", ["ci", "abg"])
    def test_layout_gives_the_clean_file_fit(self, tmp_path, layout, model):
        rows = frozen_sample_rows(200)
        reports = []
        for name, text in (("clean", samples_text(rows)), (layout, LAYOUTS[layout](rows))):
            samples = write(tmp_path / "s.csv", text)
            out = tmp_path / f"{name}.json"
            assert main(["pathloss-fit", samples, "--model", model, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

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

    @pytest.mark.parametrize("model", ["ci", "fi", "abg"])
    @pytest.mark.parametrize("value", ["inf", "nan", "1e999", "-inf"])
    @pytest.mark.parametrize("column", ["distance_m", "freq_ghz", "pl_db"])
    def test_non_finite_sample_exit_2_with_line(self, tmp_path, capsys, model, value, column):
        rows = [list(row) for row in frozen_sample_rows(10)]
        rows[4][["distance_m", "freq_ghz", "pl_db"].index(column)] = value
        samples = write(tmp_path / "samples.csv", samples_text(rows))
        out = tmp_path / "fit.json"
        assert main(["pathloss-fit", samples, "--model", model, "--out", str(out)]) == 2
        assert f"samples.csv:6: {column} must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.5,28.0,90.0", "distance_m must be finite and >= 1 m, got 0.5"),
            ("10.0,0,90.0", "freq_ghz must be finite and positive, got 0.0"),
            ("10.0,28.0", "expected 3 columns, got 2"),
            ("10.0,28.0,90.0,1.0", "expected 3 columns, got 4"),
            ("10.0,28 GHz,90.0", "could not convert string to float"),
        ],
    )
    def test_bad_sample_cites_its_line(self, tmp_path, capsys, row, message):
        # blank lines count, and a later bad line is not the one reported
        text = "distance_m,freq_ghz,pl_db\n\n10.0,28.0,100.0\r\n  \n" + row + "\n0.5,1e999,x\n"
        samples = write(tmp_path / "samples.csv", text)
        out = tmp_path / "fit.json"
        assert main(["pathloss-fit", samples, "--model", "ci", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {samples}:5: ")
        assert message in err
        assert not out.exists()

    def test_bad_header_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "dist,freq,pl\n1.0,28.0,100.0\n")
        code = main(["pathloss-fit", bad, "--model", "ci",
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "expected header" in capsys.readouterr().err

    def test_reader_holds_the_columns_and_one_block(self, tmp_path, traced_peak):
        # One string per field of 200 000 rows peaked at 15.3 times the
        # three float64 columns; blocks hold one block's text beside them.
        n = 200_000
        samples = write(tmp_path / "s.csv", samples_text(frozen_sample_rows(n)))
        assert traced_peak(cli._read_samples_csv, samples) <= 3 * 3 * 8 * n

    @pytest.mark.parametrize("block_chars", [None, 64])
    def test_bad_row_past_the_first_block_cites_its_line(
        self, tmp_path, capsys, monkeypatch, block_chars
    ):
        # A later bad line is not the one reported; blank lines count.
        if block_chars:
            monkeypatch.setattr(cli, "SAMPLES_BLOCK_CHARS", block_chars)
        rows = [",".join(row) for row in frozen_sample_rows(5000)]
        rows[3000] = "10.0,28 GHz,90.0"
        rows[4000] = "0.5,28.0,90.0"
        text = "distance_m,freq_ghz,pl_db\n\n" + "\n".join(rows) + "\n"
        assert len(text.encode()) > 2 * cli.SAMPLES_BLOCK_CHARS
        samples = write(tmp_path / "samples.csv", text)
        out = tmp_path / "fit.json"
        assert main(["pathloss-fit", samples, "--model", "ci", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {samples}:3003: could not convert string to float: '28 GHz'\n"
        assert not out.exists()

    @pytest.mark.parametrize("block_chars", [1, 23, 64, 97])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layout_across_block_boundaries(self, tmp_path, monkeypatch, layout, block_chars):
        rows = frozen_sample_rows(200)
        clean = write(tmp_path / "clean.csv", samples_text(rows))
        assert main(["pathloss-fit", clean, "--model", "abg",
                     "--out", str(tmp_path / "clean.json")]) == 0
        monkeypatch.setattr(cli, "SAMPLES_BLOCK_CHARS", block_chars)
        samples = tmp_path / "s.csv"
        samples.write_bytes(LAYOUTS[layout](rows).encode())
        out = tmp_path / "fit.json"
        assert main(["pathloss-fit", str(samples), "--model", "abg", "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "clean.json").read_bytes()

    @pytest.mark.parametrize("block_chars", [None, 4])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "<path>: expected header 'distance_m,freq_ghz,pl_db', got '<empty>'"),
            ("\n \r\n\t\n" * 40,
             "<path>: expected header 'distance_m,freq_ghz,pl_db', got '<empty>'"),
            ("\n" * 40 + "d,f,pl\n1.0,28.0,100.0\n",
             "<path>: expected header 'distance_m,freq_ghz,pl_db', got 'd,f,pl'"),
            ("\n \n" * 40 + "distance_m,freq_ghz,pl_db\n\n", "ci_fit needs at least 2 samples"),
        ],
        ids=["empty", "blank-lines-only", "late-bad-header", "header-only"],
    )
    def test_header_and_empty_bodies(
        self, tmp_path, capsys, monkeypatch, block_chars, text, message
    ):
        if block_chars:
            monkeypatch.setattr(cli, "SAMPLES_BLOCK_CHARS", block_chars)
        samples = write(tmp_path / "s.csv", text)
        out = tmp_path / "fit.json"
        assert main(["pathloss-fit", samples, "--model", "ci", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.replace('<path>', samples)}\n"
        assert not out.exists()

    def test_model_defaults_to_ci(self, tmp_path):
        samples = make_ci_samples(tmp_path / "s.csv")
        out = tmp_path / "fit.json"
        assert main(["pathloss-fit", samples, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["model"] == "ci"

    def test_config_flag_refused(self, tmp_path, capsys):
        # The model comes from --model alone; [pathloss] is no section.
        samples = make_ci_samples(tmp_path / "s.csv")
        cfg = write(tmp_path / "x.ini", "[gbsm]\nseed = 1\n")
        out = tmp_path / "fit.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["pathloss-fit", samples, "--config", cfg, "--out", str(out)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: --config {cfg}" in capsys.readouterr().err
        assert not out.exists()


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

    def test_seed_flag_refused(self, tmp_path, capsys):
        # The seed comes from [gbsm] seed alone.
        cfg = write(tmp_path / "g.ini", GBSM_INI)
        out = tmp_path / "x.cirb"
        with pytest.raises(SystemExit) as exit_info:
            main(["gbsm", "--config", cfg, "--seed", "7", "--out", str(out)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_tx", "n_rx"])
    def test_antenna_count_past_the_archive_exit_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def no_run(gcfg):
            raise AssertionError("scenario ran")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        cfg = write(tmp_path / "g.ini", f"[gbsm]\nduration_s = 0.00625\n{key} = 256\n")
        out = tmp_path / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:3: {key} must be at most 255" in capsys.readouterr().err
        assert not out.exists()

    def test_rays_per_cluster_past_the_record_size_exit_2_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(gcfg):
            raise AssertionError("scenario ran")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        text = "[gbsm]\nduration_s = 0.00625\nrays_per_cluster = 100000000\n"
        cfg = write(tmp_path / "g.ini", text)
        out = tmp_path / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:3: rays_per_cluster must be at most 67108862\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("mean_clusters = -1", "mean_clusters must be positive"),
            ("rays_per_cluster = 0", "rays_per_cluster must be >= 1"),
            ("rx_velocity_z_mps = 1.0", "velocities must be horizontal: z components must be 0"),
            ("death_rate_hz = -2.0", "death_rate_hz must be >= 0"),
            ("ray_delay_scale_s = 0.0", "ray_delay_scale_s must be positive"),
        ],
    )
    def test_refused_value_cites_its_key(self, tmp_path, capsys, line, message):
        cfg = write(tmp_path / "g.ini", f"[gbsm]\nduration_s = 0.001\n{line}\nseed = 3\n")
        out = tmp_path / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"
        assert not out.exists()

    def test_refusal_of_several_keys_cites_the_header(self, tmp_path, capsys):
        # rx_position_x_m = 0 puts the receiver on the default transmitter.
        cfg = write(tmp_path / "g.ini", "[gbsm]\nduration_s = 0.001\nrx_position_x_m = 0.0\n")
        assert main(["gbsm", "--config", cfg, "--out", str(tmp_path / "x.cirb")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: tx and rx positions must differ\n"

    @pytest.mark.parametrize(
        "line, key",
        [
            ("mean_clusters = 1e19", "mean_clusters"),
            ("mean_clusters = 1e30", "mean_clusters"),
            ("birth_rate_hz = 1e30", "birth_rate_hz"),
        ],
    )
    def test_poisson_mean_past_the_budget_exit_3_before_any_draw(
        self, tmp_path, capsys, monkeypatch, line, key
    ):
        # numpy cannot draw a Poisson mean past about 9.2e18 at all; the
        # mean's records are checked before the first substream is derived.
        def no_draw(*args):
            raise AssertionError("a draw began")

        monkeypatch.setattr(gbsm, "derive_substream", no_draw)
        cfg = write(tmp_path / "g.ini", f"[gbsm]\n{line}\n")
        out = tmp_path / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: drawing a mean of ") and err.count("\n") == 1
        assert f"clusters of 20 rays ({key}) would take" in err
        assert not out.exists()

    def test_oversized_run_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.ini", "[gbsm]\nduration_s = 1000.0\n")
        code = main(["gbsm", "--config", cfg, "--out", str(tmp_path / "x.cirb")])
        assert code == 3
        assert "snapshots" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["mean_clusters = 1e9", "birth_rate_hz = 1e15"],
        ids=["first-draw", "births"],
    )
    def test_oversized_cluster_draw_exit_3(self, tmp_path, line):
        # Hundreds of GiB of cluster records, refused before np.zeros.  The
        # child's 1.5 GiB address-space cap makes a build that allocates
        # fail at once instead of exhausting the machine's memory.
        cfg = write(tmp_path / "g.ini", f"[gbsm]\n{line}\n")
        out = tmp_path / "x.cirb"
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
            "from chantool.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(chantool.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        argv = ["gbsm", "--config", cfg, "--out", str(out)]
        proc = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: drawing ")
        assert proc.stderr.count("\n") == 1 and "clusters of 20 rays" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, code, message",
        [
            ("duration_s = 1e308\nsnapshot_interval_s = 1e-308", 3, "inf snapshots of "),
            ("delay_resolution_s = 1e-320", 3, " of inf delay bins"),
            ("rx_position_x_m = 1e300", 3, " of inf delay bins"),
            ("delay_scale_s = 1e300", 3, " of inf delay bins"),
            ("k_factor_db = 1e6", 2, ":2: k_factor_db must be at most 3082"),
            ("per_cluster_shadow_db = 1e300", 2, ":2: per_cluster_shadow_db must be at most 240"),
        ],
        ids=["steps", "grid-resolution", "los-delay", "cluster-delays", "k-factor", "shadow"],
    )
    def test_overflowing_value_refused_without_traceback(
        self, tmp_path, capsys, lines, code, message
    ):
        cfg = write(tmp_path / "g.ini", f"[gbsm]\n{lines}\n")
        out = tmp_path / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line", ["delay_scale_s = 1.0", "delay_resolution_s = 1e-15"],
        ids=["wide-cluster-delays", "fine-delay-grid"],
    )
    def test_oversized_delay_grid_exit_3(self, tmp_path, capsys, line):
        # Few snapshots, but a delay grid of tens of GiB: refused by bytes.
        cfg = write(tmp_path / "g.ini", f"[gbsm]\n{line}\n")
        out = tmp_path / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == 3
        assert "snapshots" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "command, text",
        [
            ("gbsm", "[gbsm]\nduration_s = inf\n"),
            ("gbsm", "[gbsm]\nrx_velocity_x_mps = nan\n"),
            ("blockage", "[blockage]\nlink_length_m = nan\n"),
            ("blockage", "[blockage]\ncylinder_radius_m = nan\n"),
        ],
        ids=["gbsm-duration-inf", "gbsm-velocity-nan", "blockage-length-nan",
             "blockage-radius-nan"],
    )
    def test_non_finite_value_exit_2_with_line(self, tmp_path, capsys, command, text):
        cfg = write(tmp_path / "c.ini", text)
        out = tmp_path / "x.out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        key = text.split("\n")[1].split(" =")[0]
        assert f"{cfg}:2: bad value for '{key}': must be finite" in capsys.readouterr().err
        assert not out.exists()


def make_captures(tmp_path, bins=(10, 50, 120), powers=(0.0, -6.0, -12.0),
                  snr_db=30.0, label="cli-sounder"):
    spec = WaveformSpec()
    channel = [
        Mpc(b / FS, 10.0 ** (p / 20.0)) for b, p in zip(bins, powers)
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

    def test_silent_captures_report_the_floor(self, tmp_path):
        # All-zero captures hold no path: floor power, no delay spread.
        rx, cal = make_captures(tmp_path)
        n_samples = read_archive(cal).cir.shape[3]
        write_archive(rx, capture_sequence(np.zeros((2, n_samples), complex), FS, 1.0))
        out = str(tmp_path / "silent.csv")
        assert main(["sounder", "--rx", rx, "--cal", cal, "--out", out]) == 0
        mpc_rows, stat_rows = split_tables(out)
        assert mpc_rows == []
        assert stat_rows == [["0", "-300.0", "385.0", "nan"], ["1", "-300.0", "385.0", "nan"]]

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
            ("[sounder]\nband_fraction = 0\n", ":2: band_fraction must be in (0, 1]"),
        ],
        ids=["unknown-key", "bad-value", "band-fraction"],
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

    def test_multi_capture_cal_exit_2(self, tmp_path, capsys):
        rx, cal = make_captures(tmp_path)
        for path in (rx, cal):
            seq = read_archive(path)
            write_archive(path, CirSequence(0.0, 1.0, seq.sample_period_s,
                                            np.tile(seq.cir, (2, 1, 1, 1))))
        out = str(tmp_path / "x.csv")
        assert main(["sounder", "--rx", rx, "--cal", cal, "--out", out]) == 2
        assert "cal has 2 captures; need exactly 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_multi_capture_cal_rejected_before_decoding(self, tmp_path, capsys, traced_peak):
        rx, cal = make_captures(tmp_path)
        seq = read_archive(cal)
        write_archive(cal, CirSequence(0.0, 1.0, seq.sample_period_s,
                                       np.tile(seq.cir, (64, 1, 1, 1))))
        cube = 16 * 64 * seq.cir.shape[3]
        del seq
        argv = ["sounder", "--rx", rx, "--cal", cal, "--out", str(tmp_path / "x.csv")]
        codes = []
        peak = traced_peak(lambda: codes.append(main(argv)))
        assert codes == [2]
        assert "cal has 64 captures; need exactly 1" in capsys.readouterr().err
        assert peak <= 0.1 * cube

    def test_capture_length_mismatch_names_both_lengths(self, tmp_path, capsys):
        rx, cal = make_captures(tmp_path)
        short = str(tmp_path / "short.cirb")
        write_archive(short, capture_sequence(read_archive(cal).cir[0, 0, 0, :-5], FS, 1.0))
        out = str(tmp_path / "x.csv")
        assert main(["sounder", "--rx", rx, "--cal", short, "--out", out]) == 2
        assert "rx captures have 20000 samples, cal has 19995" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_nonfinite_capture_in_third_block_exit_2(self, tmp_path, capsys, monkeypatch):
        rx, cal = make_captures(tmp_path)
        seq = read_archive(rx)
        write_archive(rx, CirSequence(0.0, 1.0, seq.sample_period_s,
                                      np.tile(seq.cir, (8, 1, 1, 1))))
        poke_nan(rx, 5)
        monkeypatch.setattr(archive, "BLOCK_BYTES", 2 * 8 * seq.cir.shape[3])
        out = str(tmp_path / "x.csv")
        assert main(["sounder", "--rx", rx, "--cal", cal, "--out", out]) == 2
        assert "non-finite value at time step 5" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_streams_rx_captures(self, tmp_path, traced_peak):
        rx, cal = make_captures(tmp_path)
        seq = read_archive(rx)
        rolled = [np.roll(seq.cir, 7 * t, axis=3) for t in range(64)]
        write_archive(rx, CirSequence(0.0, 1.0, seq.sample_period_s, np.concatenate(rolled)))
        cube = 16 * 64 * seq.cir.shape[3]
        del seq, rolled
        out = str(tmp_path / "x.csv")
        peak = traced_peak(main, ["sounder", "--rx", rx, "--cal", cal, "--out", out])
        assert peak <= 0.25 * cube
        _, stat_rows = split_tables(out)
        assert [int(row[0]) for row in stat_rows] == list(range(64))

    @pytest.mark.parametrize(
        "per_block, per_widening", [(1, 1), (3, 2), (3, 3), (7, 3), (7, 7)]
    )
    def test_output_independent_of_block_sizes(
        self, tmp_path, monkeypatch, per_block, per_widening
    ):
        # Captures per archive block and per complex128 widening; 7 captures
        # in all, so a block may hold one, all, or a count that leaves a
        # shorter last block.
        rx, cal = make_captures(tmp_path)
        seq = read_archive(rx)
        rolled = [np.roll(seq.cir, 7 * t, axis=3) for t in range(7)]
        write_archive(rx, CirSequence(0.0, 1.0, seq.sample_period_s, np.concatenate(rolled)))
        argv = ["sounder", "--rx", rx, "--cal", cal, "--out"]
        assert main([*argv, str(tmp_path / "default.csv")]) == 0
        n_samples = seq.cir.shape[3]
        monkeypatch.setattr(archive, "BLOCK_BYTES", 8 * n_samples * per_block)
        monkeypatch.setattr(cli, "BLOCK_BYTES", 16 * n_samples * per_widening)
        assert main([*argv, str(tmp_path / "patched.csv")]) == 0
        default = (tmp_path / "default.csv").read_bytes()
        assert (tmp_path / "patched.csv").read_bytes() == default
        _, stat_rows = split_tables(tmp_path / "default.csv")
        assert [int(row[0]) for row in stat_rows] == list(range(7))

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


# Cells whose repr differs in shape from a plain correlation: exact zeros
# of both signs, one, exponent notation and the smallest subnormal.
SPECIAL_CELLS = (0.0, -0.0, 1.0, 1.2345e-05, -7.5e-06, 5e-324)
REPEATED_CELLS = (
    0.0, -0.0, 0.5, 5e-324, math.inf,
    1.7976931348623157e308, -1.7976931348623157e308, -2.2250738585072014e-308,
)


class TestMatrixRows:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 15, 16, 17, 33, 64, 65, 95, 96, 97, 129])
        | st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        cells=st.lists(
            st.tuples(st.integers(0, 10**4), st.integers(0, 10**4), st.sampled_from(SPECIAL_CELLS)),
            max_size=12,
        ),
    )
    def test_rows_are_the_repr_join(self, n, seed, cells):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-6, 1, (n, n))
        values = (a + a.T) / 2.0
        for i, j, cell in cells:
            values[i % n, j % n] = values[j % n, i % n] = cell
        expected = [(",".join(map(repr, row)) + "\n").encode() for row in values.tolist()]
        assert list(cli.symmetric_matrix_rows(values)) == expected

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 17, 33, 64, 97]), seed=st.integers(0, 2**32 - 1))
    def test_repeated_cells_are_the_repr_join(self, n, seed):
        # Rows repeat a few values, among them both zeros in one row and
        # the 24-character reprs that fill a token.
        rng = np.random.default_rng(seed)
        pick = np.triu(rng.integers(0, len(REPEATED_CELLS), (n, n)))
        values = np.array(REPEATED_CELLS)[pick + np.triu(pick, 1).T]
        values[0, 1:3] = values[1:3, 0] = 0.0, -0.0
        expected = [(",".join(map(repr, row)) + "\n").encode() for row in values.tolist()]
        assert list(cli.symmetric_matrix_rows(values)) == expected

    def test_short_last_block(self):
        # Blocks of 200 // 32 = 6 rows: 33 full ones, then one of 2 rows.
        rng = np.random.default_rng(200)
        a = rng.uniform(-1.0, 1.0, (200, 200))
        values = (a + a.T) / 2.0
        for j, cell in zip((0, 5, 6, 197), SPECIAL_CELLS):
            values[199, j] = values[j, 199] = cell
        expected = [(",".join(map(repr, row)) + "\n").encode() for row in values.tolist()]
        assert list(cli.symmetric_matrix_rows(values)) == expected

    def test_asymmetry_in_the_last_bit_refused(self):
        values = np.eye(40)
        values[5, 33] = values[33, 5] = 0.3
        values[33, 5] = np.nextafter(0.3, 1.0)
        with pytest.raises(ValueError, match="exactly symmetric"):
            next(cli.symmetric_matrix_rows(values))

    def test_oversized_text_store_refused(self):
        # 17 600 rows would leave 1.9 GB of tokens waiting; analyze's budget
        # stops at about 5800, so only a library caller gets here
        with pytest.raises(SizingError, match="text store"):
            next(cli.symmetric_matrix_rows(np.broadcast_to(0.5, (17600, 17600))))

    def test_asymmetric_matrix_exit_2_without_output(self, tmp_path, capsys, monkeypatch):
        arc = two_regime_archive(str(tmp_path / "two.cirb"))
        correlate = cli.pdp_correlation_matrix

        def skewed(pdp_db):
            values = correlate(pdp_db).values.copy()
            values[0, 25] = np.nextafter(values[0, 25], 2.0)
            return CorrelationMatrix(values)

        monkeypatch.setattr(cli, "pdp_correlation_matrix", skewed)
        out = str(tmp_path / "corr.csv")
        assert main(["analyze", arc, "--out", out]) == 2
        assert "exactly symmetric" in capsys.readouterr().err
        assert not os.path.exists(out)


STATIONARY_GBSM_INI = (
    "[gbsm]\nseed = 3\nduration_s = 0.0125\nbirth_rate_hz = 400.0\n"
    "death_rate_hz = 400.0\n"
)


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

    def test_stationary_gbsm_matrix_is_the_repr_join(self, tmp_path):
        # A zero-velocity run keeps each PDP between cluster births and
        # deaths, so the matrix repeats a few values across many cells.
        cfg = write(tmp_path / "g.ini", STATIONARY_GBSM_INI)
        arc, out = str(tmp_path / "run.cirb"), str(tmp_path / "corr.csv")
        assert main(["gbsm", "--config", cfg, "--out", arc]) == 0
        assert main(["analyze", arc, "--out", out]) == 0
        values = pdp_correlation_matrix(pdp_from_cir(read_archive(arc).cir[:, 0, 0])).values
        assert len(np.unique(values)) < len(values) and values.min() < 1.0
        expected = "".join(",".join(map(repr, r)) + "\n" for r in values.tolist())
        with open(out, "rb") as handle:
            assert handle.read() == expected.encode()

    def test_text_store_stays_below_the_matrix(self, tmp_path, monkeypatch, traced_peak):
        # The peak from the start of the matrix text: the matrix itself plus
        # the waiting tiles.  Measured 1.93 matrices (1.94 with a compacting
        # token store, 2.22 with variable-length tokens and int32 offsets); a
        # store that kept all n^2/2 tokens measured 2.91 (growing) and 2.98
        # (allocated up front).
        n = 400
        rng = np.random.default_rng(12)
        cir = rng.normal(size=(n, 1, 1, 64)) + 1j * rng.normal(size=(n, 1, 1, 64))
        arc = str(tmp_path / "noise.cirb")
        write_archive(arc, CirSequence(0.0, 1e-3, 1.0 / FS, cir))
        del cir
        write_bytes = cli.atomic_write_bytes

        def from_text_phase(path, chunks):
            tracemalloc.reset_peak()
            write_bytes(path, chunks)

        monkeypatch.setattr(cli, "atomic_write_bytes", from_text_phase)
        peak = traced_peak(main, ["analyze", arc, "--out", str(tmp_path / "corr.csv")])
        assert peak <= 2.1 * 8 * n**2

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

    @pytest.mark.parametrize(
        "field, value",
        [("t0_s", math.nan), ("t0_s", math.inf), ("dt_s", math.inf),
         ("sample_period_s", math.inf)],
    )
    def test_nonfinite_header_time_exit_2(self, tmp_path, capsys, field, value):
        arc = poke_header_time(two_regime_archive(str(tmp_path / "two.cirb")), field, value)
        out = str(tmp_path / "c.csv")
        assert main(["analyze", arc, "--los-track", "--out", out]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_single_snapshot_refused_before_decoding(self, tmp_path, capsys):
        arc = poke_nan(two_regime_archive(str(tmp_path / "one.cirb"), n_time=1), 0)
        assert main(["analyze", arc, "--out", str(tmp_path / "c.csv")]) == 2
        assert "need at least 2 snapshots" in capsys.readouterr().err

    def test_decodes_only_pair_0_0(self, tmp_path, traced_peak):
        rng = np.random.default_rng(4)
        shape = (400, 4, 4, 256)
        arc = str(tmp_path / "wide.cirb")
        cir = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        write_archive(arc, CirSequence(0.0, 1e-3, 1.0 / FS, cir))
        pair = 16 * 400 * 256
        del cir
        out = str(tmp_path / "corr.csv")
        assert traced_peak(main, ["analyze", arc, "--out", out]) <= 4 * pair
        corr = pdp_correlation_matrix(pdp_from_cir(read_archive(arc).cir[:, 0, 0]))
        expected = "".join(",".join(map(repr, r)) + "\n" for r in corr.values.tolist())
        with open(out, "rb") as handle:
            assert handle.read() == expected.encode()

    def test_oversized_correlation_exit_3_before_decoding(self, tmp_path):
        # 40 000 snapshots of 2 bins: a 640 040-byte archive whose 12.8 GB
        # correlation must be refused from the header alone.  The child runs
        # under a 3 GiB address-space cap, so a build that tries the matrix
        # fails at once instead of exhausting the machine's memory.
        arc = tmp_path / "long.cirb"
        header = struct.pack("<4sHIBBIddd", b"CIRB", 1, 40000, 1, 1, 2, 1.0 / FS, 0.0, 1e-3)
        arc.write_bytes(header + bytes(8 * 40000 * 2))
        child = (
            "import resource, sys, tracemalloc\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from chantool.cli import main\n"
            "tracemalloc.start()\n"
            "code = main(sys.argv[1:])\n"
            "print(code, tracemalloc.get_traced_memory()[1])\n"
        )
        src = os.path.dirname(os.path.dirname(chantool.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        argv = ["analyze", str(arc), "--stationarity", "--los-track",
                "--out", str(tmp_path / "c.csv")]
        proc = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, peak = map(int, proc.stdout.split())
        assert code == 3
        assert peak < 1 << 20
        assert "40000 snapshots" in proc.stderr
        assert not os.path.exists(tmp_path / "c.csv")

    @pytest.mark.parametrize("shape", [(4, 0, 1, 8), (4, 1, 1, 0)])
    def test_empty_axis_archive_exit_2(self, tmp_path, capsys, shape):
        arc = tmp_path / "empty.cirb"
        arc.write_bytes(struct.pack("<4sHIBBIddd", b"CIRB", 1, *shape, 1.0 / FS, 0.0, 1e-3))
        code = main(["analyze", str(arc), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "empty axis" in capsys.readouterr().err


class TestOutputMode:
    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_outputs_follow_the_umask(self, tmp_path, umask, mode):
        cfg = write(tmp_path / "g.ini", STATIONARY_GBSM_INI)
        arc, out = tmp_path / "run.cirb", tmp_path / "corr.csv"
        previous = os.umask(umask)
        try:
            assert main(["gbsm", "--config", cfg, "--out", str(arc)]) == 0
            assert main(["analyze", str(arc), "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert [path.stat().st_mode & 0o777 for path in (arc, out)] == [mode, mode]


class TestOutputPath:
    def test_symlink_is_written_through(self, tmp_path):
        samples = make_ci_samples(tmp_path / "s.csv")
        target = tmp_path / "fits" / "fit.json"
        target.parent.mkdir()
        target.write_text("stale\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["pathloss-fit", samples, "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["sample_count"] == 400
        assert os.listdir(target.parent) == ["fit.json"]

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_non_regular_target_exit_2(self, tmp_path, capsys, kind):
        samples = make_ci_samples(tmp_path / "s.csv")
        out = tmp_path / "fit.json"
        os.mkfifo(out) if kind == "fifo" else out.mkdir()
        assert main(["pathloss-fit", samples, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: exists and is not a regular file\n"
        assert stat.S_ISFIFO(out.lstat().st_mode) if kind == "fifo" else out.is_dir()
        assert sorted(os.listdir(tmp_path)) == ["fit.json", "s.csv"]


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
            keys = {**base, key: value}
            assert run(keys, "set") == (2, None)
            err = capsys.readouterr().err
            line = 2 + list(keys).index(key)  # the key's own line, not the header's
            assert f"{tmp_path / 'set.ini'}:{line}: velocities must be horizontal" in err
        else:
            code, after = run({**base, key: value}, "set")
            assert code == 0
            assert after != before
