"""End-to-end tests for the command line front end."""

import errno
import gc
import hashlib
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chantool
from chantool import analysis, archive, cli, gbsm
from chantool.analysis import CorrelationMatrix, pdp_correlation_matrix
from chantool.archive import BLOCK_BYTES, capture_sequence, read_archive, write_archive
from chantool.cli import main
from chantool.config import SCHEMA
from chantool.core import Mpc, derive_substream, pdp_from_cir
from chantool.gbsm import CirSequence
from chantool.sounder import WaveformSpec, simulate_capture
from test_pathloss import FROZEN_FITS, frozen_sample_columns

FS = 1.28e9


def write(path, text):
    path.write_text(text)
    return str(path)


def run_child(*args, blas_env=(("OPENBLAS_NUM_THREADS", "1"), ("OMP_NUM_THREADS", "1"))):
    """`python *args` on this checkout's chantool, stdout and stderr as pipes.
    blas_env replaces every OPENBLAS_* and OMP_* variable of this process;
    by default it pins BLAS to one thread."""
    src = os.path.dirname(os.path.dirname(chantool.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "OMP_"))}
    env.update(blas_env, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


# A cold run of main(argv) that prints its exit code and its peak RSS in
# KiB.  The peak is VmHWM, its own address space's high-water mark:
# ru_maxrss also keeps that of the process it was spawned from, which exec
# carries over, so there it would read the test process's peak.
HWM_CHILD = (
    "import sys\n"
    "from chantool.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "[hwm] = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
    "print(code, hwm.split()[1])\n"
)


def cold_peak_kib(*argv):
    """The VmHWM in KiB of a cold run of main(argv) that exits 0."""
    proc = run_child("-c", HWM_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split()[-2:])  # after what main printed
    assert code == 0
    return peak_kib


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
CARRIER_REFUSED = "carrier_ghz must be positive, with a finite frequency in Hz and wavelength in m"
ALL_MODELS_NO_NAN = "metis: 0 NaN point(s)\nkirchhoff: 0 NaN point(s)\ngtd: 0 NaN point(s)\n"


class TestBlockage:
    def test_crossing_all_models(self, tmp_path, capsys):
        # The default sweep, a wider screen at 32 GHz, and the blocker
        # crossing off the link's midpoint.
        for lines in ("carrier_ghz = 28.0\n", "carrier_ghz = 32.0\nscreen_width_m = 0.5\n",
                      "along_position_m = 3.0\n"):
            cfg = write(tmp_path / "c.ini", "[blockage]\nscenario = crossing\n" + lines)
            out = str(tmp_path / "curves.csv")
            assert main(["blockage", "--config", cfg, "--out", out]) == 0
            header, rows = read_rows(out)
            assert header == ["position_m", "metis_att_db", "kirchhoff_att_db", "gtd_att_db"]
            assert len(rows) == 21
            assert float(rows[0][0]) == -1.0
            assert float(rows[-1][0]) == 1.0
            assert float(rows[1][0]) - float(rows[0][0]) == pytest.approx(0.1)
            # NaN counts land on stderr, one line per model
            assert capsys.readouterr().err == ALL_MODELS_NO_NAN

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

    def test_along_sweep_spans_the_link(self, tmp_path, capsys):
        # From 10% to 90% of the link in 2% steps, whatever its length or
        # carrier, and with the blocker off the link.
        for lines, positions in [
            ("link_length_m = 20.0\ncarrier_ghz = 39.0\n", ["2.0", "2.4", "18.0"]),
            ("lateral_offset_m = 0.1\n", ["1.0", "1.2", "9.0"]),
        ]:
            cfg = write(tmp_path / "c.ini", "[blockage]\nscenario = along\n" + lines)
            out = str(tmp_path / "along.csv")
            assert main(["blockage", "--config", cfg, "--out", out]) == 0
            header, rows = read_rows(out)
            assert header == ["position_m", "metis_att_db", "kirchhoff_att_db", "gtd_att_db"]
            assert [row[0] for row in rows[:2]] + [rows[-1][0]] == positions
            assert len(rows) == 41
            assert capsys.readouterr().err == ALL_MODELS_NO_NAN

    @pytest.mark.parametrize(
        "scenario, digest",
        [
            ("crossing", "691ae27fadcd70b7b5d7501d9e1b876e58120102556a2bcca1ed6be5f3d34fb6"),
            ("along", "30369021bb86ce0341621eff99731cbb4f23bcec5529335cb02ba271db540773"),
        ],
        ids=["crossing", "along"],
    )
    def test_default_sweeps_keep_their_bytes(self, tmp_path, scenario, digest):
        # The SHA-256 of the benchmark's seed-0 crossing.csv and along.csv.
        cfg = write(tmp_path / "c.ini", f"[blockage]\nscenario = {scenario}\n")
        out = tmp_path / f"{scenario}.csv"
        assert main(["blockage", "--config", cfg, "--model", "all", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("section, other", [("blockage", "[gbsm]\nseed = 1\n"),
                                                ("gbsm", BLOCKAGE_INI)], ids=["blockage", "gbsm"])
    def test_missing_section_exit_2(self, tmp_path, capsys, section, other):
        # A required section the file lacks is cited at line 0.
        cfg = write(tmp_path / "c.ini", other)
        out = tmp_path / "x.out"
        assert main([section, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}:0: missing [{section}] section\n")
        assert not out.exists()

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
        "line, lineno, message",
        [
            # A value refused on its own cites its key's line (2) ...
            ("screen_width_m = -1", 2, "screen_width_m must be positive"),
            ("scenario = sideways", 2, "scenario must be one of crossing, along"),
            ("carrier_ghz = -28", 2, CARRIER_REFUSED),
            # A 5e-315 Hz carrier: its infinite wavelength is refused before
            # any sweep, so no model's NaN count is printed.
            ("carrier_ghz = 5e-324", 2, CARRIER_REFUSED),
            # ... and any other refusal the section's header (1).
            ("link_length_m = 0.0", 1, "tx and rx must differ"),
            # Refused by the sweep, not by a parameter type.
            ("link_length_m = 1e308", 1, "non-finite path excess"),
        ],
        ids=["screen", "scenario", "band", "wavelength", "endpoints", "sweep"],
    )
    def test_refused_value_cites_the_file(self, tmp_path, capsys, line, lineno, message):
        cfg = write(tmp_path / "b.ini", f"[blockage]\n{line}\n")
        out = tmp_path / "x.csv"
        assert main(["blockage", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{lineno}: {message}\n"
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
        assert set(report) == {"model", "parameters", "sigma_db", "residual_rms_db", "sample_count"}
        assert report["model"] == model
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
        assert capsys.readouterr().err == (
            f"error: {samples}: rank-deficient fit: frequency column is constant"
            " (use --model fi, which fits no frequency term)\n"
        )

    @pytest.mark.parametrize(
        "edits, model",
        [
            ([("scale", 2, 1e298)], "ci"),
            ([("scale", 2, 1e298)], "fi"),
            ([("scale", 2, 1e298)], "abg"),
            ([("cell", 0, 2, "1.7e308"), ("cell", 1, 2, "-1.7e308")], "ci"),
        ],
        ids=["1e300-ci", "1e300-fi", "1e300-abg", "1.7e308-ci"],
    )
    def test_overflowing_fit_names_the_samples(self, tmp_path, capsys, edits, model):
        # Every row is a valid sample, so the refusal cites the file and
        # says the losses overflow, not only the model field that did.
        samples = write(tmp_path / "s.csv", samples_csv(edits))
        out = tmp_path / "f.json"
        assert main(["pathloss-fit", samples, "--model", model, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {samples}: the losses overflow the {model} fit: ")
        assert err.endswith(" must be finite, got inf\n") or err.endswith(", got nan\n")
        assert err.count("\n") == 1 and not out.exists()

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

    @pytest.mark.parametrize(
        "rows, model, message",
        [
            # Frequency in step with distance: the abg columns are collinear.
            ([(10.0, 10.0), (100.0, 100.0), (1000.0, 1000.0)], "abg",
             "rank-deficient fit: design columns are collinear"
             " (use --model fi, which fits no frequency term)"),
            ([(10.0, 28.0), (100.0, 39.0)], "abg", "abg_fit needs at least 3 samples"),
            ([(10.0, 28.0)], "fi", "abg_fit needs at least 2 samples"),
        ],
        ids=["collinear", "abg-two", "fi-one"],
    )
    def test_undetermined_fit_names_the_samples(self, tmp_path, capsys, rows, model, message):
        body = "".join(f"{d},{f},{90.0 + d / 100}\n" for d, f in rows)
        samples = write(tmp_path / "s.csv", "distance_m,freq_ghz,pl_db\n" + body)
        out = tmp_path / "f.json"
        assert main(["pathloss-fit", samples, "--model", model, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {samples}: {message}\n"
        assert not out.exists()

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
            ("\n \n" * 40 + "distance_m,freq_ghz,pl_db\n\n",
             "<path>: ci_fit needs at least 2 samples"),
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

    def test_values_only_blockage_refuses_do_not_stop_it(self, tmp_path):
        # Only blockage builds BlockageConfig, so its refusals, an unknown
        # scenario and a non-finite value among them, stop no other
        # subcommand sharing the file.
        mixed = write(tmp_path / "m.ini", "[blockage]\nscenario = sideways\n"
                      "screen_width_m = -1\nlink_length_m = nan\n" + GBSM_INI)
        alone = write(tmp_path / "g.ini", GBSM_INI)
        p1, p2 = str(tmp_path / "a.cirb"), str(tmp_path / "b.cirb")
        assert main(["gbsm", "--config", mixed, "--out", p1]) == 0
        assert main(["gbsm", "--config", alone, "--out", p2]) == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_unwritable_out_exit_2_before_any_synthesis(self, tmp_path, capsys, monkeypatch):
        # The archive is staged after the evolution, before the first block
        # is synthesized, so a path in a missing directory costs no synthesis.
        def no_synthesis(*args):
            raise AssertionError("synthesis ran")

        monkeypatch.setattr(gbsm, "synthesize_snapshot", no_synthesis)
        cfg = write(tmp_path / "g.ini", GBSM_INI)
        out = tmp_path / "missing" / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert os.listdir(tmp_path) == ["g.ini"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_rss_independent_of_step_count(self, tmp_path):
        # Cold 1x1 runs of N and 10N steps: each block is written as it is
        # synthesized, so the child's peak grows far less than the complex128
        # cube of the longer run (twice its archive), which a run that kept
        # the cube grew by (0.99 of it measured; 0.02 streamed).
        peaks_kib = []
        for steps in (2000, 20000):
            cfg = write(tmp_path / f"{steps}.ini", f"[gbsm]\nduration_s = {steps * 62.5e-6!r}\n")
            out = tmp_path / f"{steps}.cirb"
            peaks_kib.append(cold_peak_kib("gbsm", "--config", cfg, "--out", str(out)))
        cube = 2 * (os.path.getsize(out) - 40)
        assert 1024 * (peaks_kib[1] - peaks_kib[0]) <= 0.1 * cube, peaks_kib

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

        monkeypatch.setattr(cli, "stream_scenario", no_run)
        cfg = write(tmp_path / "g.ini", f"[gbsm]\nduration_s = 0.00625\n{key} = 256\n")
        out = tmp_path / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:3: {key} must be at most 255, the archive's limit\n"
        assert not out.exists()

    def test_rays_per_cluster_past_the_record_size_exit_2_before_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(gcfg):
            raise AssertionError("scenario ran")

        monkeypatch.setattr(cli, "stream_scenario", no_run)
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

    @pytest.mark.parametrize("x", ["5e-324", "1e-200"])
    def test_separation_whose_square_underflows_cites_the_header(self, tmp_path, capsys, x):
        cfg = write(tmp_path / "g.ini", f"[gbsm]\nduration_s = 0.001\nrx_position_x_m = {x}\n")
        out = tmp_path / "x.cirb"
        assert main(["gbsm", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: tx and rx positions must differ\n"
        assert not out.exists()

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
        argv = ["gbsm", "--config", cfg, "--out", str(out)]
        proc = run_child("-c", child, *argv)
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
            # Synthesis overflows to NaN, and the archive writer refuses the cube.
            ("tx_velocity_x_mps = 1e308", 2, ".cirb: non-finite value at time step 0"),
            ("antenna_spacing_m = 1e308", 2, ".cirb: non-finite value at time step 0"),
            ("ray_angle_spread_rad = 1e308", 2, ".cirb: non-finite value at time step 0"),
        ],
        ids=["steps", "grid-resolution", "los-delay", "cluster-delays", "k-factor", "shadow",
             "doppler", "array-phase", "ray-angles"],
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
        "section, line, message",
        [
            ("gbsm", "duration_s = inf", "duration_s must be finite, got inf"),
            ("gbsm", "rx_velocity_x_mps = nan", "rx_velocity_x_mps must be finite, got nan\n"),
            ("gbsm", "carrier_ghz = 1e999", "carrier_ghz must be finite, got inf"),
            ("blockage", "link_length_m = nan", "link_length_m must be finite, got nan"),
            ("blockage", "cylinder_radius_m = nan", "cylinder_radius_m must be finite, got nan"),
            ("blockage", "carrier_ghz = 1e999", "carrier_ghz must be finite, got inf"),
            ("sounder", "gt_dbi = 1e999", "gt_dbi must be finite, got inf"),
            ("sounder", "band_fraction = nan", "band_fraction must be finite, got nan\n"),
            ("sounder", "band_fraction = inf", "band_fraction must be finite, got inf\n"),
        ],
        ids=["gbsm-duration-inf", "gbsm-velocity-nan", "gbsm-carrier-1e999",
             "blockage-length-nan", "blockage-radius-nan", "blockage-carrier-1e999",
             "sounder-gain-1e999", "sounder-band-fraction-nan", "sounder-band-fraction-inf"],
    )
    def test_non_finite_value_exit_2_with_line(self, tmp_path, capsys, section, line, message):
        # The parser keeps the value; its type refuses it at the key's line.
        cfg = write(tmp_path / "c.ini", f"[{section}]\n{line}\n")
        missing = str(tmp_path / "missing.cirb")
        command = {"sounder": ["sounder", "--rx", missing, "--cal", missing]}.get(section, [section])
        out = tmp_path / "x.out"
        assert main([*command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        f"{end}_{field}_{axis}_{unit}"
        for end in ("tx", "rx") for field, unit in (("velocity", "mps"), ("position", "m"))
        for axis in "xyz"
    ])
    def test_non_finite_coordinate_names_its_key(self, tmp_path, capsys, key, value):
        # A coordinate is refused by the key that sets it, not by its Point3 field.
        cfg = write(tmp_path / "c.ini", f"[gbsm]\nduration_s = 0.1\n{key} = {value}\n")
        assert main(["gbsm", "--config", cfg, "--out", str(tmp_path / "x.cirb")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: {key} must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [["blockage", "--model", "metis"], ["blockage", "--model", "gtd"],
         ["blockage", "--model", "kirchhoff"], ["gbsm"]],
        ids=["metis", "gtd", "kirchhoff", "gbsm"],
    )
    def test_infinite_wavelength_exit_2_at_its_key(self, tmp_path, capsys, argv):
        # metis and gtd swept a 5e-315 Hz carrier to 0.0 dB, and gbsm wrote
        # a cube at its infinite wavelength; only kirchhoff refused it.
        cfg = write(tmp_path / "c.ini", f"[{argv[0]}]\ncarrier_ghz = 5e-324\n")
        out = tmp_path / "x.out"
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {CARRIER_REFUSED}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-28", "0", "1e300", "5e-324"])
    def test_carrier_refused_alike_in_both_sections(self, tmp_path, capsys, value):
        # carrier_ghz is refused by one rule, in GHz, whichever section sets it.
        out = tmp_path / "x.out"
        errors = []
        for section in ("gbsm", "blockage"):
            cfg = write(tmp_path / "c.ini", f"[{section}]\ncarrier_ghz = {value}\n")
            assert main([section, "--config", cfg, "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: {cfg}:2: carrier_ghz must be ")
        assert errors[0].count("\n") == 1 and "carrier_hz" not in errors[0]


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

    @pytest.mark.parametrize("period", [7.3e-10, 1e-300, 5e-324])
    def test_delays_are_bins_times_the_archive_period(self, tmp_path, period):
        # The CIRs take the archives' period as stored: through a rate and
        # back, 7.3e-10 came out an ulp off and 5e-324 as 0.0 (exit 2).  Tiny
        # delays keep a non-zero spread: their squares used to underflow.
        rx, cal = make_captures(tmp_path)
        for path in (rx, cal):
            poke_header_time(path, "sample_period_s", period)
        out = str(tmp_path / "mpcs.csv")
        assert main(["sounder", "--rx", rx, "--cal", cal, "--out", out]) == 0
        mpc_rows, stat_rows = split_tables(out)
        assert [row[1] for row in mpc_rows] == [repr(b * period * 1e9) for b in (10, 50, 120)]
        assert all(math.isfinite(float(v)) for row in mpc_rows + stat_rows for v in row)
        assert float(stat_rows[0][3]) > 0.0

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

    def test_absent_sounder_section_keeps_the_defaults(self, tmp_path):
        # No --config, a config without [sounder] and an empty [sounder]
        # all run on the defaults.
        rx, cal = make_captures(tmp_path)
        outputs = []
        for n, text in enumerate([None, GBSM_INI, "[sounder]\n"]):
            config = [] if text is None else ["--config", write(tmp_path / f"{n}.ini", text)]
            out = tmp_path / f"{n}.csv"
            assert main(["sounder", "--rx", rx, "--cal", cal, *config, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

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
            ("\n[sounder]\nmax_paths = 0\n", ":3: max_paths must be >= 1"),
            ("[sounder]\nband_fraction = 0\n", ":2: band_fraction must be in (0, 1]"),
            # 10 ** (margin / 10) would overflow a float in the peak search.
            ("[sounder]\nnoise_margin_db = 1e308\n", ":2: noise_margin_db must be at most 3082"),
            # Two finite gains whose sum overflows: a refusal of several keys
            # together cites the section's header.
            ("[sounder]\ngt_dbi = 1e308\ngr_dbi = 1e308\n",
             ":1: the link budget's path loss must be finite"),
        ],
        ids=["unknown-key", "bad-value", "band-fraction", "noise-margin", "budget-sum"],
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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_rss_independent_of_capture_count(self, tmp_path):
        # Cold runs on N and 10N captures: the child's peak RSS grows far
        # less than the added captures would take as complex128.
        rx, cal = make_captures(tmp_path)
        seq = read_archive(rx)
        peaks_kib = []
        for count in (8, 80):
            rolled = np.concatenate([np.roll(seq.cir, 7 * t, axis=3) for t in range(count)])
            write_archive(rx, CirSequence(0.0, 1.0, seq.sample_period_s, rolled))
            del rolled
            out = str(tmp_path / f"{count}.csv")
            peaks_kib.append(cold_peak_kib("sounder", "--rx", rx, "--cal", cal, "--out", out))
        added = 16 * 72 * seq.cir.shape[3]
        assert 1024 * (peaks_kib[1] - peaks_kib[0]) <= 0.1 * added, peaks_kib

    @pytest.mark.parametrize("per_block", [1, 2, 3, 6, 7])
    def test_output_independent_of_block_sizes(self, tmp_path, monkeypatch, per_block):
        # Captures per archive block; 7 captures in all, so a block may hold
        # one, all, or a count that leaves a shorter last block.  Each block
        # is one deconvolve_cir call, so one FFT pair, not one per capture.
        rx, cal = make_captures(tmp_path)
        seq = read_archive(rx)
        rolled = [np.roll(seq.cir, 7 * t, axis=3) for t in range(7)]
        write_archive(rx, CirSequence(0.0, 1.0, seq.sample_period_s, np.concatenate(rolled)))
        argv = ["sounder", "--rx", rx, "--cal", cal, "--out"]
        assert main([*argv, str(tmp_path / "default.csv")]) == 0
        monkeypatch.setattr(archive, "BLOCK_BYTES", 8 * seq.cir.shape[3] * per_block)
        rows = []
        deconvolve = cli.deconvolve_cir

        def counted(y_rx, calibration):
            rows.append(len(y_rx))
            return deconvolve(y_rx, calibration)

        monkeypatch.setattr(cli, "deconvolve_cir", counted)
        assert main([*argv, str(tmp_path / "patched.csv")]) == 0
        assert rows == [per_block] * (7 // per_block) + [7 % per_block] * (7 % per_block > 0)
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


def noise_archive(path, n_time, n_delay=64):
    """An archive of n_time snapshots of n_delay bins of complex Gaussian
    noise, so every cell of its correlation matrix is distinct."""
    rng = np.random.default_rng(12)
    shape = (n_time, 1, 1, n_delay)
    cir = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    write_archive(path, CirSequence(0.0, 1e-3, 1.0 / FS, cir))
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
        assert list(cli.symmetric_matrix_rows(cli.upper_row_blocks([values.copy()]))) == expected

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
        assert list(cli.symmetric_matrix_rows(cli.upper_row_blocks([values.copy()]))) == expected

    def test_short_last_block(self):
        # Blocks of 200 // 32 = 6 rows: 33 full ones, then one of 2 rows.
        rng = np.random.default_rng(200)
        a = rng.uniform(-1.0, 1.0, (200, 200))
        values = (a + a.T) / 2.0
        for j, cell in zip((0, 5, 6, 197), SPECIAL_CELLS):
            values[199, j] = values[j, 199] = cell
        expected = [(",".join(map(repr, row)) + "\n").encode() for row in values.tolist()]
        assert list(cli.symmetric_matrix_rows(cli.upper_row_blocks([values.copy()]))) == expected

    def test_asymmetric_matrix_exit_2_without_output(self, tmp_path, capsys, monkeypatch):
        arc = two_regime_archive(str(tmp_path / "two.cirb"))
        correlate = cli.pdp_correlation_matrix

        def skewed(pdp_db, **kwargs):
            values = correlate(pdp_db, **kwargs).values.copy()
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
        arc = noise_archive(str(tmp_path / "noise.cirb"), 300)
        sizes = []
        matrix_rows = cli.symmetric_matrix_rows

        def recording(values):
            for chunk in matrix_rows(values):
                assert chunk.endswith(b"\n")
                sizes.append(len(chunk))
                yield chunk

        monkeypatch.setattr(cli, "symmetric_matrix_rows", recording)
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
        # The peak from the start of the matrix text: the row blocks not yet
        # written plus the waiting tiles.  Measured 1.07 matrices once the
        # matrix is dropped before the text (1.10 with --stationarity); 1.93
        # while the text ran beside the matrix (1.94 with a compacting token
        # store, 2.22 with variable-length tokens and int32 offsets); a store
        # that kept all n^2/2 tokens measured 2.91 (growing) and 2.98
        # (allocated up front).
        n = 400
        arc = noise_archive(str(tmp_path / "noise.cirb"), n)
        matrix_rows = cli.symmetric_matrix_rows

        def from_text_phase(values):
            tracemalloc.reset_peak()
            yield from matrix_rows(values)

        monkeypatch.setattr(cli, "symmetric_matrix_rows", from_text_phase)
        peak = traced_peak(main, ["analyze", arc, "--out", str(tmp_path / "corr.csv")])
        assert peak <= 2.1 * 8 * n**2

    @pytest.mark.parametrize("bins", [64, 400], ids=["64-bins", "400-bins"])
    @pytest.mark.parametrize("options", [[], ["--stationarity", "--los-track"]],
                             ids=["matrix", "all-outputs"])
    def test_whole_run_stays_near_the_matrix_and_one_profile_array(
        self, tmp_path, traced_peak, options, bins
    ):
        # The peak is the product: the matrix beside the one (snapshots,
        # bins) float64 array of profiles.  Measured 1.06 of the two at 64
        # bins and 1.12 at 400 (1.08 and 1.15 with every output).  Cutting
        # the row blocks beside the whole matrix measured 1.35 at 64 bins,
        # and holding the decoded samples, the dB profiles and their linear
        # copy at once 2.08 at 400.
        n = 400
        arc = noise_archive(str(tmp_path / "noise.cirb"), n, bins)
        argv = ["analyze", arc, *options, "--out", str(tmp_path / "corr.csv")]
        assert traced_peak(main, argv) <= 1.2 * 8 * n * (n + bins)

    @pytest.mark.parametrize(
        "per_block, per_strip",
        [(1, None), (2, None), (3, None), (7, None), (None, 3)],
        ids=["block-1", "block-2", "block-3", "block-7-short-last", "strip-3"],
    )
    def test_outputs_independent_of_block_sizes(self, tmp_path, monkeypatch, per_block, per_strip):
        # Pair (0, 0) of a 2x2 run is decoded one archive block at a time, in
        # strips, into |s|^2 rows and the LOS track.  Blocks of 1, 2, 3 and 7
        # of its 40 snapshots (7 leaves a short last block), and strips of 3
        # rows, write the bytes of the default run, in which one strip holds
        # them all.
        cfg = gbsm.GbsmConfig(
            seed=5, n_tx=2, n_rx=2, rx_velocity=gbsm.Point3(1.5, 0.5, 0.0), k_factor_db=-10.0,
            birth_rate_hz=2000.0, death_rate_hz=2000.0, duration_s=40 * 62.5e-6,
        )
        arc = str(tmp_path / "run.cirb")
        n_delay = write_archive(arc, gbsm.run_scenario(cfg)) // (8 * 4 * 40)
        names = ["corr.csv", "corr_intervals.csv", "corr_los.csv"]
        strips, track = [], cli.los_power_track

        def counted(samples, *args, **kwargs):
            strips.append(len(samples))
            return track(samples, *args, **kwargs)

        def outputs(name):
            (tmp_path / name).mkdir()
            argv = ["analyze", arc, "--stationarity", "--los-track", "--out"]
            assert main([*argv, str(tmp_path / name / "corr.csv")]) == 0
            return [(tmp_path / name / out).read_bytes() for out in names]

        monkeypatch.setattr(cli, "los_power_track", counted)
        default = outputs("default")
        assert strips == [40]
        assert default[1].count(b"\n") > 3  # several intervals
        strips.clear()
        if per_block:
            monkeypatch.setattr(archive, "BLOCK_BYTES", 8 * 4 * n_delay * per_block)
        if per_strip:
            monkeypatch.setattr(cli, "DECODE_STRIP_BYTES", 16 * n_delay * per_strip)
        rows = per_block or per_strip
        assert outputs("patched") == default
        assert strips == [rows] * (40 // rows) + [40 % rows] * (40 % rows > 0)

    def test_los_track_output(self, tmp_path):
        arc = two_regime_archive(str(tmp_path / "two.cirb"))
        out = str(tmp_path / "corr.csv")
        assert main(["analyze", arc, "--los-track", "--out", out]) == 0
        header, rows = read_rows(tmp_path / "corr_los.csv")
        assert header == ["t_s", "power_db"]
        assert len(rows) == 30
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-9)

    @pytest.fixture
    def unread_archive(self, tmp_path, monkeypatch):
        """A two-regime archive in tmp_path whose read fails the test."""

        def no_read(path):
            raise AssertionError("archive read")

        monkeypatch.setattr(cli, "_read_pair", no_read)
        return two_regime_archive(str(tmp_path / "two.cirb"))

    @pytest.mark.parametrize("refused", ["corr.csv", "corr_intervals.csv", "corr_los.csv"])
    def test_refused_output_path_exit_2_before_reading(
        self, tmp_path, capsys, unread_archive, refused
    ):
        (tmp_path / refused).mkdir()
        argv = ["analyze", unread_archive, "--stationarity", "--los-track",
                "--out", str(tmp_path / "corr.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / refused}: exists and is not a regular file\n"
        assert sorted(os.listdir(tmp_path)) == sorted([refused, "two.cirb"])

    @pytest.mark.parametrize("refused", ["corr.csv", "corr_intervals.csv", "corr_los.csv"])
    @pytest.mark.parametrize(
        "parent, message",
        [("missing", "[Errno 2] No such file or directory"), ("two.cirb", "[Errno 20] Not a directory")],
        ids=["dangling-link", "missing-parent"],
    )
    def test_output_with_no_directory_exit_2_before_reading(
        self, tmp_path, capsys, unread_archive, refused, parent, message
    ):
        # A link into a missing directory, or under the archive, a regular
        # file: no temp file can be made beside the link's target.
        (tmp_path / refused).symlink_to(os.path.join(parent, refused))
        argv = ["analyze", unread_archive, "--stationarity", "--los-track",
                "--out", str(tmp_path / "corr.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}: '{tmp_path / refused}'\n"
        assert sorted(os.listdir(tmp_path)) == sorted([refused, "two.cirb"])

    def test_error_while_writing_the_los_track_leaves_no_output(
        self, tmp_path, capsys, monkeypatch
    ):
        # The matrix and the intervals are complete by then, and stay unwritten.
        def full_disk(value):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        arc = two_regime_archive(str(tmp_path / "two.cirb"))
        monkeypatch.setattr(cli, "_fmt", full_disk)
        argv = ["analyze", arc, "--stationarity", "--los-track", "--out", str(tmp_path / "corr.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert os.listdir(tmp_path) == ["two.cirb"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1", "1.5"])
    def test_threshold_out_of_range_exit_2(self, tmp_path, capsys, value):
        # One rule with stationary_intervals, checked before the archive is
        # read: a missing one is not reported.
        expected = (
            f"threshold must be finite, got {float(value)}"
            if not math.isfinite(float(value))
            else "threshold must be in (0, 1)"
        )
        arc = str(tmp_path / "missing.cirb")
        argv = ["analyze", arc, "--stationarity", f"--threshold={value}",
                "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert os.listdir(tmp_path) == []

    def test_threshold_without_stationarity_exit_2(self, tmp_path, capsys):
        # Refused before the archive is read: a missing one is not reported.
        arc = str(tmp_path / "missing.cirb")
        code = main(["analyze", arc, "--threshold", "0.5", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: --threshold applies only with --stationarity\n"
        assert os.listdir(tmp_path) == []

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

    def test_infinite_time_axis_exit_2(self, tmp_path, capsys):
        # dt_s = 1e308 is finite, but the third snapshot's time is not.
        arc = two_regime_archive(str(tmp_path / "two.cirb"), n_time=20)
        poke_header_time(arc, "dt_s", 1e308)
        out = tmp_path / "c.csv"
        assert main(["analyze", arc, "--los-track", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "last snapshot time t0_s + dt_s * (n_time - 1) must be finite" in err
        assert os.listdir(tmp_path) == ["two.cirb"]

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
        argv = ["analyze", str(arc), "--stationarity", "--los-track",
                "--out", str(tmp_path / "c.csv")]
        proc = run_child("-c", child, *argv)
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


# The header fields after magic and version: name -> (offset, struct format).
HEADER_FIELDS = {
    "n_time": (6, "<I"), "n_tx": (10, "<B"), "n_rx": (11, "<B"), "n_delay": (12, "<I"),
    "sample_period_s": (16, "<d"), "t0_s": (24, "<d"), "dt_s": (32, "<d"),
}
INT_EXTREMES = (0, 1, 2, 2**32 - 1)  # a u8 field takes 255 for the last
FLOAT_EXTREMES = (0.0, -1.0, 5e-324, 1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan, 1e300)
PAYLOAD_EXTREMES = (math.inf, -math.inf, math.nan, 3.4e38, -3.4e38, 1e-45)
OUTPUT_HEADERS = {
    "start_index,end_index", "t_s,power_db", "snapshot,delay_ns,power_db",
    "snapshot,received_power_db,path_loss_db,rms_ds_ns",
}

# One archive edit as plain data, so one draw can edit the rx and the cal
# alike; positions are taken modulo the length of the bytes they edit.
archive_edits = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(
        st.just("field"), st.sampled_from(sorted(HEADER_FIELDS)),
        st.integers(0, len(FLOAT_EXTREMES) - 1),
    ),
    st.tuples(st.just("payload"), st.integers(0, 10**6), st.sampled_from(PAYLOAD_EXTREMES)),
    st.tuples(st.just("resize"), st.sampled_from([0, 1, 2, 3, 600])),
)


def edit_archive(blob, edits):
    """Apply archive_edits to an archive's bytes: cut the file, flip a bit,
    set a header field to an extreme, set a payload float, or set n_time
    with a zero-padded or cut payload to match (skipped past 2 MiB)."""
    data = bytearray(blob)
    for op, *args in edits:
        if op == "truncate":
            del data[args[0] % (len(data) + 1) :]
        elif op == "flip" and data:
            data[args[0] % len(data)] ^= 1 << args[1]
        elif op == "field" and len(data) >= 40:
            offset, fmt = HEADER_FIELDS[args[0]]
            if fmt == "<d":
                value = FLOAT_EXTREMES[args[1] % len(FLOAT_EXTREMES)]
            else:
                value = INT_EXTREMES[args[1] % len(INT_EXTREMES)]
                value = min(value, 255) if fmt == "<B" else value
            struct.pack_into(fmt, data, offset, value)
        elif op == "payload" and len(data) >= 44:
            struct.pack_into("<f", data, 40 + 4 * (args[0] % ((len(data) - 40) // 4)), args[1])
        elif op == "resize" and len(data) >= 40:
            n_tx, n_rx, n_delay = struct.unpack_from("<BBI", data, 10)
            size = 8 * args[0] * n_tx * n_rx * n_delay
            if size <= 2 << 20:
                struct.pack_into("<I", data, 6, args[0])
                data[40:] = bytes(data[40 : 40 + size]).ljust(size, b"\0")
    return bytes(data)


def fuzz_analyze_archive(path):
    """24 snapshots of 128 bins: two regimes of two paths each, 36-path rows
    (past max_paths, so the LOS track extracts them), and noise rows."""
    rng = np.random.default_rng(23)
    cir = np.zeros((24, 1, 1, 128), dtype=complex)
    cir[:10, 0, 0, [5, 20]] = 1.0, 0.5
    cir[10:16, 0, 0, [40, 55]] = 1.0, 0.5
    cir[16:20, 0, 0, :108:3] = np.linspace(1.0, 0.5, 36)
    cir[20:] = rng.normal(size=(4, 1, 1, 128)) + 1j * rng.normal(size=(4, 1, 1, 128))
    write_archive(path, CirSequence(t0_s=0.25, dt_s=1e-3, sample_period_s=1.0 / FS, cir=cir))
    return path


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def check_fuzzed_run(capsys, code, directory, outputs):
    """A run exits 0, 2 or 3 and leaves no temporary file.  A failure prints
    one error line and writes no output; a success writes only finite
    numbers, but for the delay spread of a capture without paths, which is
    nan, and a JSON output parses strictly."""
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert [name for name in os.listdir(directory) if name.startswith(".tmp-")] == []
    written = [name for name in outputs if os.path.exists(os.path.join(directory, name))]
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert written == []
        return
    assert err == "" and written == outputs
    for name in outputs:
        if name.endswith(".json"):
            report = json.loads(open(os.path.join(directory, name)).read(),
                                parse_constant=refuse_constant)
            numbers = [report["sigma_db"], report["residual_rms_db"], *report["parameters"].values()]
            assert all(map(math.isfinite, numbers)), report
            continue
        header = None
        for line in open(os.path.join(directory, name)).read().splitlines():
            if line in OUTPUT_HEADERS:
                header = line
                continue
            cells = [float(cell) for cell in line.split(",")]
            if header and header.endswith("rms_ds_ns") and math.isnan(cells[-1]):
                cells.pop()
            assert all(map(math.isfinite, cells)), (name, line)


@pytest.fixture
def sounder_bases(tmp_path):
    rx, cal = make_captures(tmp_path)
    # a second, silent capture: its delay spread is nan
    y_rx = read_archive(rx).cir[0, 0, 0]
    write_archive(rx, capture_sequence(np.stack([y_rx, 0 * y_rx]), FS, 1e-3))
    return {"rx": rx, "cal": cal}


FUZZ_SETTINGS = settings(
    max_examples=250, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestArchiveFuzz:
    """Edited archives through cli.main, in process, under a correlation
    budget of 2 MiB (512 snapshots), so a 600-snapshot resize exits 3.  The
    fixtures run once per test, not once per example."""

    @pytest.fixture
    def budget(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_CORR_BYTES", 2 << 20)

    @pytest.fixture
    def analyze_base(self, tmp_path):
        return fuzz_analyze_archive(str(tmp_path / "base.cirb"))

    @FUZZ_SETTINGS
    @given(edits=st.lists(archive_edits, min_size=1, max_size=3))
    @example(edits=[("field", "dt_s", 4)])  # dt_s = 1e308: inf times from the third
    def test_analyze(self, tmp_path, capsys, budget, analyze_base, edits):
        directory = tempfile.mkdtemp(dir=tmp_path)
        arc = os.path.join(directory, "in.cirb")
        with open(analyze_base, "rb") as base, open(arc, "wb") as handle:
            handle.write(edit_archive(base.read(), edits))
        argv = ["analyze", arc, "--stationarity", "--los-track",
                "--out", os.path.join(directory, "corr.csv")]
        outputs = ["corr.csv", "corr_intervals.csv", "corr_los.csv"]
        check_fuzzed_run(capsys, main(argv), directory, outputs)

    @FUZZ_SETTINGS
    @given(
        edits=st.lists(archive_edits, min_size=1, max_size=3),
        which=st.sampled_from(["rx", "cal", "both"]),
    )
    @example(edits=[("field", "sample_period_s", 4)], which="both")  # inf delays
    @example(edits=[("field", "sample_period_s", 9)], which="both")  # 1e300 s: inf in ns
    def test_sounder(self, tmp_path, capsys, budget, sounder_bases, edits, which):
        directory = tempfile.mkdtemp(dir=tmp_path)
        paths = {}
        for name, base in sounder_bases.items():
            paths[name] = os.path.join(directory, f"{name}.cirb")
            with open(base, "rb") as handle:
                blob = handle.read()
            with open(paths[name], "wb") as handle:
                handle.write(edit_archive(blob, edits) if which in (name, "both") else blob)
        argv = ["sounder", "--rx", paths["rx"], "--cal", paths["cal"],
                "--out", os.path.join(directory, "mpcs.csv")]
        check_fuzzed_run(capsys, main(argv), directory, ["mpcs.csv"])


# Cell values at and past the edges of the float range, a subnormal, and a
# blank; factors that scale a whole column; and lines that are not three
# numbers (a blank line is skipped).
SAMPLE_EXTREMES = ("1.7e308", "-1.7e308", "1e300", "-1e300", "5e-324", "0", "-1", "")
SAMPLE_SCALES = (1e298, -1e298, 1e306, 1e-300)
BAD_LINES = ("", "10.0,28.0", "10.0,28.0,90.0,1.0", "a,b,c", "10.0,28.0,nan", ",,")
sample_edits = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 49), st.integers(0, 2),
              st.sampled_from(SAMPLE_EXTREMES)),
    st.tuples(st.just("scale"), st.integers(0, 2), st.sampled_from(SAMPLE_SCALES)),
    st.tuples(st.just("line"), st.integers(0, 50), st.sampled_from(BAD_LINES)),
)


def samples_csv(edits):
    """The samples CSV of 50 frozen rows after sample_edits: set one cell,
    scale one column, or insert one line."""
    rows = [list(map(repr, row)) for row in np.column_stack(frozen_sample_columns(50)).tolist()]
    for op, *args in edits:
        if op == "cell":
            rows[args[0]][args[1]] = args[2]
        elif op == "scale":
            for row in rows:
                row[args[0]] = repr(float(row[args[0]] or "0") * args[1])
    lines = [",".join(row) for row in rows]
    for op, *args in edits:
        if op == "line":
            lines.insert(args[0], args[1])
    return "\n".join(["distance_m,freq_ghz,pl_db", *lines]) + "\n"


class TestSamplesFuzz:
    """Edited samples CSVs through pathloss-fit's three models, in process.
    Any warning is an error, so a run that exits 2 or 3 shows only its
    error line."""

    @FUZZ_SETTINGS
    @given(edits=st.lists(sample_edits, min_size=1, max_size=4),
           model=st.sampled_from(["ci", "fi", "abg"]))
    @example(edits=[("scale", 2, 1e298)], model="ci")  # losses near 1e300: inf sigma
    @example(edits=[("scale", 2, 1e298)], model="fi")
    @example(edits=[("scale", 2, 1e298)], model="abg")
    @example(edits=[("cell", 0, 2, "1.7e308"), ("cell", 1, 2, "-1.7e308")], model="ci")  # NaN n
    def test_fit(self, tmp_path, capsys, edits, model):
        directory = tempfile.mkdtemp(dir=tmp_path)
        samples = os.path.join(directory, "s.csv")
        with open(samples, "w") as handle:
            handle.write(samples_csv(edits))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pathloss-fit", samples, "--model", model,
                         "--out", os.path.join(directory, "fit.json")])
        check_fuzzed_run(capsys, code, directory, ["fit.json"])


# Each value a config key is set to, alone: zero, negatives, extremes of the
# float range, an overflowing power in dB, and a 20-digit int.
CONFIG_EXTREMES = (
    "0", "-1", "1e308", "-1e308", "5e-324", "1e-300", "3083", "1e20", "12345678901234567890",
)
CONFIG_KEYS = [(section, key) for section in ("blockage", "gbsm", "sounder") for key in SCHEMA[section]]
# A short gbsm run with a moving receiver, so the velocity keys bind.
CONFIG_FUZZ_BASE = {
    "blockage": {},
    "gbsm": {"duration_s": "0.000625", "rx_velocity_x_mps": "1.5"},
    "sounder": {},
}


def check_blockage_curves(err, path):
    """Finite positions, and per model stderr's count of its NaN points."""
    header, *rows = open(path).read().splitlines()
    columns = list(zip(*[[float(cell) for cell in row.split(",")] for row in rows]))
    assert all(map(math.isfinite, columns[0]))
    models = [name.removesuffix("_att_db") for name in header.split(",")[1:]]
    counts = [sum(map(math.isnan, column)) for column in columns[1:]]
    assert err == "".join(f"{m}: {n} NaN point(s)\n" for m, n in zip(models, counts))
    for column in columns[1:]:
        assert all(math.isfinite(v) or math.isnan(v) for v in column)


class TestConfigFuzz:
    """One [blockage], [gbsm] or [sounder] key at a time set to an extreme,
    and several [sounder] keys at once, through cli.main in process, under a
    4 MiB gbsm budget.  Any warning is an error, so a run that exits 2 or 3
    shows only its error line."""

    @pytest.fixture
    def budget(self, monkeypatch):
        monkeypatch.setattr(gbsm, "MAX_CIR_BYTES", 4 << 20)

    @settings(FUZZ_SETTINGS, max_examples=500)
    @given(key=st.sampled_from(CONFIG_KEYS), value=st.sampled_from(CONFIG_EXTREMES))
    @example(key=("blockage", "carrier_ghz"), value="5e-324")  # an infinite wavelength
    @example(key=("gbsm", "rx_position_x_m"), value="5e-324")  # a LOS of length 0
    @example(key=("sounder", "noise_margin_db"), value="3083")  # 10 ** 308.3 overflows
    @example(key=("gbsm", "tx_velocity_x_mps"), value="1e308")  # NaN Doppler phases
    @example(key=("gbsm", "antenna_spacing_m"), value="1e308")  # NaN array phases
    @example(key=("gbsm", "ray_angle_spread_rad"), value="1e308")  # NaN ray angles
    def test_one_key(self, tmp_path, capsys, budget, sounder_bases, key, value):
        section, name = key
        directory = tempfile.mkdtemp(dir=tmp_path)
        keys = {**CONFIG_FUZZ_BASE[section], name: value}
        cfg = os.path.join(directory, "c.ini")
        with open(cfg, "w") as handle:
            handle.write(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        command = {"sounder": ["sounder", "--rx", sounder_bases["rx"], "--cal", sounder_bases["cal"]]}
        out = os.path.join(directory, "out.cirb" if section == "gbsm" else "out.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command.get(section, [section]), "--config", cfg, "--out", out])
        if section == "sounder":
            check_fuzzed_run(capsys, code, directory, ["out.csv"])
            return
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert os.listdir(directory) == ["c.ini"]
        elif section == "gbsm":
            assert err == "" and np.isfinite(read_archive(out).cir).all()
        else:
            check_blockage_curves(err, out)

    @settings(FUZZ_SETTINGS, max_examples=150)
    @given(keys=st.dictionaries(
        st.sampled_from(sorted(SCHEMA["sounder"])),
        st.sampled_from(CONFIG_EXTREMES + ("0.5", "2", "40")),
        min_size=2, max_size=5,
    ))
    @example(keys={"gt_dbi": "1e308", "gr_dbi": "1e308"})  # a path loss of inf
    def test_sounder_keys(self, tmp_path, capsys, sounder_bases, keys):
        directory = tempfile.mkdtemp(dir=tmp_path)
        cfg = os.path.join(directory, "c.ini")
        with open(cfg, "w") as handle:
            handle.write("[sounder]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sounder", "--rx", sounder_bases["rx"], "--cal", sounder_bases["cal"],
                         "--config", cfg, "--out", os.path.join(directory, "out.csv")])
        check_fuzzed_run(capsys, code, directory, ["out.csv"])


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

    def test_dangling_link_error_names_the_out_path(self, tmp_path, capsys):
        samples = make_ci_samples(tmp_path / "s.csv")
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "missing" / "fit.json")
        assert main(["pathloss-fit", samples, "--out", str(link)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{link}'\n"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "s.csv"]

    @pytest.mark.skipif(sys.platform != "linux", reason="/dev/stdout of a pipe is Linux procfs")
    def test_stdout_pipe_error_names_the_out_path(self, tmp_path):
        # /dev/stdout of a pipe resolves to /proc/<pid>/fd/pipe:[...], which
        # cannot hold a temp file beside it.
        samples = make_ci_samples(tmp_path / "s.csv")
        proc = run_child("-m", "chantool", "pathloss-fit", samples, "--out", "/dev/stdout")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: [Errno ") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith(": '/dev/stdout'\n")


# Runs the package as `python -m chantool` does; the last atexit hook prints
# how many objects the process entry froze.
AS_MAIN = (
    "import atexit, gc, runpy\n"
    "atexit.register(lambda: print(gc.get_freeze_count()))\n"
    "runpy.run_module('chantool', run_name='__main__', alter_sys=True)\n"
)

# The same as a cold `python -m chantool`, whose last atexit hook prints the
# CPU seconds spent outside the main thread and the OpenBLAS timeout in force.
IDLE_WORKERS = (
    "import atexit, os, resource, runpy, time\n"
    "def report():\n"
    "    usage = resource.getrusage(resource.RUSAGE_SELF)\n"
    "    spent = usage.ru_utime + usage.ru_stime - time.thread_time()\n"
    "    print(f'{spent:.3f}', os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    "atexit.register(report)\n"
    "runpy.run_module('chantool', run_name='__main__', alter_sys=True)\n"
)


class TestEntry:
    @pytest.mark.parametrize("code", [0, 2, 3], ids=["fit", "missing-archive", "huge-gbsm"])
    def test_package_as_main_freezes_and_keeps_the_exit_code(self, tmp_path, code):
        huge = "[gbsm]\nduration_s = 1e308\nsnapshot_interval_s = 1e-308\n"
        argv = {
            0: ["pathloss-fit", make_ci_samples(tmp_path / "s.csv")],
            2: ["analyze", str(tmp_path / "missing.cirb")],
            3: ["gbsm", "--config", write(tmp_path / "g.ini", huge)],
        }[code]
        out = tmp_path / "out"
        proc = run_child("-c", AS_MAIN, *argv, "--out", str(out))
        assert proc.returncode == code, proc.stderr
        assert int(proc.stdout.splitlines()[-1]) > 0
        if code:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
            assert not out.exists()
        else:
            assert proc.stderr == ""
            assert json.loads(out.read_text())["sample_count"] == 400

    def test_main_in_process_does_not_freeze(self, tmp_path):
        before = gc.get_freeze_count()
        samples = make_ci_samples(tmp_path / "s.csv")
        assert main(["pathloss-fit", samples, "--out", str(tmp_path / "fit.json")]) == 0
        missing = ["analyze", str(tmp_path / "missing.cirb"), "--out", str(tmp_path / "x.csv")]
        assert main(missing) == 2
        assert gc.get_freeze_count() == before

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no workers on one CPU")
    def test_blas_workers_stay_idle(self):
        # OpenBLAS's default timeout spun each idle worker for about 2^28
        # cycles after numpy and scipy loaded: 0.23-0.27 s of CPU per job.
        proc = run_child("-c", IDLE_WORKERS, "--help", blas_env={})
        assert proc.returncode == 0, proc.stderr
        spent, timeout = proc.stdout.splitlines()[-1].split()
        assert float(spent) <= 0.05
        assert timeout == "4"

    def test_a_thread_timeout_already_set_is_kept(self):
        proc = run_child("-c", IDLE_WORKERS, "--help", blas_env={"OPENBLAS_THREAD_TIMEOUT": "28"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split()[1] == "28"

    def test_no_thread_timeout_once_numpy_is_loaded(self):
        # Set after numpy loads, the timeout would act only in the children.
        probe = "import os, numpy, chantool.cli\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        proc = run_child("-c", probe, blas_env={})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "None\n"

    def test_import_chantool_loads_neither_numpy_nor_scipy(self):
        probe = (
            "import sys, chantool\n"
            "print(sorted({'numpy', 'scipy'} & {*sys.modules}))\n"
            "print(chantool.blockage.__name__, chantool.Point3.__module__)\n"
        )
        proc = run_child("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nchantool.blockage chantool.core\n"


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
