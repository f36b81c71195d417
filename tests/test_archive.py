"""Tests for the binary CIR archive format."""

import dataclasses
import math
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chantool import archive
from chantool.archive import (
    BLOCK_BYTES,
    ArchiveError,
    capture_sequence,
    read_archive,
    write_archive,
)
from chantool.gbsm import CirSequence, CirStream


def make_sequence(shape=(3, 2, 4, 16), seed=0, dt=1e-3, period=1.0 / 1.28e9):
    rng = np.random.default_rng(seed)
    cir = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return CirSequence(t0_s=0.25, dt_s=dt, sample_period_s=period, cir=cir)


def header_only(path, shape, period=1.0, dt=1e-3, t0=0.0):
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sHIBBIddd", b"CIRB", 1, *shape, period, t0, dt))
    return path


class TestRoundTrip:
    def test_read_back_matches_post_quantization(self, tmp_path):
        seq = make_sequence()
        path = str(tmp_path / "a.cirb")
        size = write_archive(path, seq)
        assert size == os.path.getsize(path)
        back = read_archive(path)
        expected = seq.cir.astype(np.complex64).astype(np.complex128)
        assert np.array_equal(back.cir, expected)
        assert back.t0_s == seq.t0_s
        assert back.dt_s == seq.dt_s
        assert back.sample_period_s == seq.sample_period_s

    def test_quantization_noise_is_tiny(self, tmp_path):
        seq = make_sequence(shape=(2, 1, 1, 64), seed=3)
        path = str(tmp_path / "q.cirb")
        write_archive(path, seq)
        err = np.abs(read_archive(path).cir - seq.cir)
        scale = np.abs(seq.cir).max()
        assert err.max() / scale < 1e-6

    def test_file_size_formula(self, tmp_path):
        seq = make_sequence(shape=(5, 3, 2, 7))
        path = str(tmp_path / "s.cirb")
        write_archive(path, seq)
        assert os.path.getsize(path) == 40 + 8 * 5 * 3 * 2 * 7

    def test_write_is_deterministic(self, tmp_path):
        seq = make_sequence(seed=11)
        p1, p2 = str(tmp_path / "d1.cirb"), str(tmp_path / "d2.cirb")
        write_archive(p1, seq)
        write_archive(p2, seq)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "t.cirb")
        write_archive(path, make_sequence())
        assert sorted(os.listdir(tmp_path)) == ["t.cirb"]

    @pytest.mark.parametrize("shape", [(0, 2, 3, 5), (1000, 1, 1, 300), (3, 2, 2, 70000)])
    def test_block_boundaries(self, tmp_path, shape):
        # No snapshots, many steps per block with a partial last block, and
        # steps larger than a block.
        seq = make_sequence(shape=shape, seed=5)
        path = str(tmp_path / "b.cirb")
        assert write_archive(path, seq) == 40 + 8 * seq.cir.size
        back = read_archive(path)
        assert back.cir.shape == shape
        assert np.array_equal(back.cir, seq.cir.astype(np.complex64))


def streamed(seq, lengths):
    """seq as a CirStream of blocks of the given time lengths."""
    cuts = np.cumsum(lengths)[:-1]
    times = seq.t0_s, seq.dt_s, seq.sample_period_s
    return CirStream(*times, seq.cir.shape, iter(np.split(seq.cir[: sum(lengths)], cuts)))


class TestStreamedWrite:
    @pytest.mark.parametrize(
        "lengths", [(1000,), (1, 999), (7,) * 142 + (6,), (500, 0, 500)],
        ids=["one", "one-then-the-rest", "sevens-short-last", "empty-between"],
    )
    def test_blocks_write_the_sequence_bytes(self, tmp_path, lengths):
        seq = make_sequence(shape=(1000, 1, 1, 300), seed=6)
        whole, parts = str(tmp_path / "whole.cirb"), str(tmp_path / "parts.cirb")
        assert write_archive(parts, streamed(seq, lengths)) == write_archive(whole, seq)
        with open(whole, "rb") as a, open(parts, "rb") as b:
            assert a.read() == b.read()

    def test_refused_path_pulls_no_block(self, tmp_path):
        def no_blocks():
            raise AssertionError("a block was pulled")
            yield

        seq = make_sequence()
        run = CirStream(seq.t0_s, seq.dt_s, seq.sample_period_s, seq.cir.shape, no_blocks())
        with pytest.raises(FileNotFoundError):
            write_archive(str(tmp_path / "missing" / "x.cirb"), run)

    @pytest.mark.parametrize(
        "n_time, n_delay, lengths, message",
        [(3, 16, (2,), "blocks ended after 2 of 3 time steps"),
         (2, 16, (2, 1), r"block \(1, 2, 4, 16\) at step 2 overruns \(2, 2, 4, 16\)"),
         (3, 15, (3,), r"block \(3, 2, 4, 16\) at step 0 overruns \(3, 2, 4, 15\)")],
        ids=["ends-early", "runs-past-n_time", "wrong-delay-count"],
    )
    def test_blocks_that_miss_the_shape_leave_no_file(
        self, tmp_path, n_time, n_delay, lengths, message
    ):
        run = streamed(make_sequence(shape=(3, 2, 4, 16)), lengths)
        run = run._replace(shape=(n_time, 2, 4, n_delay))
        with pytest.raises(ArchiveError, match=message):
            write_archive(str(tmp_path / "x.cirb"), run)
        assert os.listdir(tmp_path) == []


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "m.cirb")
        write_archive(path, make_sequence())
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ArchiveError, match="magic"):
            read_archive(path)

    def test_bad_version_rejected(self, tmp_path):
        path = str(tmp_path / "v.cirb")
        write_archive(path, make_sequence())
        blob = bytearray(open(path, "rb").read())
        blob[4:6] = struct.pack("<H", 9)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ArchiveError, match="version"):
            read_archive(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "p.cirb")
        write_archive(path, make_sequence())
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-4])
        with pytest.raises(ArchiveError, match="payload"):
            read_archive(path)

    def test_oversized_payload_rejected(self, tmp_path):
        path = str(tmp_path / "o.cirb")
        write_archive(path, make_sequence())
        with open(path, "ab") as handle:
            handle.write(b"\x00")
        with pytest.raises(ArchiveError, match="payload"):
            read_archive(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "h.cirb")
        open(path, "wb").write(b"CIRB\x01\x00")
        with pytest.raises(ArchiveError, match="truncated"):
            read_archive(path)

    def test_nonpositive_period_rejected(self, tmp_path):
        path = header_only(str(tmp_path / "z.cirb"), (0, 1, 1, 4), period=0.0)
        with pytest.raises(ArchiveError, match="sample_period"):
            read_archive(path)

    @pytest.mark.parametrize(
        "field, value",
        [("t0_s", math.nan), ("t0_s", math.inf), ("dt_s", math.inf),
         ("sample_period_s", math.inf)],
    )
    def test_nonfinite_header_time_rejected(self, tmp_path, field, value):
        times = {"period": 1.0, "t0": 0.0, "dt": 1e-3}
        times[{"sample_period_s": "period", "t0_s": "t0", "dt_s": "dt"}[field]] = value
        path = header_only(str(tmp_path / "t.cirb"), (0, 1, 1, 4), **times)
        with pytest.raises(ArchiveError, match=f"{field} must be finite"):
            read_archive(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [("t0_s", math.nan, "t0_s must be finite"),
         ("dt_s", math.inf, "dt_s must be finite"),
         ("sample_period_s", -1e-9, "sample_period_s must be finite and positive"),
         ("sample_period_s", math.inf, "sample_period_s must be finite")],
    )
    def test_bad_header_time_not_written(self, tmp_path, field, value, message):
        seq = dataclasses.replace(make_sequence(), **{field: value})
        with pytest.raises(ArchiveError, match=message):
            write_archive(str(tmp_path / "t.cirb"), seq)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "shape, t0, dt, period",
        [((0, 1, 1, 4), -1e308, 1e308, 1.0), ((1, 1, 1, 4), 1e308, 1e308, 1.0),
         ((2, 1, 1, 4), -1e308, 1e308, 1.0), ((1, 1, 1, 2), 0.0, 1.0, 1e308)],
    )
    def test_huge_spacing_with_finite_last_times_kept(self, tmp_path, shape, t0, dt, period):
        seq = dataclasses.replace(make_sequence(shape=shape), t0_s=t0, dt_s=dt, sample_period_s=period)
        path = str(tmp_path / "f.cirb")
        write_archive(path, seq)
        assert read_archive(path).cir.shape == shape

    @pytest.mark.parametrize(
        "shape, t0, dt, period, message",
        [((3, 1, 1, 4), 0.0, 1e308, 1.0, "last snapshot time"),
         ((20, 1, 1, 4), 0.0, 1e308, 1.0, "last snapshot time"),
         ((2, 1, 1, 4), 1e308, 1e308, 1.0, "last snapshot time"),
         # as a reader computes t0_s + dt_s * 2, the product overflows first
         ((3, 1, 1, 4), -1e308, 1e308, 1.0, "last snapshot time"),
         ((1, 1, 1, 3), 0.0, 1.0, 1e308, "last delay")],
    )
    def test_infinite_last_time_rejected(self, tmp_path, shape, t0, dt, period, message):
        # Each header time is finite alone; the last snapshot's or delay's is not.
        path = header_only(str(tmp_path / "i.cirb"), shape, period=period, dt=dt, t0=t0)
        with open(path, "ab") as handle:
            handle.write(bytes(8 * math.prod(shape)))
        with pytest.raises(ArchiveError, match=f"{message} .* must be finite, got inf"):
            read_archive(path)
        seq = dataclasses.replace(make_sequence(shape=shape), t0_s=t0, dt_s=dt, sample_period_s=period)
        with pytest.raises(ArchiveError, match=message):
            write_archive(str(tmp_path / "w.cirb"), seq)
        assert os.listdir(tmp_path) == ["i.cirb"]

    @pytest.mark.parametrize("shape", [(2, 0, 1, 4), (2, 1, 0, 4), (2, 1, 1, 0)])
    def test_empty_axis_rejected(self, tmp_path, shape):
        path = header_only(str(tmp_path / "e.cirb"), shape)
        with pytest.raises(ArchiveError, match="empty axis"):
            read_archive(path)
        empty = CirSequence(
            t0_s=0.0, dt_s=1.0, sample_period_s=1.0, cir=np.zeros(shape, dtype=complex)
        )
        with pytest.raises(ArchiveError, match="fit the format"):
            write_archive(str(tmp_path / "w.cirb"), empty)

    def test_payload_shrinking_after_size_check_rejected(self, tmp_path, monkeypatch):
        path = str(tmp_path / "s.cirb")
        write_archive(path, make_sequence())
        full = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(full - 8)
        fake_os = SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=full))
        monkeypatch.setattr(archive, "os", fake_os)
        with pytest.raises(ArchiveError, match="ended"):
            read_archive(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("shape, step", [((3, 2, 4, 16), 2), ((1000, 1, 1, 300), 900)])
    def test_nonfinite_payload_rejected(self, tmp_path, value, shape, step):
        path = str(tmp_path / "n.cirb")
        write_archive(path, make_sequence(shape=shape))
        step_bytes = 8 * shape[1] * shape[2] * shape[3]
        with open(path, "r+b") as handle:
            handle.seek(40 + step * step_bytes + 12)  # an imaginary part
            handle.write(struct.pack("<f", value))
        with pytest.raises(ArchiveError, match=f"non-finite value at time step {step}$"):
            read_archive(path)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("value", [math.nan, -math.inf, 1e39])
    def test_nonfinite_sequence_not_written(self, tmp_path, value):
        # 1e39 is finite in complex128 but overflows the stored float32.
        seq = make_sequence(shape=(3, 1, 1, 8))
        seq.cir[1, 0, 0, 5] = value
        with pytest.raises(ArchiveError, match="non-finite value at time step 1$"):
            write_archive(str(tmp_path / "n.cirb"), seq)
        assert os.listdir(tmp_path) == []

    def test_antenna_count_limits(self, tmp_path):
        seq = make_sequence(shape=(1, 1, 1, 4))
        big = CirSequence(
            t0_s=0.0,
            dt_s=1.0,
            sample_period_s=1.0,
            cir=np.zeros((1, 256, 1, 1), dtype=complex),
        )
        with pytest.raises(ArchiveError, match="antenna"):
            write_archive(str(tmp_path / "big.cirb"), big)
        write_archive(str(tmp_path / "ok.cirb"), seq)


@st.composite
def archive_files(draw):
    """Either the right magic and version with a small shape, arbitrary
    times and a payload of arbitrary bytes that fits the shape, or every
    header field and the payload arbitrary."""
    if draw(st.booleans()):
        magic, version = b"CIRB", 1
        shape = draw(st.tuples(st.integers(0, 3), *[st.integers(1, 3)] * 3))
        times = draw(st.tuples(*[st.floats(1e-9, 1.0) | st.floats()] * 3))
        size = 8 * math.prod(shape)
        payload = draw(st.binary(min_size=size, max_size=size))
    else:
        magic = draw(st.binary(min_size=4, max_size=4))
        version = draw(st.integers(0, 2**16 - 1))
        limits = (2**32 - 1, 255, 255, 2**32 - 1)
        shape = draw(st.tuples(*(st.integers(0, top) for top in limits)))
        times = draw(st.tuples(st.floats(), st.floats(), st.floats()))
        payload = draw(st.binary(max_size=64))
    return struct.pack("<4sHIBBIddd", magic, version, *shape, *times) + payload


class TestFuzz:
    @settings(
        max_examples=200, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.one_of(st.binary(max_size=120), archive_files()))
    def test_fuzzed_file_raises_only_archive_error(self, tmp_path, blob):
        path = tmp_path / "fuzz.cirb"
        path.write_bytes(blob)
        try:
            read_archive(str(path))
        except ArchiveError:
            pass


class TestMemory:
    SHAPE = (64, 1, 1, 32768)  # 16 MiB of payload, four steps a block

    def test_read_holds_the_result_and_one_block(self, tmp_path, traced_peak):
        path = str(tmp_path / "r.cirb")
        write_archive(path, make_sequence(shape=self.SHAPE))
        payload = os.path.getsize(path) - 40
        assert traced_peak(read_archive, path) < 2 * payload + 2 * BLOCK_BYTES

    def test_write_holds_about_one_block(self, tmp_path, traced_peak):
        seq = make_sequence(shape=self.SHAPE)
        peak = traced_peak(write_archive, str(tmp_path / "w.cirb"), seq)
        assert peak < 8 * seq.cir.size / 4


class TestCaptureSequence:
    def test_one_dimensional_waveform(self):
        wave = np.arange(8, dtype=complex)
        seq = capture_sequence(wave, 1.28e9, 1e-3)
        assert seq.cir.shape == (1, 1, 1, 8)
        assert seq.sample_period_s == pytest.approx(1.0 / 1.28e9, rel=1e-15)

    def test_stacked_snapshots(self):
        waves = np.ones((4, 16), dtype=complex)
        seq = capture_sequence(waves, 1.28e9, 1e-3)
        assert seq.cir.shape == (4, 1, 1, 16)

    def test_rejects_higher_rank(self):
        with pytest.raises(ArchiveError, match="1-D or 2-D"):
            capture_sequence(np.zeros((2, 2, 2), dtype=complex), 1.28e9, 1e-3)
