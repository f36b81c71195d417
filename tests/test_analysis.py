"""Tests for PDP correlation, stationarity, XPR, and LOS tracking."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chantool import analysis
from chantool.analysis import (
    MAX_CORR_BYTES,
    CorrelationMatrix,
    StationaryReport,
    check_correlation_size,
    los_power_track,
    pdp_correlation_matrix,
    stationary_intervals,
    xpr_db,
)
from chantool.core import (
    DB_FLOOR,
    CirSnapshot,
    Mpc,
    Point3,
    derive_substream,
    pdp_from_cir,
    to_db,
)
from chantool.gbsm import CirSequence, GbsmConfig, SizingError, run_scenario
from chantool.sounder import (
    MpcExtractionPolicy,
    WaveformSpec,
    calibrate,
    deconvolve_cir,
    extract_mpcs,
    simulate_capture,
)

FS = 1.28e9


def pdp_of(linear) -> np.ndarray:
    """PDPs in dB from linear powers, one row per snapshot."""
    return to_db(np.asarray(linear, dtype=float))


class TestCorrelationMatrix:
    def test_identical_pdps_all_ones(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 1.0, 64)
        corr = pdp_correlation_matrix(pdp_of([p, p, p]))
        assert corr.snapshot_count == 3
        assert np.allclose(corr.values, 1.0, atol=1e-12)

    def test_orthogonal_spikes_small_negative(self):
        n = 10
        corr = pdp_correlation_matrix(pdp_of(np.eye(n)[:4]))
        off = corr.values[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -1.0 / (n - 1), atol=1e-12)
        # large vectors push the same value toward zero
        off_big = pdp_correlation_matrix(pdp_of(np.eye(1000)[:3])).values[0, 1]
        assert abs(off_big) < 0.0011

    def test_opposite_spikes_fully_anticorrelated(self):
        corr = pdp_correlation_matrix(pdp_of([[1.0, 0.0], [0.0, 1.0]]))
        assert corr.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_diagonal_and_symmetry(self):
        rng = np.random.default_rng(2)
        corr = pdp_correlation_matrix(pdp_of(rng.uniform(0.01, 1.0, (6, 32))))
        assert np.abs(np.diag(corr.values) - 1.0).max() <= 1e-12
        assert np.abs(corr.values - corr.values.T).max() <= 1e-12
        assert corr.values.min() >= -1.0 and corr.values.max() <= 1.0

    def test_constant_vector_rules(self):
        flat = np.full(16, 0.25)
        flat2 = np.full(16, 3.0)
        varying = np.linspace(0.1, 1.0, 16)
        corr = pdp_correlation_matrix(pdp_of([flat, flat2, varying]))
        assert corr.values[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert corr.values[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert corr.values[1, 2] == pytest.approx(0.0, abs=1e-12)

    def test_exactly_symmetric_with_constant_rows(self):
        # analyze's writer formats only the upper triangle, so the matrix
        # must be symmetric to the last bit, constant-PDP rows included.
        rng = np.random.default_rng(9)
        linear = rng.exponential(size=(40, 32))
        linear[rng.random(linear.shape) < 0.3] = 0.0
        linear[[3, 17, 30]] = [[0.25], [3.0], [0.0]]
        values = pdp_correlation_matrix(pdp_of(linear)).values
        assert np.array_equal(values, values.T)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0.01, 1.0, (5, 48))
        a = pdp_correlation_matrix(pdp_of(base))
        b = pdp_correlation_matrix(pdp_of(base * 1234.5))
        assert np.abs(a.values - b.values).max() <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            pdp_correlation_matrix(pdp_of(np.ones((1, 8))))
        for shape in [(8,), (2, 2, 8)]:
            with pytest.raises(ValueError, match="2-D"):
                pdp_correlation_matrix(pdp_of(np.ones(shape)))

    def test_matrix_type_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            CorrelationMatrix(np.array([[0.9, 0.5], [0.5, 1.0]]))
        for values in (np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                CorrelationMatrix(values)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            CorrelationMatrix(np.array([[1.0, -1.5], [-1.5, 1.0]]))

    def test_snapshot_count_is_the_matrix_order(self):
        assert CorrelationMatrix(np.eye(3)).snapshot_count == 3
        corr = pdp_correlation_matrix(pdp_of(np.eye(5)))
        assert corr.snapshot_count == 5


class TestSymmetriseInPlace:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 700])
    def test_bitwise_the_averaged_transpose(self, n):
        # Orders inside one tile, at its edge, just past it, and with a
        # short last tile; signed zeros must keep their sign bits.
        rng = np.random.default_rng(n)
        m = rng.uniform(-1.0, 1.0, (n, n))
        m[rng.random((n, n)) < 0.05] = 0.0
        m[rng.random((n, n)) < 0.05] = -0.0
        expected = (m + m.T) / 2.0
        analysis.symmetrise_in_place(m)
        assert np.array_equal(m.view(np.int64), expected.view(np.int64))
        assert np.signbit(m).any() or n == 1

    def test_scratch_is_tiles_not_a_matrix(self, traced_peak):
        # A step's sum, and the last step's until the name is rebound: 2.25
        # tiles measured, against 7.5 tiles for the 700^2 matrix.
        m = np.random.default_rng(6).uniform(-1.0, 1.0, (700, 700))
        tile = 8 * analysis.SYMMETRISE_TILE**2
        assert traced_peak(analysis.symmetrise_in_place, m) <= 2.5 * tile


class TestCorrelationBudget:
    def test_boundary(self):
        n = math.isqrt(MAX_CORR_BYTES // 8)
        check_correlation_size(n)
        with pytest.raises(SizingError, match=f"{n + 1} snapshots"):
            check_correlation_size(n + 1)

    def test_refused_before_the_matrix(self, monkeypatch, traced_peak):
        monkeypatch.setattr(analysis, "MAX_CORR_BYTES", 8 * 400**2)
        assert pdp_correlation_matrix(pdp_of(np.eye(400))).snapshot_count == 400
        pdp = pdp_of(np.ones((401, 2)))

        def refused():
            with pytest.raises(SizingError, match="401 snapshots"):
                pdp_correlation_matrix(pdp)

        # the refusal comes before anything a tenth of the matrix's size
        assert traced_peak(refused) < 0.1 * 8 * 401**2


class TestMemory:
    # The chain's analyze size: 1500 snapshots of 205 delay bins.
    N, BINS = 1500, 205

    def test_correlation_holds_one_matrix(self, traced_peak):
        # The matrix plus the (snapshots, bins) inputs: measured 1.12-1.14
        # matrices.  Symmetrising through a second n^2 array measured 2.00.
        rng = np.random.default_rng(4)
        linear = rng.exponential(size=(self.N, self.BINS))
        linear[rng.random(linear.shape) < 0.3] = 0.0
        pdp_db = pdp_of(linear)
        result = 8 * self.N**2
        assert traced_peak(pdp_correlation_matrix, pdp_db) <= 1.2 * result

    def test_matrix_checks_hold_row_blocks(self, traced_peak):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1.0, 1.0, (self.N, self.N))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 1.0)
        assert traced_peak(CorrelationMatrix, values) <= 0.25 * values.nbytes


def block_matrix(sizes: list[int]) -> CorrelationMatrix:
    n = sum(sizes)
    values = np.zeros((n, n))
    start = 0
    for size in sizes:
        values[start : start + size, start : start + size] = 1.0
        start += size
    return CorrelationMatrix(values)


class TestStationaryIntervals:
    def test_all_ones_single_interval(self):
        corr = CorrelationMatrix(np.ones((12, 12)))
        report = stationary_intervals(corr, 0.8)
        assert report.intervals == ((0, 11),)
        assert report.threshold == 0.8

    def test_two_block_boundary_exact(self):
        report = stationary_intervals(block_matrix([700, 300]), 0.8)
        assert report.intervals == ((0, 699), (700, 999))
        assert report.intervals[1][0] == 700

    def test_three_blocks(self):
        report = stationary_intervals(block_matrix([5, 3, 4]), 0.5)
        assert report.intervals == ((0, 4), (5, 7), (8, 11))

    def test_interval_count_monotone_in_threshold(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(0.1, 1.0, 64)
        corr = pdp_correlation_matrix(pdp_of(base + rng.uniform(0.0, 0.45, (40, 64))))
        counts = [
            len(stationary_intervals(corr, th).intervals)
            for th in (0.3, 0.6, 0.9, 0.999)
        ]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_intervals_partition_snapshots(self):
        rng = np.random.default_rng(9)
        corr = pdp_correlation_matrix(pdp_of(rng.uniform(0.01, 1.0, (25, 32))))
        for th in (0.1, 0.5, 0.9):
            report = stationary_intervals(corr, th)
            covered = []
            for start, end in report.intervals:
                assert start <= end
                covered.extend(range(start, end + 1))
            assert covered == list(range(25))

    def test_deterministic(self):
        corr = block_matrix([4, 4])
        assert stationary_intervals(corr, 0.7) == stationary_intervals(corr, 0.7)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_range_enforced(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            stationary_intervals(block_matrix([4]), threshold)


def mpc(delay_s: float, power_db: float) -> Mpc:
    return Mpc(delay_s, 10.0 ** (power_db / 20.0))


class TestXpr:
    def test_equal_power_zero(self):
        co = [mpc(1e-8, -3.0), mpc(5e-8, -9.0)]
        assert xpr_db(co, co) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_offset(self):
        co = [mpc(1e-8, 0.0), mpc(5e-8, -6.0), mpc(9e-8, -11.0)]
        cross = [mpc(d.delay_s, d.power_db - 20.0) for d in co]
        assert xpr_db(co, cross) == pytest.approx(20.0, abs=1e-9)

    def test_empty_rejected(self):
        co = [mpc(1e-8, 0.0)]
        with pytest.raises(ValueError, match="no paths"):
            xpr_db([], co)
        with pytest.raises(ValueError, match="no paths"):
            xpr_db(co, [])

    def test_injected_xpr_survives_sounder_chain(self):
        # dual-polarization capture with 18 dB between the polarizations
        spec = WaveformSpec()
        bins = (40, 90, 160)
        powers = (0.0, -4.0, -7.0)
        co = [mpc(b / FS, p) for b, p in zip(bins, powers)]
        cross = [mpc(b / FS, p - 18.0) for b, p in zip(bins, powers)]
        extracted = {}
        for name, channel in (("co", co), ("cross", cross)):
            stream = derive_substream(55, f"xpr-{name}", 0)
            y_rx, y_cal = simulate_capture(channel, spec, snr_db=40.0, stream=stream)
            cir = deconvolve_cir(y_rx, calibrate(y_cal))
            extracted[name] = extract_mpcs(cir)
        assert len(extracted["co"]) == 3
        assert len(extracted["cross"]) == 3
        assert xpr_db(extracted["co"], extracted["cross"]) == pytest.approx(
            18.0, abs=0.5
        )


def sequence_from_amps(amp_grid: np.ndarray, dt: float = 1e-3) -> CirSequence:
    return CirSequence(
        t0_s=0.0,
        dt_s=dt,
        sample_period_s=1.0 / FS,
        cir=np.asarray(amp_grid, dtype=np.complex128),
    )


def track_of(seq, tx_idx=0, rx_idx=0, policy=None):
    """los_power_track on one antenna pair of a sequence."""
    samples = seq.cir[:, tx_idx, rx_idx]
    return los_power_track(samples, seq.t0_s, seq.dt_s, seq.sample_period_s, policy)


def los_track_oracle(seq, tx_idx=0, rx_idx=0, policy=None):
    """The LOS track as one extract_mpcs call per snapshot."""
    period = seq.sample_period_s
    track = []
    for t_idx in range(seq.n_time):
        t_s = seq.t0_s + seq.dt_s * t_idx
        mpcs = extract_mpcs(CirSnapshot(period, seq.cir[t_idx, tx_idx, rx_idx]), policy)
        if not mpcs:
            track.append((t_s, DB_FLOOR))
            continue
        first_bin = round(mpcs[0].delay_s / period)
        window = [m for m in mpcs if round(m.delay_s / period) <= first_bin + 2]
        track.append((t_s, max(m.power_db for m in window)))
    return track


# Magnitudes from a few levels make plateaus, zero rows and peaks on both
# ends of the delay axis common, and a zeroed tail lets weak peaks pass the
# noise floor; the quarter turns keep |s|^2 exact.
LEVELS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(0.01, 4.0)
POLICIES = st.builds(
    MpcExtractionPolicy,
    max_paths=st.integers(1, 5),
    rel_threshold_db=st.sampled_from([3.0, 25.0]),
    noise_margin_db=st.sampled_from([0.5, 6.0]),
    noise_tail_fraction=st.sampled_from([0.05, 0.1, 0.5]),
)


@st.composite
def los_cases(draw):
    n_time, n_tx, n_rx = draw(st.integers(1, 8)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    shape = (n_time, n_tx, n_rx, draw(st.integers(1, 24)))
    mags = draw(hnp.arrays(np.float64, shape, elements=LEVELS))
    turns = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 3)))
    mags[draw(st.lists(st.integers(0, n_time - 1), max_size=2))] = 0.0
    mags[..., shape[3] - draw(st.integers(0, shape[3])) :] = 0.0  # a quiet noise tail
    cir = mags * 1j**turns * 10.0 ** draw(st.integers(-6, 3))
    tx_idx, rx_idx = draw(st.integers(0, n_tx - 1)), draw(st.integers(0, n_rx - 1))
    return sequence_from_amps(cir), tx_idx, rx_idx, draw(POLICIES | st.none())


class TestLosPowerTrack:
    @settings(max_examples=300, deadline=None)
    @given(case=los_cases())
    def test_matches_the_per_snapshot_oracle(self, case):
        assert track_of(*case) == los_track_oracle(*case)

    def test_edge_rows_match_the_oracle(self):
        rows = np.zeros((6, 16))
        rows[1, [1, 2, 5, 6]] = 2.0  # plateaus keep their lowest bin
        rows[2, [0, 2]] = 1.0, 3.0  # first at bin 0, stronger one at bin 2
        rows[3, [0, 15]] = 1.0, 3.0  # bin 15 wraps onto bin 0's neighbour
        rows[4, [13, 15]] = 1.0, 2.0  # the window runs off the end
        rows[5, [0, 2, 4, 6]] = 1.0, 2.0, 3.0, 4.0  # max_paths 2 keeps 4 and 6
        cir = np.zeros((6, 2, 2, 16), dtype=complex)
        cir[:, 1, 0] = rows
        seq = sequence_from_amps(cir)
        policy = MpcExtractionPolicy(
            max_paths=2, rel_threshold_db=20.0, noise_margin_db=0.5, noise_tail_fraction=0.5
        )
        track = track_of(seq, 1, 0, policy)
        assert track == los_track_oracle(seq, 1, 0, policy)
        levels = [DB_FLOOR] + [20.0 * math.log10(a) for a in (2.0, 3.0, 3.0, 2.0, 4.0)]
        assert [level for _, level in track] == levels

    def test_static_single_path_constant(self):
        cir = np.zeros((5, 1, 1, 64))
        cir[:, 0, 0, 12] = 0.5
        track = track_of(sequence_from_amps(cir))
        assert len(track) == 5
        times = [t for t, _ in track]
        assert times == pytest.approx([0.0, 1e-3, 2e-3, 3e-3, 4e-3])
        for _, level in track:
            assert level == pytest.approx(20.0 * math.log10(0.5), abs=1e-9)

    def test_window_takes_strongest_of_first_three_bins(self):
        cir = np.zeros((1, 1, 1, 64))
        cir[0, 0, 0, 10] = 10.0 ** (-10.0 / 20.0)
        cir[0, 0, 0, 12] = 1.0
        cir[0, 0, 0, 30] = 10.0 ** (-3.0 / 20.0)
        track = track_of(sequence_from_amps(cir))
        assert track[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_empty_snapshot_reports_floor(self):
        track = track_of(sequence_from_amps(np.zeros((3, 1, 1, 16))))
        assert [level for _, level in track] == [DB_FLOOR] * 3

    def test_antenna_selection(self):
        cir = np.zeros((2, 2, 1, 32))
        cir[:, 0, 0, 5] = 1.0
        cir[:, 1, 0, 5] = 0.5
        seq = sequence_from_amps(cir)
        t0 = track_of(seq, tx_idx=0)
        t1 = track_of(seq, tx_idx=1)
        assert t0[0][1] == pytest.approx(0.0, abs=1e-9)
        assert t1[0][1] == pytest.approx(-6.0206, abs=1e-3)

    def test_empty_sequence_rejected(self):
        seq = sequence_from_amps(np.zeros((0, 1, 1, 8)))
        with pytest.raises(ValueError, match="empty"):
            track_of(seq)

    def test_gbsm_static_track_is_flat(self):
        cfg = GbsmConfig(
            seed=61, birth_rate_hz=0.0, death_rate_hz=0.0, duration_s=0.003125
        )
        track = track_of(run_scenario(cfg))
        levels = np.array([level for _, level in track])
        assert levels.size == 50
        assert levels.max() - levels.min() < 0.1

    def test_moving_scenario_track_is_finite(self):
        cfg = GbsmConfig(
            seed=67,
            rx_velocity=Point3(30.0, 0.0, 0.0),
            duration_s=0.00625,
            k_factor_db=200.0,
        )
        track = track_of(run_scenario(cfg))
        levels = np.array([level for _, level in track])
        assert np.all(np.isfinite(levels))
        assert levels.max() > -10.0

    def test_frozen_nlos_track(self):
        # SHA-256 of the (time, power) pairs, recorded while each snapshot
        # still carried its own time
        cfg = GbsmConfig(
            k_factor_db=-10.0,
            birth_rate_hz=100.0,
            death_rate_hz=100.0,
            duration_s=200 * 62.5e-6,
            seed=5,
        )
        track = track_of(run_scenario(cfg))
        assert len(track) == 200
        assert hashlib.sha256(repr(track).encode()).hexdigest() == (
            "fe76c735b68fc049ae3317d627a022bcaa34fa90e4fb4611f1c148e8b05d0739"
        )


class TestGbsmSmoothness:
    def pdps_of(self, cfg: GbsmConfig) -> np.ndarray:
        return pdp_from_cir(run_scenario(cfg).cir[:, 0, 0])

    def test_vanishing_interval_correlation_above_99(self):
        cfg = GbsmConfig(
            seed=71,
            birth_rate_hz=0.0,
            death_rate_hz=0.0,
            rx_velocity=Point3(1.5, 0.0, 0.0),
            snapshot_interval_s=1e-6,
            duration_s=50e-6,
        )
        corr = pdp_correlation_matrix(self.pdps_of(cfg))
        adjacent = np.diag(corr.values, k=1)
        assert adjacent.min() > 0.99

    def test_default_interval_pedestrian_above_90(self):
        cfg = GbsmConfig(
            seed=73,
            tx_velocity=Point3(0.0, 1.0, 0.0),
            rx_velocity=Point3(1.5, 0.0, 0.0),
            duration_s=40 * 62.5e-6,
        )
        corr = pdp_correlation_matrix(self.pdps_of(cfg))
        adjacent = np.diag(corr.values, k=1)
        assert adjacent.min() > 0.9
