"""Tests for the channel-sounder signal chain."""

import hashlib
import math

import numpy as np
import pytest

from chantool.core import CirSnapshot, Mpc, derive_substream
from chantool.sounder import (
    LinkBudget,
    MpcExtractionPolicy,
    WaveformSpec,
    build_tx_waveform,
    calibrate,
    deconvolve_cir,
    extract_mpcs,
    generate_pn,
    noise_floor_db,
    path_loss_from_power,
    received_power,
    rms_delay_spread,
    rrc_filter_taps,
    simulate_capture,
)

FS = 1.28e9
# Smaller layout for randomized chain properties: same structure, ~4x less work.
SMALL_SPEC = WaveformSpec(pn_order=10, pad_head=104, pad_tail=800)


def make_mpc(delay_s, power_db, phase=0.0):
    amp = 10.0 ** (power_db / 20.0) * complex(math.cos(phase), math.sin(phase))
    return Mpc(delay_s, amp)


class TestPnSequence:
    def test_order_12_length_and_alphabet(self):
        pn = generate_pn(12)
        assert pn.size == 4096
        assert set(np.unique(pn)) == {-1.0, 1.0}

    def test_balance(self):
        pn = generate_pn(12)
        assert abs(pn.sum()) <= 2.0

    def test_core_circular_autocorrelation(self):
        core = generate_pn(12)[:-1]
        # all circular lags at once via the power spectrum
        ac = np.real(np.fft.ifft(np.abs(np.fft.fft(core)) ** 2))
        assert ac[0] == pytest.approx(core.size, rel=1e-12)
        assert np.allclose(ac[1:], -1.0, atol=1e-6)

    def test_all_supported_orders(self):
        for order in range(6, 17):
            assert generate_pn(order).size == 1 << order

    def test_non_primitive_taps_rejected(self):
        for taps in [(12, 6), (12, 11), (12, 8, 4, 2)]:
            with pytest.raises(ValueError, match="not primitive"):
                generate_pn(12, taps)

    def test_tap_validation(self):
        with pytest.raises(ValueError, match="outside register"):
            generate_pn(12, (13, 6, 4, 1))
        with pytest.raises(ValueError, match="register length"):
            generate_pn(12, (6, 4, 1))

    def test_order_range(self):
        for order in (5, 17):
            with pytest.raises(ValueError, match="order"):
                generate_pn(order)


class TestTxWaveform:
    def test_default_length_and_duration(self):
        spec = WaveformSpec()
        tx = build_tx_waveform(spec)
        assert tx.size == 20000
        assert tx.size / spec.sample_rate_hz == pytest.approx(15.625e-6, rel=1e-12)

    def test_interp1_is_padded_pn(self):
        spec = WaveformSpec(interp_factor=1)
        tx = build_tx_waveform(spec)
        frame = np.concatenate([np.zeros(104), generate_pn(12), np.zeros(800)])
        assert tx.size == 5000
        assert np.array_equal(tx, frame.astype(np.complex128))

    def test_rrc_taps_unit_energy(self):
        taps = rrc_filter_taps(WaveformSpec())
        assert taps.size == 65
        assert np.sum(taps * taps) == pytest.approx(1.0, rel=1e-12)

    def test_rrc_cascade_isi_below_minus_40db(self):
        taps = rrc_filter_taps(WaveformSpec())
        cascade = np.convolve(taps, taps)
        center = cascade.size // 2
        at_chips = cascade[center % 4 :: 4]
        main = np.argmax(np.abs(at_chips))
        isi = np.abs(np.delete(at_chips, main)).max() / abs(at_chips[main])
        assert 20.0 * np.log10(isi) < -40.0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="pn_order"):
            WaveformSpec(pn_order=5)
        with pytest.raises(ValueError, match="interp_factor"):
            WaveformSpec(interp_factor=0)
        with pytest.raises(ValueError, match="rrc_rolloff"):
            WaveformSpec(rrc_rolloff=0.0)
        with pytest.raises(ValueError, match="rrc_rolloff"):
            WaveformSpec(rrc_rolloff=1.2)
        with pytest.raises(ValueError, match="padding"):
            WaveformSpec(pad_head=-1)
        with pytest.raises(ValueError, match="sample_rate"):
            WaveformSpec(sample_rate_hz=0.0)


@pytest.fixture(scope="module")
def default_cal():
    _, y_cal = simulate_capture([make_mpc(0.0, 0.0)], WaveformSpec())
    return y_cal


class TestDeconvolution:
    def test_self_deconvolution_unit_peak(self, default_cal):
        cir = deconvolve_cir(default_cal, calibrate(default_cal))
        assert abs(cir.samples[0] - 1.0) < 1e-9
        assert np.argmax(np.abs(cir.samples)) == 0
        mpcs = extract_mpcs(cir)
        assert len(mpcs) == 1
        assert mpcs[0].delay_s == 0.0
        assert mpcs[0].power_db == pytest.approx(0.0, abs=1e-6)

    def test_pure_delay_exact_bins(self, default_cal):
        cal = calibrate(default_cal)
        for d in (1, 10, 999, 5000):
            cir = deconvolve_cir(np.roll(default_cal, d), cal)
            assert np.argmax(np.abs(cir.samples)) == d
            assert abs(cir.samples[d]) == pytest.approx(1.0, abs=1e-9)

    def test_pure_delay_random_property(self):
        _, y_cal = simulate_capture([make_mpc(0.0, 0.0)], SMALL_SPEC)
        cal = calibrate(y_cal, sample_rate_hz=SMALL_SPEC.sample_rate_hz)
        rng = np.random.default_rng(20260819)
        for _ in range(200):
            d = int(rng.integers(0, 5001))
            cir = deconvolve_cir(np.roll(y_cal, d), cal)
            assert np.argmax(np.abs(cir.samples)) == d
            assert abs(cir.samples[d]) == pytest.approx(1.0, abs=1e-9)

    def test_two_path_powers(self, default_cal):
        y_rx = 0.5 * np.roll(default_cal, 10) + 0.25 * np.roll(default_cal, 50)
        cir = deconvolve_cir(y_rx, calibrate(default_cal))
        mpcs = extract_mpcs(cir)
        assert [round(m.delay_s * FS) for m in mpcs] == [10, 50]
        assert mpcs[0].power_db == pytest.approx(-6.0206, abs=0.3)
        assert mpcs[1].power_db == pytest.approx(-12.0412, abs=0.3)

    def test_sample_period_recorded(self, default_cal):
        cir = deconvolve_cir(default_cal, calibrate(default_cal, sample_rate_hz=2.5e9))
        assert cir.sample_period_s == pytest.approx(1.0 / 2.5e9, rel=1e-12)

    def test_validation(self, default_cal):
        with pytest.raises(ValueError, match="1-D"):
            calibrate(default_cal[None, :])
        with pytest.raises(ValueError, match="invalid calibration"):
            calibrate(np.zeros(default_cal.size))
        with pytest.raises(ValueError, match="band_fraction"):
            calibrate(default_cal, band_fraction=0.0)
        with pytest.raises(ValueError, match="band_fraction"):
            calibrate(default_cal, band_fraction=1.5)
        with pytest.raises(ValueError, match="empty"):
            calibrate(np.array([]))

    def test_capture_validation(self, default_cal):
        cal = calibrate(default_cal)
        with pytest.raises(ValueError, match="equal length"):
            deconvolve_cir(default_cal[:-1], cal)
        with pytest.raises(ValueError, match="equal length"):
            deconvolve_cir(default_cal[None, :], cal)

    def test_calibration_is_read_only(self, default_cal):
        cal = calibrate(default_cal)
        for array in (cal.keep, cal.conj_cal, cal.denom, cal.weight):
            assert not array.flags.writeable

    def test_frozen_reference_samples(self):
        # SHA-256 of the recovered samples, recorded before the calibration
        # was split out of deconvolve_cir: three noisy captures against one
        # calibration must deconvolve to the same bytes.
        spec = SMALL_SPEC
        fs = spec.sample_rate_hz
        channels = [
            [make_mpc(10 / fs, 0.0)],
            [make_mpc(20 / fs, -3.0), make_mpc(75 / fs, -9.0, 1.0)],
            [make_mpc(5 / fs, -1.0, 2.0), make_mpc(140 / fs, -12.0, 0.5)],
        ]
        frozen = [
            "a7107ca993dcb0ab404bf9f1f1b1a55a06904a80962d81561f6fcb1e1d42d2aa",
            "944bb31414839acf56ac3afbff0234b389a9c5a29e31b2a04b450057179243be",
            "8667ec44253c15345501e2d447888e478b496baca6309e8ff6f8e014eae81c25",
        ]
        digests = []
        for i, channel in enumerate(channels):
            stream = derive_substream(2026, "frozen-deconv", i)
            y_rx, y_cal = simulate_capture(channel, spec, snr_db=30.0, stream=stream)
            samples = deconvolve_cir(y_rx, calibrate(y_cal)).samples
            digests.append(hashlib.sha256(samples.astype("<c16").tobytes()).hexdigest())
        assert digests == frozen

    def test_frozen_extracted_mpcs(self):
        # SHA-256 of repr((delay_s, amplitude, power_db)) over the paths of
        # the three captures above, recorded while Mpc still stored a given
        # power_db beside the amplitude and checked that they agreed
        spec = SMALL_SPEC
        fs = spec.sample_rate_hz
        channels = [
            [make_mpc(10 / fs, 0.0)],
            [make_mpc(20 / fs, -3.0), make_mpc(75 / fs, -9.0, 1.0)],
            [make_mpc(5 / fs, -1.0, 2.0), make_mpc(140 / fs, -12.0, 0.5)],
        ]
        frozen = [
            "ace53183f8b3e41a920d898f3ed76538d6e9cdf812528e0bed6f363a55f2a9d3",
            "8165aeff95750239f5d13c83289e676bb12c28abdf2744bb0579c424e994c087",
            "5b17b810d2e5f724651275bc13c8080784008bcdd5a6c7c8d61cae3129454486",
        ]
        digests = []
        for i, channel in enumerate(channels):
            stream = derive_substream(2026, "frozen-deconv", i)
            y_rx, y_cal = simulate_capture(channel, spec, snr_db=30.0, stream=stream)
            mpcs = extract_mpcs(deconvolve_cir(y_rx, calibrate(y_cal)))
            paths = repr([(m.delay_s, m.amplitude, m.power_db) for m in mpcs])
            digests.append(hashlib.sha256(paths.encode()).hexdigest())
        assert digests == frozen


def snapshot_from_samples(samples):
    return CirSnapshot(sample_period_s=1.0 / FS, samples=np.asarray(samples))


class TestExtraction:
    def test_strongest_30_of_40(self):
        samples = np.zeros(4000, dtype=complex)
        amps = 0.5 + 0.4 * np.arange(40) / 39.0
        for i, a in enumerate(amps):
            samples[100 + 10 * i] = a
        mpcs = extract_mpcs(snapshot_from_samples(samples))
        assert len(mpcs) == 30
        # the weakest ten are gone, survivors sorted by delay
        bins = [round(m.delay_s * FS) for m in mpcs]
        assert bins == [100 + 10 * i for i in range(10, 40)]

    def test_weak_path_below_relative_threshold(self):
        samples = np.zeros(4000, dtype=complex)
        samples[100] = 1.0
        samples[200] = 10.0 ** (-30.0 / 20.0)
        mpcs = extract_mpcs(snapshot_from_samples(samples))
        assert [round(m.delay_s * FS) for m in mpcs] == [100]

    def test_single_impulse_over_noise_floor(self):
        samples = np.full(4000, 1e-6, dtype=complex)
        samples[1::2] *= -1.0
        samples[37] = 1e-3
        mpcs = extract_mpcs(snapshot_from_samples(samples))
        assert [round(m.delay_s * FS) for m in mpcs] == [37]
        assert mpcs[0].power_db == pytest.approx(-60.0, abs=1e-6)

    def test_zero_input_empty(self):
        assert extract_mpcs(snapshot_from_samples(np.zeros(100, dtype=complex))) == []

    def test_constant_input_empty(self):
        assert extract_mpcs(snapshot_from_samples(np.ones(100, dtype=complex))) == []

    def test_plateau_resolved_to_lowest_index(self):
        samples = np.zeros(400, dtype=complex)
        samples[7] = 1.0
        samples[8] = 1.0
        mpcs = extract_mpcs(snapshot_from_samples(samples))
        assert [round(m.delay_s * FS) for m in mpcs] == [7]

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_paths"):
            MpcExtractionPolicy(max_paths=0)
        with pytest.raises(ValueError, match="thresholds"):
            MpcExtractionPolicy(rel_threshold_db=0.0)
        with pytest.raises(ValueError, match="noise_tail_fraction"):
            MpcExtractionPolicy(noise_tail_fraction=1.0)

    def test_noise_floor_db(self):
        samples = np.full(1000, 1e-3, dtype=complex)
        assert noise_floor_db(snapshot_from_samples(samples)) == pytest.approx(-60.0, abs=1e-9)
        with pytest.raises(ValueError, match="tail_fraction"):
            noise_floor_db(snapshot_from_samples(samples), tail_fraction=0.0)


class TestSummaryStatistics:
    def test_received_power_single(self):
        assert received_power([make_mpc(0.0, -50.0)]) == pytest.approx(-50.0, abs=1e-12)

    def test_received_power_3db_sum(self):
        mpcs = [make_mpc(0.0, -53.01), make_mpc(1e-9, -53.01)]
        assert received_power(mpcs) == pytest.approx(-50.0, abs=0.01)

    def test_received_power_empty(self):
        assert received_power([]) == -300.0

    def test_path_loss_hand_case(self):
        assert path_loss_from_power(-50.0, LinkBudget(gr_dbi=25.0)) == 140.0

    def test_path_loss_zero_budget(self):
        budget = LinkBudget(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert path_loss_from_power(0.0, budget) == 0.0

    def test_path_loss_gr_delta(self):
        lo = path_loss_from_power(-50.0, LinkBudget(gr_dbi=20.0))
        hi = path_loss_from_power(-50.0, LinkBudget(gr_dbi=25.0))
        assert hi - lo == 5.0

    def test_path_loss_linearity_exact(self):
        budget = LinkBudget()
        base = path_loss_from_power(-47.3, budget)
        for delta in (-12.5, -1.0, 0.25, 8.0):
            assert path_loss_from_power(-47.3 + delta, budget) == base - delta

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="gt_dbi"):
            LinkBudget(gt_dbi=math.nan)

    def test_rms_ds_hand_cases(self):
        assert rms_delay_spread([make_mpc(5e-9, -20.0)]) == 0.0
        two_equal = [make_mpc(0.0, 0.0), make_mpc(100e-9, 0.0)]
        assert rms_delay_spread(two_equal) == pytest.approx(50e-9, rel=1e-12)
        two_weighted = [make_mpc(0.0, 0.0), make_mpc(100e-9, -6.020599913279624)]
        assert rms_delay_spread(two_weighted) == pytest.approx(40e-9, rel=1e-12)

    def test_rms_ds_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one path"):
            rms_delay_spread([])

    def test_rms_ds_shift_and_scale_invariance(self):
        rng = np.random.default_rng(181)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            delays = np.sort(rng.uniform(0.0, 500e-9, size=n))
            powers = rng.uniform(-30.0, 0.0, size=n)
            mpcs = [make_mpc(d, p) for d, p in zip(delays, powers)]
            ds = rms_delay_spread(mpcs)
            shift = float(rng.uniform(0.0, 1e-6))
            shifted = [make_mpc(d + shift, p) for d, p in zip(delays, powers)]
            assert abs(rms_delay_spread(shifted) - ds) < 1e-15
            gain = float(rng.uniform(-40.0, 20.0))
            scaled = [make_mpc(d, p + gain) for d, p in zip(delays, powers)]
            assert rms_delay_spread(scaled) == pytest.approx(ds, rel=1e-9, abs=1e-18)


class TestCaptureRoundTrip:
    def test_impulse_infinite_snr_identity(self):
        y_rx, y_cal = simulate_capture([make_mpc(0.0, 0.0)], WaveformSpec())
        assert np.array_equal(y_rx, y_cal)

    def test_stream_required_for_finite_snr(self):
        with pytest.raises(ValueError, match="Generator"):
            simulate_capture([make_mpc(0.0, 0.0)], WaveformSpec(), snr_db=30.0)

    def test_snapshot_channel_matches_mpc_list(self):
        spec = SMALL_SPEC
        fs = spec.sample_rate_hz
        mpcs = [make_mpc(10 / fs, 0.0), make_mpc(45 / fs, -8.0, phase=1.1)]
        taps = np.zeros(46, dtype=complex)
        for m in mpcs:
            taps[round(m.delay_s * fs)] = m.amplitude
        snap = CirSnapshot(sample_period_s=1.0 / fs, samples=taps)
        rx_a, cal_a = simulate_capture(mpcs, spec)
        rx_b, cal_b = simulate_capture(snap, spec)
        assert np.allclose(rx_a, rx_b, atol=1e-15)
        assert np.array_equal(cal_a, cal_b)

    def test_snapshot_sample_period_mismatch(self):
        snap = CirSnapshot(sample_period_s=1e-9, samples=np.ones(3))
        with pytest.raises(ValueError, match="sample period"):
            simulate_capture(snap, WaveformSpec())

    def test_three_path_reference_case(self):
        spec = WaveformSpec()
        channel = [
            make_mpc(10 / FS, 0.0),
            make_mpc(50 / FS, -6.0),
            make_mpc(120 / FS, -12.0),
        ]
        stream = derive_substream(7, "sounder-roundtrip", 0)
        y_rx, y_cal = simulate_capture(channel, spec, snr_db=30.0, stream=stream)
        cir = deconvolve_cir(y_rx, calibrate(y_cal))
        mpcs = extract_mpcs(cir)
        assert len(mpcs) == 3
        bins = [round(m.delay_s * FS) for m in mpcs]
        assert all(abs(b - t) <= 1 for b, t in zip(bins, (10, 50, 120)))
        for mpc, target in zip(mpcs, (0.0, -6.0, -12.0)):
            assert mpc.power_db == pytest.approx(target, abs=0.5)
        gain = received_power(mpcs) - noise_floor_db(cir) - 30.0
        assert 35.0 <= gain <= 37.0

    def test_capture_deterministic_under_stream(self):
        spec = SMALL_SPEC
        channel = [make_mpc(10 / spec.sample_rate_hz, 0.0)]
        a = simulate_capture(channel, spec, 20.0, derive_substream(3, "cap", 1))
        b = simulate_capture(channel, spec, 20.0, derive_substream(3, "cap", 1))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_equal_power_pair_at_resolution_limit(self):
        spec = SMALL_SPEC
        fs = spec.sample_rate_hz
        channel = [make_mpc(50 / fs, -3.0), make_mpc(56 / fs, -3.0, phase=2.0)]
        y_rx, y_cal = simulate_capture(channel, spec)
        mpcs = extract_mpcs(deconvolve_cir(y_rx, calibrate(y_cal, sample_rate_hz=fs)))
        assert len(mpcs) == 2
        bins = [round(m.delay_s * fs) for m in mpcs]
        assert all(abs(g - b) <= 1 for g, b in zip(bins, (50, 56)))
        for mpc in mpcs:
            assert mpc.power_db == pytest.approx(-3.0, abs=0.5)

    def test_roundtrip_random_channels_property(self):
        # Gaps of 14+ bins keep every path clear of its neighbors' kernel
        # sidelobes across the 18 dB power spread exercised here.
        spec = SMALL_SPEC
        fs = spec.sample_rate_hz
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            gaps = rng.integers(14, 80, size=n)
            bins = 5 + np.cumsum(gaps)
            powers = rng.uniform(-18.0, 0.0, size=n)
            phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
            channel = [
                make_mpc(b / fs, p, phase=ph)
                for b, p, ph in zip(bins, powers, phases)
            ]
            stream = derive_substream(78, "sounder-prop", int(rng.integers(1 << 30)))
            y_rx, y_cal = simulate_capture(channel, spec, snr_db=55.0, stream=stream)
            cir = deconvolve_cir(y_rx, calibrate(y_cal, sample_rate_hz=fs))
            mpcs = extract_mpcs(cir)
            assert len(mpcs) == n
            got_bins = [round(m.delay_s * fs) for m in mpcs]
            assert all(abs(g - b) <= 1 for g, b in zip(got_bins, bins))
            for mpc, p in zip(mpcs, powers):
                assert mpc.power_db == pytest.approx(p, abs=0.5)
