"""Synthetic channel-sounder signal chain.

Builds the probe waveform (maximal-length PN sequence, zero padding,
interpolation, root-raised-cosine shaping), simulates a capture through a
multipath channel, recovers the channel impulse response by regularized
frequency-domain deconvolution against a back-to-back calibration, and
extracts multipath components with their summary statistics (received
power, path loss, RMS delay spread).  calibrate does the calibration's
share of the deconvolution once; deconvolve_cir applies it to each capture.
peak_candidates finds the paths of many PDPs in one array pass, and
extract_mpcs is its one-row case.  Noise comes from a numpy Generator the
caller passes in, such as derive_substream gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from chantool.core import DB_FLOOR, CirSnapshot, Mpc, to_db

# Maximal-length LFSR feedback taps per register length.  Tap t feeds back
# the bit that left the register t shifts ago, so each entry lists the
# exponents of a primitive polynomial over GF(2).
_DEFAULT_TAPS = {
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
}

# Spectral bins whose calibration power falls below this fraction of the
# peak bin power are divided against the clipped value instead of their own.
# The clip sits below the probe spectrum's in-band ripple but above its
# aperiodic nulls, so division noise at the nulls stays bounded.
_NULL_CLIP_REL = 3e-4

# Bins below this fraction of the peak calibration magnitude are zeroed
# outright rather than divided.
_ZERO_FLOOR_REL = 1e-6

# Occupied-band detection: bins within this many dB of the strongest
# (smoothed) calibration bin count as carrying signal.
_OCCUPANCY_DB = -40.0

# Default cap on the deconvolution band, as a fraction of the sampling
# bandwidth.
DEFAULT_BAND_FRACTION = 0.6

# Length of the root-raised-cosine shaping filter, in chips.
_RRC_SPAN_CHIPS = 16


@dataclass(frozen=True)
class WaveformSpec:
    """Probe waveform layout and sampling parameters."""

    pn_order: int = 12
    pad_head: int = 104
    pad_tail: int = 800
    interp_factor: int = 4
    rrc_rolloff: float = 0.5
    sample_rate_hz: float = 1.28e9

    def __post_init__(self) -> None:
        if not 6 <= self.pn_order <= 16:
            raise ValueError(f"pn_order must be in [6, 16], got {self.pn_order}")
        if self.pad_head < 0 or self.pad_tail < 0:
            raise ValueError("padding lengths must be non-negative")
        if self.interp_factor < 1:
            raise ValueError("interp_factor must be >= 1")
        if not 0.0 < self.rrc_rolloff <= 1.0:
            raise ValueError("rrc_rolloff must be in (0, 1]")
        if not self.sample_rate_hz > 0.0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def n_chips(self) -> int:
        return 1 << self.pn_order

    @property
    def n_samples(self) -> int:
        return (self.pad_head + self.n_chips + self.pad_tail) * self.interp_factor


@dataclass(frozen=True)
class LinkBudget:
    """Scalar gains and reference powers of the measurement link."""

    gt_dbi: float = 20.0
    gr_dbi: float = 20.0
    p_pa_dbm: float = 24.0
    p_cal_dbm: float = 5.0
    g_lna_db: float = 30.0
    l_cable_db: float = 4.0

    def __post_init__(self) -> None:
        for name in ("gt_dbi", "gr_dbi", "p_pa_dbm", "p_cal_dbm", "g_lna_db", "l_cable_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class MpcExtractionPolicy:
    """Peak-search rules for multipath extraction from a PDP.

    The detection threshold is the larger of (peak power minus
    rel_threshold_db) and (noise floor plus noise_margin_db), with the
    noise floor estimated as the mean linear power over the trailing
    noise_tail_fraction of the delay axis.
    """

    max_paths: int = 30
    rel_threshold_db: float = 25.0
    noise_margin_db: float = 6.0
    noise_tail_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")
        if not self.rel_threshold_db > 0.0 or not self.noise_margin_db > 0.0:
            raise ValueError("thresholds must be positive")
        if not 0.0 < self.noise_tail_fraction < 1.0:
            raise ValueError("noise_tail_fraction must be in (0, 1)")


@functools.lru_cache(maxsize=16)
def _lfsr_chips(order: int, taps: tuple[int, ...]) -> np.ndarray:
    """One full period of the ±1 m-sequence, validating maximality."""
    for t in taps:
        if not 1 <= t <= order:
            raise ValueError(f"tap {t} outside register length {order}")
    if order not in taps:
        raise ValueError("taps must include the register length")
    period = (1 << order) - 1
    state = (1 << order) - 1
    start = state
    bits = np.empty(period, dtype=np.int8)
    for i in range(period):
        bits[i] = state & 1
        fb = 0
        for t in taps:
            fb ^= (state >> (order - t)) & 1
        state = (state >> 1) | (fb << (order - 1))
        if state == start and i != period - 1:
            raise ValueError(
                f"taps {taps} are not primitive: state repeats after {i + 1} steps"
            )
    if state != start:
        raise ValueError(f"taps {taps} are not primitive")
    chips = 2.0 * bits.astype(np.float64) - 1.0
    chips.setflags(write=False)
    return chips


def generate_pn(order: int = 12, taps: Sequence[int] | None = None) -> np.ndarray:
    """Maximal-length ±1 PN sequence of 2**order - 1 chips, cyclically
    extended by one repeated chip to a power-of-two length.

    The extension keeps the frame arithmetic on round numbers; the
    unextended core retains the two-level circular autocorrelation of an
    m-sequence.  Non-maximal tap sets are rejected.
    """
    if not 6 <= order <= 16:
        raise ValueError(f"order must be in [6, 16], got {order}")
    tap_tuple = tuple(taps) if taps is not None else _DEFAULT_TAPS[order]
    chips = _lfsr_chips(order, tap_tuple)
    return np.concatenate([chips, chips[:1]])


@functools.lru_cache(maxsize=16)
def _rrc_taps_cached(interp_factor: int, rolloff: float) -> np.ndarray:
    n = _RRC_SPAN_CHIPS * interp_factor
    t = (np.arange(n + 1) - n / 2.0) / interp_factor
    h = np.empty(t.size)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            h[i] = 1.0 + rolloff * (4.0 / math.pi - 1.0)
        elif abs(abs(ti) - 1.0 / (4.0 * rolloff)) < 1e-12:
            h[i] = (rolloff / math.sqrt(2.0)) * (
                (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * rolloff))
                + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * rolloff))
            )
        else:
            num = math.sin(math.pi * ti * (1.0 - rolloff)) + 4.0 * rolloff * ti * math.cos(
                math.pi * ti * (1.0 + rolloff)
            )
            den = math.pi * ti * (1.0 - (4.0 * rolloff * ti) ** 2)
            h[i] = num / den
    h = h / math.sqrt(np.sum(h * h))
    h.setflags(write=False)
    return h


def rrc_filter_taps(spec: WaveformSpec) -> np.ndarray:
    """Unit-energy root-raised-cosine taps at the waveform's interpolation rate.

    At interp_factor 1 the shaping degenerates to a unit impulse (chips are
    already at the output rate, nothing to interpolate).
    """
    if spec.interp_factor == 1:
        return np.array([1.0])
    return _rrc_taps_cached(spec.interp_factor, spec.rrc_rolloff)


def _convolve_same(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    full = np.convolve(x, h)
    start = (h.size - 1) // 2
    return full[start : start + x.size]


def build_tx_waveform(spec: WaveformSpec) -> np.ndarray:
    """Complex baseband probe: padded PN frame, zero-stuffed by
    interp_factor, shaped by the unit-energy RRC filter."""
    chips = generate_pn(spec.pn_order)
    frame = np.concatenate(
        [np.zeros(spec.pad_head), chips, np.zeros(spec.pad_tail)]
    )
    up = np.zeros(frame.size * spec.interp_factor)
    up[:: spec.interp_factor] = frame
    shaped = _convolve_same(up, rrc_filter_taps(spec))
    return shaped.astype(np.complex128)


@dataclass(frozen=True)
class Calibration:
    """calibrate's result: the kept-bin mask; over the kept bins, the conjugate
    spectrum, clipped power and Hann weight (all read-only); n / coherent norm."""

    keep: np.ndarray
    conj_cal: np.ndarray
    denom: np.ndarray
    weight: np.ndarray
    scale: float
    sample_period_s: float


def calibrate(
    y_cal: np.ndarray,
    band_fraction: float = DEFAULT_BAND_FRACTION,
    sample_rate_hz: float = 1.28e9,
) -> Calibration:
    """Everything deconvolve_cir needs from a back-to-back calibration capture.

    The division runs only over the calibration's occupied band (smoothed
    magnitude within 40 dB of the peak, capped at band_fraction of the
    sampling bandwidth), under a Hann weighting that is normalized so a
    pure-delay channel returns a peak of exactly the channel amplitude at
    exactly the delay bin.  Denominator bins are clipped from below at a
    small fraction of the peak spectral power so the probe's aperiodic
    spectral nulls cannot amplify noise; bins essentially without
    calibration energy are zeroed.
    """
    y_cal = np.asarray(y_cal, dtype=np.complex128)
    if y_cal.ndim != 1:
        raise ValueError(f"y_cal must be a 1-D sequence, got shape {y_cal.shape}")
    n = y_cal.size
    if n == 0:
        raise ValueError("empty capture")
    if not 0.0 < band_fraction <= 1.0:
        raise ValueError("band_fraction must be in (0, 1]")
    if np.sum(np.abs(y_cal) ** 2) < 1e-20:
        raise ValueError("invalid calibration: energy below -200 dB")

    spec_cal = np.fft.fft(y_cal)
    mag = np.abs(spec_cal)

    # Occupied band: 9-bin circular smoothing, then threshold against the peak.
    win = 9 if n >= 9 else n
    kernel = np.zeros(n)
    kernel[:win] = 1.0 / win
    smoothed = np.real(np.fft.ifft(np.fft.fft(mag) * np.fft.fft(kernel)))
    smoothed = np.roll(smoothed, -(win // 2))
    occupied = smoothed >= smoothed.max() * 10.0 ** (_OCCUPANCY_DB / 20.0)
    k_signed = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    occupied &= np.abs(k_signed) <= band_fraction * (n / 2.0)
    if not occupied.any():
        raise ValueError("invalid calibration: no occupied band")

    k_lo = int(k_signed[occupied].min())
    k_hi = int(k_signed[occupied].max())
    in_band = (k_signed >= k_lo) & (k_signed <= k_hi)
    weight = np.zeros(n)
    if k_hi > k_lo:
        weight[in_band] = np.sin(np.pi * (k_signed[in_band] - k_lo) / (k_hi - k_lo)) ** 2
    else:
        weight[in_band] = 1.0

    keep = in_band & (mag >= _ZERO_FLOOR_REL * mag.max())
    denom = np.maximum(mag[keep] ** 2, _NULL_CLIP_REL * mag.max() ** 2)
    # Coherent normalization: a pure delay sees every retained bin scaled by
    # the same real factor, so dividing by that factor's weighted sum makes
    # the recovered peak equal the channel amplitude exactly.
    norm = np.sum(weight[keep] * mag[keep] ** 2 / denom)
    arrays = keep, np.conj(spec_cal[keep]), denom, weight[keep]
    for array in arrays:
        array.setflags(write=False)
    return Calibration(*arrays, scale=n / norm, sample_period_s=1.0 / sample_rate_hz)


def deconvolve_cir(y_rx: np.ndarray, cal: Calibration) -> CirSnapshot:
    """Channel impulse response of a capture, divided against a calibration."""
    y_rx = np.asarray(y_rx, dtype=np.complex128)
    if y_rx.shape != cal.keep.shape:
        raise ValueError("y_rx and y_cal must be 1-D sequences of equal length")
    spec_rx = np.fft.fft(y_rx)
    response = np.zeros(y_rx.size, dtype=np.complex128)
    response[cal.keep] = spec_rx[cal.keep] * cal.conj_cal / cal.denom * cal.weight
    h = np.fft.ifft(response) * cal.scale
    return CirSnapshot(cal.sample_period_s, h)


def noise_floor_db(cir: CirSnapshot, tail_fraction: float = 0.1) -> float:
    """Mean linear power over the trailing delay bins, in dB.

    The tail is assumed path-free; callers placing paths near the end of
    the grid (or at delay 0, whose kernel wraps around) should widen the
    grid instead.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must be in (0, 1)")
    n = cir.samples.size
    n_tail = max(1, int(n * tail_fraction))
    return float(to_db(float(np.mean(np.abs(cir.samples[n - n_tail :]) ** 2))))


def peak_candidates(pdp: np.ndarray, policy: MpcExtractionPolicy) -> np.ndarray:
    """Mask of each row's candidate paths in a (rows, bins) linear PDP array.

    A candidate is a local maximum (3-bin neighborhood on the circular delay
    axis of the inverse FFT, plateaus resolved to the lowest index) at or
    above its row's detection threshold.  An all-zero row has none, and two
    candidates are never adjacent bins.
    """
    n_tail = max(1, int(pdp.shape[-1] * policy.noise_tail_fraction))
    floor_lin = np.mean(pdp[:, -n_tail:], axis=-1, keepdims=True)
    threshold = np.maximum(
        pdp.max(axis=-1, keepdims=True) * 10.0 ** (-policy.rel_threshold_db / 10.0),
        floor_lin * 10.0 ** (policy.noise_margin_db / 10.0),
    )
    left_ok = pdp > np.roll(pdp, 1, axis=-1)
    return left_ok & (pdp >= np.roll(pdp, -1, axis=-1)) & (pdp >= threshold)


def extract_mpcs(cir: CirSnapshot, policy: MpcExtractionPolicy | None = None) -> list[Mpc]:
    """Multipath extraction from a CIR snapshot: its peak_candidates, of which
    the strongest max_paths survive if more qualify, sorted by delay."""
    if policy is None:
        policy = MpcExtractionPolicy()
    pdp = np.abs(cir.samples) ** 2
    if pdp.size == 0:
        return []
    candidates = np.flatnonzero(peak_candidates(pdp[None], policy))
    if candidates.size > policy.max_paths:
        strongest = candidates[np.argsort(pdp[candidates], kind="stable")][::-1]
        candidates = np.sort(strongest[: policy.max_paths])
    return [Mpc(i * cir.sample_period_s, complex(cir.samples[i])) for i in candidates]


def received_power(mpcs: Sequence[Mpc]) -> float:
    """Total power of the extracted paths in dB; -300 dB when empty."""
    if not mpcs:
        return DB_FLOOR
    total = sum(10.0 ** (m.power_db / 10.0) for m in mpcs)
    return 10.0 * math.log10(total)


def path_loss_from_power(p_db: float, budget: LinkBudget | None = None) -> float:
    """Link-budget path loss for a received power level."""
    if budget is None:
        budget = LinkBudget()
    return (
        -p_db
        + budget.gt_dbi
        + budget.gr_dbi
        + budget.p_pa_dbm
        - budget.p_cal_dbm
        + budget.g_lna_db
        - budget.l_cable_db
    )


def rms_delay_spread(mpcs: Sequence[Mpc]) -> float:
    """Power-weighted RMS spread of the path delays, in seconds."""
    if not mpcs:
        raise ValueError("rms_delay_spread needs at least one path")
    weights = np.array([10.0 ** (m.power_db / 10.0) for m in mpcs])
    delays = np.array([m.delay_s for m in mpcs])
    mean = float(np.sum(weights * delays) / np.sum(weights))
    var = float(np.sum(weights * (delays - mean) ** 2) / np.sum(weights))
    return math.sqrt(max(var, 0.0))


def _channel_fir(channel: Sequence[Mpc] | CirSnapshot, spec: WaveformSpec) -> np.ndarray:
    if isinstance(channel, CirSnapshot):
        expected = 1.0 / spec.sample_rate_hz
        if abs(channel.sample_period_s - expected) > 1e-15:
            raise ValueError(
                "channel snapshot sample period does not match the waveform spec"
            )
        return np.asarray(channel.samples, dtype=np.complex128)
    taps = np.zeros(1, dtype=np.complex128)
    for mpc in channel:
        bin_idx = int(round(mpc.delay_s * spec.sample_rate_hz))
        if bin_idx >= taps.size:
            taps = np.concatenate(
                [taps, np.zeros(bin_idx + 1 - taps.size, dtype=np.complex128)]
            )
        taps[bin_idx] += mpc.amplitude
    return taps


def simulate_capture(
    channel: Sequence[Mpc] | CirSnapshot,
    spec: WaveformSpec | None = None,
    snr_db: float = math.inf,
    stream: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize a sounding capture: returns (y_rx, y_cal).

    y_cal is the probe waveform through the system response alone (the
    matched receive RRC filter, completing the tx/rx matched pair); y_rx
    additionally passes the channel and, for finite snr_db, picks up white
    Gaussian noise drawn from stream, a numpy Generator.  snr_db references the mean received signal power over
    the active PN span (frame energy divided by 2**pn_order samples at the
    chip rate) to the per-sample noise power.
    """
    if spec is None:
        spec = WaveformSpec()
    tx = build_tx_waveform(spec)
    y_cal = _convolve_same(tx, rrc_filter_taps(spec))
    fir = _channel_fir(channel, spec)
    y_clean = np.convolve(y_cal, fir)[: y_cal.size]
    if math.isinf(snr_db):
        return y_clean, y_cal
    if stream is None:
        raise ValueError("a numpy Generator stream is required for finite snr_db")
    support = spec.n_chips * spec.interp_factor
    p_signal = float(np.sum(np.abs(y_clean) ** 2)) / support
    sigma2 = p_signal / 10.0 ** (snr_db / 10.0)
    noise = stream.normal(size=(y_clean.size, 2)) * math.sqrt(sigma2 / 2.0)
    return y_clean + noise[:, 0] + 1j * noise[:, 1], y_cal
