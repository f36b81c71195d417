"""Synthetic channel-sounder signal chain.

Builds the probe waveform (maximal-length PN sequence, zero padding,
interpolation, root-raised-cosine shaping), simulates a capture through a
multipath channel, recovers the channel impulse response by regularized
frequency-domain deconvolution against a back-to-back calibration, and
extracts multipath components with their summary statistics (received
power, path loss, RMS delay spread).  calibrate does the calibration's
share of the deconvolution once; deconvolve_cir applies it to a block of
captures in one FFT pair.  peak_candidates, the one path-selection rule,
finds the paths of many PDPs in one array pass; extract_mpcs is its one-row
case.  Noise comes from a caller's numpy Generator, such as derive_substream's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from chantool.core import DB_FLOOR, CirSnapshot, Mpc, check_fields, to_db

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
# bandwidth, and calibrate's rule on it, for check_fields.
DEFAULT_BAND_FRACTION = 0.6
BAND_FRACTION_RULE = ("in (0, 1]", lambda v: 0.0 < v <= 1.0, ("band_fraction",))

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
        check_fields(
            self,
            ("in [6, 16]", lambda v: 6 <= v <= 16, ("pn_order",)),
            (">= 0", lambda v: v >= 0, ("pad_head", "pad_tail")),
            (">= 1", lambda v: v >= 1, ("interp_factor",)),
            ("in (0, 1]", lambda v: 0.0 < v <= 1.0, ("rrc_rolloff",)),
            ("positive", lambda v: v > 0.0, ("sample_rate_hz",)),
        )

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
        check_fields(self)
        # Finite terms can still sum past the float range, such as two 1e308 gains.
        if not math.isfinite(path_loss_from_power(0.0, self)):
            raise ValueError("the link budget's path loss must be finite")


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
        check_fields(
            self,
            (">= 1", lambda v: v >= 1, ("max_paths",)),
            ("positive", lambda v: v > 0.0, ("rel_threshold_db", "noise_margin_db")),
            # 10 ** (margin / 10) passes the float64 maximum, 1.8e308, past 3082 dB.
            ("at most 3082", lambda v: v <= 3082.0, ("noise_margin_db",)),
            ("in (0, 1)", lambda v: 0.0 < v < 1.0, ("noise_tail_fraction",)),
        )


@functools.lru_cache(maxsize=16)
def _lfsr_chips(order: int) -> np.ndarray:
    """One full period of the ±1 m-sequence from _DEFAULT_TAPS[order]."""
    taps = _DEFAULT_TAPS[order]
    period = (1 << order) - 1
    state = period  # all ones
    bits = np.empty(period, dtype=np.int8)
    for i in range(period):
        bits[i] = state & 1
        fb = 0
        for t in taps:
            fb ^= (state >> (order - t)) & 1
        state = (state >> 1) | (fb << (order - 1))
    chips = 2.0 * bits.astype(np.float64) - 1.0
    chips.setflags(write=False)
    return chips


def generate_pn(order: int = 12) -> np.ndarray:
    """Maximal-length ±1 PN sequence of 2**order - 1 chips, cyclically
    extended by one repeated chip to a power-of-two length.

    The extension keeps the frame arithmetic on round numbers; the
    unextended core retains the two-level circular autocorrelation of an
    m-sequence.
    """
    if not 6 <= order <= 16:
        raise ValueError(f"order must be in [6, 16], got {order}")
    chips = _lfsr_chips(order)
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
    sample_period_s: float = 1 / 1.28e9,
) -> Calibration:
    """Everything deconvolve_cir needs from a back-to-back calibration capture.

    The division runs only over the calibration's occupied band (smoothed
    magnitude within 40 dB of the peak, capped at band_fraction of the
    sampling bandwidth), under a Hann weighting that is normalized so a
    pure-delay channel returns a peak of exactly the channel amplitude at
    exactly the delay bin.  Denominator bins are clipped from below at a
    small fraction of the peak spectral power so the probe's aperiodic
    spectral nulls cannot amplify noise; bins essentially without
    calibration energy are zeroed.  The CIRs carry sample_period_s as given.
    """
    y_cal = np.asarray(y_cal, dtype=np.complex128)
    if y_cal.ndim != 1:
        raise ValueError(f"y_cal must be a 1-D sequence, got shape {y_cal.shape}")
    n = y_cal.size
    if n == 0:
        raise ValueError("empty capture")
    check_fields({"band_fraction": band_fraction}, BAND_FRACTION_RULE)
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
    return Calibration(*arrays, scale=n / norm, sample_period_s=sample_period_s)


def deconvolve_cir(y_rx: np.ndarray, cal: Calibration) -> CirSnapshot:
    """Channel impulse response of a capture, or one per row of a (captures,
    samples) block, divided against a calibration by one FFT pair in place on
    one complex128 copy of y_rx."""
    h = np.array(y_rx, dtype=np.complex128)
    if h.ndim > 2 or h.shape[-1:] != cal.keep.shape:
        raise ValueError("y_rx (a capture or rows of captures) and y_cal must be of equal length")
    np.fft.fft(h, out=h)
    for row in h.reshape(-1, h.shape[-1]):
        row[cal.keep] = row[cal.keep] * cal.conj_cal / cal.denom * cal.weight
        row[~cal.keep] = 0.0
    np.fft.ifft(h, out=h)
    h *= cal.scale
    return CirSnapshot(cal.sample_period_s, h)


def _noise_floor(pdp: np.ndarray, policy: MpcExtractionPolicy) -> np.ndarray:
    """The (rows, 1) mean linear power of each row's trailing
    noise_tail_fraction of bins, in a (rows, bins) linear PDP array."""
    n_tail = max(1, int(pdp.shape[-1] * policy.noise_tail_fraction))
    return np.mean(pdp[:, -n_tail:], axis=-1, keepdims=True)


def noise_floor_db(cir: CirSnapshot, policy: MpcExtractionPolicy | None = None) -> float:
    """The noise floor extract_mpcs(cir, policy) detects against, in dB.  The
    tail is assumed path-free: keep paths away from the grid's end (and from
    delay 0, whose kernel wraps around) by widening the grid."""
    if policy is None:
        policy = MpcExtractionPolicy()
    return float(to_db(_noise_floor(np.abs(cir.samples[None]) ** 2, policy)[0, 0]))


def peak_candidates(pdp: np.ndarray, policy: MpcExtractionPolicy) -> np.ndarray:
    """Mask of each row's paths in a (rows, bins) linear PDP array.

    A candidate is a local maximum (3-bin neighborhood on the circular delay
    axis of the inverse FFT, plateaus resolved to the lowest index) at or
    above its row's detection threshold; a row keeps its strongest max_paths
    of them, the later bin first among equal powers.  An all-zero row has
    none, and two paths are never adjacent bins.
    """
    threshold = np.maximum(
        pdp.max(axis=-1, keepdims=True) * 10.0 ** (-policy.rel_threshold_db / 10.0),
        _noise_floor(pdp, policy) * 10.0 ** (policy.noise_margin_db / 10.0),
    )
    left_ok = pdp > np.roll(pdp, 1, axis=-1)
    mask = left_ok & (pdp >= np.roll(pdp, -1, axis=-1)) & (pdp >= threshold)
    crowded = np.flatnonzero(np.count_nonzero(mask, axis=-1) > policy.max_paths)
    # Stable ascending: non-candidates (-inf) first, the later of equal powers last.
    powers = np.where(mask[crowded], pdp[crowded], -np.inf)
    weakest = np.argsort(powers, axis=-1, kind="stable")[:, : -policy.max_paths]
    mask[crowded[:, None], weakest] = False
    return mask


def extract_mpcs(cir: CirSnapshot, policy: MpcExtractionPolicy | None = None) -> list[Mpc]:
    """The paths of a CIR snapshot by delay: peak_candidates of its one row."""
    if policy is None:
        policy = MpcExtractionPolicy()
    pdp = np.abs(cir.samples) ** 2
    if pdp.size == 0:
        return []
    paths = np.flatnonzero(peak_candidates(pdp[None], policy))
    return [Mpc(i * cir.sample_period_s, complex(cir.samples[i])) for i in paths]


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
    """Power-weighted RMS spread of the path delays, in seconds.  The moments
    take the delays times 2**k, the latest in [0.5, 1), so tiny delays' squares
    do not underflow; powers of two are exact, so normal-range bits stay."""
    if not mpcs:
        raise ValueError("rms_delay_spread needs at least one path")
    weights = np.array([10.0 ** (m.power_db / 10.0) for m in mpcs])
    delays = np.array([m.delay_s for m in mpcs])
    k = -math.frexp(float(delays.max()))[1]
    delays = np.ldexp(delays, k)
    mean = float(np.sum(weights * delays) / np.sum(weights))
    var = float(np.sum(weights * (delays - mean) ** 2) / np.sum(weights))
    return math.ldexp(math.sqrt(max(var, 0.0)), -k)


def _channel_fir(channel: Sequence[Mpc] | CirSnapshot, spec: WaveformSpec) -> np.ndarray:
    if isinstance(channel, CirSnapshot):
        expected = 1.0 / spec.sample_rate_hz
        if abs(channel.sample_period_s - expected) > 1e-15:
            raise ValueError(
                "channel snapshot sample period does not match the waveform spec"
            )
        return np.asarray(channel.samples, dtype=np.complex128)
    # Sized once by the last bin; repeated bins sum in list order.
    bins = [int(round(mpc.delay_s * spec.sample_rate_hz)) for mpc in channel]
    taps = np.zeros(max(bins, default=0) + 1, dtype=np.complex128)
    for bin_idx, mpc in zip(bins, channel):
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
