"""Second-order statistics over (time, delay) blocks of CIR samples.

PDP correlation matrices, greedy stationary-interval segmentation, and
line-of-sight power tracking, which searches the whole block for peaks at
once; callers slice the antenna pair, seq.cir[:, tx, rx].  A correlation
matrix is (snapshots x snapshots) float64, so its size is budgeted by
bytes: check_correlation_size refuses an oversized request with
SizingError before anything is allocated.  The matrix is the one n^2 array
pdp_correlation_matrix allocates.  The product x @ x.T is exactly
symmetric by construction: numpy runs it as one syrk and copies the
triangle it computed into the other.  CorrelationMatrix checks that to the
last bit, so a product that ever stops being symmetric is refused, not
averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chantool.core import DB_FLOOR, check_fields
from chantool.gbsm import SizingError
from chantool.sounder import MpcExtractionPolicy, peak_candidates
from chantool.sounder import extract_mpcs  # noqa: F401  (perfbench/tracing.py wraps it here)


# Byte ceiling on the float64 (snapshots, snapshots) correlation matrix, and
# through it on the matrix text.  analyze correlates with the matrix beside
# one (snapshots, bins) float64 array of profiles, its peak.  It then cuts
# the matrix's upper triangle into the text's row blocks from the last row
# upward, shrinking the matrix after each cut, so the two together stay
# near one matrix.  The text formats each distinct value of a row once, and
# the tokens it keeps for later rows, 24 bytes each and at most n^2/4 of
# them (6n^2 bytes), wait beside the blocks not yet written, near one
# matrix at most.  So this one budget bounds both.  Both grow as n^2: 256
# MiB admits about 5800 snapshots (roughly 0.28 GiB of peak memory and
# 0.7 GB of text) and refuses a larger count up front.
MAX_CORR_BYTES = 1 << 28


# The one range of a stationarity threshold, checked by check_fields in
# stationary_intervals and by analyze before it reads the archive.
THRESHOLD_RULE = ("in (0, 1)", lambda v: 0.0 < v < 1.0, ("threshold",))


def check_correlation_size(n_snapshots: int) -> None:
    """Raise SizingError if a correlation over n_snapshots exceeds MAX_CORR_BYTES."""
    if 8 * n_snapshots**2 > MAX_CORR_BYTES:
        raise SizingError(
            f"correlation of {n_snapshots} snapshots would take "
            f"{8 * n_snapshots**2} bytes; limit {MAX_CORR_BYTES}"
        )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise Pearson correlations between snapshots' PDPs."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be a square matrix, got shape {values.shape}")
        # Compared in strips of n/32 rows, so no n^2 temporary is made.
        k = max(1, len(values) // 32)
        if not all(
            np.array_equal(values[a : a + k], values[:, a : a + k].T)
            for a in range(0, len(values), k)
        ):
            raise ValueError("correlation matrix must be exactly symmetric")
        if np.abs(np.diag(values) - 1.0).max() > 1e-12:
            raise ValueError("correlation matrix diagonal must be 1")
        if values.min() < -1.0 - 1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("correlations must lie in [-1, 1]")

    @property
    def snapshot_count(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class StationaryReport:
    """Disjoint, sorted snapshot intervals with high intra-interval
    correlation; (start, end) indices are inclusive."""

    intervals: tuple[tuple[int, int], ...]
    threshold: float


def pdp_correlation_matrix(pdp_db: np.ndarray, overwrite_pdp: bool = False) -> CorrelationMatrix:
    """Pearson correlation of linear-power PDPs, all pairs of rows.

    pdp_db is a (snapshots, delay bins) array in dB, as pdp_from_cir gives
    for a (time, delay) block of CIR samples.  With overwrite_pdp, a float64
    pdp_db is turned into the normalised profiles in place, and its values
    are garbage afterwards; so the matrix is the one large array allocated.
    Degenerate constant vectors correlate 1 with other constants and 0 with
    everything else.
    """
    if np.ndim(pdp_db) != 2:
        raise ValueError(f"PDPs must be 2-D (snapshots, bins), got {np.ndim(pdp_db)}-D")
    if len(pdp_db) < 2:
        raise ValueError("need at least 2 PDPs")
    check_correlation_size(len(pdp_db))
    # x is made linear, centred and scaled in place: the same values as new
    # arrays would hold (from_db's 10 ** (x / 10) among them), without more
    # (snapshots, bins) temporaries.
    x = np.asarray(pdp_db, dtype=float) if overwrite_pdp else np.array(pdp_db, dtype=float)
    np.divide(x, 10.0, out=x)
    np.power(10.0, x, out=x)
    # Constant rows are found before centring, which can leave rounding
    # residue in them (a row of 0.3s over 205 bins).
    constant = (x == x[:, :1]).all(axis=1)
    x -= x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(x**2, axis=1))
    x /= np.where(norms == 0.0, 1.0, norms)[:, None]
    corr = x @ x.T
    del x
    # constant vs constant pins to 1, constant vs varying to 0
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    corr[np.ix_(constant, constant)] = 1.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr)


def stationary_intervals(
    corr: CorrelationMatrix, threshold: float = 0.8
) -> StationaryReport:
    """Greedy anchored segmentation of the snapshot axis.

    A window grows from its anchor while corr(anchor, j) stays at or above
    the threshold; the first miss closes the window and re-anchors there.
    """
    check_fields({"threshold": threshold}, THRESHOLD_RULE)
    n = corr.snapshot_count
    intervals = []
    anchor = 0
    for j in range(1, n):
        if corr.values[anchor, j] < threshold:
            intervals.append((anchor, j - 1))
            anchor = j
    intervals.append((anchor, n - 1))
    return StationaryReport(intervals=tuple(intervals), threshold=threshold)


def los_power_track(
    samples: np.ndarray,
    t0_s: float,
    dt_s: float,
    policy: MpcExtractionPolicy | None = None,
    start: int = 0,
) -> list[tuple[float, float]]:
    """Power of the strongest path inside the earliest-arriving 3-bin
    window, per row of a (time, delay) block of CIR samples.

    One peak_candidates call gives every row's paths.  A window holds its
    first path f and f + 2 when that bin is a path (f + 1 never is), and a
    path's level is 20 log10|s|, bitwise Mpc.power_db.  Rows with no
    detectable paths report the dB floor.  Row t_idx lies at time
    t0_s + dt_s * (start + t_idx), so a block of rows from start gives the
    whole array's track for them: every step is row by row.
    """
    if len(samples) < 1:
        raise ValueError("samples are empty")
    if policy is None:
        policy = MpcExtractionPolicy()
    mask = peak_candidates(np.abs(samples) ** 2, policy)
    rows = np.arange(len(mask))
    first = mask.argmax(axis=1)
    third = np.minimum(first + 2, mask.shape[1] - 1)
    in_window = np.stack([mask[rows, first], mask[rows, third] & (third > first)], axis=1)
    amplitudes = np.stack([samples[rows, first], samples[rows, third]], axis=1)
    track = []
    for t_idx, (paths, amps) in enumerate(zip(in_window.tolist(), amplitudes.tolist()), start):
        levels = (20.0 * math.log10(abs(s)) for s, path in zip(amps, paths) if path)
        track.append((t0_s + dt_s * t_idx, max(levels, default=DB_FLOOR)))
    return track
