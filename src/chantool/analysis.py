"""Second-order statistics over (time, delay) blocks of CIR samples.

PDP correlation matrices, greedy stationary-interval segmentation, the
cross-polarization power ratio, and line-of-sight power tracking, which
searches the whole block for peaks at once; callers slice the antenna
pair, seq.cir[:, tx, rx].  A correlation matrix is (snapshots x snapshots)
float64, so its size is budgeted by bytes: check_correlation_size refuses
an oversized request with SizingError before anything is allocated.  The
matrix is the one n^2 array pdp_correlation_matrix allocates: the product
x @ x.T is symmetrised in place, one pair of tiles at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from chantool.archive import BLOCK_BYTES
from chantool.core import DB_FLOOR, CirSnapshot, Mpc, from_db
from chantool.gbsm import SizingError
from chantool.sounder import MpcExtractionPolicy, extract_mpcs, peak_candidates, received_power


# Byte ceiling on the float64 (snapshots, snapshots) correlation matrix.
# pdp_correlation_matrix builds it in place, so it holds one such matrix plus
# its (snapshots, bins) inputs.  analyze then formats each distinct value of a
# row once, from the upper triangle, and the tokens it keeps for later rows,
# 24 bytes each and at most n^2/4 of them, wait beside the matrix at up to
# 0.75 of its size, so the text phase alone sets the peak.  Both grow as n^2:
# 256 MiB admits about 5800 snapshots (roughly 0.45 GiB of peak memory and
# 0.7 GB of text) and refuses a larger count up front.
MAX_CORR_BYTES = 1 << 28

# Rows and columns of the square tiles that symmetrise_in_place averages.
SYMMETRISE_TILE = 256


def check_correlation_size(n_snapshots: int) -> None:
    """Raise SizingError if a correlation over n_snapshots exceeds MAX_CORR_BYTES."""
    if 8 * n_snapshots**2 > MAX_CORR_BYTES:
        raise SizingError(
            f"correlation of {n_snapshots} snapshots would take "
            f"{8 * n_snapshots**2} bytes; limit {MAX_CORR_BYTES}"
        )


def symmetrise_in_place(m: np.ndarray) -> None:
    """Overwrite the square float64 matrix m with (m + m.T) / 2, bit for bit.

    Each pair of tiles (a, b >= a) is summed into one tile-sized temporary,
    halved, and written back to both, so no second matrix is allocated.  Each
    cell is the sum of the same two operands as in (m + m.T) / 2, so the
    result does not depend on whether the BLAS left m symmetric.
    """
    n = len(m)
    for a in range(0, n, SYMMETRISE_TILE):
        for b in range(a, n, SYMMETRISE_TILE):
            up = m[a : a + SYMMETRISE_TILE, b : b + SYMMETRISE_TILE]
            lo = m[b : b + SYMMETRISE_TILE, a : a + SYMMETRISE_TILE]
            s = up + lo.T
            s /= 2.0
            up[...] = s
            lo[...] = s.T


def require_exact_symmetry(values: np.ndarray) -> None:
    """Raise ValueError unless the square matrix equals its transpose bit for
    bit; the comparison runs in row blocks, which bound its temporaries."""
    step = max(1, BLOCK_BYTES // (8 * max(len(values), 1)))
    for i in range(0, len(values), step):
        if not np.array_equal(values[i : i + step], values[:, i : i + step].T):
            raise ValueError("correlation matrix must be exactly symmetric")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise Pearson correlations between snapshots' PDPs."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be a square matrix, got shape {values.shape}")
        require_exact_symmetry(values)
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


def pdp_correlation_matrix(pdp_db: np.ndarray) -> CorrelationMatrix:
    """Pearson correlation of linear-power PDPs, all pairs of rows.

    pdp_db is a (snapshots, delay bins) array in dB, as pdp_from_cir gives
    for a (time, delay) block of CIR samples.  Degenerate constant vectors
    correlate 1 with other constants and 0 with everything else.
    """
    if np.ndim(pdp_db) != 2:
        raise ValueError(f"PDPs must be 2-D (snapshots, bins), got {np.ndim(pdp_db)}-D")
    if len(pdp_db) < 2:
        raise ValueError("need at least 2 PDPs")
    check_correlation_size(len(pdp_db))
    # x is centred and scaled in place: the same values as new arrays would
    # hold, without two more (snapshots, bins) temporaries.
    x = from_db(pdp_db)
    x -= x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(x**2, axis=1))
    constant = norms == 0.0
    x /= np.where(constant, 1.0, norms)[:, None]
    corr = x @ x.T
    del x
    # constant vs constant pins to 1, constant vs varying to 0
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    corr[np.ix_(constant, constant)] = 1.0
    symmetrise_in_place(corr)
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
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    n = corr.snapshot_count
    intervals = []
    anchor = 0
    for j in range(1, n):
        if corr.values[anchor, j] < threshold:
            intervals.append((anchor, j - 1))
            anchor = j
    intervals.append((anchor, n - 1))
    return StationaryReport(intervals=tuple(intervals), threshold=threshold)


def xpr_db(co_pol_mpcs: Sequence[Mpc], cross_pol_mpcs: Sequence[Mpc]) -> float:
    """Cross-polarization ratio: co-pol minus cross-pol received power, dB."""
    if not co_pol_mpcs or not cross_pol_mpcs:
        raise ValueError("no paths")
    return received_power(co_pol_mpcs) - received_power(cross_pol_mpcs)


def los_power_track(
    samples: np.ndarray,
    t0_s: float,
    dt_s: float,
    sample_period_s: float,
    policy: MpcExtractionPolicy | None = None,
) -> list[tuple[float, float]]:
    """Power of the strongest MPC inside the earliest-arriving 3-bin
    window, per row of a (time, delay) block of CIR samples.

    One peak_candidates call covers every row; only a window's at most two
    candidates, its first bin f and f + 2, become Mpcs.  A row with more
    than max_paths candidates goes through extract_mpcs, whose trim may drop
    f.  Rows with no detectable paths report the dB floor.  Row t_idx lies
    at time t0_s + dt_s * t_idx.
    """
    if len(samples) < 1:
        raise ValueError("samples are empty")
    if policy is None:
        policy = MpcExtractionPolicy()
    period = sample_period_s
    mask = peak_candidates(np.abs(samples) ** 2, policy)
    first = mask.argmax(axis=1)
    third = np.minimum(first + 2, mask.shape[1] - 1)
    pairs = mask[np.arange(len(mask)), third] & (third > first)
    columns = first.tolist(), pairs.tolist(), mask.sum(axis=1).tolist()
    track = []
    for t_idx, (f, pair, count) in enumerate(zip(*columns)):
        if count > policy.max_paths:
            mpcs = extract_mpcs(CirSnapshot(period, samples[t_idx]), policy)
        else:
            bins = (f, f + 2)[: (count > 0) + pair]
            mpcs = [Mpc(b * period, complex(samples[t_idx, b])) for b in bins]
        first_bin = round(mpcs[0].delay_s / period) if mpcs else 0
        window = (m.power_db for m in mpcs if round(m.delay_s / period) <= first_bin + 2)
        track.append((t0_s + dt_s * t_idx, max(window, default=DB_FLOOR)))
    return track
