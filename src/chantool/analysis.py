"""Second-order statistics over CIR sequences.

PDP correlation matrices, greedy stationary-interval segmentation, the
cross-polarization power ratio, and line-of-sight power tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from chantool.archive import BLOCK_BYTES
from chantool.core import DB_FLOOR, Mpc, from_db
from chantool.gbsm import CirSequence
from chantool.sounder import MpcExtractionPolicy, extract_mpcs, received_power


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise Pearson correlations between snapshots' PDPs."""

    values: np.ndarray
    snapshot_count: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        n = self.snapshot_count
        if values.shape != (n, n):
            raise ValueError(f"values must be {n}x{n}, got {values.shape}")
        step = max(1, BLOCK_BYTES // (8 * max(n, 1)))  # row blocks bound the temporaries
        for i in range(0, n, step):
            rows, cols = values[i : i + step], values[:, i : i + step].T
            if not np.allclose(rows, cols, atol=1e-12, rtol=0.0):
                raise ValueError("correlation matrix must be symmetric")
        if np.abs(np.diag(values) - 1.0).max() > 1e-12:
            raise ValueError("correlation matrix diagonal must be 1")
        if values.min() < -1.0 - 1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("correlations must lie in [-1, 1]")


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
    x = from_db(pdp_db)
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(centered**2, axis=1))
    constant = norms == 0.0
    safe = np.where(constant, 1.0, norms)
    unit = centered / safe[:, None]
    corr = unit @ unit.T
    # constant vs constant pins to 1, constant vs varying to 0
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    corr[np.ix_(constant, constant)] = 1.0
    corr = corr + corr.T  # rebinding frees the unsymmetrised matrix
    corr /= 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(values=corr, snapshot_count=len(pdp_db))


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
    seq: CirSequence,
    tx_idx: int = 0,
    rx_idx: int = 0,
    policy: MpcExtractionPolicy | None = None,
) -> list[tuple[float, float]]:
    """Power of the strongest MPC inside the earliest-arriving 3-bin
    window, per snapshot in time order.

    Snapshots with no detectable paths report the dB floor.
    """
    if seq.n_time < 1:
        raise ValueError("sequence is empty")
    track = []
    for t_idx in range(seq.n_time):
        snap = seq.snapshot(t_idx, tx_idx, rx_idx)
        mpcs = extract_mpcs(snap, policy)
        if not mpcs:
            track.append((snap.t_s, DB_FLOOR))
            continue
        first_bin = round(mpcs[0].delay_s / snap.sample_period_s)
        window = [
            m
            for m in mpcs
            if round(m.delay_s / snap.sample_period_s) <= first_bin + 2
        ]
        track.append((snap.t_s, max(m.power_db for m in window)))
    return track
