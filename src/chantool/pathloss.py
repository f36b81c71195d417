"""Large-scale path loss models: close-in (CI) and alpha-beta-gamma (ABG).

The CI model anchors on 1 m free space and fits a single exponent; the ABG
model is a three-parameter log-linear fit, and its gamma=0 restriction is
the floating-intercept (FI) model.  Fits are unweighted ordinary least
squares with RMS-residual shadowing sigma, over sample columns that
sample_columns checks as a whole.  Every field of a model is finite, so a
fit that overflows the float range is refused with FitOverflowError, not
returned.  A shadowed draw is the model's value plus
rng.normal(0.0, model.sigma_db).  Distances are meters, frequencies GHz,
losses dB throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chantool.core import check_fields

# Free-space loss at the 1 m CI reference, dB, with frequency in GHz.
FSPL_1M_DB = 32.4


class RankDeficientError(ValueError):
    """The samples cannot determine every parameter of the requested fit.
    reason says why; the message adds remedy, a change to the call, if any."""

    def __init__(self, reason: str, remedy: str | None = None) -> None:
        super().__init__(reason if remedy is None else f"{reason} ({remedy})")
        self.reason = reason


class FitOverflowError(ValueError):
    """A fit of finite samples gave a model field that is not finite: the
    losses overflow the float range.  The message is the model's refusal."""


# A model's sigma is an RMS residual, so never negative.
_SIGMA_RULE = ("non-negative", lambda v: v >= 0.0, ("sigma_db",))


@dataclass(frozen=True)
class CiModel:
    """Close-in path loss: 32.4 + 20 log10(f_GHz) + 10 n log10(d_m)."""

    n: float
    sigma_db: float

    def __post_init__(self) -> None:
        check_fields(self, _SIGMA_RULE)


@dataclass(frozen=True)
class AbgModel:
    """10 alpha log10(d_m) + beta_db + 10 gamma log10(f_GHz); gamma=0 is FI."""

    alpha: float
    beta_db: float
    gamma: float
    sigma_db: float

    def __post_init__(self) -> None:
        check_fields(self, _SIGMA_RULE)


# Named parameter rows from the 28/32/39 GHz validation measurement campaign.
CI_PRESETS = {
    "paper-28": CiModel(n=2.637, sigma_db=5.47),
    "paper-32": CiModel(n=2.964, sigma_db=6.07),
    "paper-39": CiModel(n=2.638, sigma_db=9.72),
}
FI_PRESETS = {
    "paper-28": AbgModel(alpha=2.374, beta_db=67.31, gamma=0.0, sigma_db=6.57),
    "paper-32": AbgModel(alpha=2.263, beta_db=76.36, gamma=0.0, sigma_db=5.67),
    "paper-39": AbgModel(alpha=2.294, beta_db=70.48, gamma=0.0, sigma_db=9.80),
}


def ci_preset(name: str) -> CiModel:
    if name not in CI_PRESETS:
        raise KeyError(f"unknown CI preset {name!r}; available: {sorted(CI_PRESETS)}")
    return CI_PRESETS[name]


def _check_point(d_m: float, f_ghz: float) -> None:
    if not 1.0 <= d_m < math.inf:
        raise ValueError(f"distance must be finite and >= the 1 m model reference, got {d_m}")
    if not 0.0 < f_ghz < math.inf:
        raise ValueError(f"frequency must be finite and positive, got {f_ghz}")


def ci_eval(model: CiModel, d_m: float, f_ghz: float) -> float:
    """Deterministic CI path loss in dB."""
    _check_point(d_m, f_ghz)
    return FSPL_1M_DB + 20.0 * math.log10(f_ghz) + 10.0 * model.n * math.log10(d_m)


def abg_eval(model: AbgModel, d_m: float, f_ghz: float) -> float:
    """Deterministic ABG (or FI when gamma=0) path loss in dB."""
    _check_point(d_m, f_ghz)
    return (
        10.0 * model.alpha * math.log10(d_m)
        + model.beta_db
        + 10.0 * model.gamma * math.log10(f_ghz)
    )


def sample_columns(distance_m, freq_ghz, pl_db) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The samples as three float64 columns, checked: 1-D and of equal
    length, every value finite, distances at least the 1 m reference and
    frequencies positive.  ValueError names the column and its first bad value.
    """
    d, f, pl = columns = tuple(np.asarray(c, dtype=float) for c in (distance_m, freq_ghz, pl_db))
    if any(c.ndim != 1 for c in columns) or not d.size == f.size == pl.size:
        shapes = ", ".join(str(c.shape) for c in columns)
        raise ValueError(f"sample columns must be 1-D and of equal length, got {shapes}")
    for name, column, in_range, rule in (
        ("distance_m", d, d >= 1.0, "finite and >= 1 m"),
        ("freq_ghz", f, f > 0.0, "finite and positive"),
        ("pl_db", pl, True, "finite"),
    ):
        bad = ~(np.isfinite(column) & in_range)
        if bad.any():
            raise ValueError(f"{name} must be {rule}, got {float(column[bad.argmax()])}")
    return columns


def ci_fit(distance_m, freq_ghz, pl_db) -> CiModel:
    """Least-squares CI exponent with RMS-residual sigma.

    Closed form: n = sum(A_i D_i) / sum(D_i^2) with A the excess over the
    1 m free-space anchor and D = 10 log10(d).
    """
    d, f, pl = sample_columns(distance_m, freq_ghz, pl_db)
    if len(d) < 2:
        raise ValueError("ci_fit needs at least 2 samples")
    if np.all(d == d[0]):
        raise RankDeficientError("rank-deficient fit: all sample distances are equal")
    # Losses near the float range overflow to inf or NaN, which CiModel refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        a = pl - FSPL_1M_DB - 20.0 * np.log10(f)
        big_d = 10.0 * np.log10(d)
        n = float(np.sum(a * big_d) / np.sum(big_d * big_d))
        resid = a - n * big_d
        sigma = float(np.sqrt(np.mean(resid * resid)))
    return _fitted(CiModel, n=n, sigma_db=sigma)


def abg_fit(distance_m, freq_ghz, pl_db, fix_gamma: float | None = None) -> AbgModel:
    """OLS fit of the ABG model; pass fix_gamma=0 for the FI restriction.

    The design columns are 10 log10(d), a constant, and (unless fixed)
    10 log10(f).  Rank deficiency reports which column is degenerate;
    single-frequency data must fix gamma.
    """
    d, f, pl = sample_columns(distance_m, freq_ghz, pl_db)
    needed = 2 if fix_gamma is not None else 3
    if len(d) < needed:
        raise ValueError(f"abg_fit needs at least {needed} samples")
    col_d = 10.0 * np.log10(d)
    col_f = 10.0 * np.log10(f)

    if np.all(d == d[0]):
        raise RankDeficientError("rank-deficient fit: distance column is constant")
    if fix_gamma is None and np.all(f == f[0]):
        raise RankDeficientError(
            "rank-deficient fit: frequency column is constant",
            "single-frequency data must use fix_gamma=0",
        )

    target = pl if fix_gamma is None else pl - fix_gamma * col_f  # removes 10*gamma*log10(f)
    design = np.column_stack([col_d, np.ones_like(col_d), col_f][:needed])

    # Losses near the float range overflow to inf or NaN, which AbgModel refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        # The rank counts the singular values above eps * max(M, N) * s_max.
        coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < design.shape[1]:
            raise RankDeficientError("rank-deficient fit: design columns are collinear")
        resid = target - design @ coef
        sigma = float(np.sqrt(np.mean(resid * resid)))
    gamma = float(coef[2] if fix_gamma is None else fix_gamma)
    alpha, beta_db = float(coef[0]), float(coef[1])
    return _fitted(AbgModel, alpha=alpha, beta_db=beta_db, gamma=gamma, sigma_db=sigma)


def _fitted(model: type, **fields: float):
    # The samples are finite, so a field the model refuses overflowed.
    try:
        return model(**fields)
    except ValueError as err:
        raise FitOverflowError(str(err)) from None
