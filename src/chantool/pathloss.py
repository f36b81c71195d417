"""Large-scale path loss models: close-in (CI) and alpha-beta-gamma (ABG).

The CI model anchors on 1 m free space and fits a single exponent; the ABG
model is a three-parameter log-linear fit, and its gamma=0 restriction is
the floating-intercept (FI) model.  Fits are unweighted ordinary least
squares with RMS-residual shadowing sigma.  Distances are meters,
frequencies GHz, losses dB throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Free-space loss at the 1 m CI reference, dB, with frequency in GHz.
FSPL_1M_DB = 32.4


class RankDeficientError(ValueError):
    """The samples cannot determine every parameter of the requested fit."""


@dataclass(frozen=True)
class PathLossSample:
    """One measured (or synthesized) path loss point."""

    distance_m: float
    freq_ghz: float
    pl_db: float

    def __post_init__(self) -> None:
        if not self.distance_m >= 1.0:
            raise ValueError(f"distance_m must be >= 1 m, got {self.distance_m}")
        if not self.freq_ghz > 0.0:
            raise ValueError(f"freq_ghz must be positive, got {self.freq_ghz}")
        if not math.isfinite(self.pl_db):
            raise ValueError("pl_db must be finite")


@dataclass(frozen=True)
class CiModel:
    """Close-in path loss: 32.4 + 20 log10(f_GHz) + 10 n log10(d_m)."""

    n: float
    sigma_db: float

    def __post_init__(self) -> None:
        if self.sigma_db < 0.0:
            raise ValueError("sigma_db must be non-negative")


@dataclass(frozen=True)
class AbgModel:
    """10 alpha log10(d_m) + beta_db + 10 gamma log10(f_GHz); gamma=0 is FI."""

    alpha: float
    beta_db: float
    gamma: float
    sigma_db: float

    def __post_init__(self) -> None:
        if self.sigma_db < 0.0:
            raise ValueError("sigma_db must be non-negative")


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
    try:
        return CI_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown CI preset {name!r}; available: {sorted(CI_PRESETS)}"
        ) from None


def fi_preset(name: str) -> AbgModel:
    try:
        return FI_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown FI preset {name!r}; available: {sorted(FI_PRESETS)}"
        ) from None


def _check_distance(d_m: float) -> None:
    if not d_m >= 1.0:
        raise ValueError(f"distance {d_m} m is below the 1 m model reference")


def ci_eval(model: CiModel, d_m: float, f_ghz: float) -> float:
    """Deterministic CI path loss in dB."""
    _check_distance(d_m)
    if not f_ghz > 0.0:
        raise ValueError("frequency must be positive")
    return FSPL_1M_DB + 20.0 * math.log10(f_ghz) + 10.0 * model.n * math.log10(d_m)


def abg_eval(model: AbgModel, d_m: float, f_ghz: float) -> float:
    """Deterministic ABG (or FI when gamma=0) path loss in dB."""
    _check_distance(d_m)
    if not f_ghz > 0.0:
        raise ValueError("frequency must be positive")
    return (
        10.0 * model.alpha * math.log10(d_m)
        + model.beta_db
        + 10.0 * model.gamma * math.log10(f_ghz)
    )


def ci_fit(samples: list[PathLossSample]) -> CiModel:
    """Least-squares CI exponent with RMS-residual sigma.

    Closed form: n = sum(A_i D_i) / sum(D_i^2) with A the excess over the
    1 m free-space anchor and D = 10 log10(d).
    """
    if len(samples) < 2:
        raise ValueError("ci_fit needs at least 2 samples")
    d = np.array([s.distance_m for s in samples])
    if np.all(d == d[0]):
        raise RankDeficientError("rank-deficient fit: all sample distances are equal")
    f = np.array([s.freq_ghz for s in samples])
    pl = np.array([s.pl_db for s in samples])
    a = pl - FSPL_1M_DB - 20.0 * np.log10(f)
    big_d = 10.0 * np.log10(d)
    n = float(np.sum(a * big_d) / np.sum(big_d * big_d))
    resid = a - n * big_d
    sigma = float(np.sqrt(np.mean(resid * resid)))
    return CiModel(n=n, sigma_db=sigma)


def abg_fit(samples: list[PathLossSample], fix_gamma: float | None = None) -> AbgModel:
    """OLS fit of the ABG model; pass fix_gamma=0 for the FI restriction.

    The design columns are 10 log10(d), a constant, and (unless fixed)
    10 log10(f).  Rank deficiency reports which column is degenerate;
    single-frequency data must fix gamma.
    """
    needed = 2 if fix_gamma is not None else 3
    if len(samples) < needed:
        raise ValueError(f"abg_fit needs at least {needed} samples")
    d = np.array([s.distance_m for s in samples])
    f = np.array([s.freq_ghz for s in samples])
    pl = np.array([s.pl_db for s in samples])
    col_d = 10.0 * np.log10(d)
    col_f = 10.0 * np.log10(f)

    if np.all(d == d[0]):
        raise RankDeficientError("rank-deficient fit: distance column is constant")
    if fix_gamma is None and np.all(f == f[0]):
        raise RankDeficientError(
            "rank-deficient fit: frequency column is constant "
            "(single-frequency data must use fix_gamma=0)"
        )

    if fix_gamma is not None:
        target = pl - fix_gamma * col_f  # removes 10*gamma*log10(f)
        design = np.column_stack([col_d, np.ones_like(col_d)])
    else:
        target = pl
        design = np.column_stack([col_d, np.ones_like(col_d), col_f])

    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise RankDeficientError("rank-deficient fit: design columns are collinear")
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    sigma = float(np.sqrt(np.mean(resid * resid)))
    if fix_gamma is not None:
        return AbgModel(alpha=float(coef[0]), beta_db=float(coef[1]),
                        gamma=float(fix_gamma), sigma_db=sigma)
    return AbgModel(alpha=float(coef[0]), beta_db=float(coef[1]),
                    gamma=float(coef[2]), sigma_db=sigma)


def shadowed_sample(model, d_m: float, f_ghz: float, rng: np.random.Generator) -> float:
    """One path loss draw: deterministic model value plus N(0, sigma) shadowing."""
    if isinstance(model, CiModel):
        base = ci_eval(model, d_m, f_ghz)
    elif isinstance(model, AbgModel):
        base = abg_eval(model, d_m, f_ghz)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return base + float(rng.normal(0.0, model.sigma_db))
