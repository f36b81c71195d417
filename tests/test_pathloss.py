"""CI/FI/ABG path loss evaluation, fitting, and shadowing draws."""

import math

import numpy as np
import pytest

from chantool.core import derive_substream
from chantool.pathloss import (
    CI_PRESETS,
    FI_PRESETS,
    AbgModel,
    CiModel,
    RankDeficientError,
    abg_eval,
    abg_fit,
    ci_eval,
    ci_fit,
    ci_preset,
    fi_preset,
    sample_columns,
    shadowed_sample,
)


def make_ci_samples(n, dists, f_ghz=28.0, noise=None):
    """(distance, frequency, loss) columns on the CI line of exponent n."""
    pl = 32.4 + 20.0 * np.log10(f_ghz) + 10.0 * n * np.log10(dists)
    if noise is not None:
        pl = pl + noise
    return dists, np.full(len(dists), f_ghz), pl


def frozen_sample_columns(n=2000):
    """n seeded (distance, frequency, loss) columns at 28, 32 and 39 GHz."""
    stream = derive_substream(12, "frozen-fit", 0)
    d = 10.0 ** stream.uniform(0.0, 2.5, n)
    f = stream.choice([28.0, 32.0, 39.0], n)
    return d, f, 32.4 + 20.0 * np.log10(f) + 26.37 * np.log10(d) + stream.normal(0.0, 5.47, n)


# float.hex of each fit of frozen_sample_columns(), recorded while every
# sample still became a per-sample object: (parameters, sigma_db)
FROZEN_FITS = {
    "ci": ({"n": "0x1.4e2b3f2999cf1p+1"}, "0x1.5be474e09aa3dp+2"),
    "fi": (
        {"alpha": "0x1.4d2f8b47447cfp+1", "beta_db": "0x1.f61b6b474254fp+5", "gamma": "0x0.0p+0"},
        "0x1.63c72863c1567p+2",
    ),
    "abg": (
        {"alpha": "0x1.4d8f60a4fdb10p+1", "beta_db": "0x1.0803a4184e60ap+5",
         "gamma": "0x1.f72590f083dddp+0"},
        "0x1.5be1836fc2eabp+2",
    ),
}


def fit_model(model, *columns):
    if model == "ci":
        return ci_fit(*columns)
    return abg_fit(*columns, fix_gamma=0.0 if model == "fi" else None)


def test_ci_eval_examples():
    assert ci_eval(CiModel(2.0, 0.0), 1.0, 28.0) == pytest.approx(61.34, abs=5e-3)
    assert ci_eval(ci_preset("paper-28"), 1000.0, 28.0) == pytest.approx(140.45, abs=5e-3)
    assert ci_eval(ci_preset("paper-39"), 1000.0, 39.0) == pytest.approx(143.3613, abs=5e-4)


def test_abg_eval_examples():
    fi = AbgModel(alpha=2.374, beta_db=67.31, gamma=0.0, sigma_db=6.57)
    assert abg_eval(fi, 100.0, 28.0) == pytest.approx(114.79, abs=1e-9)
    m = AbgModel(alpha=2.0, beta_db=70.0, gamma=2.0, sigma_db=0.0)
    assert abg_eval(m, 1.0, 28.0) == pytest.approx(70.0 + 20.0 * math.log10(28.0), abs=1e-12)
    # gamma=0 restriction coincides with the FI form for any distance
    for d in (1.0, 17.5, 300.0):
        assert abg_eval(fi, d, 99.0) == abg_eval(fi, d, 28.0)


def test_preset_integrity():
    assert CI_PRESETS["paper-28"] == CiModel(2.637, 5.47)
    assert CI_PRESETS["paper-32"] == CiModel(2.964, 6.07)
    assert CI_PRESETS["paper-39"] == CiModel(2.638, 9.72)
    assert FI_PRESETS["paper-28"] == AbgModel(2.374, 67.31, 0.0, 6.57)
    assert FI_PRESETS["paper-32"] == AbgModel(2.263, 76.36, 0.0, 5.67)
    assert FI_PRESETS["paper-39"] == AbgModel(2.294, 70.48, 0.0, 9.80)
    with pytest.raises(KeyError):
        ci_preset("paper-60")
    with pytest.raises(KeyError):
        fi_preset("nope")


def test_distance_reference_validation():
    with pytest.raises(ValueError):
        ci_eval(CiModel(2.0, 0.0), 0.5, 28.0)
    with pytest.raises(ValueError):
        abg_eval(AbgModel(2.0, 70.0, 0.0, 0.0), 0.99, 28.0)
    with pytest.raises(ValueError, match="distance_m"):
        sample_columns([0.5], [28.0], [100.0])
    with pytest.raises(ValueError, match="freq_ghz"):
        sample_columns([10.0], [-1.0], [100.0])
    with pytest.raises(ValueError, match="pl_db"):
        sample_columns([10.0], [28.0], [math.inf])
    with pytest.raises(ValueError):
        CiModel(2.0, -0.1)
    with pytest.raises(ValueError):
        AbgModel(2.0, 70.0, 0.0, -0.1)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["distance", "frequency"])
def test_evals_refuse_non_finite_points(where, value):
    # Unchecked, an infinite distance would give an infinite CI loss, and an
    # infinite frequency a NaN FI loss (10 * gamma * log10(f) with gamma = 0).
    d_m, f_ghz = (value, 28.0) if where == "distance" else (100.0, value)
    ci, fi = ci_preset("paper-28"), fi_preset("paper-28")
    for call in (
        lambda: ci_eval(ci, d_m, f_ghz),
        lambda: abg_eval(fi, d_m, f_ghz),
        lambda: shadowed_sample(ci, d_m, f_ghz, derive_substream(1, "shadow", 0)),
        lambda: shadowed_sample(fi, d_m, f_ghz, derive_substream(1, "shadow", 0)),
    ):
        with pytest.raises(ValueError, match=f"{where} must be finite"):
            call()


@pytest.mark.parametrize("model", sorted(FROZEN_FITS))
def test_frozen_fits_on_2000_samples(model):
    fit = fit_model(model, *frozen_sample_columns())
    params, sigma = FROZEN_FITS[model]
    assert {name: float.hex(getattr(fit, name)) for name in params} == params
    assert float.hex(fit.sigma_db) == sigma


@pytest.mark.parametrize("model", sorted(FROZEN_FITS))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("column", ["distance_m", "freq_ghz", "pl_db"])
def test_fits_refuse_non_finite_samples(model, column, value):
    columns = dict(zip(["distance_m", "freq_ghz", "pl_db"], frozen_sample_columns(50)))
    columns[column][17] = value
    with pytest.raises(ValueError, match=f"^{column} must be .*finite"):
        fit_model(model, *columns.values())


@pytest.mark.parametrize(
    "column, value", [("distance_m", 0.5), ("distance_m", 0.0), ("freq_ghz", 0.0), ("freq_ghz", -1.0)]
)
def test_fits_refuse_out_of_range_samples(column, value):
    columns = dict(zip(["distance_m", "freq_ghz", "pl_db"], frozen_sample_columns(50)))
    columns[column][3] = value
    for model in FROZEN_FITS:
        with pytest.raises(ValueError, match=f"^{column} must be .* got {value}$"):
            fit_model(model, *columns.values())


def test_sample_columns_shapes():
    d, f, pl = sample_columns([10.0, 20.0], (28, 39), np.array([90.0, 100.0], dtype=np.float32))
    assert all(c.dtype == np.float64 and c.shape == (2,) for c in (d, f, pl))
    with pytest.raises(ValueError, match="equal length"):
        sample_columns([10.0, 20.0], [28.0], [90.0, 100.0])
    with pytest.raises(ValueError, match="1-D"):
        sample_columns([[10.0, 20.0]], [[28.0, 28.0]], [[90.0, 100.0]])
    with pytest.raises(ValueError, match="1-D"):
        sample_columns(10.0, 28.0, 90.0)


def test_ci_fit_noiseless_exact():
    dists = np.array([10.0, 25.0, 60.0, 150.0, 400.0])
    fit = ci_fit(*make_ci_samples(2.5, dists))
    assert fit.n == pytest.approx(2.5, abs=1e-9)
    assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)


def test_ci_fit_two_point_interpolation():
    samples = make_ci_samples(3.1, np.array([10.0, 100.0]))
    fit = ci_fit(*samples)
    assert fit.n == pytest.approx(3.1, abs=1e-9)
    for d, f, pl in zip(*samples):
        assert ci_eval(fit, d, f) == pytest.approx(pl, abs=1e-9)


def test_ci_fit_rank_errors():
    with pytest.raises(ValueError):
        ci_fit(*make_ci_samples(2.0, np.array([50.0])))
    with pytest.raises(RankDeficientError, match="distances"):
        ci_fit(*make_ci_samples(2.0, np.array([50.0, 50.0, 50.0])))


def test_ci_fit_round_trip_property():
    rng = np.random.default_rng(88)
    for _ in range(200):
        n = float(rng.uniform(1.5, 4.0))
        f = float(rng.uniform(6.0, 100.0))
        count = int(rng.integers(2, 12))
        dists = 10.0 ** rng.uniform(0.0, 3.0, count)
        dists[0] = 10.0
        dists[1] = 500.0  # two guaranteed-distinct anchors
        fit = ci_fit(*make_ci_samples(n, dists, f))
        assert fit.n == pytest.approx(n, abs=1e-9)
        for d in dists:
            got = ci_eval(fit, float(d), f)
            want = 32.4 + 20.0 * math.log10(f) + 10.0 * n * math.log10(d)
            assert got == pytest.approx(want, abs=1e-6)


def test_ci_fit_residual_orthogonality_property():
    rng = np.random.default_rng(89)
    for _ in range(200):
        count = int(rng.integers(3, 40))
        dists = 10.0 ** rng.uniform(0.5, 3.0, count)
        noise = rng.normal(0.0, 6.0, count)
        samples = make_ci_samples(2.7, dists, 28.0, noise)
        fit = ci_fit(*samples)
        big_d = 10.0 * np.log10(dists)
        resid = np.array([pl - ci_eval(fit, d, f) for d, f, pl in zip(*samples)])
        assert abs(float(np.sum(resid * big_d))) < 1e-6


def test_abg_fit_noiseless_fi_exact():
    rng = np.random.default_rng(5)
    dists = 10.0 ** rng.uniform(1.0, 3.0, 50)
    pl = 67.31 + 10.0 * 2.374 * np.log10(dists)
    fit = abg_fit(dists, np.full(50, 28.0), pl, fix_gamma=0.0)
    assert fit.alpha == pytest.approx(2.374, abs=1e-9)
    assert fit.beta_db == pytest.approx(67.31, abs=1e-8)
    assert fit.gamma == 0.0
    assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)


def test_abg_fit_noiseless_two_frequency_exact():
    rng = np.random.default_rng(6)
    dists = 10.0 ** rng.uniform(1.0, 3.0, 60)
    freqs = np.where(rng.random(60) < 0.5, 28.0, 39.0)
    pl = 10.0 * 2.0 * np.log10(dists) + 70.0 + 10.0 * 2.0 * np.log10(freqs)
    fit = abg_fit(dists, freqs, pl)
    assert fit.alpha == pytest.approx(2.0, abs=1e-9)
    assert fit.beta_db == pytest.approx(70.0, abs=1e-7)
    assert fit.gamma == pytest.approx(2.0, abs=1e-9)
    # round trip reproduces every sample
    for d, f, p in zip(dists, freqs, pl):
        assert abg_eval(fit, d, f) == pytest.approx(p, abs=1e-6)


def test_abg_fit_single_frequency_rank_error():
    dists = np.array([10.0, 30.0, 100.0, 300.0])
    pl = 70.0 + 25.0 * np.log10(dists)
    samples = dists, np.full(4, 28.0), pl
    with pytest.raises(RankDeficientError, match="frequency column.*fix_gamma"):
        abg_fit(*samples)
    fit = abg_fit(*samples, fix_gamma=0.0)
    assert fit.alpha == pytest.approx(2.5, abs=1e-9)


def test_abg_fit_distance_rank_error():
    with pytest.raises(RankDeficientError, match="distance column"):
        abg_fit([50.0] * 3, [28.0, 32.0, 39.0], [100.0] * 3)


def test_abg_fit_collinear_columns_error():
    # frequency numerically proportional to distance: log columns collinear
    d = [10.0, 100.0, 1000.0]
    with pytest.raises(RankDeficientError, match="collinear"):
        abg_fit(d, d, [100.0, 100.1, 100.2])


def test_shadowed_sample_zero_sigma():
    m = CiModel(2.637, 0.0)
    s = derive_substream(1, "shadow", 0)
    assert shadowed_sample(m, 100.0, 28.0, s) == ci_eval(m, 100.0, 28.0)


def test_shadowed_sample_deterministic():
    m = CiModel(2.637, 5.47)
    a = shadowed_sample(m, 100.0, 28.0, derive_substream(7, "shadow", 3))
    b = shadowed_sample(m, 100.0, 28.0, derive_substream(7, "shadow", 3))
    assert a == b


def test_shadowed_sample_frozen_draws():
    # exact draws for three seeds, recorded while substreams were still
    # wrapped in a record type around the generator
    ci, abg = CiModel(2.637, 5.47), AbgModel(2.374, 67.31, 0.0, 6.57)
    draws = [
        (
            shadowed_sample(ci, 100.0, 28.0, derive_substream(seed, "shadow", 0)),
            shadowed_sample(abg, 100.0, 28.0, derive_substream(seed, "shadow", 1)),
        )
        for seed in (1, 2, 3)
    ]
    assert draws == [
        (113.40386295233117, 125.93293184846569),
        (122.18585288397976, 110.28102651793358),
        (116.94194446784128, 110.3981635298182),
    ]


def test_shadowed_sample_statistics():
    m = CiModel(2.637, 5.47)
    s = derive_substream(11, "shadow-stats", 0)
    base = ci_eval(m, 100.0, 28.0)
    draws = base + s.normal(0.0, m.sigma_db, 100000)
    # the sampler draws from the same generator family; verify via one draw API
    one = shadowed_sample(m, 100.0, 28.0, derive_substream(11, "one", 0))
    assert math.isfinite(one)
    assert np.std(draws) == pytest.approx(5.47, rel=0.02)
    assert np.mean(draws) == pytest.approx(base, abs=0.1)


def test_shadowed_sample_rejects_unknown_model():
    with pytest.raises(TypeError):
        shadowed_sample(object(), 100.0, 28.0, derive_substream(1, "x", 0))


def test_fit_recovery_ci_monte_carlo():
    s = derive_substream(101, "ci-recovery", 0)
    n_true, sig_true = 2.637, 5.47
    d = 10.0 ** s.uniform(1.0, math.log10(800.0), 10000)
    noise = s.normal(0.0, sig_true, 10000)
    fit = ci_fit(*make_ci_samples(n_true, d, 28.0, noise))
    assert abs(fit.n - n_true) <= 0.05
    assert abs(fit.sigma_db - sig_true) <= 0.3


def test_fit_recovery_fi_monte_carlo():
    s = derive_substream(101, "fi-recovery", 0)
    a_true, b_true, sig_true = 2.374, 67.31, 6.57
    d = 10.0 ** s.uniform(1.0, math.log10(800.0), 10000)
    pl = b_true + 10.0 * a_true * np.log10(d) + s.normal(0.0, sig_true, 10000)
    fit = abg_fit(d, np.full(10000, 28.0), pl, fix_gamma=0.0)
    assert abs(fit.alpha - a_true) <= 0.05
    assert abs(fit.beta_db - b_true) <= 0.75
    assert abs(fit.sigma_db - sig_true) <= 0.3
