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
    PathLossSample,
    RankDeficientError,
    abg_eval,
    abg_fit,
    ci_eval,
    ci_fit,
    ci_preset,
    fi_preset,
    shadowed_sample,
)


def make_ci_samples(n, dists, f_ghz=28.0, noise=None):
    pl = 32.4 + 20.0 * np.log10(f_ghz) + 10.0 * n * np.log10(dists)
    if noise is not None:
        pl = pl + noise
    return [PathLossSample(float(d), f_ghz, float(p)) for d, p in zip(dists, pl)]


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
    with pytest.raises(ValueError):
        PathLossSample(0.5, 28.0, 100.0)
    with pytest.raises(ValueError):
        PathLossSample(10.0, -1.0, 100.0)
    with pytest.raises(ValueError):
        PathLossSample(10.0, 28.0, math.inf)
    with pytest.raises(ValueError):
        CiModel(2.0, -0.1)
    with pytest.raises(ValueError):
        AbgModel(2.0, 70.0, 0.0, -0.1)


def test_ci_fit_noiseless_exact():
    dists = np.array([10.0, 25.0, 60.0, 150.0, 400.0])
    fit = ci_fit(make_ci_samples(2.5, dists))
    assert fit.n == pytest.approx(2.5, abs=1e-9)
    assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)


def test_ci_fit_two_point_interpolation():
    samples = make_ci_samples(3.1, np.array([10.0, 100.0]))
    fit = ci_fit(samples)
    assert fit.n == pytest.approx(3.1, abs=1e-9)
    for s in samples:
        assert ci_eval(fit, s.distance_m, s.freq_ghz) == pytest.approx(s.pl_db, abs=1e-9)


def test_ci_fit_rank_errors():
    with pytest.raises(ValueError):
        ci_fit(make_ci_samples(2.0, np.array([50.0])))
    with pytest.raises(RankDeficientError, match="distances"):
        ci_fit(make_ci_samples(2.0, np.array([50.0, 50.0, 50.0])))


def test_ci_fit_round_trip_property():
    rng = np.random.default_rng(88)
    for _ in range(200):
        n = float(rng.uniform(1.5, 4.0))
        f = float(rng.uniform(6.0, 100.0))
        count = int(rng.integers(2, 12))
        dists = 10.0 ** rng.uniform(0.0, 3.0, count)
        dists[0] = 10.0
        dists[1] = 500.0  # two guaranteed-distinct anchors
        fit = ci_fit(make_ci_samples(n, dists, f))
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
        fit = ci_fit(samples)
        big_d = 10.0 * np.log10(dists)
        resid = np.array(
            [s.pl_db - ci_eval(fit, s.distance_m, s.freq_ghz) for s in samples]
        )
        assert abs(float(np.sum(resid * big_d))) < 1e-6


def test_abg_fit_noiseless_fi_exact():
    rng = np.random.default_rng(5)
    dists = 10.0 ** rng.uniform(1.0, 3.0, 50)
    pl = 67.31 + 10.0 * 2.374 * np.log10(dists)
    samples = [PathLossSample(float(d), 28.0, float(p)) for d, p in zip(dists, pl)]
    fit = abg_fit(samples, fix_gamma=0.0)
    assert fit.alpha == pytest.approx(2.374, abs=1e-9)
    assert fit.beta_db == pytest.approx(67.31, abs=1e-8)
    assert fit.gamma == 0.0
    assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)


def test_abg_fit_noiseless_two_frequency_exact():
    rng = np.random.default_rng(6)
    dists = 10.0 ** rng.uniform(1.0, 3.0, 60)
    freqs = np.where(rng.random(60) < 0.5, 28.0, 39.0)
    pl = 10.0 * 2.0 * np.log10(dists) + 70.0 + 10.0 * 2.0 * np.log10(freqs)
    samples = [
        PathLossSample(float(d), float(f), float(p))
        for d, f, p in zip(dists, freqs, pl)
    ]
    fit = abg_fit(samples)
    assert fit.alpha == pytest.approx(2.0, abs=1e-9)
    assert fit.beta_db == pytest.approx(70.0, abs=1e-7)
    assert fit.gamma == pytest.approx(2.0, abs=1e-9)
    # round trip reproduces every sample
    for s in samples:
        assert abg_eval(fit, s.distance_m, s.freq_ghz) == pytest.approx(s.pl_db, abs=1e-6)


def test_abg_fit_single_frequency_rank_error():
    dists = np.array([10.0, 30.0, 100.0, 300.0])
    pl = 70.0 + 25.0 * np.log10(dists)
    samples = [PathLossSample(float(d), 28.0, float(p)) for d, p in zip(dists, pl)]
    with pytest.raises(RankDeficientError, match="frequency column.*fix_gamma"):
        abg_fit(samples)
    fit = abg_fit(samples, fix_gamma=0.0)
    assert fit.alpha == pytest.approx(2.5, abs=1e-9)


def test_abg_fit_distance_rank_error():
    samples = [PathLossSample(50.0, f, 100.0) for f in (28.0, 32.0, 39.0)]
    with pytest.raises(RankDeficientError, match="distance column"):
        abg_fit(samples)


def test_abg_fit_collinear_columns_error():
    # frequency numerically proportional to distance: log columns collinear
    samples = [
        PathLossSample(d, d, 100.0 + 0.1 * i) for i, d in enumerate((10.0, 100.0, 1000.0))
    ]
    with pytest.raises(RankDeficientError, match="collinear"):
        abg_fit(samples)


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
    fit = ci_fit(make_ci_samples(n_true, d, 28.0, noise))
    assert abs(fit.n - n_true) <= 0.05
    assert abs(fit.sigma_db - sig_true) <= 0.3


def test_fit_recovery_fi_monte_carlo():
    s = derive_substream(101, "fi-recovery", 0)
    a_true, b_true, sig_true = 2.374, 67.31, 6.57
    d = 10.0 ** s.uniform(1.0, math.log10(800.0), 10000)
    pl = b_true + 10.0 * a_true * np.log10(d) + s.normal(0.0, sig_true, 10000)
    samples = [PathLossSample(float(di), 28.0, float(p)) for di, p in zip(d, pl)]
    fit = abg_fit(samples, fix_gamma=0.0)
    assert abs(fit.alpha - a_true) <= 0.05
    assert abs(fit.beta_db - b_true) <= 0.75
    assert abs(fit.sigma_db - sig_true) <= 0.3
