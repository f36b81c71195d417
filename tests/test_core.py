"""Core value types, dB helpers, and deterministic substreams."""

import math

import numpy as np
import pytest

from chantool.core import (
    BAND_28,
    BAND_32,
    BAND_39,
    DB_FLOOR,
    SPEED_OF_LIGHT,
    FrequencyBand,
    Mpc,
    Point3,
    derive_substream,
    from_db,
    pdp_from_cir,
    to_db,
)


def test_to_db_basics():
    assert to_db(1.0) == 0.0
    assert to_db(100.0) == pytest.approx(20.0)
    assert to_db(0.0) == DB_FLOOR
    assert from_db(to_db(0.25)) == pytest.approx(0.25, rel=1e-12)


def test_to_db_array_floor():
    out = to_db(np.array([1.0, 0.0, 0.01]))
    assert out[0] == 0.0
    assert out[1] == DB_FLOOR
    assert out[2] == pytest.approx(-20.0)


def test_point3_arithmetic():
    p = Point3(1.0, 2.0, 3.0)
    q = Point3(4.0, 6.0, 3.0)
    assert (q - p).norm() == pytest.approx(5.0)
    assert p.distance_to(q) == pytest.approx(5.0)
    assert (p + q).x == 5.0
    assert p.scale(2.0).z == 6.0
    assert p.dot(q) == pytest.approx(4.0 + 12.0 + 9.0)
    np.testing.assert_allclose(p.as_array(), [1.0, 2.0, 3.0])


def test_frequency_band_wavelength():
    band = FrequencyBand(28e9)
    assert band.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 28e9, rel=1e-15)
    assert band.wavenumber == pytest.approx(2.0 * math.pi / band.wavelength_m, rel=1e-15)


def test_frequency_band_presets():
    assert BAND_28.carrier_hz == 28e9
    assert BAND_32.carrier_hz == 32e9
    assert BAND_39.carrier_hz == 39e9
    assert FrequencyBand.preset(28.0) == BAND_28


def test_frequency_band_validation():
    with pytest.raises(ValueError):
        FrequencyBand(-1.0)


def test_mpc_power_consistency():
    m = Mpc(10e-9, 0.5 + 0.0j)
    assert m.power_db == pytest.approx(-20.0 * math.log10(2.0))
    with pytest.raises(ValueError):
        Mpc(delay_s=-1e-9, amplitude=1.0 + 0.0j)


def test_pdp_from_cir_examples():
    assert pdp_from_cir(np.array([1.0 + 0.0j]))[0] == 0.0
    assert pdp_from_cir(np.array([0.0 + 0.0j]))[0] == -300.0
    assert pdp_from_cir(np.array([0.1 + 0.0j]))[0] == pytest.approx(-20.0, abs=1e-12)


def test_pdp_shape_carries_over():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert len(pdp_from_cir(samples)) == 64
    block = rng.standard_normal((5, 2, 64)) + 1j * rng.standard_normal((5, 2, 64))
    assert pdp_from_cir(block).shape == (5, 2, 64)


@pytest.mark.parametrize("shape", [(3, 1), (300, 205), (6, 2, 3, 17)])
def test_pdp_block_rows_match_single_rows(shape):
    # the PDP of a block is, bit for bit, the PDPs of its rows
    rng = np.random.default_rng(11)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples[rng.random(shape) < 0.2] = 0.0
    block = pdp_from_cir(samples)
    for index in np.ndindex(shape[:-1]):
        assert block[index].tobytes() == pdp_from_cir(samples[index]).tobytes()


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_pdp_and_to_db_match_the_plain_formula_bitwise(dtype):
    # the in-place forms against 10*log10(|s|^2) with the floor, unfused
    rng = np.random.default_rng(17)
    samples = (rng.standard_normal((40, 64)) + 1j * rng.standard_normal((40, 64))).astype(dtype)
    samples[rng.random(samples.shape) < 0.3] = 0.0
    power = np.asarray(np.abs(samples) ** 2, dtype=float)
    expected = np.full(power.shape, DB_FLOOR)
    expected[power > 0.0] = 10.0 * np.log10(power[power > 0.0])
    assert pdp_from_cir(samples).tobytes() == expected.tobytes()
    assert to_db(power).tobytes() == expected.tobytes()
    assert to_db(power[3, 5]) == float(expected[3, 5])


def test_pdp_from_cir_holds_few_temporaries(traced_peak):
    # 400 x 256, 30% of the bins empty: measured 1.83x the result for both
    # (the positive values, the mask and the output); before the in-place
    # log10 and square, 3.53x for pdp_from_cir and 2.53x for to_db.
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((400, 256)) + 1j * rng.standard_normal((400, 256))
    samples[rng.random(samples.shape) < 0.3] = 0.0
    result = 8 * samples.size
    assert traced_peak(pdp_from_cir, samples) <= 2.5 * result
    power = np.abs(samples) ** 2
    assert traced_peak(to_db, power) <= 2.5 * result


def test_pdp_scale_covariance_property():
    # scaling the snapshot by g shifts every finite bin by exactly 20 log10 g
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        zero_mask = rng.random(n) < 0.2
        samples[zero_mask] = 0.0
        g = float(rng.uniform(0.01, 100.0))
        base = pdp_from_cir(samples)
        scaled = pdp_from_cir(g * samples)
        shift = 20.0 * math.log10(g)
        finite = base > -300.0
        np.testing.assert_allclose(scaled[finite], base[finite] + shift, atol=1e-9)
        assert np.all(scaled[~finite] == -300.0)


def test_substream_determinism():
    a = derive_substream(42, "cluster", 0)
    b = derive_substream(42, "cluster", 0)
    assert list(a.integers(0, 2**63, 4)) == list(b.integers(0, 2**63, 4))


def test_substream_separation():
    base = derive_substream(42, "cluster", 0)
    by_index = derive_substream(42, "cluster", 1)
    by_label = derive_substream(42, "ray", 0)
    draws = {
        "base": list(base.integers(0, 2**63, 4)),
        "index": list(by_index.integers(0, 2**63, 4)),
        "label": list(by_label.integers(0, 2**63, 4)),
    }
    assert draws["base"] != draws["index"]
    assert draws["base"] != draws["label"]
    assert draws["index"] != draws["label"]


def test_substream_platform_anchor():
    # counter-based generator keyed by a hash digest: the exact draws are
    # part of the reproducibility contract, frozen here
    s = derive_substream(42, "cluster", 0)
    assert list(s.integers(0, 2**63, 4)) == [
        5899859539962644370,
        7948271105227740896,
        3820779919510307445,
        1072776850060455462,
    ]


def test_substream_independence_statistics():
    # independent labels decorrelate: sample correlation of long draws is small
    x = derive_substream(9, "a", 0).standard_normal(4000)
    y = derive_substream(9, "b", 0).standard_normal(4000)
    r = float(np.corrcoef(x, y)[0, 1])
    assert abs(r) < 0.05


def test_public_names_resolve():
    import chantool

    missing = [name for name in chantool.__all__ if not hasattr(chantool, name)]
    assert missing == []
    namespace = {}
    exec("from chantool import *", namespace)
    assert set(chantool.__all__) <= set(namespace)
