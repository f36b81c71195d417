"""Screen and cylinder shadowing models, checked against independent oracles.

Oracles used here and nowhere in the implementation:
 * adaptive quadrature for the Fresnel cosine/sine integrals,
 * bisection on the Airy function for its negative-axis zeros,
 * a per-mode re-derivation of the creeping-wave series to expose
   term-by-term truncation behaviour.
"""

import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airy

from chantool import blockage
from chantool.blockage import (
    DEFAULT_ANTENNA_HEIGHT_M,
    DEFAULT_BLOCKER_CENTER_Z_M,
    MODELS,
    BlockageScenario,
    Cylinder,
    GeometryError,
    Screen,
    airy_zero,
    default_cylinder,
    default_screen,
    fresnel_cs,
    fresnel_zone_radius,
    gtd_cylinder_attenuation,
    kirchhoff_screen_attenuation,
    metis_edge_term,
    metis_multi_screen_attenuation,
    metis_screen_attenuation,
    sweep_blocker,
)
from chantool.core import BAND_28, BAND_39, FrequencyBand, Point3

H = DEFAULT_ANTENNA_HEIGHT_M
ZC = DEFAULT_BLOCKER_CENTER_Z_M
TX = Point3(0.0, 0.0, H)
RX = Point3(10.0, 0.0, H)
MID = Point3(5.0, 0.0, ZC)


# ---------------------------------------------------------------------------
# Oracle helpers.


def fresnel_quad(u: float) -> tuple[float, float]:
    """Fresnel C and S by adaptive quadrature (independent of scipy.special)."""
    c, _ = quad(lambda t: math.cos(0.5 * math.pi * t * t), 0.0, u, limit=400)
    s, _ = quad(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, u, limit=400)
    return c, s


def airy_neg(x: float) -> float:
    return float(airy(-x)[0])


def bisect_airy_zero(lo: float, hi: float) -> float:
    assert airy_neg(lo) * airy_neg(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if airy_neg(lo) * airy_neg(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def creeping_terms(tx, rx, band, cyl, n_max):
    """Per-mode complex contributions; mirrors the published series."""
    a = cyl.radius_m
    tx2 = np.array([tx.x, tx.y])
    rx2 = np.array([rx.x, rx.y])
    c2 = np.array([cyl.center.x, cyl.center.y])
    b1 = float(np.hypot(*(tx2 - c2)))
    b2 = float(np.hypot(*(rx2 - c2)))
    k = band.wavenumber
    s_src = math.sqrt(b1 * b1 - a * a)
    s_det = math.sqrt(b2 * b2 - a * a)
    phi1 = math.acos(a / b1)
    phi2 = math.acos(a / b2)
    th1 = math.atan2(tx2[1] - c2[1], tx2[0] - c2[0])
    th2 = math.atan2(rx2[1] - c2[1], rx2[0] - c2[0])
    arcs = []
    for side in (1.0, -1.0):
        d = (th2 - side * phi2) - (th1 + side * phi1)
        arcs.append(a * abs(math.atan2(math.sin(d), math.cos(d))))
    big_m = (k * a / 2.0) ** (1.0 / 3.0)
    spread = cmath.exp(-1j * k * s_det) / cmath.sqrt(8j * k * s_det)
    pre = cmath.exp(-1j * k * s_src)
    terms = []
    for n in range(1, n_max + 1):
        al = airy_zero(n)
        aip = float(airy(-al)[1])
        w = 2.0 * big_m / (aip * aip) * cmath.exp(-1j * math.pi / 6.0)
        dec = 1j * k + (al / a) * big_m * cmath.exp(1j * math.pi / 6.0)
        terms.append(w * spread * pre * sum(cmath.exp(-dec * g) for g in arcs))
    return terms, arcs


# ---------------------------------------------------------------------------
# Fresnel integrals and Fresnel zones.


def test_fresnel_cs_against_quadrature():
    grid = np.concatenate(
        [np.linspace(0.0, 4.0, 33), [4.5, 5.0, 6.0, 7.5, 10.0], [-0.5, -2.0, -6.0]]
    )
    for u in grid:
        c_ref, s_ref = fresnel_quad(float(u))
        c, s = fresnel_cs(float(u))
        assert abs(float(c) - c_ref) <= 1e-8
        assert abs(float(s) - s_ref) <= 1e-8


def test_fresnel_cs_oddness():
    u = np.linspace(0.0, 8.0, 50)
    cp, sp = fresnel_cs(u)
    cn, sn = fresnel_cs(-u)
    np.testing.assert_allclose(cn, -cp, atol=1e-15)
    np.testing.assert_allclose(sn, -sp, atol=1e-15)


def test_fresnel_zone_radius_examples():
    assert fresnel_zone_radius(5.0, 5.0, 0.0107) == pytest.approx(0.1636, abs=5e-5)
    assert fresnel_zone_radius(1e-9, 5.0, 0.0107) < 1e-4
    r1 = fresnel_zone_radius(3.0, 7.0, 0.01)
    r4 = fresnel_zone_radius(3.0, 7.0, 0.04)
    assert r4 == pytest.approx(2.0 * r1, rel=1e-12)


def test_fresnel_zone_radius_validation():
    with pytest.raises(ValueError):
        fresnel_zone_radius(0.0, 5.0, 0.01)
    with pytest.raises(ValueError):
        fresnel_zone_radius(5.0, 5.0, math.nan)


# ---------------------------------------------------------------------------
# Four-edge knife-edge model.


def test_metis_edge_term_examples():
    lam = 0.0107
    assert metis_edge_term(5.0, 5.0, 10.0, lam, True) == 0.0
    assert metis_edge_term(600.0, 600.0, 10.0, lam, True) == pytest.approx(0.5, abs=1e-3)
    assert metis_edge_term(600.0, 600.0, 10.0, lam, False) == pytest.approx(-0.5, abs=1e-3)


def test_metis_edge_term_range_property():
    rng = np.random.default_rng(41)
    for _ in range(200):
        d1 = float(rng.uniform(0.1, 200.0))
        d2 = float(rng.uniform(0.1, 200.0))
        r = (d1 + d2) * float(rng.uniform(0.2, 1.0))
        lam = float(rng.uniform(0.005, 0.02))
        shadow = bool(rng.integers(0, 2))
        f = metis_edge_term(d1, d2, r, lam, shadow)
        assert -0.5 < f <= 0.5
        assert f == -metis_edge_term(d1, d2, r, lam, not shadow)


def test_metis_edge_term_validation():
    with pytest.raises(ValueError):
        metis_edge_term(1.0, 1.0, 3.0, 0.01, True)  # d1 + d2 < r
    with pytest.raises(ValueError):
        metis_edge_term(math.inf, 1.0, 1.0, 0.01, True)


def test_metis_mid_path_reference():
    att = metis_screen_attenuation(TX, RX, BAND_28, default_screen(MID))
    assert att == pytest.approx(9.317734, abs=1e-5)
    assert 7.0 <= att <= 13.0


def test_metis_far_screen_clear_path():
    far = default_screen(Point3(5.0, 100.0, ZC))
    assert metis_screen_attenuation(TX, RX, BAND_28, far) < 0.5


def test_metis_mirror_symmetry():
    scr = default_screen(Point3(3.0, 0.05, 0.9))
    fwd = metis_screen_attenuation(TX, RX, BAND_28, scr)
    rev = metis_screen_attenuation(RX, TX, BAND_28, scr)
    assert fwd == pytest.approx(rev, abs=1e-9)


def test_metis_reciprocity_property():
    rng = np.random.default_rng(4242)
    for _ in range(200):
        tx = Point3(0.0, 0.0, float(rng.uniform(1.0, 2.0)))
        rx = Point3(
            float(rng.uniform(4.0, 40.0)),
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(1.0, 2.0)),
        )
        t = float(rng.uniform(0.1, 0.9))
        scr = Screen(
            Point3(
                tx.x + t * (rx.x - tx.x),
                tx.y + t * (rx.y - tx.y) + float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(0.5, 2.0)),
            ),
            float(rng.uniform(0.2, 1.5)),
            float(rng.uniform(0.5, 2.5)),
        )
        band = FrequencyBand(float(rng.uniform(20e9, 45e9)))
        fwd = metis_screen_attenuation(tx, rx, band, scr)
        rev = metis_screen_attenuation(rx, tx, band, scr)
        assert abs(fwd - rev) <= 1e-9


def test_metis_nonnegative_when_blocked_property():
    rng = np.random.default_rng(555)
    seen = 0
    for _ in range(200):
        tx = Point3(0.0, 0.0, float(rng.uniform(1.0, 2.0)))
        rx = Point3(float(rng.uniform(4.0, 40.0)), 0.0, float(rng.uniform(1.0, 2.0)))
        t = float(rng.uniform(0.1, 0.9))
        w = float(rng.uniform(0.2, 1.5))
        h = float(rng.uniform(0.5, 2.5))
        z_los = tx.z + t * (rx.z - tx.z)
        scr = Screen(
            Point3(
                tx.x + t * (rx.x - tx.x),
                float(rng.uniform(-0.4, 0.4)) * w,
                z_los + float(rng.uniform(-0.4, 0.4)) * h,
            ),
            w,
            h,
        )
        band = FrequencyBand(float(rng.uniform(20e9, 45e9)))
        seen += 1
        assert metis_screen_attenuation(tx, rx, band, scr) >= 0.0
    assert seen == 200


def test_metis_multi_screen_sums():
    s1 = default_screen(Point3(3.0, 0.0, ZC))
    s2 = default_screen(Point3(7.0, 0.0, ZC))
    one = metis_screen_attenuation(TX, RX, BAND_28, s1)
    two = metis_screen_attenuation(TX, RX, BAND_28, s2)
    scn = BlockageScenario(TX, RX, BAND_28, (s1, s2))
    assert metis_multi_screen_attenuation(scn) == pytest.approx(one + two, abs=1e-12)

    empty = BlockageScenario(TX, RX, BAND_28, ())
    assert metis_multi_screen_attenuation(empty) == 0.0

    single = BlockageScenario(TX, RX, BAND_28, (s1,))
    assert metis_multi_screen_attenuation(single) == pytest.approx(one, abs=1e-15)


def test_metis_multi_screen_rejects_cylinders():
    scn = BlockageScenario(TX, RX, BAND_28, (default_cylinder(MID),))
    with pytest.raises(GeometryError):
        metis_multi_screen_attenuation(scn)


# ---------------------------------------------------------------------------
# Kirchhoff aperture model.


def test_kirchhoff_half_plane_edge_on_los():
    half = Screen(Point3(5.0, 0.0, H - 500.0), 4000.0, 1000.0)
    att = kirchhoff_screen_attenuation(TX, RX, BAND_28, half)
    assert att == pytest.approx(6.0206, abs=0.05)


def test_kirchhoff_mid_path_reference():
    att = kirchhoff_screen_attenuation(TX, RX, BAND_28, default_screen(MID))
    assert att == pytest.approx(15.449575, abs=1e-5)
    assert 12.0 <= att <= 18.0


def test_kirchhoff_outside_fresnel_zones():
    out = default_screen(Point3(5.0, 2.0, ZC))  # nearest edge 1.8 m > 20-zone radius
    assert kirchhoff_screen_attenuation(TX, RX, BAND_28, out) < 0.5


def test_kirchhoff_no_crossing_is_zero():
    behind = default_screen(Point3(-2.0, 0.0, ZC))
    assert kirchhoff_screen_attenuation(TX, RX, BAND_28, behind) == 0.0


def test_kirchhoff_matches_analytic_knife_edge():
    # single straight edge: wide screen, far top/bottom/side edges.  The
    # 1-D knife-edge field is (1+j)/2 * integral_nu^inf exp(-j pi t^2/2) dt
    # with nu the edge clearance in units of R1/sqrt(2).
    lam = BAND_28.wavelength_m
    r1 = fresnel_zone_radius(5.0, 5.0, lam)
    for dz in (-0.15, -0.1, -0.05, -0.02, 0.0, 0.02, 0.05, 0.1, 0.2, 0.3):
        big = Screen(Point3(5.0, 0.0, H + dz - 500.0), 4000.0, 1000.0)
        mine = kirchhoff_screen_attenuation(TX, RX, BAND_28, big)
        nu = dz * math.sqrt(2.0) / r1
        c, s = fresnel_cs(nu)
        mag = math.hypot(0.5 - float(c), 0.5 - float(s)) / math.sqrt(2.0)
        ana = -20.0 * math.log10(mag)
        assert abs(mine - ana) <= 0.1


def test_kirchhoff_finite_on_random_geometry():
    rng = np.random.default_rng(99)
    for _ in range(200):
        tx = Point3(0.0, 0.0, float(rng.uniform(1.0, 2.0)))
        rx = Point3(float(rng.uniform(4.0, 30.0)), 0.0, float(rng.uniform(1.0, 2.0)))
        t = float(rng.uniform(0.1, 0.9))
        scr = Screen(
            Point3(
                tx.x + t * (rx.x - tx.x),
                float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(0.3, 2.2)),
            ),
            float(rng.uniform(0.2, 2.0)),
            float(rng.uniform(0.5, 2.5)),
        )
        band = FrequencyBand(float(rng.uniform(20e9, 45e9)))
        att = kirchhoff_screen_attenuation(tx, rx, band, scr)
        assert math.isfinite(att)


# ---------------------------------------------------------------------------
# Airy zeros and the creeping-wave model.


def test_airy_zero_examples():
    assert airy_zero(1) == pytest.approx(2.338107410, abs=1e-9)
    assert airy_zero(2) == pytest.approx(4.087949444, abs=1e-9)
    zeros = [airy_zero(n) for n in range(1, 21)]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_airy_zero_against_bisection_oracle():
    assert airy_zero(1) == pytest.approx(bisect_airy_zero(2.0, 3.0), abs=1e-9)
    assert airy_zero(2) == pytest.approx(bisect_airy_zero(4.0, 5.0), abs=1e-9)
    for n in range(1, 21):
        assert abs(airy_neg(airy_zero(n))) < 1e-8


def test_airy_zero_range():
    with pytest.raises(ValueError):
        airy_zero(0)
    with pytest.raises(ValueError):
        airy_zero(21)


def test_creeping_modes_computed_once_per_mode():
    # The scipy values themselves, bit for bit, computed on a mode's first
    # use only: a second position reuses all five.
    blockage._creeping_mode.cache_clear()
    tx, rx = Point3(0.0, 0.0, 1.5), Point3(10.0, 0.0, 1.5)
    for x in (4.0, 6.0):
        cyl = Cylinder(Point3(x, 0.0, 1.0), 0.15, 2.0)
        gtd_cylinder_attenuation(tx, rx, BAND_28, cyl)
    info = blockage._creeping_mode.cache_info()
    assert (info.misses, info.hits) == (5, 5)
    for n in range(1, 21):
        alpha = airy_zero(n)
        assert blockage._creeping_mode(n) == (alpha, float(airy(-alpha)[1]))


def test_gtd_mid_path_reference():
    att = gtd_cylinder_attenuation(TX, RX, BAND_28, default_cylinder(MID))
    assert att == pytest.approx(15.840411, abs=1e-5)
    assert 12.0 <= att <= 18.0


def test_gtd_tx_side_deeper_than_rx_side():
    near_tx = gtd_cylinder_attenuation(TX, RX, BAND_28, default_cylinder(Point3(1.0, 0.0, ZC)))
    near_rx = gtd_cylinder_attenuation(TX, RX, BAND_28, default_cylinder(Point3(9.0, 0.0, ZC)))
    assert near_tx == pytest.approx(35.750947, abs=1e-5)
    assert near_rx == pytest.approx(26.070054, abs=1e-5)
    assert near_tx - near_rx > 5.0


def test_gtd_frequency_difference_mid_path():
    # the creeping decay scales as k^(1/3), so the 39 GHz value sits a bit
    # under 2 dB above 28 GHz for the human-sized default; both stay in band
    a28 = gtd_cylinder_attenuation(TX, RX, BAND_28, default_cylinder(MID))
    a39 = gtd_cylinder_attenuation(TX, RX, BAND_39, default_cylinder(MID))
    assert a39 >= a28
    assert abs(a39 - a28) <= 2.5
    assert 12.0 <= a39 <= 20.0


def test_gtd_not_shadowing_errors():
    with pytest.raises(GeometryError, match="does not shadow"):
        gtd_cylinder_attenuation(TX, RX, BAND_28, Cylinder(Point3(5.0, 0.25, ZC), 0.25, 1.75))
    with pytest.raises(GeometryError, match="does not shadow"):
        gtd_cylinder_attenuation(TX, RX, BAND_28, Cylinder(Point3(5.0, 5.0, ZC), 0.25, 1.75))
    # too short to reach the LOS height
    with pytest.raises(GeometryError, match="does not shadow"):
        gtd_cylinder_attenuation(TX, RX, BAND_28, Cylinder(Point3(5.0, 0.0, 0.2), 0.25, 0.4))


def test_gtd_endpoint_inside_cylinder_errors():
    with pytest.raises(GeometryError, match="inside"):
        gtd_cylinder_attenuation(TX, RX, BAND_28, Cylinder(Point3(0.1, 0.0, ZC), 0.25, 1.75))


def test_gtd_n_terms_validation():
    with pytest.raises(ValueError):
        gtd_cylinder_attenuation(TX, RX, BAND_28, default_cylinder(MID), n_terms=0)
    with pytest.raises(ValueError):
        gtd_cylinder_attenuation(TX, RX, BAND_28, default_cylinder(MID), n_terms=21)


def test_gtd_matches_series_oracle_property():
    rng = np.random.default_rng(314)
    checked = 0
    while checked < 200:
        span = float(rng.uniform(4.0, 50.0))
        tx = Point3(0.0, 0.0, 1.5)
        rx = Point3(span, float(rng.uniform(-1.0, 1.0)), 1.5)
        t = float(rng.uniform(0.15, 0.85))
        a = float(rng.uniform(0.1, 0.5))
        off = float(rng.uniform(-0.6, 0.6)) * a
        cyl = Cylinder(
            Point3(tx.x + t * (rx.x - tx.x), tx.y + t * (rx.y - tx.y) + off, 1.0),
            a,
            10.0,
        )
        band = FrequencyBand(float(rng.uniform(20e9, 45e9)))
        try:
            att = gtd_cylinder_attenuation(tx, rx, band, cyl, 20)
        except GeometryError:
            continue
        terms, _ = creeping_terms(tx, rx, band, cyl, 20)
        ref = -20.0 * math.log10(abs(sum(terms)))
        assert att == pytest.approx(ref, abs=1e-9)
        checked += 1


def test_gtd_truncation_bound_in_deep_shadow():
    # tail beyond the n-th mode stays below the n-th term once the leading
    # mode decays by >= 1.5 nepers over the shorter arc; nearer the shadow
    # boundary the two interfering arcs can overshoot that bound
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        span = float(rng.uniform(4.0, 50.0))
        tx = Point3(0.0, 0.0, 1.5)
        rx = Point3(span, float(rng.uniform(-1.0, 1.0)), 1.5)
        t = float(rng.uniform(0.15, 0.85))
        a = float(rng.uniform(0.1, 0.5))
        off = float(rng.uniform(-0.6, 0.6)) * a
        cyl = Cylinder(
            Point3(tx.x + t * (rx.x - tx.x), tx.y + t * (rx.y - tx.y) + off, 1.0),
            a,
            10.0,
        )
        band = FrequencyBand(float(rng.uniform(20e9, 45e9)))
        try:
            terms, arcs = creeping_terms(tx, rx, band, cyl, 20)
        except (GeometryError, ValueError):
            continue
        big_m = (band.wavenumber * cyl.radius_m / 2.0) ** (1.0 / 3.0)
        re_om1 = (airy_zero(1) / cyl.radius_m) * big_m * math.cos(math.pi / 6.0)
        if re_om1 * min(arcs) < 1.5:
            continue
        tail = abs(sum(terms) - sum(terms[:5]))
        assert tail <= abs(terms[4]) + 1e-15
        checked += 1


def test_gtd_truncation_at_reference_geometry():
    # equal-arc interference at mid path roughly doubles the bare last-term
    # bound; the dB effect of the whole tail stays tiny
    terms, _ = creeping_terms(TX, RX, BAND_28, default_cylinder(MID), 20)
    tail = abs(sum(terms) - sum(terms[:5]))
    assert tail <= 2.0 * abs(terms[4])
    a5 = gtd_cylinder_attenuation(TX, RX, BAND_28, default_cylinder(MID), 5)
    a20 = gtd_cylinder_attenuation(TX, RX, BAND_28, default_cylinder(MID), 20)
    assert abs(a5 - a20) < 0.05


# ---------------------------------------------------------------------------
# Trajectory sweeps.


def crossing_trajectory():
    return [Point3(5.0, float(y), ZC) for y in np.linspace(-1.0, 1.0, 21)]


def along_trajectory():
    return [Point3(float(x), 0.0, ZC) for x in np.linspace(1.0, 9.0, 41)]


def test_sweep_crossing_center_peak_and_unimodal():
    scn_s = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    scn_c = BlockageScenario(TX, RX, BAND_28, (default_cylinder(MID),))
    traj = crossing_trajectory()
    for scn, model in ((scn_s, "metis"), (scn_s, "kirchhoff"), (scn_c, "gtd")):
        vals = [v for _, v in sweep_blocker(scn, model, traj)]
        peak = int(np.argmax(vals))
        assert peak == 10
        assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(peak))
        assert all(vals[i] >= vals[i + 1] - 1e-9 for i in range(peak, len(vals) - 1))
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-9)


def test_sweep_crossing_metis_below_kirchhoff():
    scn = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    traj = crossing_trajectory()
    metis = [v for _, v in sweep_blocker(scn, "metis", traj)]
    kirch = [v for _, v in sweep_blocker(scn, "kirchhoff", traj)]
    assert all(m <= k + 1e-9 for m, k in zip(metis, kirch))


def test_sweep_along_metis_below_kirchhoff():
    scn = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    traj = along_trajectory()
    metis = [v for _, v in sweep_blocker(scn, "metis", traj)]
    kirch = [v for _, v in sweep_blocker(scn, "kirchhoff", traj)]
    assert all(m <= k + 1e-9 for m, k in zip(metis, kirch))


def test_sweep_matches_direct_evaluation_when_shadowing():
    scn = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    out = sweep_blocker(scn, "kirchhoff", crossing_trajectory())
    for pos, val in out:
        lat = abs(pos.y)
        if lat <= 0.2 + 1e-9:  # half width: the screen shadows the LOS
            direct = kirchhoff_screen_attenuation(
                TX, RX, BAND_28, default_screen(pos)
            )
            assert val == pytest.approx(direct, abs=1e-12)
        else:
            assert val == 0.0


def test_sweep_far_trajectory_all_clear():
    scn = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    traj = [Point3(float(x), 30.0, ZC) for x in np.linspace(1.0, 9.0, 11)]
    for model in ("metis", "kirchhoff"):
        vals = [v for _, v in sweep_blocker(scn, model, traj)]
        assert all(v == 0.0 for v in vals)
        assert all(v < 0.5 for v in vals)


def test_sweep_gtd_zero_out_of_shadow():
    scn = BlockageScenario(TX, RX, BAND_28, (default_cylinder(MID),))
    out = sweep_blocker(scn, "gtd", crossing_trajectory())
    for pos, val in out:
        if abs(pos.y) >= 0.25:
            assert val == 0.0
        else:
            assert val > 0.0


def test_sweep_per_point_failures_are_nan_with_warning():
    scn = BlockageScenario(TX, RX, BAND_28, (default_cylinder(MID),))
    # first point drives the cylinder onto the tx antenna: per-point error
    traj = [Point3(0.0, 0.0, ZC), Point3(5.0, 0.0, ZC)]
    with pytest.warns(UserWarning, match="1 sweep position"):
        out = sweep_blocker(scn, "gtd", traj)
    assert math.isnan(out[0][1])
    assert out[1][1] == pytest.approx(15.840411, abs=1e-5)


def test_sweep_non_geometry_error_reaches_caller(monkeypatch):
    # only GeometryError becomes NaN; any other ValueError is a bug
    def broken(*args, **kwargs):
        raise ValueError("negative path excess -1.0: d1 + d2 < r")

    monkeypatch.setattr("chantool.blockage.metis_screen_attenuation", broken)
    scn = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    with pytest.raises(ValueError, match="negative path excess"):
        sweep_blocker(scn, "metis", crossing_trajectory())


def test_sweep_rerun_does_not_change_output():
    scn = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    traj = crossing_trajectory()
    first = sweep_blocker(scn, "kirchhoff", traj)
    second = sweep_blocker(scn, "kirchhoff", traj)
    assert [p for p, _ in first] == [p for p, _ in second]
    assert [v for _, v in first] == [v for _, v in second]


def test_sweep_model_validation():
    scn = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    with pytest.raises(ValueError):
        sweep_blocker(scn, "ray-tracing", crossing_trajectory())
    with pytest.raises(GeometryError):
        sweep_blocker(scn, "gtd", crossing_trajectory())
    scn_c = BlockageScenario(TX, RX, BAND_28, (default_cylinder(MID),))
    with pytest.raises(GeometryError):
        sweep_blocker(scn_c, "metis", crossing_trajectory())


def test_sweep_refuses_an_empty_blocker_set():
    # Refused before any position is evaluated, even with no positions at all.
    empty = BlockageScenario(TX, RX, BAND_28, ())
    for model in MODELS:
        for traj in (crossing_trajectory(), []):
            with pytest.raises(ValueError, match="blocker set is empty"):
                sweep_blocker(empty, model, traj)


def test_model_table_is_the_one_blocker_type_check():
    assert list(MODELS.items()) == [
        ("metis", Screen), ("kirchhoff", Screen), ("gtd", Cylinder)
    ]
    screened = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))
    mixed = BlockageScenario(TX, RX, BAND_28, (default_screen(MID), default_cylinder(MID)))
    with pytest.raises(ValueError, match=r"expected one of \('metis', 'kirchhoff', 'gtd'\)$"):
        sweep_blocker(screened, "ray-tracing", [])
    with pytest.raises(GeometryError, match="^gtd model requires Cylinder blockers$"):
        sweep_blocker(screened, "gtd", [])
    with pytest.raises(GeometryError, match="^kirchhoff model requires Screen blockers$"):
        sweep_blocker(mixed, "kirchhoff", [])
    # The knife-edge sum reads the same table as the sweep.
    with pytest.raises(GeometryError, match="^metis model requires Screen blockers$"):
        metis_multi_screen_attenuation(mixed)


def test_sweep_rigid_group_translation():
    # two screens: the trajectory moves the first, the second keeps its offset
    s1 = default_screen(Point3(4.0, 0.0, ZC))
    s2 = default_screen(Point3(6.0, 0.0, ZC))
    scn = BlockageScenario(TX, RX, BAND_28, (s1, s2))
    out = sweep_blocker(scn, "metis", [Point3(4.0, 0.0, ZC)])
    both = metis_screen_attenuation(TX, RX, BAND_28, s1) + metis_screen_attenuation(
        TX, RX, BAND_28, s2
    )
    assert out[0][1] == pytest.approx(both, abs=1e-12)


# ---------------------------------------------------------------------------
# Frequency trend at the reference screen geometry.


def test_frequency_trend_screen_models():
    scr = default_screen(MID)
    m28 = metis_screen_attenuation(TX, RX, BAND_28, scr)
    m39 = metis_screen_attenuation(TX, RX, BAND_39, scr)
    k28 = kirchhoff_screen_attenuation(TX, RX, BAND_28, scr)
    k39 = kirchhoff_screen_attenuation(TX, RX, BAND_39, scr)
    assert m39 >= m28
    assert k39 >= k28
    assert m39 - m28 <= 1.5
    assert k39 - k28 <= 1.5


def test_scenario_validation():
    with pytest.raises(GeometryError):
        BlockageScenario(TX, TX, BAND_28, (default_screen(MID),))
    with pytest.raises(ValueError):
        Screen(MID, -1.0, 1.75)
    with pytest.raises(ValueError):
        Cylinder(MID, 0.25, -1.0)


# ---------------------------------------------------------------------------
# Bitwise pins: SHA-256 of the float.hex of each case's attenuations, so a
# refactor that moves any value by one bit fails here, away from the CLI's
# default sweeps.


def pinned_cases():
    s1 = default_screen(Point3(4.0, 0.0, ZC))
    s2 = Screen(Point3(6.5, 0.15, ZC), 0.3, 1.6)
    group = BlockageScenario(TX, RX, BAND_28, (s1, s2))
    group_traj = [Point3(4.0, round(-0.8 + 0.1 * i, 10), ZC) for i in range(17)]

    rx20 = Point3(20.0, 0.0, H)
    along_traj = [Point3(round(20.0 * (0.1 + 0.02 * i), 10), 0.05, ZC) for i in range(41)]
    along_s = BlockageScenario(TX, rx20, BAND_39, (default_screen(MID),))
    along_c = BlockageScenario(TX, rx20, BAND_39, (default_cylinder(MID),))

    half = 0.5 * default_screen(MID).width_m
    ties = [-half - 1e-11, -half, -half + 1e-13, half - 1e-13, half, half + 5e-13, half + 1e-11]
    tie_traj = [Point3(5.0, y, ZC) for y in ties]
    single = BlockageScenario(TX, RX, BAND_28, (default_screen(MID),))

    gtd_traj = [Point3(5.0, round(-0.3 + 0.05 * i, 10), ZC) for i in range(13)]
    gtd_traj[4] = Point3(0.0, 0.0, ZC)  # onto the tx antenna: NaN
    cyl = BlockageScenario(TX, RX, BAND_28, (default_cylinder(MID),))

    beside = Screen(Point3(7.0, 0.5, ZC), 0.4, 1.75)
    behind = default_screen(Point3(12.0, 0.0, ZC))
    multi = [
        BlockageScenario(TX, RX, BAND_28, screens)
        for screens in ((beside,), (default_screen(MID), beside), (behind, beside))
    ]

    def sweep(scn, model, traj):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return [v for _, v in sweep_blocker(scn, model, traj)]

    return {
        "group": sweep(group, "metis", group_traj) + sweep(group, "kirchhoff", group_traj),
        "along39": sweep(along_s, "metis", along_traj)
        + sweep(along_s, "kirchhoff", along_traj)
        + sweep(along_c, "gtd", along_traj),
        "ties": sweep(single, "metis", tie_traj) + sweep(single, "kirchhoff", tie_traj),
        "gtd_nan": sweep(cyl, "gtd", gtd_traj),
        "multi": [metis_multi_screen_attenuation(scn) for scn in multi],
    }


PINNED = {
    "group": "6d9d07ea4f7f6023c0057628dff90f338a056df3b355dabe69bad012c396f374",
    "along39": "f71dbf49b8a4d0445883fc11ae16384e2d1aa4ea760e1dbead5c7cb0d11a38d1",
    "ties": "57132850e34de21018f07e2a740fd9cab901f0f304bf4666b8ebe0e27e87209d",
    "gtd_nan": "deac3cdb1089ec29cddf4bf9d764b158ddd474851931e6824dca012db2c7f08e",
    "multi": "43445bf58435a0cc852684eaf1dea3efc44bf561b384bffaa2206fc5b7013512",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_blockage_values_pinned_bitwise(case):
    values = pinned_cases()[case]
    text = "\n".join(float(v).hex() for v in values)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[case]
