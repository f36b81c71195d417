"""Blockage attenuation models for human-body shadowing.

Three models of the extra loss a blocker inserts on a line-of-sight link:

* metis: four knife edges of a rectangular absorbing Screen (3GPP TR 38.901
  7.6.4, blockage model B),
* kirchhoff: a Kirchhoff aperture integral over the same Screen (via
  Babinet's principle and separable Fresnel integrals),
* gtd: a creeping-wave series around a conducting circular Cylinder.

Screens are vertical rectangles auto-oriented perpendicular to the top-view
Tx-Rx line; cylinders have a vertical axis.  All attenuations are in dB
relative to the unobstructed field (positive = loss).  In a sweep, a blocker
that does not cut the LOS adds exactly 0 dB, and a position whose geometry
the model refuses is NaN.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ai_zeros, airy
from scipy.special import fresnel as _scipy_fresnel

from chantool.core import FrequencyBand, Point3

# Grazing-incidence ties within this distance resolve to "in shadow".
GRAZING_TIE_M = 1e-12


class GeometryError(ValueError):
    """Raised when a blockage geometry does not admit the requested model."""


class NotShadowingError(GeometryError):
    """Raised when a blocker does not cut the line of sight."""


@dataclass(frozen=True)
class Screen:
    """Vertical rectangular absorbing screen.

    The screen is centered at `center`; its width spans horizontally,
    perpendicular to the top-view Tx-Rx line, and its height spans
    vertically with the bottom edge at center.z - height/2.
    """

    center: Point3
    width_m: float
    height_m: float

    def __post_init__(self) -> None:
        if self.width_m <= 0.0 or self.height_m <= 0.0:
            raise ValueError("screen width and height must be positive")


@dataclass(frozen=True)
class Cylinder:
    """Vertical circular cylinder (axis through `center`, along z)."""

    center: Point3
    radius_m: float
    height_m: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0.0 or self.height_m <= 0.0:
            raise ValueError("cylinder radius and height must be positive")


# Default human-sized blockers; sized so the three models land in the
# measured 10-15 dB shadowing band for a mid-path crossing at 28 GHz.
DEFAULT_SCREEN_WIDTH_M = 0.4
DEFAULT_SCREEN_HEIGHT_M = 1.75
DEFAULT_CYLINDER_RADIUS_M = 0.25

# Reference 10 m crossing link: antennas at 1.5 m, blocker center height
# placed so the torso shadows the path with all models in their mid band.
DEFAULT_ANTENNA_HEIGHT_M = 1.5
DEFAULT_BLOCKER_CENTER_Z_M = 0.87
DEFAULT_CYLINDER_HEIGHT_M = 1.75


def default_screen(center: Point3) -> Screen:
    return Screen(center, DEFAULT_SCREEN_WIDTH_M, DEFAULT_SCREEN_HEIGHT_M)


def default_cylinder(center: Point3) -> Cylinder:
    return Cylinder(center, DEFAULT_CYLINDER_RADIUS_M, DEFAULT_CYLINDER_HEIGHT_M)


@dataclass(frozen=True)
class BlockageScenario:
    """Endpoints, band, and the blocker set for a shadowing computation."""

    tx: Point3
    rx: Point3
    band: FrequencyBand
    blockers: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "blockers", tuple(self.blockers))
        if self.tx == self.rx:
            raise GeometryError("tx and rx must differ")


# ---------------------------------------------------------------------------
# Shared geometry helpers (top-view = projection onto the horizontal plane).


def _crossing(tx: Point3, rx: Point3, center: Point3):
    """LOS crossing of the blocker's vertical plane, as (t, z_los, lat_los,
    v_hat, length): the crossing parameter along the top-view LOS (0 at tx,
    1 at rx), the LOS height there, its lateral offset from the blocker
    center along the screen-plane unit vector v_hat, and the top-view length.
    """
    axis = np.array([rx.x - tx.x, rx.y - tx.y])
    length = float(np.hypot(axis[0], axis[1]))
    if length < 1e-12:
        raise GeometryError("tx and rx coincide in top view; screen orientation undefined")
    u_hat = axis / length
    v_hat = np.array([-u_hat[1], u_hat[0]])
    rel = np.array([center.x - tx.x, center.y - tx.y])
    t = float(rel @ u_hat) / length
    cross2 = np.array([tx.x, tx.y]) + t * length * u_hat
    z_los = tx.z + t * (rx.z - tx.z)
    lat_los = float((cross2 - np.array([center.x, center.y])) @ v_hat)
    return t, z_los, lat_los, v_hat, length


def _spans_height(blocker: Screen | Cylinder, z: float) -> bool:
    """True when height z lies within the blocker's vertical extent (grazing counts)."""
    half = 0.5 * blocker.height_m
    return blocker.center.z - half - GRAZING_TIE_M <= z <= blocker.center.z + half + GRAZING_TIE_M


def _screen_shadows(tx: Point3, rx: Point3, screen: Screen) -> bool:
    """True when the LOS pierces the screen rectangle (grazing counts)."""
    t, z_los, lat_los, _, _ = _crossing(tx, rx, screen.center)
    if not 0.0 < t < 1.0:
        return False
    if abs(lat_los) > 0.5 * screen.width_m + GRAZING_TIE_M:
        return False
    return _spans_height(screen, z_los)


def _loss_db(field: complex) -> float:
    """-20 log10 |field| against a unit free-space field, capped at 6000 dB."""
    mag = abs(field)
    if mag < 1e-300:
        return 6000.0
    return -20.0 * math.log10(mag)


# ---------------------------------------------------------------------------
# Four-edge knife-edge screen model.


def metis_edge_term(
    d1: float, d2: float, r: float, wavelength_m: float, in_shadow: bool
) -> float:
    """Single-edge shadowing term F = atan(+-(pi/2) sqrt((pi/lam)(d1+d2-r))) / pi.

    d1/d2 are the unfolded distances from Tx and Rx to the edge, r the
    corresponding Tx-Rx distance; the sign is + when the edge's half-plane
    covers the LOS (edge in shadow), - otherwise.  Result lies in (-0.5, 0.5].
    """
    excess = d1 + d2 - r
    if not math.isfinite(excess):
        raise ValueError("non-finite path excess")
    if excess < 0.0:
        if excess < -1e-9:
            raise ValueError(f"negative path excess {excess}: d1 + d2 < r")
        excess = 0.0
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    mag = math.atan(0.5 * math.pi * math.sqrt(math.pi * excess / wavelength_m)) / math.pi
    return mag if in_shadow else -mag


def metis_screen_attenuation(
    tx: Point3, rx: Point3, band: FrequencyBand, screen: Screen
) -> float:
    """Knife-edge shadowing loss of one rectangular screen, in dB.

    A = -20 log10(1 - (F_top + F_bottom)(F_left + F_right)) where each F is
    an edge term with sign set per edge by the shadow test.  Side-edge
    distances are taken in the top view, top/bottom-edge distances in the
    vertical plane through the LOS.  A screen whose plane does not separate
    tx and rx contributes 0 dB.
    """
    lam = band.wavelength_m
    t, z_los, lat_los, v_hat, length = _crossing(tx, rx, screen.center)
    if not (0.0 < t < 1.0):
        return 0.0

    # Side edges: distances in the top view, edge reduced to its point.
    tx2 = np.array([tx.x, tx.y])
    rx2 = np.array([rx.x, rx.y])
    c2 = np.array([screen.center.x, screen.center.y])
    half_w = 0.5 * screen.width_m
    f_sides = 0.0
    for lat_edge, shadowed in (
        (-half_w, lat_los >= -half_w - GRAZING_TIE_M),
        (half_w, lat_los <= half_w + GRAZING_TIE_M),
    ):
        edge2 = c2 + lat_edge * v_hat
        d1 = float(np.hypot(*(edge2 - tx2)))
        d2 = float(np.hypot(*(edge2 - rx2)))
        f_sides += metis_edge_term(d1, d2, length, lam, shadowed)

    # Top/bottom edges: distances in the vertical plane through the LOS.
    r3 = tx.distance_to(rx)
    d_tx2 = abs(t) * length
    d_rx2 = abs(1.0 - t) * length
    z_top = screen.center.z + 0.5 * screen.height_m
    z_bot = screen.center.z - 0.5 * screen.height_m
    f_vert = 0.0
    for z_edge, shadowed in (
        (z_top, z_los <= z_top + GRAZING_TIE_M),
        (z_bot, z_los >= z_bot - GRAZING_TIE_M),
    ):
        d1 = math.hypot(d_tx2, z_edge - tx.z)
        d2 = math.hypot(d_rx2, z_edge - rx.z)
        f_vert += metis_edge_term(d1, d2, r3, lam, shadowed)

    return _loss_db(1.0 - f_vert * f_sides)


def metis_multi_screen_attenuation(scn: BlockageScenario) -> float:
    """Sum of per-screen knife-edge losses in dB (sparse-blocker assumption)."""
    _require_blockers("metis", scn.blockers)
    total = 0.0
    for blocker in scn.blockers:
        total += metis_screen_attenuation(scn.tx, scn.rx, scn.band, blocker)
    return total


# ---------------------------------------------------------------------------
# Kirchhoff aperture model.


def fresnel_cs(u: float | np.ndarray):
    """Fresnel integrals (C(u), S(u)) with the sin/cos(pi t^2 / 2) kernel."""
    s, c = _scipy_fresnel(u)
    return c, s


def fresnel_zone_radius(d1: float, d2: float, wavelength_m: float) -> float:
    """First Fresnel zone radius sqrt(lam d1 d2 / (d1 + d2))."""
    if not (math.isfinite(d1) and math.isfinite(d2) and math.isfinite(wavelength_m)):
        raise ValueError("distances and wavelength must be finite")
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("d1 and d2 must be positive")
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    return math.sqrt(wavelength_m * d1 * d2 / (d1 + d2))


def _fresnel_segment(a: float, b: float) -> complex:
    """Integral of exp(-j pi t^2 / 2) over [a, b] via Fresnel C and S."""
    ca, sa = fresnel_cs(a)
    cb, sb = fresnel_cs(b)
    return complex(cb - ca, -(sb - sa))


def kirchhoff_screen_attenuation(
    tx: Point3, rx: Point3, band: FrequencyBand, screen: Screen
) -> float:
    """Kirchhoff knife-edge loss of one rectangular screen, in dB.

    Babinet's principle: the field is the free-space field minus the
    aperture integral over the screen rectangle, which separates into
    1-D Fresnel integrals in normalized coordinates u = sqrt(2) x / R1.
    A screen whose plane does not separate tx and rx contributes 0 dB.
    """
    t, z_los, lat_los, _, length = _crossing(tx, rx, screen.center)
    if not (0.0 < t < 1.0):
        return 0.0
    d1 = t * length
    d2 = (1.0 - t) * length
    r1 = fresnel_zone_radius(d1, d2, band.wavelength_m)
    scale = math.sqrt(2.0) / r1

    half_w = 0.5 * screen.width_m
    v_lo = (-half_w - lat_los) * scale
    v_hi = (half_w - lat_los) * scale
    z_top = screen.center.z + 0.5 * screen.height_m
    z_bot = screen.center.z - 0.5 * screen.height_m
    u_lo = (z_bot - z_los) * scale
    u_hi = (z_top - z_los) * scale

    rect = 0.5j * _fresnel_segment(u_lo, u_hi) * _fresnel_segment(v_lo, v_hi)
    return _loss_db(1.0 - rect)


# ---------------------------------------------------------------------------
# Creeping-wave series around a conducting cylinder.


def airy_zero(n: int) -> float:
    """n-th positive zero location of Ai(-x): Ai(-airy_zero(n)) == 0.

    Supports 1 <= n <= 20, the range the creeping-wave series may request.
    """
    if not 1 <= n <= 20:
        raise ValueError("airy_zero index must be in 1..20")
    zeros = ai_zeros(n)[0]
    return float(-zeros[n - 1])


@functools.lru_cache(maxsize=20)
def _creeping_mode(n: int) -> tuple[float, float]:
    """(a_n, Ai'(-a_n)) of creeping mode n; they depend on n alone, so each
    mode's scipy calls run once per process rather than once per position."""
    alpha = airy_zero(n)
    return alpha, float(airy(-alpha)[1])


def _wrap_pi(angle: float) -> float:
    return math.atan2(math.sin(angle), math.cos(angle))


def gtd_cylinder_attenuation(
    tx: Point3,
    rx: Point3,
    band: FrequencyBand,
    cylinder: Cylinder,
    n_terms: int = 5,
) -> float:
    """Creeping-wave shadowing loss of a conducting cylinder, in dB.

    Sums the soft-polarization creeping modes over both sides of the
    cylinder.  Each mode n carries an amplitude weight
    2 M Ai'(-a_n)^-2 exp(-j pi/6) with M = (k a / 2)^(1/3) and an
    along-surface decay exp(-(jk + (a_n / a) M exp(j pi/6)) * arc).  The
    shed ray spreads as exp(-j k S_d) / sqrt(8 j k S_d) over the straight
    rx-side tangent leg; the tx-side tangent leg contributes phase only, so
    the loss is -20 log10 |A| against a unit free-space reference.  Spreading
    over the detector leg only makes the model deliberately non-reciprocal:
    a blocker near the tx shadows more deeply than one near the rx.

    Valid only when the top-view LOS cuts strictly through the cylinder
    (deep shadow); grazing or clear paths raise GeometryError.  The series
    is asymptotic: near the shadow boundary the creeping decay vanishes and
    the truncated sum is unreliable, so grazing counts as "not shadowing".
    The cylinder is treated as tall: rays creep around the sides, not over
    the top.
    """
    if not 1 <= n_terms <= 20:
        raise ValueError("n_terms must be in 1..20")
    a = cylinder.radius_m
    tx2 = np.array([tx.x, tx.y])
    rx2 = np.array([rx.x, rx.y])
    c2 = np.array([cylinder.center.x, cylinder.center.y])

    b1 = float(np.hypot(*(tx2 - c2)))
    b2 = float(np.hypot(*(rx2 - c2)))
    if b1 <= a + GRAZING_TIE_M or b2 <= a + GRAZING_TIE_M:
        raise GeometryError("tx or rx lies inside (or on) the cylinder")

    # Top-view shadow test: the segment tx-rx must cut the circle.
    seg = rx2 - tx2
    seg_len2 = float(seg @ seg)
    if seg_len2 < 1e-24:
        raise GeometryError("tx and rx coincide in top view")
    s = float((c2 - tx2) @ seg) / seg_len2
    s_clamped = min(max(s, 0.0), 1.0)
    closest = tx2 + s_clamped * seg
    dist = float(np.hypot(*(closest - c2)))
    cuts = dist < a - GRAZING_TIE_M and 0.0 < s < 1.0
    if not (cuts and _spans_height(cylinder, tx.z + s * (rx.z - tx.z))):
        raise NotShadowingError("cylinder does not shadow LOS")

    k = band.wavenumber
    s_src = math.sqrt(b1 * b1 - a * a)  # straight leg tx -> attachment point
    s_det = math.sqrt(b2 * b2 - a * a)  # straight leg shed point -> rx
    phi1 = math.acos(min(1.0, a / b1))
    phi2 = math.acos(min(1.0, a / b2))
    th1 = math.atan2(tx2[1] - c2[1], tx2[0] - c2[0])
    th2 = math.atan2(rx2[1] - c2[1], rx2[0] - c2[0])
    arcs = []
    for side in (1.0, -1.0):
        psi_t = th1 + side * phi1
        psi_r = th2 - side * phi2
        arcs.append(a * abs(_wrap_pi(psi_r - psi_t)))

    big_m = (k * a / 2.0) ** (1.0 / 3.0)
    spread = cmath.exp(-1j * k * s_det) / cmath.sqrt(8j * k * s_det)
    total = 0.0 + 0.0j
    for n in range(1, n_terms + 1):
        alpha, ai_prime = _creeping_mode(n)
        weight = 2.0 * big_m / (ai_prime * ai_prime) * cmath.exp(-1j * math.pi / 6.0)
        decay = 1j * k + (alpha / a) * big_m * cmath.exp(1j * math.pi / 6.0)
        along = sum(cmath.exp(-decay * g) for g in arcs)
        total += weight * spread * along
    total *= cmath.exp(-1j * k * s_src)  # tx-side leg: unit magnitude
    return _loss_db(total)


# ---------------------------------------------------------------------------
# Trajectory sweeps.

# Each model and the blocker type it takes, in the CLI's column order.
MODELS = {"metis": Screen, "kirchhoff": Screen, "gtd": Cylinder}


def _require_blockers(model: str, blockers: tuple) -> None:
    kind = MODELS[model]
    if not all(isinstance(blocker, kind) for blocker in blockers):
        raise GeometryError(f"{model} model requires {kind.__name__} blockers")


def _sweep_point(scn: BlockageScenario, model: str, position: Point3) -> float:
    offset = position - scn.blockers[0].center
    total = 0.0
    for blocker in scn.blockers:
        moved = replace(blocker, center=blocker.center + offset)
        if model == "gtd":
            try:
                total += gtd_cylinder_attenuation(scn.tx, scn.rx, scn.band, moved)
            except NotShadowingError:
                pass  # a blocker that does not cut the LOS adds nothing
        elif _screen_shadows(scn.tx, scn.rx, moved):
            loss = metis_screen_attenuation if model == "metis" else kirchhoff_screen_attenuation
            total += loss(scn.tx, scn.rx, scn.band, moved)
    return total


def sweep_blocker(
    scn: BlockageScenario,
    model: str,
    trajectory: list[Point3],
) -> list[tuple[Point3, float]]:
    """Attenuation at each trajectory position of the (rigid) blocker set.

    Each trajectory point places the first blocker's center; any further
    blockers keep their original offsets relative to it.  Positions are
    evaluated serially in trajectory order.  A position whose geometry the
    model rejects (GeometryError) yields NaN, and such positions are counted
    in a single warning; any other error propagates to the caller.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {tuple(MODELS)}")
    if not scn.blockers:
        raise ValueError("sweep needs at least one blocker; the blocker set is empty")
    _require_blockers(model, scn.blockers)

    def run(position: Point3) -> float:
        try:
            return _sweep_point(scn, model, position)
        except GeometryError:
            return math.nan

    values = [run(p) for p in trajectory]
    failed = sum(1 for v in values if math.isnan(v))
    if failed:
        warnings.warn(f"{failed} sweep position(s) failed geometry checks", stacklevel=2)
    return list(zip(list(trajectory), values))
