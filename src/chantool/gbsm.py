"""Non-stationary cluster-based channel generator.

Scatterer clusters with exponential delays, lognormal per-cluster
shadowing, and wrapped-Gaussian ray angles evolve over time through a
memoryless birth-death process; snapshots combine a Ricean line-of-sight
term with the cluster rays on a uniform delay grid, including per-antenna
array phases and velocity-driven Doppler and delay drift.  Everything is
deterministic under the configured seed.

Each step's clusters are one record array (cluster_dtype): a record per
live cluster holding its id, delay, power, birth weight and a RAY_DTYPE
subarray of its rays, so birth, death, drift and synthesis are column
operations; synthesis broadcasts over (tx, rx, ray), one call per step.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import cached_property

import numpy as np

from chantool.core import (
    SPEED_OF_LIGHT,
    CirSnapshot,
    FrequencyBand,
    BAND_28,
    Point3,
    derive_substream,
)

# Byte ceiling on each of run_scenario's allocations, which _budget refuses
# before they are made: the complex128 (time, tx, rx, delay) cube, the kept
# cluster states, each cluster draw and one step's synthesis temporaries.
MAX_CIR_BYTES = 2 << 30

# One step's synthesis temporaries, from tracemalloc peaks of one
# synthesize_snapshot call: past 1e4 terms at most 165.9 B per pair and term
# (the LOS or a ray; 65.6 at 8x8), and 32.0-32.4 B per pair and delay bin.
SYNTH_BYTES_PER_TERM, SYNTH_BYTES_PER_BIN = 168, 33


class SizingError(RuntimeError):
    """A requested scenario would produce an unreasonable amount of output."""


def _budget(nbytes: float, what: str) -> None:
    """Refuse nbytes past MAX_CIR_BYTES, and NaN and inf, as an overflow gives."""
    if not nbytes <= MAX_CIR_BYTES:
        raise SizingError(f"{what} would take {nbytes:g} bytes; limit {MAX_CIR_BYTES}")


class FieldError(ValueError):
    """A config value refused on its own: field names it, and axis is the
    component ("x", "y" or "z") of a GbsmConfig Point3 field, else None."""

    def __init__(self, message: str, field: str, axis: str | None = None) -> None:
        super().__init__(message)
        self.field = field
        self.axis = axis


@dataclass(frozen=True)
class GbsmConfig:
    """Scenario parameters for the cluster channel generator.

    Velocities affect ray Doppler phases and delay drift; the configured
    positions are the time-zero reference geometry.  Velocities must be
    horizontal (z = 0): the Doppler term uses azimuth angles only, so a
    vertical component would move the delay drift but not the Doppler.
    """

    band: FrequencyBand = BAND_28
    n_tx: int = 1
    n_rx: int = 1
    antenna_spacing_m: float = 0.075
    k_factor_db: float = 6.0
    mean_clusters: float = 5.0
    rays_per_cluster: int = 20
    delay_scale_s: float = 50e-9
    per_cluster_shadow_db: float = 3.0
    birth_rate_hz: float = 2.0
    death_rate_hz: float = 2.0
    snapshot_interval_s: float = 62.5e-6
    tx_velocity: Point3 = field(default_factory=lambda: Point3(0.0, 0.0, 0.0))
    rx_velocity: Point3 = field(default_factory=lambda: Point3(0.0, 0.0, 0.0))
    duration_s: float = 0.0625
    seed: int = 0
    tx_position: Point3 = field(default_factory=lambda: Point3(0.0, 0.0, 1.5))
    rx_position: Point3 = field(default_factory=lambda: Point3(10.0, 0.0, 1.5))
    ray_angle_spread_rad: float = 0.2
    ray_delay_scale_s: float = 5e-9
    delay_resolution_s: float = 1.0 / 1.28e9

    def __post_init__(self) -> None:
        # Non-finite numbers would otherwise fail late and untyped (an
        # OverflowError sizing the run) or run to a cube of NaN.
        for name, value in vars(self).items():
            axes = zip("xyz", astuple(value)) if isinstance(value, Point3) else [(None, value)]
            for axis, x in axes:
                if isinstance(x, float) and not math.isfinite(x):
                    raise FieldError(f"{name} must be finite, got {value}", name, axis)
        # A cluster_dtype record is 32 + 32 m bytes, and numpy sizes a dtype
        # in a C int: past that it refuses the dtype or wraps its size negative.
        max_rays = (np.iinfo(np.intc).max - 32) // 32
        for rule, ok, names in (
            (">= 1", lambda v: v >= 1, ("n_tx", "n_rx", "rays_per_cluster")),
            (f"at most {max_rays}", lambda v: v <= max_rays, ("rays_per_cluster",)),
            # 10 ** (k / 10) passes the float64 maximum, 1.8e308, past 3082 dB.
            ("at most 3082", lambda v: v <= 3082.0, ("k_factor_db",)),
            # numpy's normal draws lie within 12.3 sigma and exponential ones within 45 scales
            # (ziggurat tails log 53-bit uniforms), so each weight stays in [1e-313, 1e294].
            ("at most 240", lambda v: v <= 240.0, ("per_cluster_shadow_db",)),
            ("positive", lambda v: v > 0.0, (
                "antenna_spacing_m", "mean_clusters", "delay_scale_s", "ray_delay_scale_s",
                "snapshot_interval_s", "delay_resolution_s",
            )),
            (">= 0", lambda v: v >= 0.0, (
                "per_cluster_shadow_db", "birth_rate_hz", "death_rate_hz", "duration_s",
                "ray_angle_spread_rad",
            )),
        ):
            for name in names:
                if not ok(getattr(self, name)):
                    raise FieldError(f"{name} must be {rule}", name)
        for name in ("tx_velocity", "rx_velocity"):
            if getattr(self, name).z != 0.0:
                raise FieldError("velocities must be horizontal: z components must be 0", name, "z")
        # The one refusal of several fields together.
        if self.tx_position == self.rx_position:
            raise ValueError("tx and rx positions must differ")

    # The LOS geometry depends on the fields alone, so it is derived once per
    # config, not on every step.  cached_property writes the instance dict
    # directly, which a frozen dataclass allows.

    @cached_property
    def los_base_delay_s(self) -> float:
        """Time-zero line-of-sight delay between the configured positions."""
        return (self.rx_position - self.tx_position).norm() / SPEED_OF_LIGHT

    @cached_property
    def radial_velocity_mps(self) -> float:
        """Rate at which the tx-rx distance grows, from the velocities'
        components along the time-zero LOS."""
        los = self.rx_position - self.tx_position
        d = los.norm()
        u = los.scale(1.0 / d)
        rel = self.rx_velocity - self.tx_velocity
        return rel.dot(u)


# One record per ray of a cluster: angles of arrival and departure, the
# fixed ray phase, and the delay offset from the cluster delay.  The fields
# are packed float64s, so an (n, 4) float64 block views as n rays.
RAY_DTYPE = np.dtype(
    [
        ("aoa_rad", np.float64),
        ("aod_rad", np.float64),
        ("phase_rad", np.float64),
        ("sub_delay_s", np.float64),
    ]
)


def cluster_dtype(rays_per_cluster: int) -> np.dtype:
    """One record per cluster: its id, delay, normalized power, the
    unnormalized weight fixed at birth, and its rays as a RAY_DTYPE
    subarray.  power_linear is weight divided by the total weight of all
    live clusters."""
    return np.dtype([
        ("id", np.int64), ("delay_s", np.float64), ("power_linear", np.float64),
        ("weight", np.float64), ("rays", RAY_DTYPE, (rays_per_cluster,)),
    ])


@dataclass(frozen=True)
class ClusterState:
    """The live clusters of one step, and the id the next birth takes.

    clusters holds one cluster_dtype record per live cluster, stored as a
    read-only np.recarray so that a record reads as c.id, c.delay_s,
    c.power_linear and c.rays; the generator indexes its plain ndarray view.
    init_clusters and evolve_clusters keep powers summing to 1, ids unique
    and increasing and delays >= 0; the state does not check them again.
    """

    clusters: np.ndarray
    next_id: int

    def __post_init__(self) -> None:
        clusters = np.asarray(self.clusters).view(np.recarray)
        clusters.flags.writeable = False
        object.__setattr__(self, "clusters", clusters)


def _make_clusters(
    cfg: GbsmConfig, rng: np.random.Generator, count: int, first_id: int
) -> np.ndarray:
    """Draw `count` fresh cluster records; power_linear is left at zero for
    the caller to normalize."""
    m = cfg.rays_per_cluster
    dtype = cluster_dtype(m)
    # Checked before the allocation, for the first draw and for births alike.
    _budget(count * dtype.itemsize, f"drawing {count} clusters of {m} rays")
    recs = np.zeros(count, dtype)
    for i in range(count):
        delay = float(rng.exponential(cfg.delay_scale_s))
        shadow = float(rng.normal(0.0, cfg.per_cluster_shadow_db))
        # Scalar math.exp and **, not np.exp/np.power: those differ in the
        # last bit on some inputs, and the weights fix every output byte.
        weight = math.exp(-delay / cfg.delay_scale_s) * 10.0 ** (-shadow / 10.0)
        mean_aoa = float(rng.uniform(0.0, 2.0 * math.pi))
        mean_aod = float(rng.uniform(0.0, 2.0 * math.pi))
        aoas = np.mod(mean_aoa + rng.normal(0.0, cfg.ray_angle_spread_rad, m), 2.0 * math.pi)
        aods = np.mod(mean_aod + rng.normal(0.0, cfg.ray_angle_spread_rad, m), 2.0 * math.pi)
        phases = rng.uniform(0.0, 2.0 * math.pi, m)
        subs = rng.exponential(cfg.ray_delay_scale_s, m)
        rays = np.column_stack((aoas, aods, phases, subs)).ravel().view(RAY_DTYPE)
        recs[i] = (first_id + i, delay, 0.0, weight, rays)
    return recs


def init_clusters(cfg: GbsmConfig, rng: np.random.Generator) -> ClusterState:
    """Initial cluster population: Poisson count (at least one), exponential
    delays, shadowed-exponential powers normalized to unit sum."""
    count = max(1, int(rng.poisson(cfg.mean_clusters)))
    recs = _make_clusters(cfg, rng, count, first_id=0)
    # sum() adds left to right as a per-cluster loop does; np.sum's
    # pairwise order can differ in the last bit.
    recs["power_linear"] = recs["weight"] / sum(recs["weight"].tolist())
    return ClusterState(recs, next_id=count)


def evolve_clusters(
    state: ClusterState, cfg: GbsmConfig, dt_s: float, rng: np.random.Generator
) -> ClusterState:
    """One birth-death step: independent survival with exp(-death_rate*dt),
    Poisson(birth_rate*dt) fresh clusters, radial delay drift on survivors,
    and renormalized powers.  A fresh cluster is forced in if all die."""
    if not dt_s > 0.0:
        raise ValueError("dt_s must be positive")
    p_survive = math.exp(-cfg.death_rate_hz * dt_s)
    drift = cfg.radial_velocity_mps / SPEED_OF_LIGHT * dt_s
    recs = state.clusters.view(np.ndarray)
    # The survivors: one vector draw gives the same values as one uniform()
    # per cluster.
    recs = recs[rng.uniform(size=recs.size) < p_survive]
    recs["delay_s"] = np.maximum(recs["delay_s"] + drift, 0.0)
    n_births = int(rng.poisson(cfg.birth_rate_hz * dt_s))
    if recs.size == 0 and n_births == 0:
        n_births = 1
    # Record-array concatenation costs more than the rest of a step; skip it
    # when none are born.
    if n_births:
        recs = np.concatenate((recs, _make_clusters(cfg, rng, n_births, state.next_id)))
    recs["power_linear"] = recs["weight"] / sum(recs["weight"].tolist())
    return ClusterState(recs, next_id=state.next_id + n_births)


def _los_delay(cfg: GbsmConfig, t_s: float) -> float:
    return max(cfg.los_base_delay_s + cfg.radial_velocity_mps / SPEED_OF_LIGHT * t_s, 0.0)


def synthesize_snapshot(
    state: ClusterState, cfg: GbsmConfig, t_s: float, n_bins: int | None = None
) -> np.ndarray:
    """Delay-gridded CIR of every antenna pair at one instant, as a complex
    (n_tx, n_rx, n_bins) array.

    The line-of-sight term carries sqrt(K/(K+1)) and the geometric phase of
    its (drifting) delay; each ray carries sqrt(power/(M(K+1))), its stored
    phase, a uniform-linear-array phase for the pair's element indices, and
    a Doppler phase from the configured velocities.  Delays land on the
    nearest grid bin; a grid shorter than the longest delay is extended to
    that delay plus ten bins.
    """
    lam = cfg.band.wavelength_m
    k_lin = 10.0 ** (cfg.k_factor_db / 10.0)
    res = cfg.delay_resolution_s
    fc = cfg.band.carrier_hz

    los_delay = _los_delay(cfg, t_s)
    los_amp = math.sqrt(k_lin / (k_lin + 1.0)) * np.exp(-2j * math.pi * fc * los_delay)
    recs = state.clusters.view(np.ndarray)
    rays = recs["rays"].ravel()
    cluster_delay = np.repeat(recs["delay_s"], cfg.rays_per_cluster)
    powers = np.repeat(recs["power_linear"], cfg.rays_per_cluster)
    ray_amp = np.sqrt(powers / (cfg.rays_per_cluster * (k_lin + 1.0)))

    # Ray terms broadcast over (tx, rx, ray).  Each expression keeps the
    # operation order of the scalar formula, so every term is bitwise what a
    # per-pair, per-ray evaluation gives.
    tx, rx = np.arange(cfg.n_tx)[:, None, None], np.arange(cfg.n_rx)[None, :, None]
    vt, vr = cfg.tx_velocity, cfg.rx_velocity
    sin_aod, cos_aod = np.sin(rays["aod_rad"]), np.cos(rays["aod_rad"])
    sin_aoa, cos_aoa = np.sin(rays["aoa_rad"]), np.cos(rays["aoa_rad"])
    array_phase = 2.0 * math.pi / lam * cfg.antenna_spacing_m * (tx * sin_aod + rx * sin_aoa)
    doppler_hz = (
        vt.x * cos_aod + vt.y * sin_aod + vr.x * cos_aoa + vr.y * sin_aoa
    ) / lam
    phase = rays["phase_rad"] + array_phase + 2.0 * math.pi * doppler_hz * t_s
    # Each pair's terms start with its LOS term, then its rays in order.
    amps = np.empty((cfg.n_tx * cfg.n_rx, 1 + rays.size), dtype=np.complex128)
    amps[:, 0] = los_amp
    amps[:, 1:] = (ray_amp * np.exp(1j * phase)).reshape(len(amps), -1)
    delays = np.concatenate(([los_delay], cluster_delay + rays["sub_delay_s"]))

    bins = np.rint(delays / res).astype(np.int64)
    needed = int(bins.max()) + 11
    if n_bins is None or n_bins < needed:
        n_bins = needed
    # One bincount over pair-offset bins adds each bin's terms in input
    # order, as the scalar sum did.
    flat = (np.arange(len(amps))[:, None] * n_bins + bins).ravel()
    size = len(amps) * n_bins
    h = np.bincount(flat, amps.real.ravel(), size)
    h = h + 1j * np.bincount(flat, amps.imag.ravel(), size)
    return h.reshape(cfg.n_tx, cfg.n_rx, n_bins)


@dataclass(frozen=True)
class CirSequence:
    """A run's worth of CIR snapshots on a common delay grid.

    cir is indexed (time, tx, rx, delay), and entry t_idx lies at time
    t0_s + dt_s * t_idx.  snapshot() wraps one entry without copying as the
    CirSnapshot that simulate_capture takes.  mean_cluster_count is NaN
    unless the sequence came out of run_scenario.
    """

    t0_s: float
    dt_s: float
    sample_period_s: float
    cir: np.ndarray
    mean_cluster_count: float = math.nan

    def __post_init__(self) -> None:
        if not self.dt_s > 0.0:
            raise ValueError("dt_s must be positive")
        if self.cir.ndim != 4:
            raise ValueError("cir must be (time, tx, rx, delay)")

    @property
    def n_time(self) -> int:
        return self.cir.shape[0]

    def snapshot(self, t_idx: int, tx_idx: int = 0, rx_idx: int = 0) -> CirSnapshot:
        return CirSnapshot(self.sample_period_s, self.cir[t_idx, tx_idx, rx_idx])


def _evolution(cfg: GbsmConfig, n_steps: int) -> list[ClusterState]:
    states = [init_clusters(cfg, derive_substream(cfg.seed, "gbsm-init", 0))]
    kept = states[0].clusters.nbytes
    for step in range(1, n_steps):
        rng = derive_substream(cfg.seed, "gbsm-evolve", step)
        states.append(evolve_clusters(states[-1], cfg, cfg.snapshot_interval_s, rng))
        kept += states[-1].clusters.nbytes
        _budget(kept, f"cluster states of the first {step + 1} steps")
    return states


def run_scenario(cfg: GbsmConfig) -> CirSequence:
    """Full deterministic run: cluster evolution, then one synthesize_snapshot
    call per step onto a delay grid sized once for the whole run.

    The step count and the grids are floats until _budget has passed them,
    so a size that overflows is refused like one that is merely too large.
    Before the evolution: the cube on the grid the LOS alone needs, and each
    Poisson mean's records.  After it: the cube on the exact grid, and one
    step's synthesis temporaries.
    """
    dt, pairs = cfg.snapshot_interval_s, cfg.n_tx * cfg.n_rx
    steps = max(1.0, round(cfg.duration_s / dt, 0))

    def grid(delay_max: float) -> int:
        bins = round(delay_max / cfg.delay_resolution_s, 0) + 11.0
        _budget(16.0 * steps * pairs * bins, f"{steps * pairs:g} snapshots of {bins:g} delay bins")
        return int(bins)

    # The LOS delay is monotone in time, so its maximum lies at an end.
    los_max = max(_los_delay(cfg, 0.0), _los_delay(cfg, (steps - 1.0) * dt))
    grid(los_max)
    # numpy cannot draw a Poisson mean past about 9.2e18 at all.
    record = cluster_dtype(cfg.rays_per_cluster).itemsize
    births = cfg.birth_rate_hz * dt if steps > 1.0 else 0.0
    for key, mean in (("mean_clusters", cfg.mean_clusters), ("birth_rate_hz", births)):
        what = f"drawing a mean of {mean:g} clusters of {cfg.rays_per_cluster} rays ({key})"
        _budget(mean * record, what)
    states = _evolution(cfg, int(steps))

    recs = [state.clusters.view(np.ndarray) for state in states]
    ray_max = max(float(np.max(r["delay_s"] + r["rays"]["sub_delay_s"].max(axis=1))) for r in recs)
    n_bins = grid(max(los_max, ray_max))
    rays = max(r.size for r in recs) * cfg.rays_per_cluster
    temps = pairs * (SYNTH_BYTES_PER_TERM * (1.0 + rays) + SYNTH_BYTES_PER_BIN * n_bins)
    _budget(temps, f"synthesizing {rays} rays on {n_bins} delay bins for {pairs} antenna pairs")

    cir = np.zeros((len(states), cfg.n_tx, cfg.n_rx, n_bins), dtype=np.complex128)
    for t_idx, state in enumerate(states):
        cir[t_idx] = synthesize_snapshot(state, cfg, t_idx * dt, n_bins)

    mean_count = float(np.mean([r.size for r in recs]))
    return CirSequence(0.0, dt, cfg.delay_resolution_s, cir, mean_count)
