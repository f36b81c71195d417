"""Non-stationary cluster-based channel generator.

Scatterer clusters with exponential delays, lognormal per-cluster
shadowing, and wrapped-Gaussian ray angles evolve over time through a
memoryless birth-death process; snapshots combine a Ricean line-of-sight
term with the cluster rays on a uniform delay grid, including per-antenna
array phases and velocity-driven Doppler and delay drift.  Everything is
deterministic under the configured seed.

Each step's clusters are one record array (cluster_dtype): a record per
live cluster holding its id, delay, power, birth weight and a RAY_DTYPE
subarray of its rays.  A run makes two passes.  The first evolves a
run-level table holding each cluster's record once, cut into segments of
steps whose live clusters do not change, with a delay row per step.  The
second synthesizes each segment in time blocks, one synthesize_snapshot
call over (step, tx, rx, ray).  stream_scenario runs the first and yields
the second's blocks as they are made, so its memory does not grow with the
step count beyond the table's delay rows; run_scenario collects them into
one cube.  That cube is byte for byte what calling init_clusters,
evolve_clusters and synthesize_snapshot once a step gives.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from chantool.core import CARRIER_RULE, SPEED_OF_LIGHT, CirSnapshot, FieldError, FrequencyBand
from chantool.core import Point3, check_fields, derive_substream, reset_substream

# Byte ceiling on each of a run's allocations, which _budget refuses before
# they are made: the run's cluster table, each cluster draw and one step's
# synthesis temporaries.  It also bounds the complex128 (time, tx, rx, delay)
# cube, which run_scenario allocates and stream_scenario never does: there
# it bounds the run's size, twice the archive the command line writes.
MAX_CIR_BYTES = 2 << 30

# One step's synthesis temporaries, from tracemalloc peaks of one
# synthesize_snapshot call: past 1e4 terms at most 165.9 B per pair and term
# (the LOS or a ray; 65.6 at 8x8), and 32.0-32.4 B per pair and delay bin.
SYNTH_BYTES_PER_TERM, SYNTH_BYTES_PER_BIN = 168, 33

# A run synthesizes blocks of steps whose temporaries, by that bound,
# stay under this many bytes (or one step's): inside MAX_CIR_BYTES, and below
# where glibc trims the heap after each block (1 MiB cost a 4x4 run 9x the faults).
BLOCK_BYTES = 512 << 10


class SizingError(RuntimeError):
    """A requested scenario would produce an unreasonable amount of output."""


def _budget(nbytes: float, what: str) -> None:
    """Refuse nbytes past MAX_CIR_BYTES, and NaN and inf, as an overflow gives."""
    if not nbytes <= MAX_CIR_BYTES:
        raise SizingError(f"{what} would take {nbytes:g} bytes; limit {MAX_CIR_BYTES}")


@dataclass(frozen=True)
class GbsmConfig:
    """Scenario parameters for the cluster channel generator.

    Velocities affect ray Doppler phases and delay drift; the configured
    positions are the time-zero reference geometry.  Velocities must be
    horizontal (z = 0): the Doppler term uses azimuth angles only, so a
    vertical component would move the delay drift but not the Doppler.
    """

    carrier_ghz: float = 28.0
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
        # A cluster_dtype record is 32 + 32 m bytes, and numpy sizes a dtype
        # in a C int: past that it refuses the dtype or wraps its size negative.
        max_rays = (np.iinfo(np.intc).max - 32) // 32
        # Non-finite numbers, refused first, would otherwise fail late and
        # untyped (an OverflowError sizing the run) or run to a cube of NaN.
        check_fields(
            self,
            CARRIER_RULE,
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
        )
        for name in ("tx_velocity", "rx_velocity"):
            if getattr(self, name).z != 0.0:
                raise FieldError("velocities must be horizontal: z components must be 0", name, "z")
        # The one refusal of several fields together.  A separation whose
        # square underflows has norm 0 too, and the LOS direction divides by it.
        if not (self.rx_position - self.tx_position).norm() > 0.0:
            raise ValueError("tx and rx positions must differ")

    # The band and the LOS geometry depend on the fields alone, so each is derived
    # once per config, not per step; cached_property may write a frozen instance.

    @cached_property
    def band(self) -> FrequencyBand:
        return FrequencyBand(self.carrier_ghz * 1e9)

    @cached_property
    def los_base_delay_s(self) -> float:
        """Time-zero line-of-sight delay between the configured positions."""
        return (self.rx_position - self.tx_position).norm() / SPEED_OF_LIGHT

    @cached_property
    def radial_velocity_mps(self) -> float:
        """Rate at which the tx-rx distance grows, from the velocities'
        components along the time-zero LOS."""
        los = self.rx_position - self.tx_position
        return (self.rx_velocity - self.tx_velocity).dot(los.scale(1.0 / los.norm()))


# One record per ray of a cluster: angles of arrival and departure, the
# fixed ray phase, and the delay offset from the cluster delay.  The fields
# are packed float64s, so an (n, 4) float64 block views as n rays.
RAY_DTYPE = np.dtype([
    ("aoa_rad", np.float64), ("aod_rad", np.float64),
    ("phase_rad", np.float64), ("sub_delay_s", np.float64),
])


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
    return ClusterState(_normalized(_make_clusters(cfg, rng, count, first_id=0)), next_id=count)


def _normalized(recs: np.ndarray) -> np.ndarray:
    """recs, each power_linear set to its weight's share of their total."""
    # sum() adds left to right, as a per-cluster loop does; np.sum may not.
    recs["power_linear"] = recs["weight"] / sum(recs["weight"].tolist())
    return recs


def _step(
    cfg: GbsmConfig, dt_s: float, delays: np.ndarray, rng: np.random.Generator, next_id: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """evolve_clusters's rule on the live clusters' delays alone: the
    survivors' mask, the next step's delays (the survivors', drifted, then
    the newborns'), and the records born, None if none."""
    # One vector draw gives the same values as one uniform() per cluster.
    keep = rng.uniform(size=delays.size) < math.exp(-cfg.death_rate_hz * dt_s)
    delays = np.maximum(delays[keep] + cfg.radial_velocity_mps / SPEED_OF_LIGHT * dt_s, 0.0)
    # A fresh cluster is forced in if all die.
    n_births = int(rng.poisson(cfg.birth_rate_hz * dt_s)) or int(delays.size == 0)
    born = _make_clusters(cfg, rng, n_births, next_id) if n_births else None
    return keep, delays if born is None else np.concatenate((delays, born["delay_s"])), born


def evolve_clusters(
    state: ClusterState, cfg: GbsmConfig, dt_s: float, rng: np.random.Generator
) -> ClusterState:
    """One birth-death step: independent survival with exp(-death_rate*dt),
    Poisson(birth_rate*dt) fresh clusters, radial delay drift on survivors,
    and renormalized powers.  A fresh cluster is forced in if all die."""
    if not dt_s > 0.0:
        raise ValueError("dt_s must be positive")
    recs = state.clusters.view(np.ndarray)
    keep, delays, born = _step(cfg, dt_s, recs["delay_s"], rng, state.next_id)
    recs = recs[keep] if born is None else np.concatenate((recs[keep], born))
    recs["delay_s"] = delays
    return ClusterState(_normalized(recs), state.next_id + (0 if born is None else born.size))


def _los_delay(cfg: GbsmConfig, t_s: float | np.ndarray) -> np.ndarray:
    return np.maximum(cfg.los_base_delay_s + cfg.radial_velocity_mps / SPEED_OF_LIGHT * t_s, 0.0)


def synthesize_snapshot(
    state: ClusterState, cfg: GbsmConfig, t_s: float | np.ndarray, n_bins: int | None = None,
    delays_s: np.ndarray | None = None,
) -> np.ndarray:
    """Delay-gridded CIR of every antenna pair at one instant, as a complex
    (n_tx, n_rx, n_bins) array, or at each of a 1-D array of instants, as
    one (time, n_tx, n_rx, n_bins) array; rows of delays_s, one per instant,
    replace the clusters' own delays.

    The line-of-sight term carries sqrt(K/(K+1)) and the geometric phase of
    its (drifting) delay; each ray carries sqrt(power/(M(K+1))), its stored
    phase, a uniform-linear-array phase for the pair's element indices, and
    a Doppler phase from the configured velocities.  Delays land on the
    nearest grid bin; a grid shorter than the longest delay is extended to
    that delay plus ten bins.
    """
    lam, fc, k_lin = cfg.band.wavelength_m, cfg.band.carrier_hz, 10.0 ** (cfg.k_factor_db / 10.0)
    times = np.asarray(t_s, dtype=float)[..., None, None, None]  # as (time, tx, rx, ray)
    lead, pairs = times.shape[:-3], cfg.n_tx * cfg.n_rx  # lead is () or (steps,)
    los_delay = _los_delay(cfg, t_s)
    los_amp = math.sqrt(k_lin / (k_lin + 1.0)) * np.exp(-2j * math.pi * fc * los_delay)
    recs = state.clusters.view(np.ndarray)
    rays, m = recs["rays"].ravel(), cfg.rays_per_cluster
    cluster_delay = np.repeat(recs["delay_s"] if delays_s is None else delays_s, m, axis=-1)
    ray_amp = np.repeat(np.sqrt(recs["power_linear"] / (m * (k_lin + 1.0))), m)

    # Ray terms broadcast over (time, tx, rx, ray).  Each expression keeps
    # the operation order of the scalar formula, so every term is bitwise
    # what a per-step, per-pair, per-ray evaluation gives.
    tx, rx = np.arange(cfg.n_tx)[:, None, None], np.arange(cfg.n_rx)[None, :, None]
    vt, vr = cfg.tx_velocity, cfg.rx_velocity
    sin_aod, cos_aod = np.sin(rays["aod_rad"]), np.cos(rays["aod_rad"])
    sin_aoa, cos_aoa = np.sin(rays["aoa_rad"]), np.cos(rays["aoa_rad"])
    array_phase = 2.0 * math.pi / lam * cfg.antenna_spacing_m * (tx * sin_aod + rx * sin_aoa)
    doppler_hz = (vt.x * cos_aod + vt.y * sin_aod + vr.x * cos_aoa + vr.y * sin_aoa) / lam
    phase = rays["phase_rad"] + array_phase + 2.0 * math.pi * doppler_hz * times
    # Each pair's terms start with its LOS term, then its rays in order.
    amps = np.empty(lead + (pairs, 1 + rays.size), dtype=np.complex128)
    amps[..., 0] = los_amp[..., None]
    amps[..., 1:] = (ray_amp * np.exp(1j * phase)).reshape(lead + (pairs, -1))
    delays = np.empty(lead + (1 + rays.size,))
    delays[..., 0] = los_delay
    delays[..., 1:] = cluster_delay + rays["sub_delay_s"]

    bins = np.rint(delays / cfg.delay_resolution_s).astype(np.int64)
    n_bins = max(n_bins or 0, int(bins.max()) + 11)
    # One bincount over (step, pair)-offset bins adds each bin's terms in
    # input order, as the scalar sum did.
    offsets = np.arange(times.size * pairs).reshape(lead + (pairs, 1)) * n_bins
    flat = (offsets + bins[..., None, :]).ravel()
    size = times.size * pairs * n_bins
    h = np.bincount(flat, amps.real.ravel(), size)
    h = h + 1j * np.bincount(flat, amps.imag.ravel(), size)
    return h.reshape(lead + (cfg.n_tx, cfg.n_rx, n_bins))


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


class CirStream(NamedTuple):
    """A CirSequence whose cube comes as it is made: its (time, tx, rx,
    delay) shape, and an iterator, consumed once, of complex128 blocks of
    consecutive time steps whose lengths sum to shape[0]."""

    t0_s: float
    dt_s: float
    sample_period_s: float
    shape: tuple[int, int, int, int]
    blocks: Iterator[np.ndarray]
    mean_cluster_count: float = math.nan

    @property
    def n_time(self) -> int:
        return self.shape[0]


def _evolution(cfg: GbsmConfig, n_steps: int) -> tuple[np.ndarray, list[tuple]]:
    """Pass 1: the cluster table, one record per cluster drawn at the row of
    its id, and (live ids, next id, a delay row per step) for each segment of
    steps whose live clusters do not change.  Steps reset one generator."""
    rng = derive_substream(cfg.seed, "gbsm-init", 0)
    first = init_clusters(cfg, rng).clusters.view(np.ndarray)
    drawn, segments, kept = [first], [], first.nbytes
    live, next_id, rows = first["id"], first.size, [first["delay_s"]]
    for step in range(1, n_steps):
        reset_substream(rng, cfg.seed, "gbsm-evolve", step)
        keep, delays, born = _step(cfg, cfg.snapshot_interval_s, rows[-1], rng, next_id)
        if born is not None or delays.size < keep.size:
            segments.append((live, next_id, np.stack(rows)))
            live, rows = live[keep], []
        if born is not None:
            drawn.append(born)
            live, next_id = np.concatenate((live, born["id"])), next_id + born.size
        rows.append(delays)
        kept += delays.nbytes + (0 if born is None else born.nbytes)
        _budget(kept, f"the cluster table of the first {step + 1} steps")
    segments.append((live, next_id, np.stack(rows)))
    return np.concatenate(drawn), segments


def stream_scenario(cfg: GbsmConfig) -> CirStream:
    """Full deterministic run: the cluster evolution (pass 1) runs here,
    and the stream's blocks are pass 2, each segment synthesized in blocks
    of steps, one synthesize_snapshot call per block, onto a delay grid
    sized once for the whole run.  No block is made before the first is
    pulled.

    The step count and the grids are floats until _budget has passed them,
    so a size that overflows is refused like one that is merely too large.
    Before the evolution: the cube on the grid the LOS alone needs, and each
    Poisson mean's records.  During it: the cluster table.  After it: the
    cube on the exact grid, and one step's synthesis temporaries.
    """
    dt, pairs = cfg.snapshot_interval_s, cfg.n_tx * cfg.n_rx
    steps = max(1.0, round(cfg.duration_s / dt, 0))

    def grid(delay_max: float) -> int:
        bins = round(delay_max / cfg.delay_resolution_s, 0) + 11.0
        _budget(16.0 * steps * pairs * bins, f"{steps * pairs:g} snapshots of {bins:g} delay bins")
        return int(bins)

    # The LOS delay is monotone in time, so its maximum lies at an end.
    los_max = float(max(_los_delay(cfg, 0.0), _los_delay(cfg, (steps - 1.0) * dt)))
    grid(los_max)
    # numpy cannot draw a Poisson mean past about 9.2e18 at all.
    record = cluster_dtype(cfg.rays_per_cluster).itemsize
    births = cfg.birth_rate_hz * dt if steps > 1.0 else 0.0
    for key, mean in (("mean_clusters", cfg.mean_clusters), ("birth_rate_hz", births)):
        what = f"drawing a mean of {mean:g} clusters of {cfg.rays_per_cluster} rays ({key})"
        _budget(mean * record, what)
    table, segments = _evolution(cfg, int(steps))

    sub_max = table["rays"]["sub_delay_s"].max(axis=1)
    ray_max = max(float(np.max(delays + sub_max[live])) for live, _, delays in segments)
    n_bins = grid(max(los_max, ray_max))
    rays = max(live.size for live, _, _ in segments) * cfg.rays_per_cluster
    temps = pairs * (SYNTH_BYTES_PER_TERM * (1.0 + rays) + SYNTH_BYTES_PER_BIN * n_bins)
    _budget(temps, f"synthesizing {rays} rays on {n_bins} delay bins for {pairs} antenna pairs")
    block = max(1, int(BLOCK_BYTES // temps))

    def blocks() -> Iterator[np.ndarray]:
        t_idx = 0
        for live, next_id, delays in segments:
            state = ClusterState(_normalized(table[live]), next_id)
            for rows in np.split(delays, range(block, len(delays), block)):
                times = np.arange(t_idx, t_idx + len(rows)) * dt
                yield synthesize_snapshot(state, cfg, times, n_bins, rows)
                t_idx += len(rows)

    # The count sum is exact, so this is bitwise the mean over steps.
    mean_count = sum(live.size * len(delays) for live, _, delays in segments) / steps
    shape = (int(steps), cfg.n_tx, cfg.n_rx, n_bins)
    return CirStream(0.0, dt, cfg.delay_resolution_s, shape, blocks(), mean_count)


def run_scenario(cfg: GbsmConfig) -> CirSequence:
    """stream_scenario's run, its blocks collected into one cube."""
    run = stream_scenario(cfg)
    cir = np.empty(run.shape, dtype=np.complex128)
    t_idx = 0
    for block in run.blocks:
        cir[t_idx : t_idx + len(block)] = block
        t_idx += len(block)
    return CirSequence(run.t0_s, run.dt_s, run.sample_period_s, cir, run.mean_cluster_count)
