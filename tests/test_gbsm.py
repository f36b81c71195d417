"""Tests for the non-stationary cluster channel generator."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chantool import gbsm
from chantool.core import Point3, derive_substream
from chantool.gbsm import (
    CirSequence,
    ClusterState,
    GbsmConfig,
    RAY_DTYPE,
    SizingError,
    cluster_dtype,
    evolve_clusters,
    init_clusters,
    run_scenario,
    synthesize_snapshot,
)

C = 299792458.0
DEFAULTS = GbsmConfig()
FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(GbsmConfig) if isinstance(getattr(DEFAULTS, f.name), float)
]
POINT_FIELDS = [
    f.name for f in dataclasses.fields(GbsmConfig) if isinstance(getattr(DEFAULTS, f.name), Point3)
]
NON_FINITE = [math.inf, -math.inf, math.nan]


def init_for(cfg: GbsmConfig, index: int = 0) -> ClusterState:
    return init_clusters(cfg, derive_substream(cfg.seed, "gbsm-init", index))


def rays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and all(
        np.array_equal(a[name], b[name]) for name in RAY_DTYPE.names
    )


def states_equal(a: ClusterState, b: ClusterState) -> bool:
    return (
        a.next_id == b.next_id
        and a.clusters.dtype == b.clusters.dtype
        and a.clusters.tobytes() == b.clusters.tobytes()
    )


def cluster_records(ids, delays, powers) -> np.ndarray:
    recs = np.zeros(len(ids), cluster_dtype(1))
    recs["id"], recs["delay_s"] = ids, delays
    recs["power_linear"] = recs["weight"] = powers
    return recs


class TestConfig:
    def test_defaults_valid(self):
        cfg = GbsmConfig()
        assert cfg.n_tx == 1 and cfg.n_rx == 1
        assert cfg.antenna_spacing_m == 0.075
        assert cfg.snapshot_interval_s == 62.5e-6
        assert cfg.delay_resolution_s == pytest.approx(1.0 / 1.28e9, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_tx": 0},
            {"n_rx": -1},
            {"antenna_spacing_m": 0.0},
            {"mean_clusters": 0.0},
            {"rays_per_cluster": 0},
            {"delay_scale_s": -1e-9},
            {"ray_delay_scale_s": 0.0},
            {"per_cluster_shadow_db": -0.1},
            {"birth_rate_hz": -1.0},
            {"death_rate_hz": -1.0},
            {"snapshot_interval_s": 0.0},
            {"duration_s": -1.0},
            {"ray_angle_spread_rad": -0.1},
            {"delay_resolution_s": 0.0},
            {"rx_position": Point3(0.0, 0.0, 1.5)},
            {"tx_velocity": Point3(0.0, 0.0, 1.0)},
            {"rx_velocity": Point3(1.5, 0.0, -0.5)},
            # distinct positions whose distance's square underflows to 0
            {"rx_position": Point3(5e-324, 0.0, 1.5)},
            {"rx_position": Point3(1e-163, 0.0, 1.5)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GbsmConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, limit", [("k_factor_db", 3082.0), ("per_cluster_shadow_db", 240.0)]
    )
    def test_power_bounds_keep_weights_in_float_range(self, name, limit):
        GbsmConfig(**{name: limit})
        with pytest.raises(gbsm.FieldError, match=f"^{name} must be at most {limit:g}$"):
            GbsmConfig(**{name: math.nextafter(limit, math.inf)})

    def test_rays_per_cluster_bounded_by_the_record_size(self):
        # A cluster_dtype record is 32 + 32 m bytes and numpy sizes a dtype
        # in a C int.  Only dtypes and configs are built here: nothing is drawn.
        limit = (np.iinfo(np.intc).max - 32) // 32
        assert cluster_dtype(limit).itemsize == 32 + 32 * limit
        assert GbsmConfig(rays_per_cluster=limit).rays_per_cluster == limit
        for rays in (limit + 1, 100_000_000):
            with pytest.raises(ValueError, match=f"rays_per_cluster must be at most {limit}$"):
                GbsmConfig(rays_per_cluster=rays)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_rejects_non_finite_number(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GbsmConfig(**{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("name", POINT_FIELDS)
    def test_rejects_non_finite_point(self, name, axis, value):
        point = dataclasses.replace(getattr(DEFAULTS, name), **{axis: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GbsmConfig(**{name: point})


class TestInitClusters:
    def test_frozen_reference_draw(self):
        state = init_for(GbsmConfig(seed=42))
        assert len(state.clusters) == 8
        assert state.next_id == 8
        assert [c.id for c in state.clusters] == list(range(8))
        assert state.clusters[0].delay_s == pytest.approx(
            1.3657967106924877e-09, rel=1e-9
        )
        assert state.clusters[0].power_linear == pytest.approx(
            0.1391577102842692, rel=1e-9
        )
        ray = state.clusters[0].rays[0]
        assert ray["aoa_rad"] == pytest.approx(4.7256726073084705, rel=1e-9)
        assert ray["sub_delay_s"] == pytest.approx(7.039773116829049e-09, rel=1e-9)

    def test_determinism(self):
        a = init_for(GbsmConfig(seed=7))
        b = init_for(GbsmConfig(seed=7))
        assert states_equal(a, b)

    def test_at_least_one_cluster(self):
        # Poisson(1e-9) draws zero essentially always; the floor kicks in.
        state = init_for(GbsmConfig(seed=1, mean_clusters=1e-9))
        assert len(state.clusters) == 1

    def test_unit_power_and_ray_shape(self):
        cfg = GbsmConfig(seed=3, rays_per_cluster=7)
        state = init_for(cfg)
        assert sum(c.power_linear for c in state.clusters) == pytest.approx(
            1.0, abs=1e-9
        )
        for c in state.clusters:
            assert len(c.rays) == 7
            assert c.rays.dtype == RAY_DTYPE
            assert not c.rays.flags.writeable
            for name in ("aoa_rad", "aod_rad", "phase_rad"):
                assert np.all((0.0 <= c.rays[name]) & (c.rays[name] < 2.0 * math.pi))
            assert np.all(c.rays["sub_delay_s"] >= 0.0)

    def test_no_shadow_decays_with_delay(self):
        cfg = GbsmConfig(seed=9, mean_clusters=12.0, per_cluster_shadow_db=0.0)
        recs = init_for(cfg).clusters
        assert len(recs) > 4
        order = np.argsort(recs.delay_s)
        assert np.all(np.diff(recs.power_linear[order]) < 0.0)
        assert recs.power_linear == pytest.approx(recs.weight / recs.weight.sum(), rel=1e-12)

    def test_state_invariants_enforced(self):
        ClusterState(cluster_records([0], [1e-8], [1.0]), 1)
        # A state is its clusters and the next id; it carries no time.
        assert [f.name for f in dataclasses.fields(ClusterState)] == ["clusters", "next_id"]

    def test_cluster_records_contract(self):
        # Records read by attribute, as the generator's callers read them.
        cfg = GbsmConfig(seed=42, rays_per_cluster=7)
        state = init_for(cfg)
        assert isinstance(state.clusters, np.recarray)
        assert len(state.clusters) == state.next_id == 8
        for i, c in enumerate(state.clusters):
            assert c.id == i
            assert c.delay_s == state.clusters["delay_s"][i] > 0.0
            assert c.power_linear == state.clusters["power_linear"][i] > 0.0
            assert len(c.rays) == 7
            assert c.rays.dtype == RAY_DTYPE
        with pytest.raises(ValueError, match="read-only"):
            state.clusters.delay_s[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            state.clusters[0] = state.clusters[1]
        with pytest.raises(ValueError, match="read-only"):
            state.clusters[0].rays["phase_rad"][0] = 0.0


class TestEvolveClusters:
    def test_no_churn_keeps_clusters(self):
        cfg = GbsmConfig(seed=5, birth_rate_hz=0.0, death_rate_hz=0.0)
        state = init_for(cfg)
        out = evolve_clusters(state, cfg, 1e-3, derive_substream(5, "gbsm-evolve", 1))
        assert [c.id for c in out.clusters] == [c.id for c in state.clusters]
        # zero velocity: delays and powers unchanged
        for before, after in zip(state.clusters, out.clusters):
            assert after.delay_s == before.delay_s
            assert after.power_linear == pytest.approx(
                before.power_linear, rel=1e-12
            )
            assert rays_equal(after.rays, before.rays)

    def test_delay_drift_matches_radial_velocity(self):
        cfg = GbsmConfig(
            seed=5,
            birth_rate_hz=0.0,
            death_rate_hz=0.0,
            rx_velocity=Point3(3.0, 0.0, 0.0),  # receding along the LOS axis
        )
        state = init_for(cfg)
        dt = 0.01
        out = evolve_clusters(state, cfg, dt, derive_substream(5, "gbsm-evolve", 1))
        for before, after in zip(state.clusters, out.clusters):
            assert after.delay_s - before.delay_s == pytest.approx(
                3.0 / C * dt, rel=1e-9
            )

    def test_los_geometry_derived_once_per_config(self):
        cfg = GbsmConfig(rx_velocity=Point3(3.0, 0.0, 0.0), tx_velocity=Point3(0.0, 1.0, 0.0))
        assert cfg.radial_velocity_mps == 3.0
        assert cfg.los_base_delay_s == 10.0 / C
        assert {"radial_velocity_mps", "los_base_delay_s"} <= set(vars(cfg))
        # The cached values are not fields: equality, hashing and replace()
        # see only the fields, and a replaced config derives its own.
        assert cfg == GbsmConfig(rx_velocity=Point3(3.0, 0.0, 0.0),
                                 tx_velocity=Point3(0.0, 1.0, 0.0))
        assert hash(cfg) == hash(dataclasses.replace(cfg))
        moved = dataclasses.replace(cfg, rx_velocity=Point3(-1.0, 0.0, 0.0))
        assert moved.radial_velocity_mps == -1.0

    def test_delay_clamped_at_zero(self):
        cfg = GbsmConfig(
            seed=5,
            birth_rate_hz=0.0,
            death_rate_hz=0.0,
            rx_velocity=Point3(-300.0, 0.0, 0.0),  # fast approach
        )
        state = init_for(cfg)
        out = evolve_clusters(state, cfg, 1.0, derive_substream(5, "gbsm-evolve", 1))
        assert all(c.delay_s >= 0.0 for c in out.clusters)
        assert any(c.delay_s == 0.0 for c in out.clusters)

    def test_forced_rebirth_when_all_die(self):
        cfg = GbsmConfig(seed=5, birth_rate_hz=0.0, death_rate_hz=1e9)
        state = init_for(cfg)
        out = evolve_clusters(state, cfg, 1.0, derive_substream(5, "gbsm-evolve", 1))
        assert len(out.clusters) == 1
        assert out.clusters[0].id == state.next_id
        assert out.clusters[0].power_linear == pytest.approx(1.0)

    def test_ids_never_reused(self):
        cfg = GbsmConfig(seed=13, birth_rate_hz=200.0, death_rate_hz=40.0)
        state = init_for(cfg)
        seen = {c.id for c in state.clusters}
        high_water = max(seen)
        for step in range(1, 120):
            state = evolve_clusters(
                state, cfg, 0.02, derive_substream(13, "gbsm-evolve", step)
            )
            ids = {c.id for c in state.clusters}
            fresh = ids - seen
            if fresh:
                assert min(fresh) > high_water
                high_water = max(fresh)
            seen |= ids
        assert state.next_id > high_water or state.next_id == high_water + 1

    def test_powers_renormalized_after_churn(self):
        cfg = GbsmConfig(seed=17, birth_rate_hz=500.0, death_rate_hz=100.0)
        state = init_for(cfg)
        for step in range(1, 30):
            state = evolve_clusters(
                state, cfg, 0.01, derive_substream(17, "gbsm-evolve", step)
            )
            assert sum(c.power_linear for c in state.clusters) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_rejects_nonpositive_dt(self):
        cfg = GbsmConfig(seed=5)
        state = init_for(cfg)
        with pytest.raises(ValueError, match="dt_s"):
            evolve_clusters(state, cfg, 0.0, derive_substream(5, "gbsm-evolve", 1))

    def test_survival_fraction_matches_rate(self):
        # E[survivors]/N = exp(-death_rate*dt), Monte Carlo over seeded trials
        cfg = GbsmConfig(
            seed=3, mean_clusters=20.0, death_rate_hz=40.0, birth_rate_hz=0.0
        )
        dt = 0.01
        n_init = n_surv = 0
        for i in range(2000):
            state = init_for(cfg, i)
            ids = {c.id for c in state.clusters}
            out = evolve_clusters(
                state, cfg, dt, derive_substream(3, "gbsm-evolve", i)
            )
            n_init += len(ids)
            n_surv += sum(1 for c in out.clusters if c.id in ids)
        expected = math.exp(-40.0 * dt)
        assert n_surv / n_init == pytest.approx(expected, rel=0.02)

    def test_stationary_count_matches_chain_oracle(self):
        # Long-run mean cluster count against an independent integer
        # birth-death chain with the same per-step law, and against the
        # immigration-death fixed point birth*dt/(1 - survival).
        death, birth, dt, n0 = 20.0, 100.0, 0.01, 5.0
        p = math.exp(-death * dt)
        b_dt = birth * dt

        def oracle_chain(steps: int, rng) -> float:
            n, total = int(n0), 0
            for _ in range(steps):
                n = rng.binomial(n, p) + rng.poisson(b_dt)
                if n == 0:
                    n = 1
                total += n
            return total / steps

        oracle = oracle_chain(20000, np.random.default_rng(2024))
        analytic = b_dt / (1.0 - p)
        assert oracle == pytest.approx(analytic, rel=0.05)

        cfg = GbsmConfig(
            seed=29, mean_clusters=n0, birth_rate_hz=birth, death_rate_hz=death
        )
        state = init_for(cfg)
        counts = []
        for step in range(1, 10001):
            state = evolve_clusters(
                state, cfg, dt, derive_substream(29, "gbsm-evolve", step)
            )
            counts.append(len(state.clusters))
        mean_count = float(np.mean(counts))
        assert mean_count == pytest.approx(oracle, rel=0.06)
        # with birth_rate = death_rate * n0 the count holds near n0
        assert abs(mean_count - n0) / n0 < 0.2


class TestEvolvedStateInvariants:
    # What ClusterState once checked on every step, held by the producers:
    # powers sum to 1, ids are unique and increasing, delays are >= 0.
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        birth_rate_hz=st.sampled_from([0.0, 50.0, 2000.0, 20000.0]),
        death_rate_hz=st.sampled_from([0.0, 50.0, 2000.0, 20000.0]),
        approach_mps=st.floats(0.0, 1e6),
        steps=st.integers(100, 150),
    )
    def test_every_step_keeps_the_invariants(
        self, seed, birth_rate_hz, death_rate_hz, approach_mps, steps
    ):
        # The receiver closes on the transmitter, fast enough at the top of
        # the range to drive cluster delays into the clamp at 0.
        cfg = GbsmConfig(
            seed=seed, birth_rate_hz=birth_rate_hz, death_rate_hz=death_rate_hz,
            rx_velocity=Point3(-approach_mps, 0.0, 0.0),
        )
        state = init_for(cfg)
        for step in range(steps):
            recs = state.clusters
            assert abs(float(recs.power_linear.sum()) - 1.0) <= 1e-9
            assert np.all(np.diff(recs.id) > 0) and recs.id[-1] < state.next_id
            assert np.all(recs.delay_s >= 0.0)
            rng = derive_substream(seed, "property-evolve", step)
            state = evolve_clusters(state, cfg, cfg.snapshot_interval_s, rng)


class TestSynthesizeSnapshot:
    def test_frozen_reference_snapshot(self):
        cfg = GbsmConfig(seed=42)
        h = synthesize_snapshot(init_for(cfg), cfg, 0.0)
        assert h.shape == (1, 1, 164)
        assert h.dtype == np.complex128
        samples = h[0, 0]
        los_bin = round(10.0 / C / cfg.delay_resolution_s)
        assert los_bin == 43
        assert samples[los_bin].real == pytest.approx(0.8849833133763773, rel=1e-9)
        assert samples[los_bin].imag == pytest.approx(0.10249498986265947, rel=1e-9)
        total = float(np.sum(np.abs(samples) ** 2))
        assert total == pytest.approx(1.0705806989142057, rel=1e-9)

    def test_one_call_gives_every_pair(self):
        cfg = GbsmConfig(seed=19, n_tx=2, n_rx=3)
        h = synthesize_snapshot(init_for(cfg), cfg, 0.0, n_bins=4096)
        assert h.shape == (2, 3, 4096)
        # pair (0, 0) has no array phase: it is the single-antenna snapshot
        single = dataclasses.replace(cfg, n_tx=1, n_rx=1)
        alone = synthesize_snapshot(init_for(single), single, 0.0, n_bins=4096)
        assert np.array_equal(h[0, 0], alone[0, 0])

    def test_mean_energy_is_unity(self):
        cfg = GbsmConfig(seed=7, k_factor_db=10.0 * math.log10(3.0))
        totals = [
            float(np.sum(np.abs(synthesize_snapshot(init_for(cfg, i), cfg, 0.0)[0, 0]) ** 2))
            for i in range(800)
        ]
        assert np.mean(totals) == pytest.approx(1.0, rel=0.05)

    def test_ricean_ratio_tracks_k(self):
        cfg = GbsmConfig(seed=70, k_factor_db=0.0)
        los_bin = round(10.0 / C / cfg.delay_resolution_s)
        los = nlos = 0.0
        for i in range(1200):
            p = np.abs(synthesize_snapshot(init_for(cfg, i), cfg, 0.0)[0, 0]) ** 2
            los += p[los_bin]
            nlos += p.sum() - p[los_bin]
        assert los / nlos == pytest.approx(1.0, rel=0.07)

    def test_large_k_leaves_only_los(self):
        cfg = GbsmConfig(seed=11, k_factor_db=200.0)
        power = np.abs(synthesize_snapshot(init_for(cfg), cfg, 0.0)[0, 0]) ** 2
        los_bin = round(10.0 / C / cfg.delay_resolution_s)
        assert power[los_bin] == pytest.approx(1.0, rel=1e-9)
        rest = np.delete(power, los_bin)
        assert np.all(rest < 1e-15)

    def test_tiny_k_removes_los(self):
        cfg = GbsmConfig(seed=11, k_factor_db=-200.0)
        samples = synthesize_snapshot(init_for(cfg), cfg, 0.0)[0, 0]
        los_bin = round(10.0 / C / cfg.delay_resolution_s)
        assert np.abs(samples[los_bin]) ** 2 < 1e-15

    def test_grid_extends_to_cover_delays(self):
        cfg = GbsmConfig(seed=42)
        state = init_for(cfg)
        short = synthesize_snapshot(state, cfg, 0.0, n_bins=5)[0, 0]
        auto = synthesize_snapshot(state, cfg, 0.0)[0, 0]
        assert short.size == auto.size
        wide = synthesize_snapshot(state, cfg, 0.0, n_bins=4096)[0, 0]
        assert wide.size == 4096
        assert np.array_equal(wide[: auto.size], auto)

    def test_array_phase_differs_across_elements(self):
        cfg = GbsmConfig(seed=19, n_tx=2, n_rx=2)
        h = synthesize_snapshot(init_for(cfg), cfg, 0.0)
        a, b = h[0, 0], h[1, 0]
        los_bin = round(10.0 / C / cfg.delay_resolution_s)
        # broadside arrays: the LOS term is common, scattered rays shift
        assert not np.array_equal(a, b)
        assert np.abs(a).max() > 0.0
        pa = np.abs(a) ** 2
        pb = np.abs(b) ** 2
        assert pa.sum() == pytest.approx(pb.sum(), rel=0.35)
        assert a[los_bin] != b[los_bin] or np.any(np.delete(a, los_bin) != np.delete(b, los_bin))

    def test_doppler_advances_phase_only(self):
        cfg = GbsmConfig(
            seed=23, rx_velocity=Point3(1.5, 0.0, 0.0), birth_rate_hz=0.0,
            death_rate_hz=0.0,
        )
        state = init_for(cfg)
        a = synthesize_snapshot(state, cfg, 0.0)[0, 0]
        b = synthesize_snapshot(state, cfg, 62.5e-6)[0, 0]
        assert not np.array_equal(a, b)
        # 62.5 us of pedestrian motion barely moves the power profile
        pa, pb = np.abs(a) ** 2, np.abs(b) ** 2
        assert np.abs(pa - pb).max() < 0.02

    def test_time_axis_gives_each_instant_bitwise(self):
        # A block of instants, each with its own delay row, is the stack of
        # one call per instant on a state holding that row's delays.
        cfg = GbsmConfig(
            seed=29, n_tx=2, n_rx=3, rays_per_cluster=7, rx_velocity=Point3(1.0, -0.5, 0.0),
            tx_velocity=Point3(0.0, 2.0, 0.0),
        )
        state = init_for(cfg)
        times = np.arange(5, 10) * cfg.snapshot_interval_s
        rows = state.clusters.delay_s + np.arange(5)[:, None] * 3e-9
        block = synthesize_snapshot(state, cfg, times, 400, rows)
        assert block.shape == (5, 2, 3, 400)
        for t_s, row, h in zip(times, rows, block):
            recs = state.clusters.copy()
            recs.delay_s = row
            single = synthesize_snapshot(ClusterState(recs, state.next_id), cfg, float(t_s), 400)
            assert h.tobytes() == single.tobytes()
        # Without delay rows, every instant takes the state's own delays.
        same = synthesize_snapshot(state, cfg, times[:2], 400)
        assert same[1].tobytes() == synthesize_snapshot(state, cfg, times[1], 400).tobytes()


class TestRunScenario:
    def test_shapes_and_time_axis(self):
        cfg = GbsmConfig(seed=31, n_tx=2, n_rx=3, duration_s=0.00625)
        seq = run_scenario(cfg)
        assert seq.cir.shape[:3] == (100, 2, 3)
        assert seq.n_time == 100
        assert seq.t0_s == 0.0
        assert seq.dt_s == cfg.snapshot_interval_s
        times = seq.t0_s + seq.dt_s * np.arange(seq.n_time)
        assert times[0] == 0.0
        assert np.allclose(np.diff(times), cfg.snapshot_interval_s)
        # a snapshot carries no time; entry 4's time is the sequence's
        assert times[4] == pytest.approx(4 * cfg.snapshot_interval_s)
        snap = seq.snapshot(4, 1, 2)
        assert snap.sample_period_s == seq.sample_period_s
        assert np.shares_memory(snap.samples, seq.cir)
        assert np.array_equal(snap.samples, seq.cir[4, 1, 2])

    def test_sequence_validation(self):
        with pytest.raises(ValueError, match="dt_s must be positive"):
            CirSequence(0.0, 0.0, 1e-9, np.zeros((2, 1, 1, 4), dtype=complex))
        with pytest.raises(ValueError, match=r"cir must be \(time, tx, rx, delay\)"):
            CirSequence(0.0, 1e-3, 1e-9, np.zeros((2, 4), dtype=complex))

    def test_step_count_rounds(self):
        cfg = GbsmConfig(seed=31, duration_s=1.0, snapshot_interval_s=0.1)
        assert run_scenario(cfg).n_time == 10

    def test_deterministic_reruns(self):
        cfg = GbsmConfig(seed=37, duration_s=0.003125)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert np.array_equal(a.cir, b.cir)

    def test_rerun_is_byte_identical(self):
        cfg = GbsmConfig(seed=41, n_tx=2, duration_s=0.003125)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.cir.tobytes() == b.cir.tobytes()

    def test_frozen_reference_moving_churn(self):
        # Pins the array-phase and Doppler terms: both ends move, both
        # antenna indices are nonzero, and clusters are born and die.
        cfg = GbsmConfig(
            seed=53,
            n_tx=2,
            n_rx=2,
            rx_velocity=Point3(1.5, 0.5, 0.0),
            tx_velocity=Point3(0.0, -1.0, 0.0),
            birth_rate_hz=2000.0,
            death_rate_hz=2000.0,
            duration_s=40 * 62.5e-6,
        )
        seq = run_scenario(cfg)
        assert seq.cir.shape == (40, 2, 2, 284)
        assert seq.mean_cluster_count == pytest.approx(2.15, rel=1e-12)
        h = seq.cir[-1, 1, 1]
        expected = {
            31: (-0.09597560495955086, 0.028752107719319017),
            34: (0.0812169034567633, -0.06323707465964012),
            36: (-0.14066110641975998, -0.09721823762982132),
            40: (-0.08583860070985308, -0.051669479132554624),
            43: (-0.38548345353582747, -0.8066241368425506),
        }
        for b, (re, im) in expected.items():
            assert h[b].real == pytest.approx(re, rel=1e-12)
            assert h[b].imag == pytest.approx(im, rel=1e-12)
        assert float(np.sum(np.abs(h) ** 2)) == pytest.approx(
            0.9352921942121876, rel=1e-12
        )
        assert float(np.sum(np.abs(seq.cir) ** 2)) == pytest.approx(
            160.8328215516235, rel=1e-12
        )

    def test_static_scenario_is_constant(self):
        cfg = GbsmConfig(
            seed=43, birth_rate_hz=0.0, death_rate_hz=0.0, duration_s=0.000625
        )
        seq = run_scenario(cfg)
        for t in range(1, seq.n_time):
            assert np.array_equal(seq.cir[t], seq.cir[0])

    def test_moving_receiver_drifts_los_delay(self):
        cfg = GbsmConfig(
            seed=47,
            rx_velocity=Point3(30.0, 0.0, 0.0),
            birth_rate_hz=0.0,
            death_rate_hz=0.0,
            duration_s=0.0625,
            k_factor_db=200.0,
        )
        seq = run_scenario(cfg)
        first = int(np.argmax(np.abs(seq.cir[0, 0, 0])))
        last = int(np.argmax(np.abs(seq.cir[-1, 0, 0])))
        drift_bins = 30.0 * cfg.duration_s / C / cfg.delay_resolution_s
        assert last - first == pytest.approx(drift_bins, abs=1.5)

    def test_oversized_request_rejected(self):
        cfg = GbsmConfig(seed=31, duration_s=1000.0)
        with pytest.raises(SizingError, match="snapshots"):
            run_scenario(cfg)

    def test_grid_too_wide_for_los_rejected_before_evolution(self, monkeypatch):
        def no_evolution(*args):
            raise AssertionError("evolution ran")

        monkeypatch.setattr(gbsm, "_evolution", no_evolution)
        cfg = GbsmConfig(seed=31, delay_resolution_s=1e-15)
        with pytest.raises(SizingError, match="snapshots"):
            run_scenario(cfg)

    def test_kept_cluster_states_budgeted(self, monkeypatch, traced_peak):
        # A birth rate of 1e6 /s draws about 62 clusters a step: over 200
        # steps the cluster table would pass 18 MB.  It is refused as it
        # grows past a 1 MiB ceiling, so the run never holds much more.
        monkeypatch.setattr(gbsm, "MAX_CIR_BYTES", 1 << 20)
        cfg = GbsmConfig(seed=31, birth_rate_hz=1e6, duration_s=200 * 62.5e-6)

        def refused():
            with pytest.raises(SizingError, match="^the cluster table of the first"):
                run_scenario(cfg)

        assert traced_peak(refused) < 2 << 20

    def test_cluster_draw_budgeted_before_allocation(self, monkeypatch):
        # The draw's records are checked against the byte ceiling before
        # np.zeros: ten records fit exactly, eleven are refused.
        cfg = GbsmConfig(seed=31)
        monkeypatch.setattr(gbsm, "MAX_CIR_BYTES", 10 * cluster_dtype(20).itemsize)
        rng = np.random.default_rng(0)
        assert len(gbsm._make_clusters(cfg, rng, 10, first_id=0)) == 10
        with pytest.raises(SizingError, match="drawing 11 clusters of 20 rays"):
            gbsm._make_clusters(cfg, rng, 11, first_id=0)

    def test_ray_delays_too_wide_rejected_before_allocation(self):
        # The LOS grid fits; the rays' sub-delays (scale 10 s) would need
        # terabytes, known only after the evolution.
        cfg = GbsmConfig(seed=31, ray_delay_scale_s=10.0)
        with pytest.raises(SizingError, match="snapshots"):
            run_scenario(cfg)

    def test_synthesis_temporaries_budgeted_before_the_cube(self, monkeypatch):
        # One step of 4x4 pairs: the temporaries' bound passes the cube, the
        # kept state and the draw, so a ceiling one byte under it refuses
        # the run before any synthesis, and one at it lets the run through.
        cfg = GbsmConfig(seed=31, n_tx=4, n_rx=4, duration_s=0.0)
        seq = run_scenario(cfg)
        rays = init_for(cfg).clusters.size * cfg.rays_per_cluster
        n_bins = seq.cir.shape[3]
        need = 16 * (gbsm.SYNTH_BYTES_PER_TERM * (1 + rays) + gbsm.SYNTH_BYTES_PER_BIN * n_bins)
        assert need > max(seq.cir.nbytes, init_for(cfg).clusters.nbytes)
        monkeypatch.setattr(gbsm, "MAX_CIR_BYTES", need)
        assert run_scenario(cfg).cir.tobytes() == seq.cir.tobytes()

        def no_synthesis(*args):
            raise AssertionError("synthesis ran")

        monkeypatch.setattr(gbsm, "synthesize_snapshot", no_synthesis)
        monkeypatch.setattr(gbsm, "MAX_CIR_BYTES", need - 1)
        with pytest.raises(
            SizingError,
            match=f"^synthesizing {rays} rays on {n_bins} delay bins for 16 antenna pairs would",
        ):
            run_scenario(cfg)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rays_per_cluster=5000),
            dict(n_tx=2, rays_per_cluster=1000),
            dict(n_tx=2, n_rx=2, rays_per_cluster=1000),
            dict(n_tx=8, n_rx=8, rays_per_cluster=100),
            dict(n_tx=4, n_rx=4, rays_per_cluster=1, mean_clusters=1.0, delay_resolution_s=1e-12),
        ],
        ids=["1x1", "2x1", "2x2", "8x8", "4x4-fine-grid"],
    )
    def test_temporaries_bound_covers_the_traced_peak(self, traced_peak, kwargs):
        cfg = GbsmConfig(seed=3, rx_velocity=Point3(1.0, 0.5, 0.0), **kwargs)
        state = init_for(cfg)
        pairs = cfg.n_tx * cfg.n_rx
        rays = state.clusters.size * cfg.rays_per_cluster
        n_bins = synthesize_snapshot(state, cfg, 1e-3).shape[2]
        peak = traced_peak(synthesize_snapshot, state, cfg, 1e-3)
        bound = gbsm.SYNTH_BYTES_PER_TERM * (1 + rays) + gbsm.SYNTH_BYTES_PER_BIN * n_bins
        assert peak <= pairs * bound

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rays_per_cluster=5000),
            dict(n_tx=4, n_rx=4, rays_per_cluster=1, mean_clusters=1.0, delay_resolution_s=1e-12),
        ],
        ids=["1x1", "4x4-fine-grid"],
    )
    def test_block_temporaries_within_the_bound_per_step(self, traced_peak, kwargs):
        # run_scenario sizes its blocks of steps by this: a block's peak
        # stays within its step count times the one-step bound.
        cfg = GbsmConfig(seed=3, rx_velocity=Point3(1.0, 0.5, 0.0), **kwargs)
        state, steps = init_for(cfg), 8
        rows = np.repeat(state.clusters.delay_s[None], steps, axis=0)
        times = np.arange(steps) * 1e-3
        n_bins = synthesize_snapshot(state, cfg, times, None, rows).shape[3]
        peak = traced_peak(synthesize_snapshot, state, cfg, times, None, rows)
        rays = state.clusters.size * cfg.rays_per_cluster
        bound = gbsm.SYNTH_BYTES_PER_TERM * (1 + rays) + gbsm.SYNTH_BYTES_PER_BIN * n_bins
        assert peak <= steps * cfg.n_tx * cfg.n_rx * bound

    def test_zero_duration_gives_single_snapshot(self):
        cfg = GbsmConfig(seed=31, duration_s=0.0)
        assert run_scenario(cfg).n_time == 1

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                dict(seed=53, n_tx=2, n_rx=3, rx_velocity=Point3(-2.0, 1.0, 0.0),
                     tx_velocity=Point3(0.5, -1.5, 0.0), birth_rate_hz=1500.0,
                     death_rate_hz=1200.0, duration_s=60 * 62.5e-6),
                "c471fb4f1a38b7768e9bfe6cc535e271bc0c651f7999155f2840b3e582c3189e",
            ),
            (
                dict(seed=2024, n_tx=3, rays_per_cluster=7, rx_velocity=Point3(1.0, 0.0, 0.0),
                     birth_rate_hz=800.0, death_rate_hz=800.0, duration_s=50 * 62.5e-6),
                "698b078c3477dca5a549614735eca2301eee62b8bf39a8c45592f2a36504994a",
            ),
            (
                dict(seed=0, n_tx=4, n_rx=4, rx_velocity=Point3(0.7, -0.3, 0.0),
                     birth_rate_hz=1000.0, death_rate_hz=1000.0, duration_s=30 * 62.5e-6),
                "2d496237f31ef04d5379557016bfdbf0b2182aa29a30e9ed32894aaf7b53c66a",
            ),
        ],
        ids=["2x3-churn-both-moving", "3x1-7-rays", "4x4"],
    )
    def test_frozen_cube_digest(self, kwargs, digest):
        # Pins every byte of the cube: each pair's terms in the per-pair,
        # per-ray operation order.
        cir = run_scenario(GbsmConfig(**kwargs)).cir
        assert hashlib.sha256(cir.tobytes()).hexdigest() == digest


DT = 62.5e-6

# The six scenarios the two passes are held to, from a single antenna
# pair with no churn to a grid clamped at zero delay.
TWO_PASS_CASES = {
    "1x1": dict(duration_s=300 * DT),
    "2x2-churn-both-moving": dict(
        n_tx=2, n_rx=2, birth_rate_hz=2000.0, death_rate_hz=2000.0,
        rx_velocity=Point3(1.5, 0.5, 0.0), tx_velocity=Point3(0.0, -1.0, 0.0), duration_s=300 * DT,
    ),
    # Many block boundaries, births and deaths: 193 births at seed 0.
    "2x2-4000-steps": dict(
        n_tx=2, n_rx=2, birth_rate_hz=500.0, death_rate_hz=500.0,
        rx_velocity=Point3(1.5, 0.5, 0.0), tx_velocity=Point3(0.0, -1.0, 0.0), duration_s=0.25,
    ),
    "3x1-7-rays": dict(
        n_tx=3, rays_per_cluster=7, rx_velocity=Point3(1.0, 0.0, 0.0), birth_rate_hz=800.0,
        death_rate_hz=800.0, duration_s=200 * DT,
    ),
    "1x4-clamped": dict(
        n_rx=4, rx_velocity=Point3(-3e5, 0.0, 0.0), birth_rate_hz=500.0, death_rate_hz=500.0,
        duration_s=200 * DT,
    ),
    "nlos-churn": dict(
        k_factor_db=-10.0, birth_rate_hz=100.0, death_rate_hz=100.0, duration_s=1500 * DT,
    ),
}


def stepwise(cfg: GbsmConfig, n_bins: int) -> tuple[np.ndarray, float]:
    """The cube and mean cluster count from the public single-step API:
    init_clusters, then one evolve_clusters and synthesize_snapshot a step."""
    state, cubes, counts = init_for(cfg), [], []
    for t in range(max(1, round(cfg.duration_s / DT))):
        if t:
            state = evolve_clusters(state, cfg, DT, derive_substream(cfg.seed, "gbsm-evolve", t))
        cubes.append(synthesize_snapshot(state, cfg, t * DT, n_bins))
        counts.append(state.clusters.size)
    return np.stack(cubes), float(np.mean(counts))


def block_lengths(monkeypatch) -> list[int]:
    """The steps of each synthesize_snapshot call that run_scenario makes."""
    lengths, synthesize = [], gbsm.synthesize_snapshot

    def recording(state, cfg, t_s, *args):
        lengths.append(np.size(t_s))
        return synthesize(state, cfg, t_s, *args)

    monkeypatch.setattr(gbsm, "synthesize_snapshot", recording)
    return lengths


class TestTwoPasses:
    @pytest.mark.parametrize("seed", [0, 53, 2024])
    @pytest.mark.parametrize("case", TWO_PASS_CASES)
    def test_cube_is_the_single_step_loop(self, case, seed):
        cfg = GbsmConfig(seed=seed, **TWO_PASS_CASES[case])
        seq = run_scenario(cfg)
        cir, mean_count = stepwise(cfg, seq.cir.shape[3])
        assert seq.cir.tobytes() == cir.tobytes()
        assert seq.mean_cluster_count == mean_count

    def test_runs_of_one_block_and_around_it(self, monkeypatch):
        # No churn: one segment, cut into blocks of the byte target's length.
        cfg = GbsmConfig(
            seed=53, n_tx=2, n_rx=2, rx_velocity=Point3(1.5, 0.5, 0.0), birth_rate_hz=0.0,
            death_rate_hz=0.0, duration_s=100 * DT,
        )
        lengths = block_lengths(monkeypatch)
        run_scenario(cfg)
        block = lengths[0]
        assert 2 < block < 100 and lengths[:-1] == [block] * (len(lengths) - 1)
        for steps in (1, block - 1, block, block + 1):
            lengths.clear()
            short = dataclasses.replace(cfg, duration_s=steps * DT)
            seq = run_scenario(short)
            assert lengths == [block] * (steps // block) + [steps % block] * (steps % block > 0)
            assert seq.cir.tobytes() == stepwise(short, seq.cir.shape[3])[0].tobytes()

    def test_churn_on_the_first_and_last_step_of_blocks(self, monkeypatch):
        # Births and deaths cut segments of 1 step (a change on a block's
        # first and its last step), of exactly one block (the next change
        # right after its last step) and of one step more.
        cfg = GbsmConfig(seed=0, **TWO_PASS_CASES["2x2-churn-both-moving"])
        lengths = block_lengths(monkeypatch)
        seq = run_scenario(cfg)
        block = max(lengths)
        _, segments = gbsm._evolution(cfg, seq.n_time)
        runs = [len(delays) for _, _, delays in segments]
        assert 1 in runs and block in runs and block + 1 in runs and len(set(runs)) > 5
        assert sum(lengths) == seq.n_time == sum(runs)
        assert seq.cir.tobytes() == stepwise(cfg, seq.cir.shape[3])[0].tobytes()

    def test_run_holds_under_half_a_kilobyte_a_step_beside_the_cube(self, traced_peak):
        # Each cluster's record is stored once, so the run grows by its delay
        # rows alone; one record copy per step took 2093 B a step here.
        steps, seqs = 20_000, []
        cfg = GbsmConfig(seed=3, duration_s=steps * DT)
        peak = traced_peak(lambda: seqs.append(run_scenario(cfg)))
        assert (peak - seqs[0].cir.nbytes) / steps <= 500


class TestBudget:
    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(gbsm, "MAX_CIR_BYTES", 1000)
        gbsm._budget(1000, "the limit")
        gbsm._budget(1000.0, "the limit")
        for nbytes in (1001, 1000.5, math.nan, math.inf):
            with pytest.raises(SizingError, match=f"^x would take {nbytes:g} bytes; limit 1000$"):
                gbsm._budget(nbytes, "x")
