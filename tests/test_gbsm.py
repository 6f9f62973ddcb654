"""Stochastic cluster generator: determinism, power bookkeeping, kinematics."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.constants import c as C0

from dcmkit import (AntennaArray, ClusterSet, GbsmConfig, Taps, dynamic_cir,
                    spawn_clusters)
from dcmkit.gbsm import _draw_clusters, _ray_vectors, ray_delays

LOC = ((0.0, 0.0, 0.0), (50.0, 0.0, 0.0))
ORIGIN = np.zeros(3)


def one_ray_cluster(d_t=50.0, d_r=65.0, aod=(0.0, 0.0), aoa=(0.0, math.pi / 2),
                    vel_a=(0.0, 0.0, 0.0), vel_z=(0.0, 0.0, 0.0),
                    virtual=0.0, power=1.0):
    return ClusterSet(power=np.array([power]), distance=np.array([[d_t, d_r]]),
                      direction=np.array([[aod, aoa]]),
                      velocity=np.array([[vel_a, vel_z]]),
                      virtual_delay=np.array([virtual]),
                      offset=np.zeros((1, 1, 2, 2)),
                      phases=np.zeros((1, 1, 4)), xpr=np.full((1, 1), math.inf))


def ray_delay(cl, t, tx_offset=ORIGIN):
    """Delay of the first ray at time t."""
    return float(ray_delays(cl, t, (0.0,), tx_offset, ORIGIN)[0, 0])


def same(a: ClusterSet, b: ClusterSet) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(ClusterSet))


def test_spawn_is_deterministic():
    cfg = GbsmConfig(seed=42)
    assert same(spawn_clusters(cfg, LOC), spawn_clusters(cfg, LOC))
    assert not same(spawn_clusters(cfg, LOC),
                    spawn_clusters(cfg.with_overrides(seed=43), LOC))
    other = ((0.0, 0.0, 0.0), (51.0, 0.0, 0.0))
    assert not same(spawn_clusters(cfg, LOC), spawn_clusters(cfg, other))


def test_cluster_streams_follow_their_seed_sequence():
    # one block random((n, 13 + 14 m)) drawn from SeedSequence([seed &
    # (2**64 - 1), *location words]); row c is cluster c, with its anchor
    # distance d_t in column 0 and its virtual delay in column 10
    loc = ((0.0, -0.0, 1.5), (2.5e-310, -3.0, 1e300))  # zero, subnormal, sign bits
    words = np.asarray(loc, dtype=np.float64).reshape(-1).view(np.uint64)
    # 2**32 - 1 and 2**32 straddle a word boundary: a zero low word with a
    # non-zero high word
    for seed in (0, 5, -1, 2**70 + 3, 2**32 - 1, 2**32):
        cfg = GbsmConfig(seed=seed, n_clusters=3)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [seed & 0xFFFFFFFFFFFFFFFF, *(int(w) for w in words)])))
        block = rng.random((3, 13 + 14 * cfg.rays_per_cluster))
        clusters = spawn_clusters(cfg, loc)
        low, high = cfg.anchor_range
        assert np.array_equal(clusters.distance[:, 0], low + (high - low) * block[:, 0])
        assert np.array_equal(clusters.virtual_delay,
                              -cfg.virtual_delay_mean * np.log1p(-block[:, 10]))


DEFAULT = GbsmConfig()
# the exact law of each drawn quantity under the default configuration
LAWS = {
    "anchor": sps.uniform(DEFAULT.anchor_range[0],
                          DEFAULT.anchor_range[1] - DEFAULT.anchor_range[0]),
    "virtual_delay": sps.expon(scale=DEFAULT.virtual_delay_mean),
    "offsets": sps.laplace(scale=DEFAULT.angle_spread_intra),
    "phases": sps.uniform(0.0, 2.0 * math.pi),
    "xpr_db": sps.norm(DEFAULT.xpr_mean_db, DEFAULT.xpr_std_db),
    "velocity_sin_el": sps.uniform(-1.0, 2.0),
}


@pytest.fixture(scope="module")
def drawn():
    """Samples of each law, pooled over every cluster of 2000 default
    spawns at seeds 0..1999."""
    sets = [spawn_clusters(DEFAULT.with_overrides(seed=seed), LOC)
            for seed in range(2000)]

    def pool(name):
        return np.concatenate([getattr(s, name) for s in sets])

    return {
        "anchor": pool("distance")[:, 0],
        "virtual_delay": pool("virtual_delay"),
        "offsets": np.concatenate([pool("offset")[:, :, 0].ravel(),
                                   pool("offset")[:, :, 1].ravel()]),
        "phases": pool("phases").ravel(),
        "xpr_db": 10.0 * np.log10(pool("xpr").ravel()),
        "velocity_sin_el": np.concatenate([pool("velocity")[:, 0, 2],
                                           pool("velocity")[:, 1, 2]]) / DEFAULT.cluster_speed,
    }


@pytest.mark.parametrize("law", sorted(LAWS))
def test_drawn_laws_match_their_distributions(drawn, law):
    # fixed-seed KS test of each drawn law against its exact CDF
    assert sps.kstest(drawn[law], LAWS[law].cdf).pvalue > 0.01


def test_cluster_streams_are_order_independent():
    # cluster n draws the same values no matter how many siblings exist
    cfg5 = GbsmConfig(seed=9, n_clusters=5)
    cfg15 = GbsmConfig(seed=9, n_clusters=15)
    a = spawn_clusters(cfg5, LOC)
    b = spawn_clusters(cfg15, LOC)
    for name in ("direction", "distance", "offset", "phases", "xpr"):
        assert np.array_equal(getattr(a, name), getattr(b, name)[:5])
        # powers renormalize across the ensemble, so those differ
    assert abs(sum(a.power) - 1.0) < 1e-12
    assert abs(sum(b.power) - 1.0) < 1e-12


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seeds=st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=6),
       n_clusters=st.integers(0, 6), rays=st.integers(1, 4),
       speed=st.floats(0.0, 5.0),
       loc=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
def test_block_draw_equals_single_spawns(seeds, n_clusters, rays, speed, loc):
    """Member e of a block draw is spawn_clusters with seeds[e], bit for bit."""
    cfg = GbsmConfig(n_clusters=n_clusters, rays_per_cluster=rays, cluster_speed=speed)
    location = (tuple(loc[:3]), tuple(loc[3:]))
    block = _draw_clusters(cfg, seeds, location)
    assert len(block) == len(seeds) * n_clusters
    for e, seed in enumerate(seeds):
        one = spawn_clusters(cfg.with_overrides(seed=seed), location)
        rows = slice(e * n_clusters, (e + 1) * n_clusters)
        for f in fields(ClusterSet):
            mine, theirs = getattr(block, f.name)[rows], getattr(one, f.name)
            assert mine.shape == theirs.shape, f.name
            assert mine.tobytes() == theirs.tobytes(), f.name


def test_cluster_power_normalization():
    clusters = spawn_clusters(GbsmConfig(seed=3), LOC)
    assert len(clusters) == 15
    assert abs(math.fsum(clusters.power) - 1.0) < 1e-12
    assert np.all(clusters.power > 0.0)
    for power, rays in zip(clusters.power, clusters.ray_power):
        assert abs(math.fsum(rays) / power - 1.0) < 1e-12
        assert len(rays) == 10


def test_draws_respect_configured_ranges():
    cfg = GbsmConfig(seed=11, n_clusters=40,
                     anchor_range=(30.0, 40.0),
                     elevation_range=(-0.1, 0.1),
                     azimuth_range=(0.5, 1.0))
    c = spawn_clusters(cfg, LOC)
    assert np.all((30.0 <= c.distance[:, 0]) & (c.distance[:, 0] <= 40.0))
    assert np.all((30.0 <= c.distance[:, 1]) & (c.distance[:, 1] <= 40.0))
    assert np.all((-0.1 <= c.direction[:, 0, 0]) & (c.direction[:, 0, 0] <= 0.1))
    assert np.all((0.5 <= c.direction[:, 0, 1]) & (c.direction[:, 0, 1] <= 1.0))
    assert np.all((0.5 <= c.direction[:, 1, 1]) & (c.direction[:, 1, 1] <= 1.0))
    assert np.all(c.virtual_delay >= 0.0)


def test_speed_scales_velocities_without_redrawing():
    slow = spawn_clusters(GbsmConfig(seed=5, cluster_speed=0.5), LOC)
    fast = spawn_clusters(GbsmConfig(seed=5, cluster_speed=1.0), LOC)
    assert np.array_equal(slow.direction, fast.direction)
    assert np.array_equal(slow.power, fast.power)
    assert np.array_equal(slow.virtual_delay, fast.virtual_delay)
    # same direction draws, twice the speed
    assert np.array_equal(fast.velocity, 2.0 * slow.velocity)


def end_vectors(cl, t, dt):
    """Element-to-anchor vectors (3, R, Q) at the transmit and receive ends."""
    planes = np.array(list(_ray_vectors(cl, t, dt, ORIGIN, ORIGIN)))
    return planes[:3], planes[3:]


def test_anchor_displacement_is_speed_times_time():
    cluster = spawn_clusters(GbsmConfig(seed=1, n_clusters=1), LOC)
    tx_before, rx_before = end_vectors(cluster, 0.0, (0.0,))
    tx_after, rx_after = end_vectors(cluster, 1.0, (0.0,))
    moved_tx = np.linalg.norm(tx_after - tx_before, axis=0)
    moved_rx = np.linalg.norm(rx_after - rx_before, axis=0)
    assert np.allclose(moved_tx, 0.5, atol=1e-12)
    assert np.allclose(moved_rx, 0.5, atol=1e-12)
    # a time offset moves the anchors like the base time does
    tx_later, _ = end_vectors(cluster, 0.0, (1.0,))
    assert np.allclose(tx_later, tx_after, atol=1e-12)
    with pytest.raises(ValueError):
        dynamic_cir(cluster, AntennaArray(), AntennaArray(), -0.1,
                    GbsmConfig(n_clusters=1))


def test_ray_delay_matches_geometry():
    cl = one_ray_cluster(virtual=25e-9)
    expected = (50.0 + 65.0) / C0 + 25e-9
    assert abs(ray_delay(cl, 0.0) - expected) < 1e-18
    # element offsets shorten or stretch the legs
    shifted = ray_delay(cl, 0.0, tx_offset=(1.0, 0.0, 0.0))
    assert abs(shifted - ((49.0 + 65.0) / C0 + 25e-9)) < 1e-18
    with pytest.raises(ValueError):
        one_ray_cluster(power=-1.0)
    with pytest.raises(ValueError):
        one_ray_cluster(virtual=-1e-9)


@st.composite
def delay_grids(draw):
    """(t, dt grid, tx offset, rx offset); an offset is one (3,) vector or one per dt."""
    coordinate = st.floats(-2.0, 2.0)
    vector = st.tuples(coordinate, coordinate, coordinate)
    dt = draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6))
    per_point = st.lists(vector, min_size=len(dt), max_size=len(dt))
    tx, rx = (np.array(draw(st.one_of(vector, per_point))) for _ in range(2))
    return draw(st.floats(0.0, 100.0)), np.array(dt), tx, rx


@settings(max_examples=40, deadline=None)
@given(delay_grids())
def test_ray_delays_are_leg_lengths_of_ray_vectors(grid):
    # component by component, the same bits as the lengths of the vectors
    t, dt, tx_offset, rx_offset = grid
    clusters = spawn_clusters(GbsmConfig(seed=7, n_clusters=3, rays_per_cluster=4), LOC)
    x_t, y_t, z_t, x_r, y_r, z_r = _ray_vectors(clusters, t, dt, tx_offset, rx_offset)
    d_t = np.sqrt(x_t * x_t + y_t * y_t + z_t * z_t)
    d_r = np.sqrt(x_r * x_r + y_r * y_r + z_r * z_r)
    expected = (d_t + d_r) / C0 + clusters.virtual_delay.repeat(4)[:, None]
    delays = ray_delays(clusters, t, dt, tx_offset, rx_offset)
    assert delays.shape == (12, len(dt))
    assert delays.tobytes() == expected.tobytes()


def test_zero_time_offsets_leave_the_delays_alone():
    # an all-zero dt grid copies the anchors, a grid with a non-zero dt adds
    # v dt to every column: the zero columns agree bit for bit
    clusters = spawn_clusters(GbsmConfig(seed=7), LOC)
    offset = np.array([0.1, -0.2, 0.05])
    still = ray_delays(clusters, 0.3, np.zeros(3), offset, ORIGIN)
    moving = ray_delays(clusters, 0.3, np.array([0.0, 0.0, 0.0, 1.0]), offset, ORIGIN)
    assert still.tobytes() == moving[:, :3].tobytes()
    assert not np.array_equal(moving[:, 3], moving[:, 0])


def test_radial_recession_doppler():
    # both anchors recede along their own radial: delay rate is exactly 1/c
    cl = one_ray_cluster(aod=(0.0, 0.0), aoa=(0.0, 0.0),
                         vel_a=(0.5, 0.0, 0.0), vel_z=(0.5, 0.0, 0.0))
    h = 1e-3
    rate = (ray_delay(cl, h) - ray_delay(cl, 0.0)) / h
    assert abs(rate - 1.0 / C0) < 1e-9 / C0
    # carrier phase drift in the synthesized taps matches -f_c * rate
    # taps keep exp(+j 2 pi f_c tau): a growing delay advances the phase at
    # +f_c/c m/s; the spectral transform maps that to negative Doppler
    cfg = GbsmConfig(n_clusters=1, rays_per_cluster=1)
    arr = AntennaArray()
    t0 = dynamic_cir(cl, arr, arr, 0.0, cfg)[(0, 0)]
    t1 = dynamic_cir(cl, arr, arr, h, cfg)[(0, 0)]
    phase_step = np.angle(t1.amps[0] / t0.amps[0])
    drift = phase_step / (2.0 * math.pi * h)
    expected = cfg.carrier_frequency / C0
    assert abs(drift - expected) < 1e-3 * expected
    assert abs(expected - 18.346) < 0.01


def test_dynamic_cir_unit_power():
    cfg = GbsmConfig(seed=8)
    clusters = spawn_clusters(cfg, LOC)
    arr = AntennaArray()
    taps = dynamic_cir(clusters, arr, arr, 0.0, cfg)[(0, 0)]
    assert len(taps) == 150
    assert abs(taps.power - 1.0) < 1e-9
    assert all(k.startswith("dyn:") for k in taps.kinds)


def test_dynamic_cir_covers_all_pairs():
    cfg = GbsmConfig(seed=8, n_clusters=2)
    clusters = spawn_clusters(cfg, LOC)
    out = dynamic_cir(clusters, AntennaArray(n_elements=2),
                      AntennaArray(n_elements=3), 0.0, cfg)
    assert set(out) == {(v, u) for v in range(2) for u in range(3)}
    powers = [out[k].power for k in sorted(out)]
    assert np.allclose(powers, 1.0, atol=1e-9)


def test_empty_cluster_list():
    cfg = GbsmConfig(n_clusters=0)
    clusters = spawn_clusters(cfg, LOC)
    assert len(clusters) == 0
    out = dynamic_cir(clusters, AntennaArray(), AntennaArray(), 0.0, cfg)
    assert len(out[(0, 0)]) == 0
    assert out[(0, 0)].power == 0.0


def test_taps_merge_keeps_delay_order():
    a = Taps(np.array([3e-7, 1e-7]), np.array([1 + 0j, 2 + 0j]), ("x", "y"))
    b = Taps(np.array([2e-7]), np.array([3 + 0j]), ("z",))
    merged = a.merged(b)
    assert list(merged.delays) == sorted([1e-7, 2e-7, 3e-7])
    assert merged.kinds == ("y", "z", "x")
    assert abs(merged.power - (1 + 4 + 9)) < 1e-12
    scaled = merged.scaled(0.5)
    assert abs(scaled.power - merged.power * 0.25) < 1e-12


def test_antenna_array_geometry():
    arr = AntennaArray(n_elements=4, spacing=0.03, orientation=(0.0, math.pi / 2))
    assert np.allclose(arr.element_offset(0), [0, 0, 0])
    assert np.allclose(arr.element_offset(2), [0, 0.06, 0], atol=1e-12)
    with pytest.raises(ValueError):
        arr.element_offset(4)
    with pytest.raises(ValueError):
        AntennaArray(n_elements=0)
    with pytest.raises(ValueError):
        AntennaArray(spacing=0.0)
    # non-finite spacing or orientation would give NaN taps or a NaN axis,
    # and a count that is not an integer, or an orientation that is not two
    # angles, would fail later with a TypeError
    for bad in ({"spacing": math.nan}, {"spacing": math.inf},
                {"orientation": (math.nan, 0.0)}, {"orientation": (0.0, -math.inf)},
                {"orientation": (0.0, 0.0, 1.0)},
                {"n_elements": 2.5}, {"n_elements": True}, {"n_elements": "2"}):
        with pytest.raises(ValueError):
            AntennaArray(**bad)
    assert AntennaArray(n_elements=np.int64(3)).n_elements == 3


def test_config_validation():
    with pytest.raises(ValueError):
        GbsmConfig(n_clusters=-1)
    with pytest.raises(ValueError):
        GbsmConfig(rays_per_cluster=0)
    with pytest.raises(ValueError):
        GbsmConfig(delay_decay=0.0)
    with pytest.raises(ValueError):
        GbsmConfig(anchor_range=(0.0, 10.0))
    with pytest.raises(ValueError):
        GbsmConfig(cluster_speed=-1.0)
    # uniform draws need finite ranges with low <= high
    for name, bad in (("anchor_range", (20.0, math.inf)), ("elevation_range", (0.2, 0.1)),
                      ("azimuth_range", (-math.inf, 0.0)), ("azimuth_range", (0.0, math.nan))):
        with pytest.raises(ValueError, match=f"bad {name}"):
            GbsmConfig(**{name: bad})
    # every float field must be finite: range checks are false for NaN
    for name in ("carrier_frequency", "cluster_speed", "delay_decay",
                 "virtual_delay_mean", "angle_spread_intra", "xpr_mean_db",
                 "xpr_std_db", "copolar_imbalance", "shadow_std_db"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GbsmConfig(**{name: bad})
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GbsmConfig().with_overrides(**{name: np.float64(bad)})
    cfg = GbsmConfig().with_overrides(n_clusters=7, seed=99)
    assert cfg.n_clusters == 7 and cfg.seed == 99
    assert GbsmConfig().n_clusters == 15


# one valid value per field, different from its default
OVERRIDES = {
    "n_clusters": 4, "rays_per_cluster": 3, "carrier_frequency": 28e9,
    "cluster_speed": 1.5, "delay_decay": 1e-7, "virtual_delay_mean": 5e-9,
    "angle_spread_intra": 0.1, "xpr_mean_db": 6.0, "xpr_std_db": 2.0,
    "copolar_imbalance": 0.5, "shadow_std_db": 4.0, "anchor_range": (10.0, 50.0),
    "elevation_range": (-0.1, 0.2), "azimuth_range": (0.0, 1.0), "seed": 2**40 + 1,
}


def construction_error(**kwargs) -> str:
    with pytest.raises(ValueError) as err:
        GbsmConfig(**kwargs)
    return str(err.value)


@pytest.mark.parametrize("name", sorted(OVERRIDES))
def test_overrides_equal_construction(name):
    assert set(OVERRIDES) == {f.name for f in fields(GbsmConfig)}
    value = OVERRIDES[name]
    # numpy scalars and lists convert as they do on construction
    pair = isinstance(value, tuple)
    given = [value, list(value) if pair else np.asarray(value)[()]]
    for v in given:
        over, built = GbsmConfig().with_overrides(**{name: v}), GbsmConfig(**{name: v})
        assert over == built and hash(over) == hash(built)
        assert type(getattr(over, name)) is type(getattr(built, name))
    bads = [True, "1", math.nan, math.inf] + ([(1.0,), (1.0, 2.0, 3.0), (1.0, math.nan),
                                              (value[1] + 1.0, value[1])] if pair else [])
    for bad in bads:
        message = construction_error(**{name: bad})
        with pytest.raises(ValueError) as err:
            GbsmConfig().with_overrides(**{name: bad})
        assert str(err.value) == message, (name, bad)


def test_overrides_keep_cross_field_rules():
    base = GbsmConfig()
    for bad in ({"n_clusters": -1}, {"rays_per_cluster": 0}, {"delay_decay": 0.0},
                {"cluster_speed": -1.0}, {"anchor_range": (0.0, 10.0)}):
        message = construction_error(**bad)
        with pytest.raises(ValueError) as err:
            base.with_overrides(**bad)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="unknown config fields: bogus, nope"):
        base.with_overrides(nope=1, bogus=2)
    # a valid override leaves the original untouched
    assert base.with_overrides(n_clusters=2).n_clusters == 2 and base.n_clusters == 15


def test_dynamic_rays_identified_by_cluster_and_ray():
    cfg = GbsmConfig(seed=2, n_clusters=2, rays_per_cluster=3)
    clusters = spawn_clusters(cfg, LOC)
    taps = dynamic_cir(clusters, AntennaArray(), AntennaArray(), 0.0, cfg)[(0, 0)]
    assert set(taps.kinds) == {f"dyn:{c}:{r}" for c in range(2) for r in range(3)}
