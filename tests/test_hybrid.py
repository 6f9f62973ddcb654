"""Static/dynamic mixing, power bookkeeping and narrowband series."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.constants import c as C0

from dcmkit import (AntennaArray, ChannelModel, GbsmConfig, KFactors, Mpc, PathSet,
                    combine_cir, rician_params, loads_scene, static_cir,
                    trace_static_mpcs)
from dcmkit import hybrid
from dcmkit import gbsm
from dcmkit.gbsm import (Taps, _draw_clusters, dynamic_cir, isotropic_pattern,
                         ray_taps, spawn_clusters)

from conftest import ROOM_SCENE, make_model, total_power
from test_golden import LOC, _array

FC = 5.5e9


def nlos_mpc(delay=2e-7, power=0.5, az=0.3):
    return Mpc(delay=delay, power=power, aod=(0.0, az), aoa=(0.0, -az),
               phases=(0.1, 0.2, 0.3, 0.4), xpr=6.3, kind="refl:1")


def los_mpc(delay=1e-7, power=1.0):
    return Mpc(delay=delay, power=power, aod=(0.0, 0.0), aoa=(0.0, 0.0),
               phases=(0.0, 0.0, 0.0, 0.0), xpr=math.inf, kind="los")


def test_compose_k_examples():
    assert KFactors(2.0, 2.0).k == 1.0
    assert KFactors(10.0, math.inf).k == 10.0
    assert KFactors(3.0, 6.0).k == 2.0
    assert KFactors(math.inf, math.inf).k == math.inf
    # 1e-310 > 0 but 1/1e-310 overflows, and 1/1e-308 + 1/1e-308 does too
    for k_s, k_d in [(0.0, 1.0), (1.0, -2.0), (-1.0, 2.0), (math.nan, 1.0),
                     (1.0, math.nan), (1e-310, 1.0), (1.0, 1e-310),
                     (1e-308, 1e-308)]:
        with pytest.raises(ValueError, match="component ratios must be > 0"):
            KFactors(k_s, k_d)


def test_mixing_weights_partition_power():
    for k_s, k_d in [(0.1, 0.1), (1.0, 2.0), (3.0, 1e6), (math.inf, 5.0),
                     (math.inf, math.inf)]:
        w_s, w_d = KFactors(k_s, k_d).branch_weights
        assert abs(w_s * w_s + w_d * w_d - 1.0) < 1e-12
    assert KFactors(math.inf, math.inf).branch_weights == (1.0, 0.0)


def test_static_branch_split_degenerate_cases():
    k = KFactors(5.0, 1.0)
    assert k.static_split(True, False) == (1.0, 0.0)
    assert k.static_split(False, False) == (0.0, 0.0)
    assert k.static_split(False, True) == (0.0, 1.0)
    w_los, w_nlos = KFactors(1.0, 1.0).static_split(True, True)
    assert abs(w_los**2 - 0.5) < 1e-12 and abs(w_nlos**2 - 0.5) < 1e-12
    w_los, w_nlos = KFactors(3.0, 1.0).static_split(True, True)
    assert abs(w_los**2 / w_nlos**2 - 3.0) < 1e-12


def test_static_cir_two_ray_equal_split():
    arr = AntennaArray()
    mpcs = [los_mpc(delay=334.77e-9), nlos_mpc(delay=335.77e-9, power=1e-9)]
    taps = static_cir(PathSet.of(mpcs), arr, arr, KFactors(1.0, 1.0), frequency=FC)[(0, 0)]
    # k_s = 1 ignores the traced absolute power, the split is exactly half
    assert np.allclose(np.abs(taps.amps) ** 2, [0.5, 0.5], atol=1e-12)
    assert np.allclose(taps.delays, [334.77e-9, 335.77e-9])
    assert taps.kinds == ("los", "refl:1")


def test_static_cir_preserves_relative_nlos_power():
    arr = AntennaArray()
    mpcs = [nlos_mpc(delay=1e-7, power=0.9), nlos_mpc(delay=2e-7, power=0.3)]
    taps = static_cir(PathSet.of(mpcs), arr, arr, KFactors(4.0, 1.0), frequency=FC)[(0, 0)]
    p = np.abs(taps.amps) ** 2
    assert abs(p.sum() - 1.0) < 1e-12  # no LoS: NLoS carries everything
    assert abs(p[0] / p[1] - 3.0) < 1e-9


def test_static_cir_rejects_double_los():
    """static_cir reads a PathSet, and no PathSet holds two LoS paths."""
    arr = AntennaArray()
    with pytest.raises(ValueError, match="^expected at most one line-of-sight path, got 2$"):
        static_cir(PathSet.of([los_mpc(), los_mpc(delay=2e-7)]), arr, arr,
                   KFactors(1.0, 1.0), FC)


def test_static_element_delays_follow_plane_wave():
    rx = AntennaArray(n_elements=2, spacing=0.027, orientation=(0.0, 0.0))
    tx = AntennaArray()
    m = nlos_mpc(az=0.0)  # arrival azimuth 0: straight down the rx axis
    out = static_cir(PathSet.of([m]), tx, rx, KFactors(1.0, 1.0), frequency=FC)
    t0 = out[(0, 0)].delays[0]
    t1 = out[(0, 1)].delays[0]
    # arrival unit vector dotted with the 0.027 m element offset
    assert abs((t0 - t1) - 0.027 / C0) < 1e-18


def test_combine_cir_weights_and_infinite_ratios():
    k = KFactors(2.0, 4.0)
    stat = {(0, 0): Taps(np.array([1e-7]), np.array([1 + 0j]), ("los",))}
    dyn = {(0, 0): Taps(np.array([3e-7]), np.array([1j]), ("dyn:0:0",))}
    snap = combine_cir(stat, dyn, k)
    w_s, w_d = k.branch_weights
    taps = snap.pair(0, 0)
    assert np.allclose(np.abs(taps.amps), [w_s, w_d])
    # an infinite k_d drops the dynamic branch entirely
    only_static = combine_cir(stat, dyn, KFactors(2.0, math.inf))
    assert only_static.pair(0, 0).kinds == ("los",)
    only_dyn = combine_cir(stat, dyn, KFactors(math.inf, 4.0))
    assert "dyn:0:0" in only_dyn.pair(0, 0).kinds and "los" in only_dyn.pair(0, 0).kinds


def test_combine_cir_rejects_mismatched_pairs():
    stat = {(0, 0): Taps.empty()}
    dyn = {(0, 1): Taps.empty()}
    with pytest.raises(ValueError):
        combine_cir(stat, dyn, KFactors(1.0, 1.0))


def test_snapshot_total_power_is_one():
    model = make_model([los_mpc(), nlos_mpc()], k_s=2.0, k_d=5.0, seed=4)
    snap = model.snapshot(0.0)
    assert abs(total_power(snap.pair(0, 0)) - 1.0) < 1e-9


def test_rician_params_exact_power_split():
    model = make_model([los_mpc(), nlos_mpc()], k_s=2.0, k_d=10.0, seed=6)
    amp, sigma2 = rician_params(model.snapshot(0.0))
    w_s, w_d = model.k.branch_weights
    assert abs(2.0 * sigma2 - w_d * w_d) < 1e-12
    static = model.static_taps()[(0, 0)].amps
    assert abs(amp - w_s * static.sum()) < 1e-12


def test_narrowband_series_matches_snapshots():
    model = make_model([los_mpc(), nlos_mpc()], k_s=3.0, k_d=4.0, seed=12)
    t_grid = np.array([0.0, 0.25, 1.0])
    series = model.narrowband_series(t_grid)
    for i, t in enumerate(t_grid):
        direct = model.snapshot(float(t)).pair(0, 0).amps.sum()
        assert abs(series[i] - direct) < 1e-9


def test_narrowband_series_is_chunk_independent(monkeypatch):
    """Any block length gives the same bytes, the one-sample tail included."""
    room = loads_scene(ROOM_SCENE)
    mpcs = trace_static_mpcs(room, LOC[0], LOC[1], max_order=2)
    model = ChannelModel(mpcs, KFactors(2.0, 4.0),
                         GbsmConfig(seed=9, copolar_imbalance=0.8),
                         tx_array=_array(2), rx_array=_array(2), location=LOC)
    t_grid = 0.05 + np.arange(701) * 1e-3   # 701 = 7 * 100 + 1 = 256 * 2 + 189
    series = model.narrowband_series(t_grid, pair=(1, 1))
    clusters = model.spawn()
    rays = len(clusters) * clusters.rays_per_cluster
    for samples in (1, 7, 256, len(t_grid)):
        # a block of `samples` time steps across all rays
        monkeypatch.setattr(hybrid, "_SERIES_BLOCK", samples * rays)
        again = model.narrowband_series(t_grid, pair=(1, 1))
        assert again.tobytes() == series.tobytes(), samples


def envelope_moment_scores(model: ChannelModel, seeds, block: int = 500):
    """z-scores of the pooled second and fourth moments of |h| at t = 0.

    With independent uniform ray phases each realization has, exactly,
    E|h|^2 = |A|^2 + P and E|h|^4 = |A|^4 + 4 |A|^2 P + 2 P^2 - sum a_r^4,
    P = sum a_r^2, where a_r = w_d sqrt(p_r) are the ray amplitudes the law
    asks for and A is the coherent static sum.  The realizations are the
    members of block draws; the first few are checked against the model's
    own `reseeded(seed).narrowband_series`.
    """
    w_s, w_d = model.k.branch_weights
    coherent = w_s * complex(model.static_taps()[(0, 0)].amps.sum())
    a2 = abs(coherent) ** 2
    rays = model.gbsm.n_clusters * model.gbsm.rays_per_cluster
    d2, d4 = [], []
    for lo in range(0, len(seeds), block):
        part = seeds[lo:lo + block]
        clusters = _draw_clusters(model.gbsm, part, model.location)
        amps = ray_taps(clusters, 0.0, (0.0,), model.tx_array, model.rx_array,
                        (0, 0), model.gbsm)[1][:, 0]
        h = coherent + w_d * amps.reshape(len(part), rays).sum(axis=1)
        if lo == 0:
            direct = [model.reseeded(s).narrowband_series([0.0])[0] for s in part[:3]]
            assert np.max(np.abs(h[:3] - direct)) < 1e-12
        ray = w_d ** 2 * clusters.ray_power.reshape(len(part), rays)
        p, s4 = ray.sum(axis=1), (ray ** 2).sum(axis=1)
        e2 = np.abs(h) ** 2
        d2.append(e2 - (a2 + p))
        d4.append(e2 ** 2 - (a2 ** 2 + 4.0 * a2 * p + 2.0 * p ** 2 - s4))
    return [float(np.mean(d) / (np.std(d, ddof=1) / math.sqrt(len(d))))
            for d in map(np.concatenate, (d2, d4))]


@pytest.mark.parametrize("static", [True, False], ids=["rice", "rayleigh"])
def test_envelope_moments_follow_the_finite_ray_law(static):
    """The synthesis meets its exact finite-ray moments at any seed.

    Unlike a distribution test against Rice or Rayleigh, which a finite ray
    sum only approaches, a wrong ray power, phase law, mixing weight or
    pattern gain moves these moments by many standard errors.
    """
    room = loads_scene(ROOM_SCENE)
    location = ((1.0, 1.0, 1.5), (3.0, 3.5, 1.5))
    mpcs = trace_static_mpcs(room, *location, max_order=1) if static else PathSet()
    model = ChannelModel(mpcs, KFactors(6.0, 6.0), GbsmConfig(seed=0),
                         location=location)
    z2, z4 = envelope_moment_scores(model, list(range(4000)))
    assert abs(z2) < 4.5 and abs(z4) < 4.5, (z2, z4)


def test_narrowband_series_rejects_bad_arguments():
    model = make_model([los_mpc()], seed=1)
    with pytest.raises(ValueError, match="t_grid must be 1-D"):
        model.narrowband_series(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="t_grid must be 1-D"):
        model.narrowband_series(0.5)
    with pytest.raises(ValueError, match="times must be >= 0"):
        model.narrowband_series([0.0, -1e-3])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="times must be >= 0 and finite"):
            model.narrowband_series([0.0, bad])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1e-3])
def test_snapshot_times_must_be_finite(t):
    model = make_model([los_mpc()], seed=1)
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        model.snapshot(t)
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        dynamic_cir(model.spawn(), model.tx_array, model.rx_array, t, model.gbsm)


def test_reseeded_changes_only_the_draw():
    model = make_model([los_mpc()], seed=1)
    other = model.reseeded(2)
    assert other.gbsm.seed == 2
    assert other.k == model.k and other.static_mpcs == model.static_mpcs
    s1 = model.narrowband_series(np.arange(4) * 1e-3)
    s2 = other.narrowband_series(np.arange(4) * 1e-3)
    assert not np.allclose(s1, s2)


def test_reseeded_keeps_the_static_taps():
    """Static taps do not depend on the seed, so a reseeded copy reuses them."""
    model = make_model([los_mpc(), nlos_mpc()], seed=1)
    taps = model.static_taps()
    assert model.reseeded(2).static_taps() is taps
    fresh = make_model([los_mpc(), nlos_mpc()], seed=2).static_taps()
    assert all(fresh[key].amps.tobytes() == taps[key].amps.tobytes() for key in taps)


@pytest.mark.parametrize("change", [
    lambda m: {"k": KFactors(0.1, 10.0)},
    lambda m: {"rx_array": AntennaArray(n_elements=2)},
    lambda m: {"gbsm": m.gbsm.with_overrides(carrier_frequency=28e9)},
], ids=["k", "rx_array", "carrier"])
def test_replaced_model_has_fresh_static_taps(change):
    """A replaced field reaches the static taps: no copy keeps stale ones."""
    model = make_model([los_mpc(), nlos_mpc()], seed=1)
    old = model.static_taps()
    new = replace(model, **change(model))
    expected = static_cir(PathSet.of([los_mpc(), nlos_mpc()]), new.tx_array,
                          new.rx_array, new.k, new.gbsm.carrier_frequency)
    taps = new.static_taps()
    assert taps.keys() == expected.keys()
    for key, pair in expected.items():
        assert taps[key].delays.tobytes() == pair.delays.tobytes()
        assert taps[key].amps.tobytes() == pair.amps.tobytes()
        assert taps[key].kinds == pair.kinds
    assert any(key not in old or taps[key].amps.tobytes() != old[key].amps.tobytes()
               for key in taps)
    assert new.snapshot(0.0).taps.keys() == taps.keys()


def test_channel_model_is_an_immutable_value():
    model = make_model([los_mpc(), nlos_mpc()])
    with pytest.raises(FrozenInstanceError):
        model.k = KFactors(1.0, 1.0)
    # the taps are shared by every model with these static inputs
    with pytest.raises(ValueError, match="read-only"):
        model.static_taps()[(0, 0)].amps[0] = 0.0


def test_snapshot_static_subset_constant_over_time():
    model = make_model([los_mpc(), nlos_mpc()], seed=5)
    early = model.snapshot(0.0).pair(0, 0)
    late = model.snapshot(2.0).pair(0, 0)
    stat_early = [(d, a) for d, a, k in zip(early.delays, early.amps, early.kinds)
                  if not k.startswith("dyn:")]
    stat_late = [(d, a) for d, a, k in zip(late.delays, late.amps, late.kinds)
                 if not k.startswith("dyn:")]
    assert stat_early == stat_late
    dyn_early = [d for d, k in zip(early.delays, early.kinds) if k.startswith("dyn:")]
    dyn_late = [d for d, k in zip(late.delays, late.kinds) if k.startswith("dyn:")]
    assert dyn_early != dyn_late


def test_isotropic_shortcut_equals_the_general_path(monkeypatch):
    """Arrays that both use `isotropic_pattern` skip the angles and the
    polarization mix.  A wrapper returns the same (1, 0) but is another
    object, so it takes the general path; both give the same bytes.  The
    directional path is pinned bit for bit by the `dynamic_cir` and
    `narrowband_series` golden digests (tilted pattern, mu = 0.8)."""
    def wrapped(elevation, azimuth):
        return isotropic_pattern(elevation, azimuth)

    def general(array: AntennaArray) -> AntennaArray:
        return replace(array, pattern=wrapped)

    cfg = GbsmConfig(seed=5)
    clusters = spawn_clusters(cfg, LOC)
    tx, rx = AntennaArray(n_elements=2), AntennaArray(n_elements=3)
    slow_cir = dynamic_cir(clusters, general(tx), general(rx), 0.3, cfg)
    mpcs = trace_static_mpcs(loads_scene(ROOM_SCENE), LOC[0], LOC[1], max_order=2)
    assert "los" in mpcs.kinds
    t_grid = 0.05 + np.arange(300) * 1e-3
    models = [ChannelModel(mpcs, KFactors(2.0, 4.0),
                           GbsmConfig(seed=9, copolar_imbalance=mu),
                           tx_array=AntennaArray(n_elements=2),
                           rx_array=AntennaArray(n_elements=2), location=LOC)
              for mu in (1.0, 0.8)]
    slow = [(m.narrowband_series(t_grid, pair=(1, 1)), m.static_taps()[(1, 1)])
            for m in (replace(m, tx_array=general(m.tx_array),
                              rx_array=general(m.rx_array)) for m in models)]

    def no_angles(*args):
        raise AssertionError("the isotropic shortcut reads no angle")

    monkeypatch.setattr(gbsm, "_angles_of", no_angles)
    fast_cir = dynamic_cir(clusters, tx, rx, 0.3, cfg)
    assert sorted(fast_cir) == sorted(slow_cir)
    for key, taps in fast_cir.items():
        assert taps.delays.tobytes() == slow_cir[key].delays.tobytes()
        assert taps.amps.tobytes() == slow_cir[key].amps.tobytes()
    for model, (series, static) in zip(models, slow):
        assert model.narrowband_series(t_grid, pair=(1, 1)).tobytes() == series.tobytes()
        fast_static = model.static_taps()[(1, 1)]
        assert fast_static.amps.tobytes() == static.amps.tobytes()
        assert fast_static.delays.tobytes() == static.delays.tobytes()
