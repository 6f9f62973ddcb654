"""Channel map building, matching, persistence, and online updates."""

import math

import numpy as np
import pytest

from dcmkit import (DcmLookupError, DcmMap, GbsmConfig, KFactors, Mpc,
                    average_delay_psd, build_map, dumps_map, estimate_k_split,
                    grid_points, load_map, loads_map, match_mpcs,
                    model_from_map, query, save_map, update_snapshot,
                    worker_count)
from dcmkit.dcm import MatchResult
from dcmkit.gbsm import Taps
from dcmkit.hybrid import ChannelSnapshot

TX = (1.0, 1.0, 1.5)
POINTS = [(2.0, 2.0, 1.5), (2.5, 2.0, 1.5), (2.0, 2.5, 1.2)]


def path(delay, az, power=1.0, los=False, kind=None):
    return Mpc(delay=delay, power=power, aod=(0.0, 0.0), aoa=(0.0, az),
               phases=(0.0, 0.0, 0.0, 0.0),
               xpr=math.inf if los else 8.0,
               kind="los" if los else (kind or "refl:1"))


def snap(amps, delays, t=0.0):
    taps = Taps(np.asarray(delays, dtype=float),
                np.asarray(amps, dtype=complex),
                tuple("p%d" % i for i in range(len(delays))))
    return ChannelSnapshot(t=t, location=(0.0, 0.0, 0.0), taps={(0, 0): taps})


# ---------------------------------------------------------------------------
# path matching

def test_match_mpcs_scaled_distance():
    ref = [path(100e-9, math.radians(30.0))]
    sim = [path(102e-9, math.radians(31.0))]
    res = match_mpcs(ref, sim, scales=(5e-9, math.radians(5.0)), threshold=1.0)
    assert res.pairs == ((0, 0),)
    want = math.hypot(2.0 / 5.0, 1.0 / 5.0)
    assert abs(res.distances[0] - want) < 1e-12
    assert res.unmatched_ref == () and res.unmatched_sim == ()
    assert res.scales == (5e-9, math.radians(5.0))
    assert res.threshold == 1.0


def test_match_mpcs_threshold_excludes():
    ref = [path(100e-9, math.radians(30.0))]
    sim = [path(102e-9, math.radians(31.0))]
    res = match_mpcs(ref, sim, scales=(5e-9, math.radians(5.0)), threshold=0.4)
    assert res.pairs == ()
    assert res.unmatched_ref == (0,) and res.unmatched_sim == (0,)


def test_match_mpcs_greedy_nearest_first():
    # one simulated path between two references: closest reference wins
    ref = [path(100e-9, 0.0), path(104e-9, 0.0)]
    sim = [path(101e-9, 0.0)]
    res = match_mpcs(ref, sim, scales=(5e-9, math.radians(5.0)))
    assert res.pairs == ((0, 0),)
    assert res.unmatched_ref == (1,)
    # azimuth differences wrap around
    res = match_mpcs([path(100e-9, math.pi - 0.01)],
                     [path(100e-9, -math.pi + 0.01)],
                     scales=(5e-9, math.radians(5.0)))
    assert res.pairs == ((0, 0),)


def test_match_mpcs_symmetric_pairing():
    ref = [path(100e-9, 0.10), path(110e-9, 0.50), path(130e-9, -0.40)]
    sim = [path(101e-9, 0.12), path(112e-9, 0.52), path(131e-9, -0.38)]
    fwd = match_mpcs(ref, sim)
    rev = match_mpcs(sim, ref)
    assert {(i, j) for i, j in fwd.pairs} == {(j, i) for i, j in rev.pairs}
    assert fwd.scales == rev.scales


def test_estimate_k_split_from_match():
    ref = [path(100e-9, 0.0, power=1.0, los=True),
           path(140e-9, 0.5, power=0.5),
           path(180e-9, 1.0, power=0.25)]
    # only the 0.5 path is reproduced by the static trace
    match = MatchResult(pairs=((0, 0), (1, 1)), distances=(0.0, 0.1),
                        unmatched_ref=(2,), unmatched_sim=())
    k = estimate_k_split(match, ref)
    assert abs(k.k_s - 2.0) < 1e-12
    assert abs(k.k_d - 4.0) < 1e-12
    assert abs(k.k - 4.0 / 3.0) < 1e-12


def test_estimate_k_split_degenerate_groups():
    ref = [path(100e-9, 0.0, power=1.0, los=True),
           path(140e-9, 0.5, power=0.5)]
    all_matched = MatchResult(pairs=((1, 0),), distances=(0.1,),
                              unmatched_ref=(0,), unmatched_sim=())
    k = estimate_k_split(all_matched, ref)
    assert k.k_d == math.inf and abs(k.k - k.k_s) < 1e-12
    none_matched = MatchResult(pairs=(), distances=(),
                               unmatched_ref=(0, 1), unmatched_sim=())
    k = estimate_k_split(none_matched, ref)
    assert k.k_s == math.inf and abs(k.k - k.k_d) < 1e-12


def test_estimate_k_split_requires_one_los():
    match = MatchResult(pairs=(), distances=(), unmatched_ref=(0,),
                        unmatched_sim=())
    with pytest.raises(ValueError):
        estimate_k_split(match, [path(100e-9, 0.0)])
    two_los = [path(100e-9, 0.0, los=True), path(120e-9, 0.0, los=True)]
    with pytest.raises(ValueError):
        estimate_k_split(match, two_los)


# ---------------------------------------------------------------------------
# coherent delay profile averaging

def test_average_delay_psd_repeatable_path_survives():
    grid = np.arange(20) * 50e-9
    snaps = [snap([0.6 + 0.8j], [150e-9]), snap([0.6 + 0.8j], [150e-9])]
    psd = average_delay_psd(snaps, grid)
    masses = psd.density * np.gradient(grid)
    assert abs(masses[3] - 1.0) < 1e-12
    assert abs(psd.mass - 1.0) < 1e-12


def test_average_delay_psd_random_phase_cancels():
    grid = np.arange(20) * 50e-9
    snaps = [snap([0.6 + 0.8j], [150e-9]), snap([-0.6 - 0.8j], [150e-9])]
    psd = average_delay_psd(snaps, grid)
    assert psd.mass == 0.0


def test_average_delay_psd_noise_floor():
    grid = np.arange(20) * 50e-9
    lo = 10.0 ** (-25.0 / 20.0)   # 5 dB above the -30 dB floor: zeroed
    hi = 10.0 ** (-23.0 / 20.0)   # 7 dB above: kept
    snaps = [snap([1.0, lo, hi], [0.0, 150e-9, 300e-9])]
    psd = average_delay_psd(snaps, grid, noise_floor_db=-30.0)
    masses = psd.density * np.gradient(grid)
    assert masses[3] == 0.0
    assert masses[6] > 0.0


def test_average_delay_psd_spill_and_errors():
    grid = np.arange(20) * 50e-9
    psd = average_delay_psd([snap([0.5, 2.0], [100e-9, 5e-6])], grid)
    assert abs(psd.clipped - 4.0) < 1e-12
    with pytest.raises(ValueError):
        average_delay_psd([], grid)


# ---------------------------------------------------------------------------
# building and lookup

def test_grid_points_ordering_and_validation():
    pts = grid_points((0.0, 0.0, 1.5), (2, 2, 1), (0.5, 1.0, 0.0))
    assert pts == [(0.0, 0.0, 1.5), (0.0, 1.0, 1.5),
                   (0.5, 0.0, 1.5), (0.5, 1.0, 1.5)]
    assert grid_points((0, 0, 0), (1, 1, 2), 2.0) == [(0.0, 0.0, 0.0),
                                                      (0.0, 0.0, 2.0)]
    with pytest.raises(ValueError):
        grid_points((0, 0, 0), (0, 1, 1), 1.0)


def test_build_map_records_every_point(room_scene):
    dmap = build_map(room_scene, TX, POINTS, max_order=1,
                     k_s=4.0, k_d=8.0)
    assert set(dmap.records) == set(POINTS)
    assert dmap.frequency == GbsmConfig().carrier_frequency
    assert dmap.max_order == 1
    assert dmap.scene_hash == room_scene.source_hash
    for rx, rec in dmap.records.items():
        assert rec.rx == rx and rec.tx == TX
        assert rec.k_s == 4.0 and rec.k_d == 8.0
        # a convex room sees the direct path plus one bounce per wall
        assert len(rec.mpcs) == 7
    with pytest.raises(ValueError):
        build_map(room_scene, TX, [], max_order=1)


def test_query_tolerance_and_misses(room_scene):
    dmap = build_map(room_scene, TX, POINTS, max_order=1)
    assert query(dmap, POINTS[1]).rx == POINTS[1]
    off = (2.5, 2.0, 1.9)
    assert query(dmap, off, tolerance=0.5).rx == POINTS[1]
    with pytest.raises(DcmLookupError) as err:
        query(dmap, off, tolerance=0.1)
    assert "nearest" in str(err.value)
    empty = DcmMap(frequency=5.5e9, max_order=1, scene_hash="0" * 16,
                   gbsm=GbsmConfig(), records={})
    with pytest.raises(DcmLookupError):
        query(empty, POINTS[0])


def test_model_from_map_applies_overrides(room_scene):
    dmap = build_map(room_scene, TX, POINTS, max_order=1, k_s=4.0, k_d=8.0)
    model = model_from_map(dmap, POINTS[0], seed=5,
                           overrides={"n_clusters": 3})
    rec = dmap.records[POINTS[0]]
    assert model.static_mpcs == rec.mpcs
    assert model.gbsm.seed == 5
    assert model.gbsm.n_clusters == 3
    assert model.k == KFactors.from_split(4.0, 8.0)
    assert model.location == POINTS[0]
    # the stored configuration itself stays untouched
    assert dmap.gbsm.seed == GbsmConfig().seed


def test_update_snapshot_deterministic(room_scene):
    dmap = build_map(room_scene, TX, POINTS, max_order=1)
    a = update_snapshot(dmap, POINTS[0], t=0.25, seed=3).pair()
    b = update_snapshot(dmap, POINTS[0], t=0.25, seed=3).pair()
    assert np.array_equal(a.amps, b.amps)
    assert np.array_equal(a.delays, b.delays)
    c = update_snapshot(dmap, POINTS[0], t=0.25, seed=4).pair()
    assert not np.array_equal(a.amps, c.amps)


def test_update_snapshot_static_map_ignores_time(room_scene):
    dmap = build_map(room_scene, TX, POINTS, max_order=1,
                     k_s=4.0, k_d=math.inf)
    a = update_snapshot(dmap, POINTS[2], t=0.0, seed=1).pair()
    b = update_snapshot(dmap, POINTS[2], t=7.5, seed=9).pair()
    assert np.array_equal(a.amps, b.amps)
    assert np.array_equal(a.delays, b.delays)


# ---------------------------------------------------------------------------
# persistence

def test_map_roundtrip_is_byte_stable(room_scene, tmp_path):
    dmap = build_map(room_scene, TX, POINTS, max_order=1)
    text = dumps_map(dmap)
    assert text.startswith("DCMv1\n")
    assert text.endswith("\n")
    again = loads_map(text)
    assert again == dmap
    assert dumps_map(again) == text

    target = tmp_path / "room.dcm"
    save_map(dmap, target)
    first = target.read_bytes()
    loaded = load_map(target)
    save_map(loaded, target)
    assert target.read_bytes() == first
    assert not (tmp_path / "room.dcm.tmp").exists()


def test_loads_map_error_reporting():
    with pytest.raises(ValueError, match="DCMv1"):
        loads_map("not a map\n")
    good = ("DCMv1\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n"
            "[gbsm]\n[record]\ntx=0,0,0\nrx=1,0,0\nks=2\nkd=4\n")
    loads_map(good)  # minimal file parses
    with pytest.raises(ValueError, match="line 8"):
        loads_map("DCMv1\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n"
                  "[gbsm]\n[record]\nbogus=1\n")
    with pytest.raises(ValueError, match="missing rx"):
        loads_map("DCMv1\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n"
                  "[gbsm]\n[record]\ntx=0,0,0\nks=2\nkd=4\n")
    with pytest.raises(ValueError, match="before any section"):
        loads_map("DCMv1\nfrequency=5.5e9\n")
    with pytest.raises(ValueError, match="missing frequency"):
        loads_map("DCMv1\n[map]\nmax_order=1\nscene=abc\n[gbsm]\n")
    with pytest.raises(ValueError, match="expected 3"):
        loads_map(good.replace("rx=1,0,0", "rx=1,0"))

    # every bad value names its line: [gbsm] keys and numbers, mpc fields
    head = "DCMv1\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n[gbsm]\n"
    record = ("[record]\ntx=0,0,0\nrx=1,0,0\nks=2\nkd=4\n"
              "mpc kind=los delay_ns=100 power_db=-87.26 aod=0,0 aoa=0,0 "
              "phases=0,0,0,0 xpr_db=inf\n")
    loads_map(head + "n_clusters=3\nanchor_range=30,40\n" + record)
    bad_gbsm = {
        "bogus_knob=3": "unknown config fields: bogus_knob",
        "n_clusters=three": "could not convert",
        "n_clusters=1.5": "must be an integer",
        "cluster_speed=1,2": "must be a number",
        "anchor_range=30": "must be a pair",
    }
    for line, message in bad_gbsm.items():
        with pytest.raises(ValueError, match=f"line 7: .*{message}"):
            loads_map(head + line + "\n" + record)
    # values of the right type but out of range name the [gbsm] header
    with pytest.raises(ValueError, match="line 6: .*n_clusters must be >= 0"):
        loads_map(head + "n_clusters=-1\n" + record)
    bad_mpc = {
        "delay_ns=100": "delay_ns=abc",
        "power_db=-87.26": "power_db=4000",
        "aoa=0,0": "aoa=0,x",
        "phases=0,0,0,0": "phases=0,0",
        "xpr_db=inf": "xpr_db=-inf",
        "delay_ns=100 ": "delay_ns=-100 ",
        "kind=los": "kind=weird",
    }
    for field_text, bad in bad_mpc.items():
        with pytest.raises(ValueError, match="line 12: "):
            loads_map(head + record.replace(field_text, bad))
    with pytest.raises(ValueError, match="line 4: "):
        loads_map(head.replace("max_order=1", "max_order=x") + record)
    with pytest.raises(ValueError, match="line 7: record missing kd="):
        loads_map(head + record.replace("kd=4\n", ""))
    # a second record at the same location is an error, not a replacement
    with pytest.raises(ValueError, match="line 13: duplicate record at rx=1,0,0$"):
        loads_map(head + record + record.replace("ks=2", "ks=7"))
    loads_map(head + record + record.replace("rx=1,0,0", "rx=1,0,1e-9"))


def test_save_map_ignores_a_stale_temp_name(room_scene, tmp_path):
    dmap = build_map(room_scene, TX, POINTS[:1], max_order=1)
    target = tmp_path / "room.dcm"
    (tmp_path / "room.dcm.tmp").mkdir()
    save_map(dmap, target)
    assert target.read_text() == dumps_map(dmap)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["room.dcm", "room.dcm.tmp"]
    plain = tmp_path / "plain"
    plain.write_text("x")
    assert target.stat().st_mode == plain.stat().st_mode


def test_mpc_lines_roundtrip_units():
    # delays in ns, powers in dB, angles in degrees; infinities intact
    rec_text = ("DCMv1\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n"
                "[gbsm]\n[record]\ntx=0,0,0\nrx=1,0,0\nks=2\nkd=inf\n"
                "mpc kind=los delay_ns=100 power_db=-87.26 aod=0,0 aoa=0,0 "
                "phases=0,0,0,0 xpr_db=inf\n")
    dmap = loads_map(rec_text)
    rec = dmap.records[(1.0, 0.0, 0.0)]
    assert rec.k_d == math.inf
    m = rec.mpcs[0]
    assert abs(m.delay - 100e-9) < 1e-18
    assert abs(10.0 * math.log10(m.power) + 87.26) < 1e-9
    assert m.xpr == math.inf
    assert "xpr_db=inf" in dumps_map(dmap)


# ---------------------------------------------------------------------------
# parallel builds

def test_worker_count_parsing(monkeypatch):
    monkeypatch.delenv("DCM_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("DCM_THREADS", "")
    assert worker_count() == 1
    monkeypatch.setenv("DCM_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("DCM_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("DCM_THREADS", "-2")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("DCM_THREADS", "many")
    with pytest.raises(ValueError):
        worker_count()


def test_parallel_build_matches_serial(room_scene, monkeypatch):
    monkeypatch.delenv("DCM_THREADS", raising=False)
    serial = dumps_map(build_map(room_scene, TX, POINTS, max_order=1))
    monkeypatch.setenv("DCM_THREADS", "2")
    parallel = dumps_map(build_map(room_scene, TX, POINTS, max_order=1))
    assert parallel == serial
