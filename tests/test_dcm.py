"""Channel map building, matching, persistence, and online updates."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmkit import (AntennaArray, ChannelModel, DcmLookupError, DcmMap,
                    DcmRecord, GbsmConfig, KFactors, Mpc, PathSet, Scene,
                    build_map, dumps_map, estimate_k_split, grid_points,
                    load_map, loads_map, match_mpcs, model_from_map, query,
                    save_map, trace_static_mpcs, update_snapshot, worker_count)
from dcmkit import dcm, hybrid
from dcmkit.dcm import MATCH_SCALES, MatchResult
from dcmkit.gbsm import Taps

TX = (1.0, 1.0, 1.5)
POINTS = [(2.0, 2.0, 1.5), (2.5, 2.0, 1.5), (2.0, 2.5, 1.2)]


def path(delay, az, power=1.0, los=False, kind=None):
    return Mpc(delay=delay, power=power, aod=(0.0, 0.0), aoa=(0.0, az),
               phases=(0.0, 0.0, 0.0, 0.0),
               xpr=math.inf if los else 8.0,
               kind="los" if los else (kind or "refl:1"))


def table(*rows):
    return PathSet.of(rows)


# ---------------------------------------------------------------------------
# path matching

def test_match_mpcs_scaled_distance():
    ref = table(path(100e-9, math.radians(30.0)))
    sim = table(path(102e-9, math.radians(31.0)))
    res = match_mpcs(ref, sim, scales=(5e-9, math.radians(5.0)), threshold=1.0)
    assert res.pairs == ((0, 0),)
    want = math.hypot(2.0 / 5.0, 1.0 / 5.0)
    assert abs(res.distances[0] - want) < 1e-12
    assert res.unmatched_ref == () and res.unmatched_sim == ()
    assert res.scales == (5e-9, math.radians(5.0))
    assert res.threshold == 1.0


def test_match_mpcs_threshold_excludes():
    ref = table(path(100e-9, math.radians(30.0)))
    sim = table(path(102e-9, math.radians(31.0)))
    res = match_mpcs(ref, sim, scales=(5e-9, math.radians(5.0)), threshold=0.4)
    assert res.pairs == ()
    assert res.unmatched_ref == (0,) and res.unmatched_sim == (0,)


def test_match_mpcs_greedy_nearest_first():
    # one simulated path between two references: closest reference wins
    ref = table(path(100e-9, 0.0), path(104e-9, 0.0))
    sim = table(path(101e-9, 0.0))
    res = match_mpcs(ref, sim, scales=(5e-9, math.radians(5.0)))
    assert res.pairs == ((0, 0),)
    assert res.unmatched_ref == (1,)
    # azimuth differences wrap around
    res = match_mpcs(table(path(100e-9, math.pi - 0.01)),
                     table(path(100e-9, -math.pi + 0.01)),
                     scales=(5e-9, math.radians(5.0)))
    assert res.pairs == ((0, 0),)


def test_match_mpcs_symmetric_pairing():
    ref = table(path(100e-9, 0.10), path(110e-9, 0.50), path(130e-9, -0.40))
    sim = table(path(101e-9, 0.12), path(112e-9, 0.52), path(131e-9, -0.38))
    fwd = match_mpcs(ref, sim)
    rev = match_mpcs(sim, ref)
    assert {(i, j) for i, j in fwd.pairs} == {(j, i) for i, j in rev.pairs}
    assert fwd.scales == rev.scales


def _match_by_loops(reference, simulated, scales, threshold):
    """The scalar form of match_mpcs' candidate distances: (d, i, j) pairs."""
    out = []
    for i, r in enumerate(reference):
        for j, s in enumerate(simulated):
            d_ang = (r.aoa[1] - s.aoa[1] + math.pi) % (2.0 * math.pi) - math.pi
            d = math.hypot((r.delay - s.delay) / scales[0], d_ang / scales[1])
            if d <= threshold:
                out.append((d, i, j))
    return out


def test_match_mpcs_equals_its_scalar_form():
    """The array distances pick the pairs the scalar loop picks, and differ
    from math.hypot's by at most one rounding (numpy's hypot is libm's)."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        ref, sim = (table(*(path(d, a) for d, a in zip(
            rng.uniform(90e-9, 130e-9, n), rng.uniform(-math.pi, math.pi, n))))
            for n in rng.integers(0, 12, 2))
        res = match_mpcs(ref, sim, threshold=2.0)
        candidates = sorted(_match_by_loops(ref, sim, MATCH_SCALES, 2.0))
        used_r, used_s, want = set(), set(), {}
        for d, i, j in candidates:
            if i not in used_r and j not in used_s:
                used_r.add(i)
                used_s.add(j)
                want[i] = (j, d)
        assert res.pairs == tuple((i, j) for i, (j, _) in sorted(want.items()))
        for got, (_, (_, d)) in zip(res.distances, sorted(want.items())):
            assert abs(got - d) <= 2.3e-16 * d
        assert set(res.unmatched_ref) == set(range(len(ref))) - used_r
        assert set(res.unmatched_sim) == set(range(len(sim))) - used_s


def test_estimate_k_split_from_match():
    ref = table(path(100e-9, 0.0, power=1.0, los=True),
                path(140e-9, 0.5, power=0.5),
                path(180e-9, 1.0, power=0.25))
    # only the 0.5 path is reproduced by the static trace
    match = MatchResult(pairs=((0, 0), (1, 1)), distances=(0.0, 0.1),
                        unmatched_ref=(2,), unmatched_sim=())
    k = estimate_k_split(match, ref)
    assert abs(k.k_s - 2.0) < 1e-12
    assert abs(k.k_d - 4.0) < 1e-12
    assert abs(k.k - 4.0 / 3.0) < 1e-12


def test_estimate_k_split_degenerate_groups():
    ref = table(path(100e-9, 0.0, power=1.0, los=True),
                path(140e-9, 0.5, power=0.5))
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
        estimate_k_split(match, table(path(100e-9, 0.0)))
    # a reference table cannot hold a second one
    with pytest.raises(ValueError, match="at most one line-of-sight path, got 2"):
        estimate_k_split(match, table(path(100e-9, 0.0, los=True),
                                      path(120e-9, 0.0, los=True)))


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
    # a count must be whole: 2.0 is read as 2, 2.7 is refused, not truncated
    assert grid_points((0, 0, 0), (2.0, 1, 1), 1.0) == [(0.0, 0.0, 0.0),
                                                        (1.0, 0.0, 0.0)]
    for shape in [(2.7, 1, 1), (1, 1, 0.5), (math.inf, 1, 1), (math.nan, 1, 1)]:
        with pytest.raises(ValueError, match="shape counts must be integers >= 1"):
            grid_points((0, 0, 0), shape, 1.0)


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
    # a repeated point would collapse into one record
    with pytest.raises(ValueError, match=r"^receiver location 2\.0,2\.5,1\.2 is given twice$"):
        build_map(room_scene, TX, [(2, 2.5, 1.2), (2, 2, 1.5), (2.0, 2.5, 1.2)], max_order=1)


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


def test_map_construction_applies_the_reader_rules():
    """A map that cannot load is refused when it is made, not when it is read."""
    ok = dict(frequency=5.5e9, max_order=1, scene_hash="0" * 16,
              gbsm=GbsmConfig(carrier_frequency=5.5e9), records={})
    loads_map(dumps_map(DcmMap(**ok)))
    for change, message in (
            ({"frequency": 28e9}, "carrier_frequency=5500000000.0 differs from the map "
                                  "frequency=28000000000.0 its static paths were "
                                  "traced at"),
            ({"frequency": math.nan}, "frequency must be finite and > 0, got nan"),
            ({"frequency": 0.0}, "frequency must be finite and > 0, got 0.0"),
            ({"max_order": -1}, "max_order must be an integer >= 0, got -1"),
            ({"max_order": 1.5}, "max_order must be an integer >= 0, got 1.5"),
            ({"max_order": True}, "max_order must be an integer >= 0, got True")):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            DcmMap(**{**ok, **change})


def test_record_and_map_refuse_what_the_reader_refuses(tmp_path):
    """A record's ends are three finite numbers, stored as float tuples, and
    a map's record sits at its own rx: anything else could be saved but not
    loaded, so it is refused when it is made."""
    paths = PathSet.of([path(1e-7, 0.3)])
    for name, bad in (("rx", (math.nan, 1.0, 1.0)), ("rx", (1.0, 2.0)),
                      ("tx", (0.0, 0.0, math.inf)), ("tx", [[0.0, 0.0, 0.0]])):
        with pytest.raises(ValueError, match=f"^{name} must be three finite numbers, got "):
            DcmRecord(**{"tx": TX, "rx": POINTS[0], name: bad}, k_s=2.0, k_d=4.0,
                      mpcs=paths)
    rec = DcmRecord(tx=np.array(TX), rx=(2, 2, 1.5), k_s=2.0, k_d=4.0, mpcs=paths)
    assert rec.tx == TX and rec.rx == (2.0, 2.0, 1.5)
    assert all(type(v) is float for v in rec.tx + rec.rx)
    ok = dict(frequency=5.5e9, max_order=1, scene_hash="0" * 16, gbsm=GbsmConfig())
    with pytest.raises(ValueError, match=re.escape(
            "record key (2.5, 2.0, 1.5) is not its rx (2.0, 2.0, 1.5)")):
        DcmMap(**ok, records={POINTS[1]: rec})
    save_map(DcmMap(**ok, records={POINTS[0]: rec}), tmp_path / "one.dcm")
    assert load_map(tmp_path / "one.dcm").records[POINTS[0]] == rec


def test_map_of_a_scene_built_in_code_loads(room_scene):
    """A scene made from facets in code has no hash: its map writes an empty
    scene= line, which loads as "" and dumps again byte for byte."""
    dmap = build_map(Scene(room_scene.facets), TX, POINTS, max_order=1)
    text = dumps_map(dmap)
    assert "\nscene=\n" in text
    loaded = loads_map(text)
    assert loaded.scene_hash == "" and dumps_map(loaded) == text
    # a hash the reader could not read back is refused when the map is made
    for bad in ("a\nb", "caf\u00e9"):
        with pytest.raises(ValueError, match="^scene_hash must be printable ASCII, got "):
            DcmMap(5.5e9, 1, bad, GbsmConfig(), {})


@pytest.mark.parametrize("location", [(2.5, 2.0), (2.5, 2.0, 1.5, 0.0),
                                      (2.5, math.nan, 1.5), (math.inf, 2.0, 1.5),
                                      ((2.5, 2.0, 1.5),)])
def test_malformed_locations_are_rejected(room_scene, location):
    dmap = build_map(room_scene, TX, POINTS, max_order=1)
    for call in (lambda: query(dmap, location, tolerance=10.0),
                 lambda: model_from_map(dmap, location, tolerance=10.0),
                 lambda: update_snapshot(dmap, location, t=0.0, tolerance=10.0)):
        with pytest.raises(ValueError, match="location must be three finite numbers"):
            call()


def test_update_snapshot_times_must_be_finite(room_scene):
    dmap = build_map(room_scene, TX, POINTS, max_order=1)
    for t in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            update_snapshot(dmap, POINTS[0], t=t, seed=1)


def test_map_locations_follow_the_records(room_scene):
    dmap = build_map(room_scene, TX, POINTS, max_order=1)
    assert dmap.locations().tolist() == [list(p) for p in POINTS]
    assert dmap.locations() is dmap.locations()
    # a record added or removed after a lookup is found by the next one
    moved = (3.0, 4.0, 1.0)
    dmap.records[moved] = replace(dmap.records.pop(POINTS[0]), rx=moved)
    assert query(dmap, (3.0, 4.0, 1.05), tolerance=0.1).rx == moved
    assert dmap.locations().tolist()[-1] == list(moved)


def test_model_from_map_applies_overrides(room_scene):
    dmap = build_map(room_scene, TX, POINTS, max_order=1, k_s=4.0, k_d=8.0)
    model = model_from_map(dmap, POINTS[0], seed=5,
                           overrides={"n_clusters": 3})
    rec = dmap.records[POINTS[0]]
    assert model.static_mpcs == rec.mpcs
    assert model.gbsm.seed == 5
    assert model.gbsm.n_clusters == 3
    assert model.k == KFactors(4.0, 8.0)
    assert model.location == (TX, POINTS[0])
    # the stored configuration itself stays untouched
    assert dmap.gbsm.seed == GbsmConfig().seed
    # the static paths hold at the map's carrier only
    with pytest.raises(ValueError, match="carrier_frequency=28000000000.0 differs "
                                         "from the map frequency=5500000000.0"):
        model_from_map(dmap, POINTS[0], overrides={"carrier_frequency": 28e9})
    same = model_from_map(dmap, POINTS[0], overrides={"carrier_frequency": 5.5e9})
    assert same.gbsm == dmap.gbsm


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


def test_update_snapshot_synthesizes_static_taps_once_per_record(room_scene,
                                                                 monkeypatch):
    """Updates at one record share one static synthesis, whatever their seed
    and time, each update spawns, synthesizes its dynamic taps and mixes
    once, and each snapshot owns its arrays."""
    synthesized = []
    static_cir = hybrid.static_cir

    def counted(*args, **kwargs):
        synthesized.append(args[0])
        return static_cir(*args, **kwargs)

    monkeypatch.setattr(hybrid, "static_cir", counted)
    calls = dict.fromkeys(("spawn_clusters", "dynamic_cir", "combine_cir"), 0)

    def counter(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(hybrid, name, counter(name, getattr(hybrid, name)))
    updates = []

    def update(*args, **kwargs):
        updates.append(update_snapshot(*args, **kwargs))
        assert calls == dict.fromkeys(calls, len(updates))
        return updates[-1]

    hybrid._static_taps.cache_clear()
    dmap = build_map(room_scene, TX, POINTS, max_order=1)
    for seed, t in ((1, 0.0), (2, 0.5), (3, 1.25)):
        update(dmap, POINTS[0], t, seed=seed)
    assert len(synthesized) == 1
    update(dmap, POINTS[1], 0.0, seed=1)
    assert len(synthesized) == 2
    update(dmap, POINTS[1], 0.0, seed=1, rx_array=AntennaArray(n_elements=2))
    assert len(synthesized) == 3

    first = update(dmap, POINTS[0], 0.5, seed=2).pair()
    expected = first.amps.tobytes()
    first.amps[:] = 0.0
    again = update(dmap, POINTS[0], 0.5, seed=2).pair()
    assert again.amps.tobytes() == expected
    assert len(synthesized) == 3


# ---------------------------------------------------------------------------
# persistence

def test_map_roundtrip_is_byte_stable(room_scene, tmp_path):
    dmap = build_map(room_scene, TX, POINTS, max_order=1)
    text = dumps_map(dmap)
    assert text.startswith("DCMv2\n")
    assert text.endswith("\n")
    again = loads_map(text)
    assert again == dmap
    assert dumps_map(again) == text
    # every line written takes the reader's one-pattern path
    assert all(dcm._MPC_LINE.fullmatch(line) for line in text.splitlines()
               if line.startswith("mpc "))

    target = tmp_path / "room.dcm"
    save_map(dmap, target)
    first = target.read_bytes()
    loaded = load_map(target)
    save_map(loaded, target)
    assert target.read_bytes() == first
    assert not (tmp_path / "room.dcm.tmp").exists()


def test_loads_map_error_reporting():
    with pytest.raises(ValueError, match="line 1: DCMv1 map, .*rebuild it with "
                                         "dcmkit build"):
        loads_map("DCMv1\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n")
    with pytest.raises(ValueError, match="line 1: .*DCMv2"):
        loads_map("not a map\n")
    good = ("DCMv2\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n"
            "[gbsm]\n[record]\ntx=0,0,0\nrx=1,0,0\nks=2\nkd=4\n")
    loads_map(good)  # minimal file parses
    with pytest.raises(ValueError, match="line 8"):
        loads_map("DCMv2\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n"
                  "[gbsm]\n[record]\nbogus=1\n")
    with pytest.raises(ValueError, match="missing rx"):
        loads_map("DCMv2\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n"
                  "[gbsm]\n[record]\ntx=0,0,0\nks=2\nkd=4\n")
    with pytest.raises(ValueError, match="before any section"):
        loads_map("DCMv2\nfrequency=5.5e9\n")
    with pytest.raises(ValueError, match="missing frequency"):
        loads_map("DCMv2\n[map]\nmax_order=1\nscene=abc\n[gbsm]\n")
    with pytest.raises(ValueError, match="expected 3"):
        loads_map(good.replace("rx=1,0,0", "rx=1,0"))

    # every bad value names its line: [gbsm] keys and numbers, mpc fields
    head = "DCMv2\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n[gbsm]\n"
    record = ("[record]\ntx=0,0,0\nrx=1,0,0\nks=2\nkd=4\n"
              "mpc kind=los delay=1e-07 power=1.88e-09 aod=0,0 aoa=0,0 "
              "phases=0,0,0,0 xpr=inf\n")
    loads_map(head + "n_clusters=3\nanchor_range=30,40\n" + record)
    bad_gbsm = {
        "bogus_knob=3": "unknown field 'bogus_knob'",
        "n_clusters=three": "could not convert",
        "n_clusters=1.5": "must be an integer",
        "cluster_speed=1,2": "cluster_speed must be finite",
        "anchor_range=30": "must be a pair",
    }
    for line, message in bad_gbsm.items():
        with pytest.raises(ValueError, match=f"line 7: .*{message}"):
            loads_map(head + line + "\n" + record)
    # values of the right type but out of range name the [gbsm] header
    with pytest.raises(ValueError, match="line 6: .*n_clusters must be an integer >= 0"):
        loads_map(head + "n_clusters=-1\n" + record)
    bad_mpc = [
        ("delay=1e-07", "delay=abc"),
        ("power=1.88e-09", "power=inf"),
        ("aoa=0,0", "aoa=0,x"),
        ("phases=0,0,0,0", "phases=0,0"),
        ("xpr=inf", "xpr=-inf"),
        ("delay=1e-07 ", "delay=-1e-07 "),
        ("kind=los", "kind=weird"),
        # a map holds static paths only, each with a reflection order >= 1
        ("kind=los", "kind=dyn:2:7"),
        ("kind=los", "kind=refl:x"),
        ("kind=los", "kind=refl:0"),
        # non-finite values are rejected, not loaded
        ("delay=1e-07", "delay=nan"),
        ("delay=1e-07", "delay=inf"),
        ("power=1.88e-09", "power=nan"),
        ("phases=0,0,0,0", "phases=nan,0,0,0"),
    ]
    for field_text, bad in bad_mpc:
        with pytest.raises(ValueError, match="line 12: "):
            loads_map(head + record.replace(field_text, bad))
    bad_record = [
        ("tx=0,0,0", "tx=0,inf,0", "line 8: expected 3 finite .* got '0,inf,0'"),
        ("rx=1,0,0", "rx=nan,0,0", "line 9: expected 3 finite .* got 'nan,0,0'"),
        ("ks=2", "ks=nan", "line 10: ks must be > 0"),
        ("ks=2", "ks=0", "line 10: ks must be > 0"),
        ("kd=4", "kd=-inf", "line 11: kd must be > 0"),
        ("kd=4", "kd=1e-310", "line 11: kd must be > 0"),
    ]
    for field_text, bad, message in bad_record:
        with pytest.raises(ValueError, match=message):
            loads_map(head + record.replace(field_text, bad))
    loads_map(head + record.replace("ks=2", "ks=inf").replace("kd=4", "kd=inf"))
    # each ratio is fine alone, but 1/ks + 1/kd overflows at the second one
    with pytest.raises(ValueError, match="line 11: kd must be > 0 and keep"):
        loads_map(head + record.replace("ks=2", "ks=1e-308").replace("kd=4", "kd=1e-308"))
    with pytest.raises(ValueError, match="line 4: "):
        loads_map(head.replace("max_order=1", "max_order=x") + record)
    # the header's carrier must be a frequency and the order a count
    for bad in ("nan", "inf", "-inf", "0", "-5.5e9"):
        with pytest.raises(ValueError, match="line 3: frequency must be finite and > 0"):
            loads_map(head.replace("frequency=5.5e9", "frequency=" + bad) + record)
    with pytest.raises(ValueError, match="line 4: max_order must be an integer >= 0"):
        loads_map(head.replace("max_order=1", "max_order=-3") + record)
    # a scene hash the writer could not have written names its line too
    for bad in ("ab\tcd", "ab\x00cd", "caf\u00e9"):
        with pytest.raises(ValueError, match="^line 5: scene_hash must be printable ASCII, got "):
            loads_map(head.replace("scene=abc", "scene=" + bad) + record)
    loads_map(head.replace("max_order=1", "max_order=0") + record)
    with pytest.raises(ValueError, match="line 7: .*cluster_speed must be finite"):
        loads_map(head + "cluster_speed=nan\n" + record)
    # a [gbsm] carrier other than the header's names its own line, or the
    # header's frequency line when the default carrier is the one that differs
    with pytest.raises(ValueError, match="line 8: .*carrier_frequency=28000000000.0 "
                                         "differs from the map frequency=5500000000.0"):
        loads_map(head + "n_clusters=3\ncarrier_frequency=28e9\n" + record)
    with pytest.raises(ValueError, match="line 3: .*carrier_frequency=5500000000.0 "
                                         "differs from the map frequency=28000000000.0"):
        loads_map(head.replace("frequency=5.5e9", "frequency=28e9") + record)
    loads_map(head.replace("frequency=5.5e9", "frequency=28e9")
              + "carrier_frequency=28e9\n" + record)
    with pytest.raises(ValueError, match="line 7: record missing kd="):
        loads_map(head + record.replace("kd=4\n", ""))
    # a second record at the same location is an error, not a replacement
    with pytest.raises(ValueError, match="line 13: duplicate record at rx=1.0,0.0,0.0$"):
        loads_map(head + record + record.replace("ks=2", "ks=7"))
    loads_map(head + record + record.replace("rx=1,0,0", "rx=1,0,1e-9"))
    # one line-of-sight path per record (each record above holds its own)
    with pytest.raises(ValueError, match="^line 13: expected at most one "
                                         "line-of-sight path, got 2$"):
        loads_map(head + record + record.splitlines(keepends=True)[-1])
    # the earliest bad line is named, though a check that runs first fails later
    refl = record.splitlines(keepends=True)[-1].replace("kind=los", "kind=refl:1")
    with pytest.raises(ValueError, match="^line 13: power must be finite and >= 0, "
                                         "got -1.0$"):
        loads_map(head + record + refl.replace("power=1.88e-09", "power=-1")
                  + refl + refl.replace("delay=1e-07", "delay=-1"))
    # and a record that holds two cannot be built, so it cannot be saved
    los = loads_map(head + record).records[(1.0, 0.0, 0.0)].mpcs[0]
    with pytest.raises(ValueError, match="at most one line-of-sight path"):
        DcmRecord(tx=(0.0, 0.0, 0.0), rx=(1.0, 0.0, 0.0), k_s=2.0, k_d=4.0,
                  mpcs=table(los, los))
    with pytest.raises(TypeError, match="mpcs must be a PathSet"):
        DcmRecord(tx=(0.0, 0.0, 0.0), rx=(1.0, 0.0, 0.0), k_s=2.0, k_d=4.0,
                  mpcs=(los,))


# Floats at the edges of the format: signed zero, the smallest subnormal,
# magnitudes near 1e+-300 and the largest finite double.
_EDGES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
          1.7976931348623157e308)


def _with_edges(values, strategy):
    return st.one_of(st.sampled_from(values), strategy)


_finite = _with_edges(_EDGES + tuple(-x for x in _EDGES),
                      st.floats(allow_nan=False, allow_infinity=False))
_nonneg = _with_edges(_EDGES, st.floats(min_value=0.0, allow_infinity=False))
_positive = _with_edges(_EDGES[2:] + (math.inf,),
                        st.floats(min_value=0.0, exclude_min=True))
_elevation = _with_edges((-math.pi / 2.0, math.pi / 2.0, -0.0),
                         st.floats(-math.pi / 2.0, math.pi / 2.0))
_azimuth = _with_edges((-math.pi, math.nextafter(math.pi, 0.0), -0.0),
                       st.floats(-math.pi, math.pi, exclude_max=True))
# from the smallest normal double up, 1/k_s + 1/k_d stays finite
_ratio = _with_edges(_EDGES[3:] + (math.inf,), st.floats(min_value=_EDGES[3]))


def _mpcs(kinds):
    return st.builds(Mpc, delay=_nonneg, power=_nonneg,
                     aod=st.tuples(_elevation, _azimuth),
                     aoa=st.tuples(_elevation, _azimuth),
                     phases=st.tuples(_finite, _finite, _finite, _finite),
                     xpr=_positive, kind=st.sampled_from(kinds))


@st.composite
def _record_mpcs(draw):
    """Up to six paths, at most one of them line of sight."""
    mpcs = draw(st.lists(_mpcs(["refl:1", "refl:3"]), max_size=6))
    if mpcs and draw(st.booleans()):
        mpcs[draw(st.integers(0, len(mpcs) - 1))] = draw(_mpcs(["los"]))
    return PathSet.of(mpcs)


_records = st.builds(DcmRecord, tx=st.tuples(_finite, _finite, _finite),
                     rx=st.tuples(_finite, _finite, _finite),
                     k_s=_ratio, k_d=_ratio, mpcs=_record_mpcs())


@st.composite
def _maps(draw):
    records = draw(st.lists(_records, min_size=1, max_size=4,
                            unique_by=lambda r: r.rx))
    frequency = draw(_positive.filter(math.isfinite))
    gbsm = GbsmConfig(seed=draw(st.integers(-2 ** 70, 2 ** 70)),
                      carrier_frequency=frequency,
                      cluster_speed=draw(_nonneg), xpr_mean_db=draw(_finite),
                      elevation_range=tuple(sorted((draw(_elevation),
                                                    draw(_elevation)))))
    return DcmMap(frequency=frequency,
                  max_order=draw(st.integers(0, 5)),
                  scene_hash=draw(st.text("0123456789abcdef", min_size=16,
                                          max_size=16)),
                  gbsm=gbsm, records={r.rx: r for r in records})


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_maps())
def test_map_roundtrip_is_exact(dmap):
    """Every stored float loads back exactly; a second dump is identical."""
    text = dumps_map(dmap)
    again = loads_map(text)
    assert again == dmap
    assert dumps_map(again) == text
    # every line written takes the reader's one-pattern path
    assert all(dcm._MPC_LINE.fullmatch(line) for line in text.splitlines()
               if line.startswith("mpc "))


def test_map_static_taps_equal_direct_model(room_scene):
    """Static taps read through a saved map are bit-equal to a direct trace's."""
    array = AntennaArray(n_elements=2)
    k = KFactors(4.0, 8.0)
    cfg = GbsmConfig()
    dmap = loads_map(dumps_map(build_map(room_scene, TX, POINTS, max_order=2,
                                         k_s=k.k_s, k_d=k.k_d, gbsm=cfg)))
    for rx in POINTS:
        via_map = model_from_map(dmap, rx, rx_array=array).static_taps()
        mpcs = trace_static_mpcs(room_scene, TX, rx, max_order=2,
                                 frequency=cfg.carrier_frequency)
        direct = ChannelModel(mpcs, k, cfg, rx_array=array).static_taps()
        assert via_map.keys() == direct.keys()
        for key, taps in direct.items():
            assert via_map[key].delays.tobytes() == taps.delays.tobytes()
            assert via_map[key].amps.tobytes() == taps.amps.tobytes()
            assert via_map[key].kinds == taps.kinds


ROOM_GRID = grid_points((1.5, 2.0, 1.5), (3, 2, 1), 0.75)


@pytest.fixture(scope="module")
def room_grid_map(room_scene):
    return loads_map(dumps_map(build_map(room_scene, TX, ROOM_GRID, max_order=2,
                                         k_s=4.0, k_d=8.0)))


def dipole(elevation, azimuth):
    """An element response that reads both angles and feeds both polarizations."""
    return np.cos(elevation) * np.cos(azimuth), 0.5 * np.sin(azimuth)


# isotropic single elements take the synthesis shortcuts, patterned
# multi-element arrays the general paths
ARRAY_PAIRS = [(AntennaArray(), AntennaArray()),
               (AntennaArray(n_elements=2, orientation=(0.2, 1.0), pattern=dipole),
                AntennaArray(n_elements=3, pattern=dipole))]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(rx=st.sampled_from(ROOM_GRID), t=st.floats(0.0, 10.0),
       seed=st.integers(-2 ** 70, 2 ** 70), arrays=st.sampled_from(ARRAY_PAIRS))
def test_map_update_equals_direct_model(room_scene, room_grid_map, rx, t, seed, arrays):
    """One (seed, tx, rx, t) gives one snapshot through a map or a direct
    model, with either pair of arrays."""
    tx_array, rx_array = arrays
    via_map = update_snapshot(room_grid_map, rx, t, seed=seed,
                              tx_array=tx_array, rx_array=rx_array)
    mpcs = trace_static_mpcs(room_scene, TX, rx, max_order=2)
    direct = ChannelModel(mpcs, KFactors(4.0, 8.0), GbsmConfig(seed=seed),
                          tx_array=tx_array, rx_array=rx_array,
                          location=(TX, rx)).snapshot(t)
    assert via_map.location == direct.location
    assert via_map.taps.keys() == direct.taps.keys()
    for key, taps in direct.taps.items():
        assert via_map.taps[key].delays.tobytes() == taps.delays.tobytes()
        assert via_map.taps[key].amps.tobytes() == taps.amps.tobytes()
        assert via_map.taps[key].kinds == taps.kinds


def test_benchmark_surface_of_records_and_snapshots(room_grid_map):
    """The parts of a record and a snapshot that perfbench reads and edits."""
    rec = query(room_grid_map, ROOM_GRID[0])
    assert len(rec.mpcs) > 1
    rows = list(rec.mpcs)
    assert sum(m.is_los for m in rows) == 1
    assert all(m.kind == "los" or m.kind.startswith("refl:") for m in rows)
    shorter = replace(rec, mpcs=rec.mpcs[1:])
    assert isinstance(shorter.mpcs, PathSet) and list(shorter.mpcs) == rows[1:]
    snap = update_snapshot(room_grid_map, ROOM_GRID[0], 0.1, seed=1)
    assert isinstance(snap.taps, dict)
    taps = snap.taps[(0, 0)]
    assert isinstance(taps, Taps) and isinstance(taps.kinds, tuple)
    assert all(isinstance(k, str) for k in taps.kinds)
    snap.taps[(0, 0)] = Taps(taps.delays[:-1], taps.amps[:-1], taps.kinds[:-1])
    assert len(snap.pair()) == len(taps) - 1


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
    # delays in s, powers linear, angles in radians; infinities intact
    rec_text = ("DCMv2\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n"
                "[gbsm]\n[record]\ntx=0,0,0\nrx=1,0,0\nks=2\nkd=inf\n"
                "mpc kind=los delay=1e-07 power=1.88e-09 aod=0,-0.0 "
                "aoa=-1.5707963267948966,-3.141592653589793 "
                "phases=0,0,0,0 xpr=inf\n")
    dmap = loads_map(rec_text)
    rec = dmap.records[(1.0, 0.0, 0.0)]
    assert rec.k_d == math.inf
    m = rec.mpcs[0]
    assert m.delay == 100e-9
    assert m.power == 1.88e-9
    assert m.aoa == (-math.pi / 2.0, -math.pi)
    assert math.copysign(1.0, m.aod[1]) == -1.0
    assert m.xpr == math.inf
    assert ("mpc kind=los delay=1e-07 power=1.88e-09 aod=0.0,-0.0 "
            "aoa=-1.5707963267948966,-3.141592653589793 "
            "phases=0.0,0.0,0.0,0.0 xpr=inf\n") in dumps_map(dmap)


# An mpc line as dumps_map writes it, and other spellings, allowed or not,
# that the one-pattern reader must leave to the checked reader.
_MPC = ("mpc kind=refl:2 delay=1.5e-08 power=2.5e-07 aod=0.25,-1.0 aoa=-0.5,3.0 "
        "phases=0.0,1.5,3.0,6.0 xpr=4.5")
_SPELLINGS = {
    "as written": _MPC,
    "keys out of order": _MPC.replace("kind=refl:2 delay=1.5e-08",
                                      "delay=1.5e-08 kind=refl:2"),
    "doubled space": _MPC.replace(" power=", "  power="),
    "tab": _MPC.replace(" aoa=", "\taoa="),
    "trailing space": _MPC + " ",
    "nan": _MPC.replace("xpr=4.5", "xpr=nan"),
    "1e999": _MPC.replace("delay=1.5e-08", "delay=1e999"),
    "1_0": _MPC.replace("power=2.5e-07", "power=1_0"),
    "capital E": _MPC.replace("delay=1.5e-08", "delay=1.5E-08"),
    "Infinity": _MPC.replace("xpr=4.5", "xpr=Infinity"),
    "not a number": _MPC.replace("power=2.5e-07", "power=2.5e-0-7"),
    "three aod numbers": _MPC.replace("aod=0.25,-1.0", "aod=0.25,-1.0,0.5"),
    "empty aoa number": _MPC.replace("aoa=-0.5,3.0", "aoa=,3.0"),
    "bad kind": _MPC.replace("kind=refl:2", "kind=refl:02"),
    "unknown kind": _MPC.replace("kind=refl:2", "kind=dyn:1:2"),
    "missing key": _MPC.replace(" xpr=4.5", ""),
    "doubled key": _MPC + " xpr=4.5",
    "second line of sight": _MPC.replace("kind=refl:2", "kind=los"),
}


# a map whose one record ends in its line-of-sight path at line 12
_ONE_RECORD = ("DCMv2\n[map]\nfrequency=5.5e9\nmax_order=2\nscene=abc\n[gbsm]\n"
               "[record]\ntx=0,0,0\nrx=1,0,0\nks=2\nkd=4\n"
               "mpc kind=los delay=1e-07 power=1.88e-09 aod=0,0 aoa=0,0 "
               "phases=0,0,0,0 xpr=inf\n")


def _load_outcome(text):
    try:
        return loads_map(text)
    except ValueError as exc:
        return str(exc)


def _fast_and_checked(text, monkeypatch):
    """loads_map(text), and loads_map(text) with the checked reader alone,
    each as a DcmMap or as its error message."""
    fast = _load_outcome(text)
    monkeypatch.setattr(dcm, "_MPC_LINE", re.compile("(?!)"))  # matches no line
    return fast, _load_outcome(text)


@pytest.mark.parametrize("name", list(_SPELLINGS))
def test_mpc_reader_agrees_with_the_checked_reader(name, monkeypatch):
    """Each spelling loads to the same records, or fails with the same line
    N message, as the checked reader alone gives."""
    fast, checked = _fast_and_checked(_ONE_RECORD + _SPELLINGS[name] + "\n", monkeypatch)
    assert fast == checked
    if name == "as written":
        assert isinstance(fast, DcmMap) and len(fast.records[(1.0, 0.0, 0.0)].mpcs) == 2
    elif name == "1_0":
        assert fast.records[(1.0, 0.0, 0.0)].mpcs.power.tolist() == [1.88e-09, 10.0]
    elif "space" not in name and name not in ("tab", "keys out of order",
                                              "capital E", "Infinity"):
        assert fast.startswith("line 13: "), fast


@pytest.mark.parametrize("after", [
    "", _MPC, "ks=2", _SPELLINGS["bad kind"], "[record]\ntx=0,0,0\nrx=2,0,0\nks=x\nkd=4"],
    ids=["end", "good mpc", "doubled key", "bad kind", "bad record"])
def test_mpc_reader_fails_at_the_first_bad_line(after, monkeypatch):
    """A token float() refuses in a line the pattern reads fails at its own
    line, before any later line of the map fails."""
    text = _ONE_RECORD + _MPC + "\n" + _SPELLINGS["not a number"] + "\n" + after + "\n"
    fast, checked = _fast_and_checked(text, monkeypatch)
    assert fast == checked
    assert fast.startswith("line 14: could not convert"), fast


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
    """Two workers, each tracing one block of the points, give the map of
    one process byte for byte."""
    assert len(POINTS) > 2
    monkeypatch.delenv("DCM_THREADS", raising=False)
    serial = dumps_map(build_map(room_scene, TX, POINTS, max_order=2))
    monkeypatch.setenv("DCM_THREADS", "2")
    parallel = dumps_map(build_map(room_scene, TX, POINTS, max_order=2))
    assert parallel == serial
