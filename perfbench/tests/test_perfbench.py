"""Tests of the benchmark itself: tiny runs of every workload, and checks
that fail on corrupted outputs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for p in (os.path.join(ROOT, "src"), BENCH):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import run as runner  # noqa: E402
import workloads as W  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import LAYERS  # noqa: E402

TINY = W.Sizes(
    setup_repeats=1, setup_min_s=0.0, check_ensemble=1, import_repeats=1,
    panel_receivers=1, room_shape=(2, 2, 1), room_order=1, repeat_every=1,
    fcf_offsets=8, fcf_ensemble=2, doppler_ensemble=1, angular_ensemble=1,
    lcr_ensemble=2, series_samples=2000,
)


def tiny_run(tmp_path, name, trace, seed=3):
    os.makedirs(tmp_path, exist_ok=True)
    run = W.Run(ROOT, tmp_path, seed, 0.01, trace, sizes=TINY)
    workload = W.WORKLOADS[name](run)
    workload.execute()
    return run, workload


@pytest.fixture(scope="module")
def room_model():
    scene = W.SC.loads_scene(W.ROOM_SCENE)
    dmap = W.D.build_map(scene, W.ROOM_TX, [(2.0, 3.0, 1.5)], max_order=2)
    return dmap, W.D.model_from_map(dmap, (2.0, 3.0, 1.5), seed=1)


# ---------------------------------------------------------------------------
# smoke runs

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, name):
    run, workload = tiny_run(tmp_path, name, trace=False)
    assert run.failed == 0, run.errors
    assert run.attempted > 0
    metrics = runner.end_to_end(run, workload)
    assert set(metrics) == set(runner.END_TO_END)
    assert all(value > 0.0 and math.isfinite(value) for value, _unit in metrics.values()), metrics


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_run_reports_every_layer(tmp_path, name):
    run, _workload = tiny_run(tmp_path, name, trace=True)
    assert run.failed == 0, run.errors
    assert run.hooks_missing == []
    metrics = runner.per_layer(run)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {k: u for k, (_v, u) in metrics.items()} == listed
    for layer in LAYERS:
        assert metrics[layer + ".self_s"][0] > 0.0, layer
    assert "trace.overhead_frac" in run.derived
    # every span closed inside its parent
    spans = run.spans
    for i, parent in enumerate(spans.parents):
        assert spans.ends[i] >= spans.starts[i]
        if parent >= 0:
            assert spans.starts[parent] <= spans.starts[i] and spans.ends[i] <= spans.ends[parent]
            assert spans.ops[i] == spans.ops[parent]


def test_counts_repeat_for_a_seed(tmp_path):
    a, _ = tiny_run(tmp_path / "a", "update-room", trace=False, seed=5)
    b, _ = tiny_run(tmp_path / "b", "update-room", trace=True, seed=5)
    assert a.counts == b.counts
    assert a.counts["hybrid.taps_per_snapshot"] > a.counts["gbsm.rays_per_spawn"] > 0


def test_runner_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, the runner exits non-zero
    without printing a result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "update-room",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# a corrupted program output fails the run

def test_dropped_tap_fails_update_room(tmp_path, monkeypatch):
    real = W.D.update_snapshot

    def drop_last_tap(*args, **kwargs):
        snap = real(*args, **kwargs)
        taps = snap.taps[(0, 0)]
        snap.taps[(0, 0)] = W.G.Taps(taps.delays[:-1], taps.amps[:-1], taps.kinds[:-1])
        return snap

    monkeypatch.setattr(W.D, "update_snapshot", drop_last_tap)
    run, _ = tiny_run(tmp_path, "update-room", trace=False)
    assert run.failed > 0
    assert any("taps" in e for e in run.errors)


def test_dropped_path_fails_build_panel(tmp_path, monkeypatch):
    real = W.D.build_map

    def drop_a_path(*args, **kwargs):
        dmap = real(*args, **kwargs)
        for key, rec in dmap.records.items():
            dmap.records[key] = replace(rec, mpcs=rec.mpcs[1:])
        return dmap

    monkeypatch.setattr(W.D, "build_map", drop_a_path)
    run, _ = tiny_run(tmp_path, "build-panel", trace=False)
    assert run.failed > 0
    assert any("paths per order" in e for e in run.errors)


# ---------------------------------------------------------------------------
# each check, on a good and a corrupted output

def test_check_taps(room_model):
    _dmap, model = room_model
    taps = model.snapshot(0.1).pair()
    n_static, n_dyn = len(model.static_mpcs), 150
    checks.check_taps(taps, n_static, n_dyn, "ok")
    with pytest.raises(CheckFailed, match="taps"):
        checks.check_taps(W.G.Taps(taps.delays[1:], taps.amps[1:], taps.kinds[1:]),
                          n_static, n_dyn, "dropped")
    unsorted = taps.delays.copy()
    unsorted[[0, -1]] = unsorted[[-1, 0]]
    with pytest.raises(CheckFailed, match="sorted"):
        checks.check_taps(W.G.Taps(unsorted, taps.amps, taps.kinds), n_static, n_dyn, "swapped")
    amps = taps.amps.copy()
    amps[3] = complex("nan")
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_taps(W.G.Taps(taps.delays, amps, taps.kinds), n_static, n_dyn, "nan")


def test_check_same_taps(room_model):
    _dmap, model = room_model
    a = model.snapshot(0.1).pair()
    b = model.snapshot(0.1).pair()
    checks.check_same_taps(a, b, "ok")
    amps = b.amps.copy()
    amps[0] *= 1.0 + 1e-12
    with pytest.raises(CheckFailed, match="different taps"):
        checks.check_same_taps(a, W.G.Taps(b.delays, amps, b.kinds), "tampered")


def test_check_panel_counts(room_model):
    dmap, _model = room_model
    mpcs = next(iter(dmap.records.values())).mpcs
    expected = checks.path_counts(mpcs)
    checks.check_panel_counts(mpcs, expected, "ok")
    with pytest.raises(CheckFailed, match="paths per order"):
        checks.check_panel_counts(mpcs[:-1], expected, "dropped")


def test_panel_table_matches_grid():
    with open(os.path.join(BENCH, "panel_counts.json"), encoding="utf-8") as fh:
        table = json.load(fh)["receivers"]
    assert sorted(table) == sorted(W.point_key(p) for p in W.panel_points())


def test_check_redump(room_model):
    dmap, _model = room_model
    text = W.D.dumps_map(dmap)
    checks.check_redump(text, W.D.dumps_map(W.D.loads_map(text)), "ok")
    with pytest.raises(CheckFailed, match="changed"):
        checks.check_redump(text, text.replace("ks=", "ks=1", 1), "tampered")


def test_check_fcf_psd(room_model):
    _dmap, model = room_model
    df = np.arange(8) * 1e6
    fcf = W.ST.fcf_closed_form(model, df, ensemble=2)
    psd = W.ST.delay_psd(fcf, df)
    checks.check_fcf_psd(fcf, psd, "ok")
    bad = fcf.copy()
    bad[0] += 1e-6
    with pytest.raises(CheckFailed, match="fcf"):
        checks.check_fcf_psd(bad, psd, "fcf(0)")
    heavier = W.ST.Psd(psd.support, psd.density * 1.01, psd.clipped)
    with pytest.raises(CheckFailed, match="mass"):
        checks.check_fcf_psd(fcf, heavier, "mass")


def test_check_rates():
    checks.check_rates([0.0, 1.5], "ok")
    for bad in ([1.0, -1e-3], [float("nan")], []):
        with pytest.raises(CheckFailed, match="rates"):
            checks.check_rates(bad, "bad")


def test_check_cli_output():
    checks.check_cli_rows("h\na\nb\n", 2, "ok")
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_cli_rows("h\na\n", 2, "short")
    checks.check_cli_fcf("df_hz,fcf_real,fcf_imag,fcf_abs\n0,1,0,1\n", "ok")
    with pytest.raises(CheckFailed, match="fcf"):
        checks.check_cli_fcf("df_hz,fcf_real,fcf_imag,fcf_abs\n0,0.99,0,0.99\n", "off")


def test_check_counts_repeat():
    checks.check_counts_repeat({"a": 1, "b": 2}, {"a": 1, "c": 5}, "ok")
    with pytest.raises(CheckFailed, match="earlier run"):
        checks.check_counts_repeat({"a": 1}, {"a": 2}, "differs")


# ---------------------------------------------------------------------------
# helpers

def test_import_times_counts_outermost_lines_only():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy",
        "import time:        10 |         60 |     scipy.constants",
        "import time:        40 |        400 |   dcmkit.scene",
        "import time:        30 |         30 |     scipy.special",
        "import time:        20 |         50 |   dcmkit.stats",
    ])
    got = W.import_times(text)
    assert got["numpy"] == pytest.approx(300e-6)
    assert got["scipy"] == pytest.approx(90e-6)
    assert got["dcmkit"] == pytest.approx(450e-6)


def test_summary_tail_needs_ten_samples_beyond():
    from spans import summary
    assert "tail" not in summary([1.0] * 19, "s")
    assert summary([1.0] * 100, "s")["tail_pct"] == 90
    assert summary([1.0] * 1000, "ms")["tail_pct"] == 99


def test_fcf_check_notes_a_record_without_static_paths(tmp_path):
    """fcf(0) is documented as 1, but a record without static paths keeps
    only the dynamic share; the check holds it to the branch powers and
    leaves a note instead of failing."""
    run = W.Run(ROOT, tmp_path, 1, 0.01, False, sizes=TINY)
    scene = W.SC.loads_scene(W.panel_scene_text())
    rx = (4.25, -6.25, 1.5)
    dmap = W.D.build_map(scene, W.PANEL_TX, [rx], max_order=0)
    assert not dmap.records[rx].mpcs
    run.fcf_sanity(dmap, rx, 1e-6, "no static paths")
    assert run.notes and not run.errors


def test_loop_spreads_steps_over_the_ops(tmp_path):
    """Steps come after the ops at even shares of the loop, not in a block
    at its end, and each gets the input of the op before it."""
    run = W.Run(ROOT, tmp_path, 1, 0.01, False, sizes=TINY)
    order = []
    run.loop("op", list(range(10)), lambda i: order.append(("op", i)),
             step=lambda i: order.append(("step", i)), steps=3)
    assert [i for kind, i in order if kind == "step"] == [1, 4, 8]
    assert order[-1] == ("op", 9) and len(order) == 13
    assert run.per_run(0.5) == 1 and W.Run(ROOT, tmp_path, 1, 30, False).per_run(0.5) == 15


def test_speed_scales_a_sample_by_the_kernel_times_around_it():
    """A sample is scaled by the median kernel time within WINDOW_S of it,
    or by the last kernel run before it when none is that close."""
    from speed import REFERENCE_MS, Speed
    speed = Speed()
    speed.starts = [0.0, 1.0, 2.0, 2.5, 10.0]
    speed.times = [0.04, 0.02, 0.02, 0.02, 0.005]
    assert speed.scale(2.4, 2.6) == pytest.approx(1e-3 * REFERENCE_MS / 0.02)
    assert speed.scale(20.0, 21.0) == pytest.approx(1e-3 * REFERENCE_MS / 0.005)
    speed.sample()
    assert len(speed.times) == 5 + 5
    speed.sample()
    assert len(speed.times) == 10


def test_route_moves_half_a_wavelength_per_update(tmp_path):
    """The update-room route steps λ/2 at a time, t advances by the time
    that takes at the scatterer speed, and each step's record is the
    nearest grid point, within the lookup tolerance."""
    run = W.Run(ROOT, tmp_path, 4, 0.01, False, sizes=TINY)
    room = W.UpdateRoom(run)
    room.dmap = W.D.build_map(W.SC.loads_scene(W.ROOM_SCENE), W.ROOM_TX, room.points,
                              max_order=0)
    cfg = room.dmap.gbsm
    half = 0.5 * W.SPEED_OF_LIGHT / cfg.carrier_frequency
    steps = [step for step, _ in zip(room.route(), range(200))]
    locs = np.array([step[2] for step in steps])
    moves = np.linalg.norm(np.diff(locs, axis=0), axis=1)
    assert np.all(moves <= half * (1 + 1e-9)) and np.median(moves) == pytest.approx(half)
    assert steps[1][3] - steps[0][3] == pytest.approx(half / cfg.cluster_speed)
    for i, rec, loc, _t, _seed, new in steps:
        nearest = W.D.query(room.dmap, loc, tolerance=W.ROOM_TOLERANCE).rx
        assert tuple(nearest) == tuple(room.points[rec])
        assert new == (i == 0 or rec != steps[i - 1][1])
