"""Golden digests: SHA-256 of seeded outputs at fixed inputs.

Any change to a random stream, a draw order or the floating-point work
behind the traced paths, the map bytes, the CLI tables or the synthesized
taps shows up here as a changed digest.  A refactor that means to keep
behaviour must leave every digest alone; a change that means to move
outputs updates them and says why.  The pinned values hold for one numpy
build: SIMD transcendental functions may round differently on another CPU
or numpy version.
"""

import hashlib

import numpy as np
import pytest

from dcmkit import (AntennaArray, ChannelModel, GbsmConfig, KFactors,
                    build_map, dumps_map, dynamic_cir, grid_points, loads_scene,
                    spawn_clusters, trace_static_mpcs)
from dcmkit.cli import main

from conftest import ROOM_SCENE, panel_field_scene

TX = "1,1,1.5"
LOC = ((1.0, 1.0, 1.5), (2.5, 2.0, 1.5))
# Order-3 receivers on the acceptance-7 panel field; their kept paths by
# order (los, 1, 2, 3) are 1,2,3,1 / 1,1,0,2 / 1,2,4,1 / 0,0,0,0 / 0,1,1,1.
PANEL_TX = (0.5, 0.5, 5.0)
PANEL_RX = ((-1.0, -8.0, 1.5), (-2.75, 2.5, 1.5), (7.75, 4.25, 1.5),
            (4.25, -6.25, 1.5), (6.0, -6.25, 1.5))
# The 63-point order-2 room grid of perfbench's update-room map: 24-25 paths
# per record (1,566 in all), of every kind (los, refl:1, refl:2).
ROOM_GRID = ((1.75, 1.75, 1.5), (7, 9, 1), 0.25)

GOLDEN = {
    "build":
        "23488a7e95d43430f2a9a413d7a1731869061c21b1ecd3d7bc2eff91707964fc",
    "update":
        "c3519533fb2ab5854d2b3d04b325a7fd39a1f02fb8a7834c12f15096503f5c6c",
    "simulate":
        "6d3ed9aa1b292f395305e85125fd80a12d167e6d27a97a83714c07d087e3d04a",
    "stats_fcf":
        "e2f6571548ec7c62e9fda3ee34858cd123444e36cbc2400fd988999455edbad7",
    "dynamic_cir":
        "0ed574da7fc6613a7d16ffc984da62cbdd8315e00e9dbb6d65fba316f1294ac0",
    "narrowband_series":
        "39392c16b7eeb9959ab8f08317e076740cefcc639ca13d4925131210278c0d81",
    "panel_trace":
        "aad0b1cf5d1d29c1fee28fe202c9d988921389eb29320cb99712548742a16a5d",
    "panel_map":
        "1e73e349b0ac1a576c4cbbea5e8821440ea6a0caa713e559bf1dd8e9f86295e9",
    "spawn":
        "cd5344a4ff459ac1b1969ea0d24b4f859f825a1d658fba0e1dc588e9c280c889",
    "room_map":
        "fcdb82288dcf11f99d0615bc821cb508e7e461e16248737e414311d17ac40784",
}


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def tilted_pattern(elevation, azimuth):
    """Element response with both polarizations, so every XPR term counts."""
    f_v = np.cos(elevation) * (1.0 + 0.25 * np.cos(azimuth))
    f_h = 0.5 * np.sin(azimuth) + 0.2 * np.sin(elevation)
    return f_v, f_h


def _array(n: int) -> AntennaArray:
    return AntennaArray(n_elements=n, orientation=(0.3, 1.1), pattern=tilted_pattern)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "room.scene").write_text(ROOM_SCENE)
    out = root / "room.dcm"
    assert main(["build", "--scene", str(root / "room.scene"), "--tx", TX,
                 "--origin", "2,2,1.5", "--shape", "2,2,1", "--spacing", "0.5",
                 "--max-order", "2", "--seed", "4", "--out", str(out)]) == 0
    runs = {
        "update": ["update", "--t", "0.25", "--seed", "7"],
        "simulate": ["simulate", "--seed", "2", "--t0", "0.1",
                     "--duration", "0.2", "--dt", "1e-3"],
        "stats_fcf": ["stats", "fcf", "--seed", "3", "--ensemble", "6",
                      "--df-count", "24", "--df-step", "2e6"],
    }
    texts = {"build": out.read_bytes()}
    for name, argv in runs.items():
        target = root / f"{name}.csv"
        assert main([*argv, "--map", str(out), "--at", "2.5,2,1.5",
                     "--out", str(target)]) == 0
        texts[name] = target.read_bytes()
    return texts


@pytest.mark.parametrize("name", ["build", "update", "simulate", "stats_fcf"])
def test_cli_output_digest(cli_outputs, name):
    assert _sha(cli_outputs[name]) == GOLDEN[name]


def test_spawn_digest():
    chunks = []
    for cfg in (GbsmConfig(),
                GbsmConfig(n_clusters=3, rays_per_cluster=2, seed=2**70 + 3)):
        c = spawn_clusters(cfg, LOC)
        # the fields with each end apart, transmit end first where they pair
        chunks += [a.tobytes() for a in (
            c.power, c.distance[:, 0], c.direction[:, 0], c.distance[:, 1],
            c.direction[:, 1], c.velocity[:, 0], c.velocity[:, 1], c.virtual_delay,
            c.offset[:, :, 0], c.offset[:, :, 1], c.phases, c.xpr)]
        # the ray anchors of each end as (C, m, 3) rows
        chunks += [end[..., 0].transpose(1, 2, 0).tobytes() for end in c._anchors]
    assert _sha(*chunks) == GOLDEN["spawn"]


def test_dynamic_cir_digest():
    cfg = GbsmConfig(seed=5)
    clusters = spawn_clusters(cfg, LOC)
    taps = dynamic_cir(clusters, _array(2), _array(3), 0.3, cfg)
    chunks = []
    for key in sorted(taps):
        chunks += [repr(key), taps[key].delays.tobytes(), taps[key].amps.tobytes(),
                   "\n".join(taps[key].kinds)]
    assert _sha(*chunks) == GOLDEN["dynamic_cir"]


def test_narrowband_series_digest():
    room = loads_scene(ROOM_SCENE)
    mpcs = trace_static_mpcs(room, LOC[0], LOC[1], max_order=2)
    model = ChannelModel(mpcs, KFactors(2.0, 4.0),
                         GbsmConfig(seed=9, copolar_imbalance=0.8),
                         tx_array=_array(2), rx_array=_array(2), location=LOC)
    t_grid = 0.05 + np.arange(700) * 1e-3
    series = model.narrowband_series(t_grid, pair=(1, 1))
    assert _sha(series.tobytes()) == GOLDEN["narrowband_series"]


@pytest.fixture(scope="module")
def panel_scene():
    return panel_field_scene()


def test_panel_trace_digest(panel_scene):
    chunks = []
    for rx in PANEL_RX:
        for m in trace_static_mpcs(panel_scene, PANEL_TX, rx, max_order=3):
            chunks.append(repr((m.delay, m.power, m.aod, m.aoa, m.phases,
                                m.xpr, m.kind, m.facets)))
        chunks.append("\n")
    assert _sha(*chunks) == GOLDEN["panel_trace"]


def test_panel_map_digest(panel_scene):
    dmap = build_map(panel_scene, PANEL_TX, PANEL_RX, max_order=3)
    assert _sha(dumps_map(dmap)) == GOLDEN["panel_map"]


def test_room_map_digest():
    dmap = build_map(loads_scene(ROOM_SCENE), LOC[0], grid_points(*ROOM_GRID),
                     max_order=2)
    assert _sha(dumps_map(dmap)) == GOLDEN["room_map"]
