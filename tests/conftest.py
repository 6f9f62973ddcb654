"""Shared scene builders and model factories for the test suite."""

import math

import numpy as np
import pytest

from dcmkit import (AntennaArray, ChannelModel, GbsmConfig, KFactors, PathSet,
                    loads_scene, trace_static_mpcs)

GROUND_SCENE = """
[material] name=ground eps_r=15.0 sigma=0.005
[facet] material=ground v=-500,-500,0;500,-500,0;500,500,0;-500,500,0
"""

# 4 m x 5 m x 3 m shoebox room, tx/rx placed inside by the tests
ROOM_SCENE = """
[material] name=wall eps_r=5.31 sigma=0.0326
[material] name=floor eps_r=3.91 sigma=0.33
[facet] material=floor v=0,0,0;4,0,0;4,5,0;0,5,0
[facet] material=wall  v=0,0,3;4,0,3;4,5,3;0,5,3
[facet] material=wall  v=0,0,0;4,0,0;4,0,3;0,0,3
[facet] material=wall  v=0,5,0;4,5,0;4,5,3;0,5,3
[facet] material=wall  v=0,0,0;0,5,0;0,5,3;0,0,3
[facet] material=wall  v=4,0,0;4,5,0;4,5,3;4,0,3
"""


def panel_field_scene(nx=10, ny=10):
    """nx*ny small vertical panels over a large ground plane."""
    lines = ["[material] name=concrete eps_r=5.31 sigma=0.0326",
             "[material] name=glass eps_r=6.27 sigma=0.0167",
             "[facet] material=concrete v=-400,-400,0;400,-400,0;"
             "400,400,0;-400,400,0"]
    for i in range(nx):
        for j in range(ny):
            x, y = -45.0 + 10.0 * i, -45.0 + 10.0 * j
            mat = "concrete" if (i + j) % 2 == 0 else "glass"
            if (i + j) % 2 == 0:
                v = f"{x},{y - 1.5},0;{x},{y + 1.5},0;{x},{y + 1.5},3;{x},{y - 1.5},3"
            else:
                v = f"{x - 1.5},{y},0;{x + 1.5},{y},0;{x + 1.5},{y},3;{x - 1.5},{y},3"
            lines.append(f"[facet] material={mat} v={v}")
    return loads_scene("\n".join(lines))


@pytest.fixture(scope="session")
def ground_scene():
    return loads_scene(GROUND_SCENE)


@pytest.fixture(scope="session")
def room_scene():
    return loads_scene(ROOM_SCENE)


@pytest.fixture(scope="session")
def two_ray_mpcs(ground_scene):
    return trace_static_mpcs(ground_scene, (0.0, 0.0, 10.0), (100.0, 0.0, 1.5),
                             max_order=1)


def make_model(static_mpcs=(), k_s=2.0, k_d=10.0, tx_elements=1, rx_elements=1,
               **overrides) -> ChannelModel:
    cfg = GbsmConfig().with_overrides(**overrides)
    return ChannelModel(
        PathSet.of(static_mpcs), KFactors(k_s, k_d), cfg,
        tx_array=AntennaArray(n_elements=tx_elements),
        rx_array=AntennaArray(n_elements=rx_elements),
    )


def total_power(taps) -> float:
    return float(np.sum(np.abs(taps.amps) ** 2))


def wavelength(frequency: float) -> float:
    from scipy.constants import c
    return c / frequency


def assert_close(a, b, tol, label=""):
    assert abs(a - b) <= tol, f"{label}: {a} vs {b} (tol {tol})"


def db(x: float) -> float:
    return 10.0 * math.log10(x)
