"""Image-method tracer against an independent brute-force oracle.

The oracle below re-derives every specular path with scalar arithmetic:
explicit mirror chains, per-facet polygon tests and its own Fresnel
implementation.  It shares no code with the package tracer.
"""

import cmath
import collections
import hashlib
import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0
from scipy.constants import epsilon_0

from dcmkit import (Mpc, PathSet, Scene, SceneError, direction_angles,
                    loads_scene, fresnel_coefficients, friis_path_gain,
                    trace_static_mpcs, unit_from_angles)
from dcmkit import raytrace
from dcmkit.scene import Facet, Material, default_material

from conftest import GROUND_SCENE, ROOM_SCENE, panel_field_scene

TOL = 1e-9  # meters, same intersection slack the package documents


# ---------------------------------------------------------------------------
# oracle

def _oracle_fresnel_power(material, cos_inc, frequency):
    eta = complex(material.eps_r, -material.sigma / (2.0 * math.pi * frequency * epsilon_0))
    sin2 = 1.0 - cos_inc * cos_inc
    root = cmath.sqrt(eta - sin2)
    g_perp = (cos_inc - root) / (cos_inc + root)
    g_par = (eta * cos_inc - root) / (eta * cos_inc + root)
    return 0.5 * (abs(g_perp) ** 2 + abs(g_par) ** 2)


def _mirror(point, facet):
    d = float(np.dot(point, facet.normal)) - facet.offset
    return point - 2.0 * d * facet.normal


def _inside(point, facet, tol=TOL):
    verts = facet.vertices
    m = len(verts)
    for i in range(m):
        a = verts[i]
        b = verts[(i + 1) % m]
        edge = b - a
        s = float(np.dot(np.cross(edge, point - a), facet.normal))
        s /= max(float(np.linalg.norm(edge)), 1e-300)
        if s < -tol:
            return False
    return True


def _blocked(a, b, facets, tol=TOL):
    seg = b - a
    length = float(np.linalg.norm(seg))
    for facet in facets:
        denom = float(np.dot(seg, facet.normal))
        if denom == 0.0:
            continue
        t = (facet.offset - float(np.dot(a, facet.normal))) / denom
        if not (tol / length < t < 1.0 - tol / length):
            continue
        if _inside(a + t * seg, facet):
            return True
    return False


def _oracle_paths(scene, tx, rx, max_order, frequency):
    """Map (kind, facet sequence) -> (delay, power) by exhaustive search."""
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    facets = scene.facets
    found = {}

    if not _blocked(tx, rx, facets):
        dist = float(np.linalg.norm(rx - tx))
        power = (C0 / (4.0 * math.pi * dist * frequency)) ** 2
        found[("los", ())] = (dist / C0, power)

    for order in range(1, max_order + 1):
        for seq in itertools.product(range(len(facets)), repeat=order):
            if any(seq[i] == seq[i + 1] for i in range(order - 1)):
                continue
            images = []
            cur = tx
            for fi in seq:
                cur = _mirror(cur, facets[fi])
                images.append(cur)
            # walk back from the receiver through the mirror chain
            target = rx
            points = [None] * order
            ok = True
            for j in range(order - 1, -1, -1):
                facet = facets[seq[j]]
                image = images[j]
                denom = float(np.dot(target - image, facet.normal))
                if denom == 0.0:
                    ok = False
                    break
                t = (facet.offset - float(np.dot(image, facet.normal))) / denom
                if not (1e-12 < t < 1.0 - 1e-12):
                    ok = False
                    break
                q = image + t * (target - image)
                if not _inside(q, facet):
                    ok = False
                    break
                points[j] = q
                target = q
            if not ok:
                continue
            legs = [tx] + points + [rx]
            if any(_blocked(legs[i], legs[i + 1], facets) for i in range(order + 1)):
                continue
            length = sum(float(np.linalg.norm(legs[i + 1] - legs[i]))
                         for i in range(order + 1))
            power = (C0 / (4.0 * math.pi * length * frequency)) ** 2
            for j in range(order):
                inc = legs[j + 1] - legs[j]
                inc = inc / np.linalg.norm(inc)
                cos_i = abs(float(np.dot(inc, facets[seq[j]].normal)))
                power *= _oracle_fresnel_power(facets[seq[j]].material,
                                               min(cos_i, 1.0), frequency)
            found[(f"refl:{order}", seq)] = (length / C0, power)
    return found


def _random_scene(rng):
    mats = [Material(f"m{i}", eps_r=float(rng.uniform(2.0, 12.0)),
                     sigma=float(rng.uniform(0.0, 0.5))) for i in range(2)]
    facets = []
    n = int(rng.integers(1, 5))
    while len(facets) < n:
        center = rng.uniform(-5.0, 5.0, 3)
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        if np.linalg.norm(np.cross(a, b)) < 0.3:
            continue
        scale = rng.uniform(1.5, 4.0)
        try:
            facets.append(Facet([center + scale * a, center + scale * b,
                                 center - scale * a, center - scale * b],
                                mats[len(facets) % 2]))
        except ValueError:
            continue
    return Scene(tuple(facets), {m.name: m for m in mats}, "test")


def test_oracle_equivalence_random_scenes():
    rng = np.random.default_rng(2024)
    freq = 5.5e9
    for trial in range(20):
        scene = _random_scene(rng)
        tx = rng.uniform(-3.0, 3.0, 3)
        rx = rng.uniform(-3.0, 3.0, 3)
        if np.linalg.norm(rx - tx) < 0.5:
            rx = rx + 1.0
        expected = _oracle_paths(scene, tx, rx, 2, freq)
        got = trace_static_mpcs(scene, tx, rx, max_order=2, frequency=freq)
        keys = {(m.kind, m.facets) for m in got}
        assert keys == set(expected), f"trial {trial}: path sets differ"
        for m in got:
            delay, power = expected[(m.kind, m.facets)]
            assert abs(m.delay - delay) <= 1e-12
            assert abs(m.power - power) <= 1e-9 * power


_MATS = (Material("m0", eps_r=5.31, sigma=0.0326), Material("m1", eps_r=3.0, sigma=0.4))


def _rect(center, u, v, material):
    c, u, v = (np.asarray(x, dtype=float) for x in (center, u, v))
    return Facet([c - u - v, c + u - v, c + u + v, c - u + v], material)


def _log_uniform(draw, lo, hi):
    return 10.0 ** -draw(st.floats(-math.log10(hi), -math.log10(lo)))


def _step(length, start, direction, size):
    """length, shortened so start + length * direction stays in the box."""
    with np.errstate(all="ignore"):
        room = np.where(direction > 0.0, size - 0.01 - start, 0.01 - start) / direction
    room = room[direction != 0.0].min()
    return min(length, 0.9 * room) if room > 0.0 else length


def _panel(draw, size, material):
    """A random rectangle inside the box [0, size]."""
    center = np.array([draw(st.floats(0.1, 0.9)) for _ in range(3)]) * size
    yaw = draw(st.floats(0.0, math.pi))
    tilt = draw(st.floats(-0.6, 0.6))
    width, height = draw(st.floats(0.2, 1.5)), draw(st.floats(0.2, 1.2))
    u = width * np.array([math.cos(yaw), math.sin(yaw), 0.0])
    v = height * np.array([-math.sin(yaw) * math.sin(tilt),
                           math.cos(yaw) * math.sin(tilt), math.cos(tilt)])
    fit = min(_step(1.0, center, su * u + sv * v, size)
              for su in (-1.0, 1.0) for sv in (-1.0, 1.0))
    return _rect(center, fit * u, fit * v, material)


def _sliver(draw, size):
    """tx, a mirror panel f, a panel g and rx such that the path
    tx -> f -> g -> rx meets g on the rim of what the pruning tests keep.

    - "beam": the hit on f lies 1e-6..1e-2 m inside an edge, and g reaches
      into the beam from tx's image through f by 1e-6..1e-2 m or not at all.
    - "plane": g stands across f's plane and reaches 1e-6..2e-2 m onto its
      real side.
    - "slack": the hit on f lies 1e-10..9e-10 m outside an edge, inside the
      tracer's slack, tx sits 1e-6..1e-4 m off f and g lies wholly outside
      the beam, by up to ~1e-3 m.  A pruning margin that does not grow with
      the distance from the image loses this path.
    """
    mode = draw(st.sampled_from(["beam", "plane", "slack"]))
    wall = _panel(draw, size, _MATS[0])
    verts = wall.vertices
    i = draw(st.integers(0, len(verts) - 1))
    a, b = verts[i], verts[(i + 1) % len(verts)]
    along = (b - a) / np.linalg.norm(b - a)
    inward = np.cross(wall.normal, along)
    inward *= np.sign(inward @ (wall.centroid - a))
    if mode == "slack":
        inset, standoff, reach = -_log_uniform(draw, 1e-10, 9e-10), (1e-6, 1e-4), 0.0
    else:
        inset, standoff = _log_uniform(draw, 1e-6, 1e-2), (1e-6, 2.0)
        reach = draw(st.sampled_from([0.0, 1.0])) * _log_uniform(draw, 1e-6, 1e-2)
    hit = a + draw(st.floats(0.05, 0.95)) * (b - a) + inset * inward
    real = wall.normal * draw(st.sampled_from([-1.0, 1.0]))
    way = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) + 1.5 * real
    way -= min(0.0, way @ real) * real  # stay on the real side
    way /= np.linalg.norm(way)
    tx = hit + _step(_log_uniform(draw, *standoff), hit, way, size) * way
    image = _mirror(tx, wall)
    ray = (hit - image) / np.linalg.norm(hit - image)
    if mode == "plane":
        out = -real
        q = hit + _log_uniform(draw, 1e-6, 1e-2) / abs(ray @ real) * ray
    else:
        out = np.cross(a - image, along)
        out *= -np.sign(out @ (wall.centroid - image))
        out /= np.linalg.norm(out)
        q = hit + _step(draw(st.floats(0.2, 1.5)), hit, ray, size) * ray
    depth, width = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
    panel = _rect(q + 0.5 * (depth - reach) * out, 0.5 * (depth + reach) * out,
                  width * along, _MATS[1])
    bounce = ray - 2.0 * (ray @ panel.normal) * panel.normal
    rx = q + _step(draw(st.floats(0.1, 1.0)), q, bounce, size) * bounce
    return tx, [wall, panel], rx


@st.composite
def _box_with_panels(draw):
    """A closed box with 0-4 inner panels and tx/rx inside: 6-12 facets.

    Half the draws put tx or rx anywhere, or within 1e-3 m of a facet plane
    or edge; the other half add a pair of panels from _sliver."""
    size = np.array([draw(st.floats(2.0, 6.0)) for _ in range(3)])
    half = size / 2.0
    axes = np.eye(3)
    facets = []
    for k in range(3):
        u, v = axes[(k + 1) % 3] * half[(k + 1) % 3], axes[(k + 2) % 3] * half[(k + 2) % 3]
        for end in (0.0, 1.0):
            facets.append(_rect(half + (end - 0.5) * size[k] * axes[k], u, v, _MATS[0]))
    for _ in range(draw(st.integers(0, 4))):
        facets.append(_panel(draw, size, _MATS[len(facets) % 2]))

    def endpoint():
        p = np.array([draw(st.floats(0.05, 0.95)) for _ in range(3)]) * size
        snap = draw(st.sampled_from(["free", "plane", "edge"]))
        if snap == "free":
            return p
        facet = facets[draw(st.integers(0, len(facets) - 1))]
        near = draw(st.floats(1e-6, 1e-3))
        if snap == "plane":  # on the side of the box center
            near *= np.sign(facet.normal @ half - facet.offset)
            return p - (p @ facet.normal - facet.offset - near) * facet.normal
        i = draw(st.integers(0, len(facet.vertices) - 1))
        a, b = facet.vertices[i], facet.vertices[(i + 1) % len(facet.vertices)]
        side = np.cross(facet.normal, b - a)
        side *= draw(st.sampled_from([-1.0, 1.0])) / np.linalg.norm(side)
        return a + draw(st.floats(0.0, 1.0)) * (b - a) + near * (side + 0.01 * (half - a))

    if draw(st.booleans()):
        tx, pair, rx = _sliver(draw, size)
        facets += pair
    else:
        tx, rx = endpoint(), endpoint()
    if np.linalg.norm(rx - tx) < 0.1:
        rx = rx + 0.5
    return Scene(tuple(facets), {m.name: m for m in _MATS}, "box"), tx, rx


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_box_with_panels())
def test_tree_matches_oracle_at_order_three(case):
    """The pruned image tree loses no path the exhaustive search finds."""
    scene, tx, rx = case
    expected = _oracle_paths(scene, tx, rx, 3, 5.5e9)
    got = trace_static_mpcs(scene, tx, rx, max_order=3, frequency=5.5e9)
    assert {(m.kind, m.facets) for m in got} == set(expected)
    for m in got:
        delay, power = expected[(m.kind, m.facets)]
        assert abs(m.delay - delay) <= 1e-12
        assert abs(m.power - power) <= 1e-9 * power


def _every_child(geom, seq, imgs):
    """The image tree's children without pruning: every facet g != f."""
    keep = np.ones((len(seq), geom.count), dtype=bool)
    keep[np.arange(len(seq)), seq[:, -1]] = False
    return np.nonzero(keep)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(_box_with_panels())
def test_pruning_keeps_every_path_of_the_unpruned_tree(case):
    """The pruned trace equals, facets and all, the trace of every facet
    sequence: a check of the pruning alone, which a tracer/oracle
    disagreement at degenerate geometry does not touch."""
    scene, tx, rx = case
    pruned = trace_static_mpcs(scene, tx, rx, max_order=3)
    with mock.patch.object(raytrace, "_children", _every_child):
        full = trace_static_mpcs(scene, tx, rx, max_order=3)
    assert pruned == full


def test_image_tree_survivors_on_the_panel_field():
    """The survivor counts per order that the raytrace docstring states."""
    geom = raytrace._geometry(panel_field_scene().facets)
    counts = collections.Counter()
    for seq, _ in raytrace._image_tree(geom, np.array([0.5, 0.5, 5.0]), 3):
        counts[seq.shape[1]] += len(seq)
    assert counts == {1: 101, 2: 337, 3: 10556}


def _scene_box(name):
    """A scene and the box of its facet vertices, the ground of the panel
    field left out."""
    scene = loads_scene(ROOM_SCENE) if name == "room" else panel_field_scene(3, 3)
    verts = np.concatenate([f.vertices for f in scene.facets[name != "room":]])
    return scene, verts.min(axis=0), verts.max(axis=0)


def _table_bytes(paths):
    return [getattr(paths, name).tobytes() for name in raytrace._PATH_COLUMNS] + [paths.facets]


@pytest.mark.parametrize("name", ["room", "panel"])
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_block_trace_equals_the_trace_of_each_receiver(name, data):
    """A block of receivers traced in one call gives, column for column and
    facets included, the tables of its receivers traced one at a time,
    however the block is split into calls and the calls into chunks."""
    scene, low, high = _scene_box(name)
    unit = st.tuples(*[st.floats(0.05, 0.95)] * 3).map(
        lambda f: low + np.array(f) * (high - low))
    tx = data.draw(unit)
    receivers = data.draw(st.lists(unit.filter(lambda p: not np.array_equal(p, tx)),
                                   min_size=1, max_size=6))
    inner = range(1, len(receivers))
    cuts = sorted(data.draw(st.sets(st.sampled_from(inner), max_size=3))) if inner else []
    block = data.draw(st.sampled_from([raytrace._BLOCK, 1]))
    alone = [trace_static_mpcs(scene, tx, rx, max_order=3) for rx in receivers]
    with mock.patch.object(raytrace, "_BLOCK", block):
        together = [paths for start, stop in zip([0, *cuts], [*cuts, len(receivers)])
                    for paths in trace_static_mpcs(scene, tx, np.array(receivers[start:stop]),
                                                   max_order=3)]
    assert [_table_bytes(p) for p in together] == [_table_bytes(p) for p in alone]


# ---------------------------------------------------------------------------
# hand-checked ground bounce

def test_two_ray_ground_geometry(ground_scene):
    tx = (0.0, 0.0, 10.0)
    rx = (100.0, 0.0, 1.5)
    mpcs = trace_static_mpcs(ground_scene, tx, rx, max_order=1)
    assert [m.kind for m in mpcs] == ["los", "refl:1"]
    los, refl = mpcs
    # direct: sqrt(100^2 + 8.5^2), bounce: mirror image at z = -10
    assert abs(los.delay - math.hypot(100.0, 8.5) / C0) < 1e-15
    assert abs(refl.delay - math.hypot(100.0, 11.5) / C0) < 1e-15
    assert abs(los.delay * 1e9 - 334.77) < 0.01
    assert abs(refl.delay * 1e9 - 335.77) < 0.01
    los_db = 10.0 * math.log10(los.power)
    assert abs(los_db - friis_path_gain(math.hypot(100.0, 8.5), 5.5e9)) < 1e-9
    assert abs(friis_path_gain(100.0, 5.5e9) - (-87.26)) < 0.01
    # bounce point by symmetry of heights: x where 10/(x) = 1.5/(100-x)
    x_hit = 100.0 * 10.0 / 11.5
    aod_el = refl.aod[0]
    assert abs(aod_el - (-math.atan2(10.0, x_hit))) < 1e-9


def test_reciprocity(room_scene):
    tx = (1.0, 1.2, 1.5)
    rx = (3.1, 3.9, 1.1)
    fwd = trace_static_mpcs(room_scene, tx, rx, max_order=2)
    rev = trace_static_mpcs(room_scene, rx, tx, max_order=2)
    assert len(fwd) == len(rev)
    rev_keys = {(m.kind, tuple(reversed(m.facets))): m for m in rev}
    for m in fwd:
        twin = rev_keys[(m.kind, m.facets)]
        assert abs(m.delay - twin.delay) < 1e-15
        assert abs(m.power - twin.power) < 1e-12 * m.power
        assert np.allclose(m.aod, twin.aoa, atol=1e-12)
        assert np.allclose(m.aoa, twin.aod, atol=1e-12)


def test_convex_room_first_order_count(room_scene):
    # every wall of a convex room reflects exactly once, nothing blocks
    tx = (1.0, 1.0, 1.0)
    rx = (3.0, 4.0, 2.0)
    mpcs = trace_static_mpcs(room_scene, tx, rx, max_order=1)
    assert sum(m.is_los for m in mpcs) == 1
    assert sum(m.kind == "refl:1" for m in mpcs) == 6
    assert set(mpcs.order.tolist()) == {0, 1}


def test_room_against_oracle(room_scene):
    tx = np.array([1.0, 1.0, 1.0])
    rx = np.array([3.0, 4.0, 2.0])
    expected = _oracle_paths(room_scene, tx, rx, 2, 5.5e9)
    got = trace_static_mpcs(room_scene, tx, rx, max_order=2)
    assert {(m.kind, m.facets) for m in got} == set(expected)
    for m in got:
        delay, power = expected[(m.kind, m.facets)]
        assert abs(m.delay - delay) <= 1e-12
        assert abs(m.power - power) <= 1e-9 * power


def test_los_blocked_by_wall():
    scene = loads_scene("""
    [facet] v=5,-10,-10;5,10,-10;5,10,10;5,-10,10
    """)
    mpcs = trace_static_mpcs(scene, (0, 0, 0), (10, 0, 0), max_order=1)
    assert all(not m.is_los for m in mpcs)


def test_edge_tolerance_is_shared_by_inside_and_blocked():
    """A point up to INTERSECT_TOL past an edge counts as on the facet, for
    the reflection-point test and the blocking test alike."""
    square = Facet([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], default_material())
    geom = raytrace._Geometry((square,))
    for past, inside in ((0.5e-9, True), (2e-9, False)):
        point = np.array([[1.0 + past, 0.5, 0.0]])
        assert geom.inside(point, np.array([0])).tolist() == [inside]
        # a vertical segment through the point crosses the plane there
        a, b = point - [0.0, 0.0, 1.0], point + [0.0, 0.0, 1.0]
        assert geom.blocked(a, b).tolist() == [inside]


def _edge_distances(points, facet):
    """((e x (p - v)) . n) / |e| for points (P, 3) and each edge v -> v + e
    of facet: the cross-product form of how far inside each edge p lies."""
    rel = points[:, None, :] - facet.vertices
    return np.cross(facet.edges, rel) @ facet.normal / facet.edge_len


@st.composite
def _facet_near_points(draw):
    """A convex facet of 3-8 corners, centred up to 150 m from the origin,
    and 40 points near its edges and corners, on and off its plane: inside
    or outside by 1e-12..1e-3 m, or within 1e-15..1e-10 m of -TOL."""
    center = np.array([draw(st.floats(-150.0, 150.0)) for _ in range(3)])
    normal = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    normal = normal / np.linalg.norm(normal) if np.linalg.norm(normal) > 0.1 \
        else np.array([0.0, 0.0, 1.0])
    u = np.cross(normal, [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9 else [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    count = draw(st.integers(3, 8))
    turns = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count,
                                  unique=True)))
    angles = 2.0 * math.pi * turns
    radius = draw(st.floats(0.5, 20.0)) * np.array([1.0, draw(st.floats(0.3, 1.0))])
    corners = center + radius[0] * np.cos(angles)[:, None] * u \
        + radius[1] * np.sin(angles)[:, None] * v
    try:
        facet = Facet(corners, _MATS[0])
    except ValueError:  # corners too close: a zero or reflex corner
        facet = Facet(center + [u, v, -u - v], _MATS[0])
    m = len(facet.vertices)
    inward = np.cross(facet.normal, facet.edges) / facet.edge_len[:, None]
    points = []
    for _ in range(40):
        k = draw(st.integers(0, m - 1))
        depth = 10.0 ** draw(st.floats(-12.0, -3.0)) * draw(st.sampled_from([-1.0, 1.0]))
        if draw(st.booleans()):
            depth = -TOL + 10.0 ** draw(st.floats(-15.0, -10.0)) \
                * draw(st.sampled_from([-1.0, 1.0]))
        points.append(facet.vertices[k] + draw(st.floats(0.0, 1.0)) * facet.edges[k]
                      + depth * inward[k] + draw(st.floats(-1.0, 1.0)) * facet.normal)
    return facet, np.array(points)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_facet_near_points())
def test_inside_agrees_with_the_cross_product_form(case):
    """The half-plane rows give the cross-product edge distances, and so the
    same verdict, wherever a distance is not within 1e-12 m of -TOL."""
    facet, points = case
    geom = raytrace._Geometry((facet,))
    want = _edge_distances(points, facet)
    m = len(facet.vertices)
    got = points @ geom.sides[0, :m, :3].T + geom.sides[0, :m, 3]
    assert np.abs(got - want).max() <= 1e-12
    clear = (np.abs(want + TOL) > 1e-12).all(axis=1)
    verdict = geom.inside(points, np.zeros(len(points), dtype=int))
    assert verdict[clear].tolist() == (want >= -TOL).all(axis=1)[clear].tolist()


def test_beam_walls_hold_the_image_and_the_edge():
    """Each wall of the beam from image I through facet f contains I and both
    ends of its edge, has a unit normal and puts f's centroid on its positive
    side; a padding row and an image on f's plane give zero rows."""
    mat = default_material()
    facets = (Facet([(0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 2, 0), (0, 1, 0)], mat),
              Facet([(3, 0, 1), (3, 2, 1), (3, 0, 3)], mat),
              _rect((90.0, -40.0, 20.0), (0.0, 3.0, 1.0), (2.0, 0.0, 0.5), mat))
    geom = raytrace._Geometry(facets)
    rng = np.random.default_rng(5)
    for f, facet in enumerate(facets):
        images = facet.centroid + 20.0 * rng.normal(size=(50, 3))
        side = images @ facet.normal - facet.offset
        walls = raytrace._walls(geom, np.full(len(images), f), images, side)
        m = len(facet.vertices)
        assert not walls[:, m:].any()
        walls = walls[:, :m]
        assert np.abs(np.linalg.norm(walls[..., :3], axis=2) - 1.0).max() < 1e-12

        def height(points):  # of each wall over points (50 | 1, m | 1, 3)
            return np.einsum("pwk,pwk->pw", walls[..., :3],
                             np.broadcast_to(points, walls.shape[:2] + (3,))) + walls[..., 3]

        ends = facet.vertices, np.roll(facet.vertices, -1, axis=0)
        for points in (images[:, None, :], *ends):
            assert np.abs(height(points)).max() < 1e-9
        assert (height(facet.centroid) > 0.0).all()
        on_plane = raytrace._walls(geom, np.array([f]), facet.centroid[None], np.zeros(1))
        assert not on_plane.any()


def test_passivity_and_order(room_scene):
    mpcs = trace_static_mpcs(room_scene, (1.0, 1.0, 1.0), (3.0, 4.0, 2.0),
                             max_order=2)
    delays = [m.delay for m in mpcs]
    assert delays == sorted(delays)
    assert all(0.0 < m.power < 1.0 for m in mpcs)
    assert mpcs.order.max() <= 2


def test_determinism_including_phases(room_scene):
    a = trace_static_mpcs(room_scene, (1.0, 1.0, 1.0), (3.0, 4.0, 2.0), max_order=2)
    b = trace_static_mpcs(room_scene, (1.0, 1.0, 1.0), (3.0, 4.0, 2.0), max_order=2)
    assert a == b
    assert a[0].phases == b[0].phases
    # different endpoints give different per-path randomness
    c = trace_static_mpcs(room_scene, (1.0, 1.0, 1.2), (3.0, 4.0, 2.0), max_order=2)
    assert a[0].phases != c[0].phases


def test_los_xpr_infinite(two_ray_mpcs):
    los = [m for m in two_ray_mpcs if m.is_los][0]
    refl = [m for m in two_ray_mpcs if not m.is_los][0]
    assert math.isinf(los.xpr)
    assert math.isfinite(refl.xpr) and refl.xpr > 0.0


# the draw law, path by path, as the tracer wrote it before it drew all the
# paths of a call in one pass: the reference of the batched draws
def _reference_draw(kind, facets, delay):
    key = b"".join((kind.encode(), struct.pack(f"={len(facets)}q", *facets),
                    struct.pack("=d", delay)))
    digest = hashlib.blake2b(key, digest_size=8).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    phases = tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist())
    if kind == "los":
        return phases, math.inf
    return phases, float(10.0 ** (rng.normal(raytrace.XPR_MEAN_DB, raytrace.XPR_STD_DB) / 10.0))


def _seed_state(key):
    return np.random.SeedSequence(key).generate_state(4, np.uint64)


@pytest.mark.parametrize("key", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_batched_seed_hash_is_seed_sequences(key):
    words = raytrace._seed_words(np.array([key], dtype=np.uint64))
    assert words.dtype == np.uint64 and np.array_equal(words, [_seed_state(key)])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=30))
def test_batched_seed_hash_over_key_streams(keys):
    words = raytrace._seed_words(np.array(keys, dtype=np.uint64))
    assert words.shape == (len(keys), 4)
    for key, row in zip(keys, words):
        assert np.array_equal(row, _seed_state(key)), key


_PATH_KEYS = st.integers(0, 4).flatmap(lambda order: st.tuples(
    st.just(order),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=order, max_size=order).map(tuple),
    st.floats(0.0, 1e-5)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.lists(_PATH_KEYS, max_size=12))
def test_batched_draws_equal_each_paths_own_generator(paths):
    orders, facets, delays = zip(*paths) if paths else ((), (), ())
    phases, xpr = raytrace._path_draws(orders, facets, delays)
    assert phases.shape == (len(paths), 4) and xpr.shape == (len(paths),)
    for i, (order, f, delay) in enumerate(paths):
        kind = "los" if order == 0 else f"refl:{order}"
        assert (tuple(phases[i].tolist()), float(xpr[i])) == _reference_draw(kind, f, delay)


def test_traced_draws_follow_the_law(room_scene):
    """Every path of a block trace, los and refl:n, draws as its own key."""
    block = trace_static_mpcs(room_scene, (1.0, 1.0, 1.5),
                              [(2.0, 2.0, 1.5), (3.5, 4.5, 2.5)], max_order=2)
    kinds = collections.Counter()
    for paths in block:
        for m in paths:
            kinds[m.kind.partition(":")[0]] += 1
            assert (m.phases, m.xpr) == _reference_draw(m.kind, m.facets, m.delay)
    assert kinds["los"] == 2 and kinds["refl"] > 10


def test_subnormal_tx_height_traces_as_on_the_plane(room_scene):
    """A tx a subnormal distance off three walls: the tree's margins and the
    walk's line parameters overflow to inf, which is their on-plane value,
    and the trace equals the trace from the corner without a warning."""
    points = [(2.0, 2.0, 1.5), (1.0, 1.0, 1.0), (3.5, 4.5, 2.5)]
    near = trace_static_mpcs(room_scene, (0.0, 2.5e-323, 0.0), points, max_order=2)
    assert near == trace_static_mpcs(room_scene, (0.0, 0.0, 0.0), points, max_order=2)
    assert [len(paths) for paths in near] == [9, 10, 10]


# ---------------------------------------------------------------------------
# reflection coefficients

def test_fresnel_brewster_angle_exact_null():
    mat = Material("lossless", eps_r=4.0, sigma=0.0)
    brewster = math.atan(math.sqrt(4.0))
    _, g_par = fresnel_coefficients(mat, brewster, 5.5e9)
    assert abs(g_par) < 1e-12
    g_perp, _ = fresnel_coefficients(mat, brewster, 5.5e9)
    assert abs(g_perp) > 0.1


def test_fresnel_normal_incidence_symmetry():
    mat = Material("brick", eps_r=3.75, sigma=0.038)
    g_perp, g_par = fresnel_coefficients(mat, 0.0, 5.5e9)
    assert abs(g_perp + g_par) < 1e-12
    n = cmath.sqrt(complex(3.75, -0.038 / (2 * math.pi * 5.5e9 * epsilon_0)))
    assert abs(g_perp - (1 - n) / (1 + n)) < 1e-12


def test_fresnel_grazing_and_conductor_limits():
    mat = Material("glass", eps_r=6.27, sigma=0.0167)
    g_perp, g_par = fresnel_coefficients(mat, math.pi / 2, 5.5e9)
    assert abs(g_perp + 1.0) < 1e-9
    assert abs(g_par + 1.0) < 1e-9
    # very high conductivity approaches a perfect reflector
    pec = Material("metal", eps_r=1.0, sigma=1e9)
    g_perp, g_par = fresnel_coefficients(pec, 0.3, 5.5e9)
    assert abs(g_perp + 1.0) < 1e-3
    assert abs(g_par - 1.0) < 1e-3


def test_fresnel_magnitudes_bounded():
    mat = Material("concrete", eps_r=5.31, sigma=0.8967)
    for inc in np.linspace(0.0, math.pi / 2, 91):
        g_perp, g_par = fresnel_coefficients(mat, float(inc), 5.5e9)
        assert abs(g_perp) <= 1.0 + 1e-12
        assert abs(g_par) <= 1.0 + 1e-12


def test_fresnel_rejects_bad_arguments():
    mat = default_material()
    with pytest.raises(ValueError):
        fresnel_coefficients(mat, -0.1, 5.5e9)
    with pytest.raises(ValueError):
        fresnel_coefficients(mat, 0.5, 0.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="^frequency must be finite and > 0, got "):
            fresnel_coefficients(mat, 0.3, bad)


# ---------------------------------------------------------------------------
# small pieces

def test_friis_reference_value():
    # 1 m free-space loss at 5.5 GHz from the defining formula
    expected = -20.0 * math.log10(4.0 * math.pi * 1.0 * 5.5e9 / C0)
    assert abs(friis_path_gain(1.0, 5.5e9) - expected) < 1e-12
    assert friis_path_gain(200.0, 5.5e9) == pytest.approx(expected - 20 * math.log10(200))
    with pytest.raises(ValueError):
        friis_path_gain(0.0, 5.5e9)
    with pytest.raises(ValueError):
        friis_path_gain(1.0, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^distance must be finite and > 0, got "):
            friis_path_gain(bad, 5.5e9)
        with pytest.raises(ValueError, match="^frequency must be finite and > 0, got "):
            friis_path_gain(1.0, bad)


def test_direction_angles_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        az = rng.uniform(-math.pi, math.pi)
        el2, az2 = direction_angles(unit_from_angles(el, az))
        assert abs(el - el2) < 1e-12
        assert abs(math.remainder(az - az2, 2 * math.pi)) < 1e-9
    with pytest.raises(ValueError):
        direction_angles((0.0, 0.0, 0.0))


def test_mpc_validation():
    """A PathSet checks every row it is built from."""
    ok = dict(delay=1e-7, power=0.5, aod=(0.0, 0.0), aoa=(0.0, 0.0),
              phases=(0.0, 0.0, 0.0, 0.0), xpr=2.0, kind="refl:1")

    def check(**change):
        return PathSet.of([Mpc(**ok), Mpc(**{**ok, **change})])

    check()
    with pytest.raises(ValueError, match="^delay must be finite and >= 0, got -1.0$"):
        check(delay=-1.0)
    with pytest.raises(ValueError, match="^xpr must be > 0, got 0.0$"):
        check(xpr=0.0)
    check(xpr=math.inf)
    for name, bad in (("delay", math.nan), ("delay", math.inf),
                      ("power", math.nan), ("power", math.inf),
                      ("phases", (math.nan, 0.0, 0.0, 0.0)),
                      ("phases", (0.0, 0.0, 0.0, -math.inf))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            check(**{name: bad})
    for kind in ("mystery", "dyn:2:7", "refl:0", "refl:x", "refl:01"):
        with pytest.raises(ValueError, match=f"^unknown kind '{kind}'$"):
            check(kind=kind)
    with pytest.raises(ValueError, match=r"^aoa elevation out of \[-pi/2, pi/2\]: 2.0$"):
        check(aoa=(2.0, 0.0))
    with pytest.raises(ValueError, match=r"^aod azimuth out of \[-pi, pi\): 3.14159"):
        check(aod=(0.0, math.pi))
    with pytest.raises(ValueError, match="^expected at most one line-of-sight path, got 2$"):
        PathSet.of([Mpc(**{**ok, "kind": "los"}), Mpc(**{**ok, "kind": "los"})])


# values at the edges of what a table holds, and any other value in range
_nonneg = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308]),
                    st.floats(min_value=0.0, allow_infinity=False))
_finite = st.one_of(st.sampled_from([-0.0, 1e-300]),
                    st.floats(allow_nan=False, allow_infinity=False))
_elevation = st.one_of(st.sampled_from([-math.pi / 2.0, math.pi / 2.0, -0.0]),
                       st.floats(-math.pi / 2.0, math.pi / 2.0))
_azimuth = st.one_of(st.sampled_from([-math.pi, math.nextafter(math.pi, 0.0), -0.0]),
                     st.floats(-math.pi, math.pi, exclude_max=True))
_xpr = st.one_of(st.just(math.inf), st.floats(min_value=5e-324))


@st.composite
def _rows(draw):
    """Up to six rows, at most one of them line of sight, traced or loaded."""
    n = draw(st.integers(0, 6))
    los = draw(st.integers(-1, n - 1))
    traced = draw(st.booleans())
    kinds = ["los" if i == los else draw(st.sampled_from(["refl:1", "refl:2", "refl:12"]))
             for i in range(n)]
    return [Mpc(delay=draw(_nonneg), power=draw(_nonneg),
                aod=(draw(_elevation), draw(_azimuth)),
                aoa=(draw(_elevation), draw(_azimuth)),
                phases=tuple(draw(_finite) for _ in range(4)), xpr=draw(_xpr),
                kind=kind,
                facets=tuple(range(int(kind[5:]))) if traced and kind != "los" else ())
            for kind in kinds]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_rows())
def test_path_table_round_trips_rows_exactly(rows):
    """Rows into a PathSet and back are the same values, bit for bit, and
    indexing, slicing and == keep the columns of one path together."""
    def exact(paths):  # repr tells -0.0 from 0.0
        return [repr(m) for m in paths]

    table = PathSet.of(rows)
    assert len(table) == len(rows)
    assert exact(table) == exact(rows)
    assert exact(table[i] for i in range(-len(rows), len(rows))) == exact(rows * 2)
    for part in (slice(1, None), slice(None, -1), slice(None, None, -2)):
        assert exact(table[part]) == exact(rows[part])
        assert table[part] == PathSet.of(rows[part])
        assert hash(table[part]) == hash(PathSet.of(rows[part]))
    assert exact(table[np.arange(len(rows))[::-1]]) == exact(rows[::-1])
    assert table == PathSet.of(rows)
    assert hash(table) == hash(PathSet.of(rows))
    if rows:
        assert table != table[1:]
    assert table.kinds == tuple(m.kind for m in rows)
    assert table.order.tolist() == [0 if m.is_los else int(m.kind[5:]) for m in rows]
    with pytest.raises(IndexError):
        table[len(rows)]
    with pytest.raises(ValueError, match="read-only"):
        table.delay[:] = 1.0


def test_tables_differing_only_in_signed_zeros_hash_equal():
    """-0.0 == 0.0 in every column, so such tables are equal and hash equal."""
    def row(zero):
        return Mpc(delay=zero, power=zero, aod=(zero, zero), aoa=(zero, zero),
                   phases=(zero,) * 4, xpr=1.0, kind="refl:1")

    plus, minus = PathSet.of([row(0.0)]), PathSet.of([row(-0.0)])
    assert repr(list(plus)) != repr(list(minus))
    assert plus == minus and hash(plus) == hash(minus)


def test_trace_argument_validation(room_scene):
    with pytest.raises(ValueError):
        trace_static_mpcs(room_scene, (1, 1, 1), (1, 1, 1))
    # a fractional order never ends the tree's growth, and True is no order
    for bad in (-1, 2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="^max_order must be an integer >= 0, got "):
            trace_static_mpcs(room_scene, (1, 1, 1), (2, 2, 2), max_order=bad)
    assert trace_static_mpcs(room_scene, (1, 1, 1), (2, 2, 2), max_order=np.int64(1)) \
        == trace_static_mpcs(room_scene, (1, 1, 1), (2, 2, 2), max_order=1)
    for name, bad in (("tx", (1, 1)), ("tx", (1, 1, 1, 1)), ("tx", (math.nan, 1, 1)),
                      ("rx", (2, 2, math.nan)), ("rx", (2, 2, math.inf)),
                      ("rx", (-math.inf, 2, 2))):
        ends = {"tx": (1, 1, 1), "rx": (2, 2, 2), name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be three finite numbers, got "):
            trace_static_mpcs(room_scene, ends["tx"], ends["rx"])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^frequency must be finite and > 0, got "):
            trace_static_mpcs(room_scene, (1, 1, 1), (2, 2, 2), frequency=bad)


def test_trace_takes_a_block_of_receivers(room_scene):
    """One point gives a PathSet; an (N, 3) block a tuple of N, in order."""
    tx, points = (1, 1, 1), [(2, 2, 2), (3, 4, 2), (2, 2, 2)]
    block = trace_static_mpcs(room_scene, tx, points)
    assert isinstance(block, tuple)
    assert block == tuple(trace_static_mpcs(room_scene, tx, p) for p in points)
    assert trace_static_mpcs(room_scene, tx, np.empty((0, 3))) == ()
    with pytest.raises(ValueError, match="^tx and rx coincide"):
        trace_static_mpcs(room_scene, tx, [(2, 2, 2), tx])
    for bad in ([(2, 2, math.nan)], [(2, 2)], [(2, 2, 2, 2)]):
        with pytest.raises(ValueError, match=r"^rx must be an \(N, 3\) block"):
            trace_static_mpcs(room_scene, tx, bad)


def test_empty_scene_has_only_los():
    scene = Scene((), {}, "")
    mpcs = trace_static_mpcs(scene, (0, 0, 0), (10, 0, 0), max_order=3)
    assert len(mpcs) == 1 and mpcs[0].is_los
