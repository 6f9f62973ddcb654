"""Scene document parsing and geometry validation."""

import math
import pickle

import numpy as np
import pytest

from dcmkit import Facet, Material, SceneError, load_scene, loads_scene
from dcmkit.scene import (DEFAULT_EPS_R, DEFAULT_MATERIAL_NAME, _cross, default_material,
                          scene_text_hash)

from conftest import ROOM_SCENE


def test_room_scene_parses():
    scene = loads_scene(ROOM_SCENE)
    assert scene.n_facets == 6
    assert set(scene.materials) == {"wall", "floor"}
    assert scene.facets[0].material.name == "floor"
    assert scene.facets[1].material.name == "wall"
    assert scene.source_hash == scene_text_hash(ROOM_SCENE)
    assert len(scene.source_hash) == 16


def test_comments_and_blanks_ignored():
    text = """
    # heading comment

    [material] name=m eps_r=4.0 sigma=0.1   # trailing comment
    [facet] material=m v=0,0,0;1,0,0;0,1,0
    """
    scene = loads_scene(text)
    assert scene.n_facets == 1
    assert scene.facets[0].material.eps_r == 4.0


def test_default_material_fallback():
    scene = loads_scene("[facet] v=0,0,0;1,0,0;0,1,0")
    mat = scene.facets[0].material
    assert mat.name == DEFAULT_MATERIAL_NAME
    assert mat.eps_r == DEFAULT_EPS_R
    assert DEFAULT_MATERIAL_NAME in scene.materials


def test_facet_declared_before_material_resolves():
    # facet sections may reference materials declared later in the file
    text = """
    [facet] material=late v=0,0,0;1,0,0;0,1,0
    [material] name=late eps_r=2.0 sigma=0.0
    """
    assert loads_scene(text).facets[0].material.eps_r == 2.0


def test_facet_normal_and_offset():
    f = Facet([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)], default_material())
    assert np.allclose(np.abs(f.normal), [0, 0, 1])
    assert abs(f.offset) < 1e-12
    assert abs(np.linalg.norm(f.normal) - 1.0) < 1e-12
    assert abs(f.area - 4.0) < 1e-12
    shifted = Facet([(0, 0, 2), (2, 0, 2), (2, 2, 2), (0, 2, 2)], default_material())
    assert abs(abs(shifted.offset) - 2.0) < 1e-12


def test_facet_rejects_degenerate_and_nonplanar():
    mat = default_material()
    with pytest.raises(ValueError):
        Facet([(0, 0, 0), (1, 0, 0), (2, 0, 0)], mat)  # collinear
    with pytest.raises(ValueError):
        Facet([(0, 0, 0), (1, 0, 0), (1, 1, 0.5), (0, 1, 0)], mat)  # bent
    with pytest.raises(ValueError):
        # bowtie: non-convex vertex order
        Facet([(0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)], mat)
    for bad in (math.nan, math.inf):  # would give a NaN normal and area
        with pytest.raises(ValueError, match="finite"):
            Facet([(0, 0, 0), (1, 0, 0), (bad, 1, 0)], mat)


def test_facet_arrays_are_read_only_copies():
    """A facet's geometry cannot change under a tracer layout built from it."""
    corners = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], dtype=float)
    facet = Facet(corners, default_material())
    assert corners.flags.writeable  # the caller's array is copied, not frozen
    corners[0] = (5, 5, 5)
    assert facet.vertices[0].tolist() == [0.0, 0.0, 0.0]
    copy = pickle.loads(pickle.dumps(facet))  # as a worker process gets it
    for name in ("vertices", "normal", "centroid", "edges", "edge_len"):
        assert getattr(copy, name).tobytes() == getattr(facet, name).tobytes()
        for frozen in (facet, copy):
            with pytest.raises(ValueError, match="read-only"):
                getattr(frozen, name)[...] += 1.0
    assert (copy.offset, copy.area) == (facet.offset, facet.area)


def test_facet_cross_product_is_numpys_to_the_bit():
    """Facet's row-wise cross product and its row sums (Newell's normal)
    equal np.cross's bit for bit."""
    rng = np.random.default_rng(3)
    for rows in range(3, 12):
        a = rng.normal(size=(rows, 3)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        b = np.roll(a, -1, axis=0)
        want = np.cross(a, b)
        assert _cross(a, b).tobytes() == want.tobytes()
        assert _cross(a, b).sum(axis=0).tobytes() == want.sum(axis=0).tobytes()


def test_facet_convexity_is_checked_at_every_corner():
    mat = default_material()
    # a pentagon whose fourth corner turns the other way
    with pytest.raises(ValueError, match="facet polygon is not convex"):
        Facet([(0, 0, 0), (2, 0, 0), (2, 2, 0), (1, 1, 0), (0, 2, 0)], mat)
    with pytest.raises(SceneError, match="line 1: facet polygon is not convex"):
        loads_scene("[facet] v=0,0,0;2,0,0;2,2,0;1,1,0;0,2,0")
    # a vertex in the middle of an edge is a straight corner, not a reflex one
    scene = loads_scene("[facet] v=0,0,0;1,0,0;2,0,0;2,1,0;0,1,0")
    assert scene.facets[0].area == 2.0


def test_material_validation():
    with pytest.raises(ValueError):
        Material("m", eps_r=0.5, sigma=0.0)
    with pytest.raises(ValueError):
        Material("m", eps_r=2.0, sigma=-0.1)
    for eps_r, sigma in ((math.nan, 0.0), (math.inf, 0.0), (5.0, math.inf), (5.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            Material("x", eps_r, sigma)
    Material("vacuum", eps_r=1.0, sigma=0.0)


@pytest.mark.parametrize("text,fragment", [
    ("[facet] v=0,0,0;1,0,0", "3 vertices"),
    ("[facet] v=0,0;1,0,0;0,1,0", "expected 3 finite comma-separated numbers"),
    ("[facet] material=nope v=0,0,0;1,0,0;0,1,0", "unknown material"),
    ("[material] name=m eps_r=bad sigma=0.1", "expected a finite number"),
    ("[material] eps_r=1.0 sigma=0.1", "name"),
    ("[widget] x=1", "unknown section"),
    ("just words", "expected a"),
    ("[material] name=m eps_r=1 eps_r=2 sigma=0", "duplicate field"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(SceneError) as err:
        loads_scene(text)
    assert fragment in str(err.value)


def test_error_reports_line_number():
    text = "[material] name=m eps_r=2.0 sigma=0.0\n[facet] v=0,0\n"
    with pytest.raises(SceneError) as err:
        loads_scene(text)
    assert "line 2" in str(err.value)


def test_duplicate_material_rejected():
    text = ("[material] name=m eps_r=2.0 sigma=0.0\n"
            "[material] name=m eps_r=3.0 sigma=0.0\n")
    with pytest.raises(SceneError):
        loads_scene(text)


def test_load_scene_roundtrip(tmp_path):
    path = tmp_path / "room.scn"
    path.write_text(ROOM_SCENE, encoding="utf-8")
    scene = load_scene(path)
    assert scene.n_facets == 6
    assert scene.source_hash == loads_scene(ROOM_SCENE).source_hash


def test_hash_changes_with_text():
    assert scene_text_hash("a") != scene_text_hash("b")
