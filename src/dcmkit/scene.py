"""Scene description: convex planar facets with electromagnetic materials.

A scene is a set of convex planar polygons ("facets"), each referencing a
material with relative permittivity and conductivity.  Scenes load from a
line-oriented text format::

    # comment
    [material] name=concrete eps_r=5.31 sigma=0.13
    [facet] material=concrete v=0,0,0;10,0,0;10,10,0;0,10,0

All lengths are in meters.  `#` starts a comment anywhere on a line; blank
lines are ignored.  Facet vertices are listed in boundary order and must be
coplanar within COPLANAR_TOL.  A line takes only the keys shown, each at
most once, and every number must be finite; a malformed line raises
SceneError naming its 1-based number.  Map files and CLI points files read
their `key=value` tokens and comma-separated numbers with the same two
helpers, `_fields` and `_floats`; `_number` and `_integer` state the same
rule for numbers passed in from Python, in every module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

COPLANAR_TOL = 1e-6    # m, max vertex distance from the fitted facet plane
INTERSECT_TOL = 1e-9   # m, point-on-surface slack used by the tracer

# concrete around 5-6 GHz, used when a facet does not name a material
DEFAULT_MATERIAL_NAME = "concrete"
DEFAULT_EPS_R = 5.31
DEFAULT_SIGMA = 0.13


class SceneError(ValueError):
    """Malformed scene document; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Material:
    """Homogeneous dielectric with conductivity, both frequency-independent."""

    name: str
    eps_r: float
    sigma: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("material name must be non-empty")
        object.__setattr__(self, "eps_r", _number("eps_r", self.eps_r, 1.0))
        object.__setattr__(self, "sigma", _number("sigma", self.sigma, 0.0))


def default_material() -> Material:
    return Material(DEFAULT_MATERIAL_NAME, DEFAULT_EPS_R, DEFAULT_SIGMA)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (m, 3) arrays, bit for bit as np.cross gives it
    (component i is a[i + 1] b[i + 2] - a[i + 2] b[i + 1], in C order, so
    sums over rows add in the same order) in a fraction of its time on a
    handful of rows."""
    ahead, behind = [1, 2, 0], [2, 0, 1]
    return a.take(ahead, axis=1) * b.take(behind, axis=1) \
        - a.take(behind, axis=1) * b.take(ahead, axis=1)


class Facet:
    """Convex planar polygon with a material.

    Construction derives the plane data (unit normal, offset with n.x = d,
    area) and the boundary edges: `edges[i]` runs from vertex i to vertex
    i + 1, wrapping, and `edge_len` holds their lengths.  The tracer packs
    those arrays as they are.  Vertices may wind either way; the normal
    follows the winding (Newell's method).  The arrays are read-only, and
    `vertices` is a copy of the input, so a facet keeps the geometry that a
    cached tracer layout was built from.
    """

    __slots__ = ("vertices", "material", "normal", "offset", "area", "centroid",
                 "edges", "edge_len")

    def __init__(self, vertices, material: Material):
        verts = np.array(vertices, dtype=float)  # a copy: it is frozen below
        if verts.ndim != 2 or verts.shape[1] != 3 or verts.shape[0] < 3 \
                or not np.isfinite(verts).all():
            raise ValueError("facet needs at least 3 vertices of 3 finite coordinates")
        succ = (np.arange(len(verts)) + 1) % len(verts)  # each vertex's successor
        nxt = verts[succ]
        n = _cross(verts, nxt).sum(axis=0)  # Newell's normal
        area = 0.5 * float(np.linalg.norm(n))
        if area <= 0.0:
            raise ValueError("degenerate facet: zero area")
        unit_n = n / np.linalg.norm(n)
        centroid = verts.mean(axis=0)
        dist = (verts - centroid) @ unit_n
        if np.max(np.abs(dist)) > COPLANAR_TOL:
            raise ValueError(
                f"vertices deviate {np.max(np.abs(dist)):.3g} m from a common plane"
            )
        edges = nxt - verts
        edge_len = np.linalg.norm(edges, axis=1)
        if np.any(edge_len == 0.0):
            raise ValueError("degenerate facet: repeated consecutive vertices")
        # the turn at every corner; a (1, 3) @ (3, 1) product per corner is the
        # dot product that `cross @ unit_n` takes for one corner, to the bit
        cross = _cross(edges, edges[succ])
        turns = (cross[:, None] @ unit_n[:, None])[:, 0, 0]
        # allow collinear runs, reject reflex corners
        if np.any(turns < -1e-9 * edge_len * edge_len[succ]):
            raise ValueError("facet polygon is not convex")
        for array in (verts, unit_n, centroid, edges, edge_len):
            array.flags.writeable = False
        self.vertices = verts
        self.material = material
        self.normal = unit_n
        self.offset = float(unit_n @ centroid)
        self.area = area
        self.centroid = centroid
        self.edges = edges
        self.edge_len = edge_len

    def __reduce__(self):
        # a copy made by pickling, as for a worker process, is built anew and
        # so frozen too; a slot-by-slot copy would come back writeable
        return Facet, (self.vertices, self.material)

    def __repr__(self):
        return f"Facet({len(self.vertices)} vertices, material={self.material.name!r})"


@dataclass(frozen=True)
class Scene:
    """Immutable facet collection.  Safe to share across worker processes."""

    facets: tuple[Facet, ...]
    materials: dict[str, Material] = field(default_factory=dict)
    source_hash: str = ""

    @property
    def n_facets(self) -> int:
        return len(self.facets)


def scene_text_hash(text: str) -> str:
    import hashlib  # imported here, so a command that hashes no scene skips it
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _fields(tokens, keys, seen=(), blank=()) -> dict[str, str]:
    """`key=value` tokens as a dict of strings.

    A token with an empty key, an empty value for a key not in `blank`, a
    key not in `keys` and a key given twice, or already in `seen`, raise
    ValueError.
    """
    out = {}
    for token in tokens:
        key, _, value = token.partition("=")
        if not key or not (value or key in blank):
            raise ValueError(f"expected key=value, got {token!r}")
        if key not in keys:
            raise ValueError(f"unknown field {key!r}")
        if key in out or key in seen:
            raise ValueError(f"duplicate field {key!r}")
        out[key] = value
    return out


def _floats(text: str, n: int, finite: bool = True) -> tuple[float, ...]:
    """Exactly `n` comma-separated numbers, all finite unless `finite` is false."""
    try:
        values = tuple(map(float, text.split(",")))
    except ValueError:
        values = ()
    if len(values) != n or (finite and not all(map(math.isfinite, values))):
        what = "a finite number" if n == 1 else f"{n} finite comma-separated numbers"
        raise ValueError(f"expected {what}, got {text!r}")
    return values


_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _number(name: str, value, low: float = -math.inf, strict: bool = False,
            high: float = math.inf) -> float:
    """`value` as a float: a real number, not a bool, finite, >= `low` (>
    `low` when `strict`) and <= `high`.  Anything else, an int beyond the
    float range too, raises ValueError naming `name`."""
    if isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (x > low if strict else x >= low) and x <= high:
            return x
    bound = f" and {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
    bound += f" and <= {high:g}" if high < math.inf else ""
    raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def _integer(name: str, value, least: int | None = None) -> int:
    """`value` as an int: an integer, not a bool, and >= `least` when given.
    Anything else raises ValueError naming `name`."""
    if isinstance(value, _INTEGERS) and not isinstance(value, bool) \
            and (least is None or value >= least):
        return int(value)
    bound = "" if least is None else f" >= {least}"
    raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def loads_scene(text: str) -> Scene:
    """Parse a scene document from a string.  See the module docstring."""
    materials: dict[str, Material] = {}
    facets: list[Facet] = []
    pending: list[tuple[int, str | None, list]] = []  # (line, material, vertices)

    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if not line.startswith("["):
                raise ValueError(f"expected a [material] or [facet] section, got {line!r}")
            head, _, body = line.partition("]")
            directive = head[1:].strip()
            if directive == "material":
                fields = _fields(body.split(), ("name", "eps_r", "sigma"))
                name = fields["name"]
                if name in materials:
                    raise ValueError(f"duplicate material {name!r}")
                materials[name] = Material(name, _floats(fields["eps_r"], 1)[0],
                                           _floats(fields["sigma"], 1)[0])
            elif directive == "facet":
                fields = _fields(body.split(), ("material", "v"))
                pending.append((lineno, fields.get("material"),
                                [_floats(v, 3) for v in fields["v"].split(";")]))
            else:
                raise ValueError(f"unknown section {directive!r}")
        # a facet may name a material declared further down
        for lineno, name, verts in pending:
            if name is None:
                mat = materials.setdefault(DEFAULT_MATERIAL_NAME, default_material())
            elif name in materials:
                mat = materials[name]
            else:
                raise ValueError(f"unknown material {name!r}")
            facets.append(Facet(verts, mat))
    except KeyError as exc:
        raise SceneError(f"missing field {exc.args[0]!r}", lineno) from None
    except ValueError as exc:
        raise SceneError(str(exc), lineno) from None

    return Scene(tuple(facets), materials, scene_text_hash(text))


def load_scene(path) -> Scene:
    """Load a scene document from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scene(fh.read())
