"""Deterministic multipath extraction by the image method.

Paths are found by mirroring the transmitter through ordered facet sequences
and walking the chain back from the receiver.  A candidate sequence is kept
when every reflection point lands inside its facet and no other facet blocks
any leg of the path; one point-in-facet test, `_Geometry.inside`, serves
both.  Facets are opaque specular reflectors; diffraction and transmission
are out of scope.

The candidates come from an image tree (Allen & Berkley, JASA 1979), built
in each call from the geometry, tx and the maximum order; image positions
do not depend on the receiver, so a call given a block of receivers builds
the tree once and walks it from all of them together, as beam tracing
builds one beam tree per source and looks each receiver up in it
(Funkhouser et al., SIGGRAPH 1998).  The children of a node (..., f) with
image I are the facets g != f that pass two receiver-independent tests:

- plane side: some vertex of g lies on the real side of f's plane, the side
  opposite I;
- beam (after Funkhouser et al.): g is not wholly outside any of the
  planes through I and an edge of f, each oriented toward f.

Only the surviving sequences are walked back from each receiver.  On the
101-facet acceptance-7 panel field that is 101 / 337 / 10,556 sequences at
orders 1 / 2 / 3, of 101 / 10,100 / 1,010,000.

Both tests are necessary conditions of the walk, so they only drop sequences
the walk would reject.  A walk through (..., f, g) reflects at a point q
within d of g and needs the segment from I to q to cross f's plane at a
point p inside f, with d = _PRUNE_SLACK covering INTERSECT_TOL, the
COPLANAR_TOL of facet vertices and rounding.  So q lies on the real side of
f up to d, and p lies at most d outside each edge plane.  Outside the edge
planes that slack grows with the distance from I: q = I + (p - I) |q - I| /
|p - I| and |p - I| is at least the distance h of I from f's plane, so q
lies at most d (|q - I| + d) / h outside.  The margin of the beam test is
therefore d (1 + (|v - I| + d) / h) at each vertex v of g; it is convex in
v, so testing the vertices covers all of g.  When I lies on f's plane
(h = 0) the margin is infinite and every child is kept.

Every facet test is a product of homogeneous rows and columns, a point p
entering as the column (p, 1).  Each facet f has its plane P = (n,
-offset), and each edge v -> v' its half-plane S = (w, -w . v), with w
the unit in-plane normal of the edge pointing into f; p lies on f when
S . (p, 1) >= -INTERSECT_TOL for every edge.  The tree's tests run over
the vertices of all facets at once: the plane side of v is P . (v, 1), its
height over a beam wall W . (v, 1), and |v - I| the root of |v|^2 -
2 I . v + |I|^2.  The wall through I and edge k of f lies in the pencil of
P and S_k: W = |P . I| S_k - sign(P . I) (S_k . I) P, with I read as
(I, 1), divided by the length of its 3-vector, which is the distance of I
from the edge's line.  A product of four terms rounds by a few ulps of
|v| + |I|, about 1e-13 m at 100 m from the origin, far inside d.  The
wall's two coefficients carry that error, so its height at v errs by
about eps (|I| + |v|) |v - I| / dist(I, edge line).  Since dist >= h and
eps (|I| + |v|) << d, the growth term d (|v - I| + d) / h of the margin
covers it.  Only the expansion can lose more: as v nears I it cancels,
and |v - I| then reads its rounding error, a few eps (|v|^2 + |I|^2).  So
|v|^2 and |I|^2 enter multiplied by _ROUND_UP = 1 + 16 eps, which exceeds
that error: the computed |v - I|, and with it the margin, never falls
below the exact value, and the test still drops only what the walk would
reject.

Per-bounce loss uses the polarization-averaged squared reflection magnitude
(|G_perp|^2 + |G_par|^2) / 2; the full 2x2 polarization behaviour of a path
is carried by its per-path phases and cross-polarization ratio instead of by
the scalar power.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scene import INTERSECT_TOL, Facet, Material, Scene, _integer, _number

# CODATA 2022: speed of light in vacuum (m/s), vacuum permittivity (F/m)
SPEED_OF_LIGHT = 299792458.0
EPSILON_0 = 8.8541878188e-12

DEFAULT_FREQUENCY = 5.5e9

# log-normal cross-polarization ratio assigned to reflected paths
XPR_MEAN_DB = 8.0
XPR_STD_DB = 3.0

# largest array of one block of the image tree, in elements
_BLOCK = 400_000
# metric slack of the pruning tests, m; see the module docstring
_PRUNE_SLACK = 1e-5
# factor on |v|^2 and |I|^2 that keeps the expanded |v - I|^2 from rounding
# below its exact value; see the module docstring
_ROUND_UP = 1.0 + 16.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# basic link budget and reflection coefficients

def friis_path_gain(distance: float, frequency: float) -> float:
    """Free-space power gain in dB: -20 log10(4 pi d f / c)."""
    distance = _number("distance", distance, 0.0, strict=True)
    frequency = _number("frequency", frequency, 0.0, strict=True)
    return -20.0 * math.log10(4.0 * math.pi * distance * frequency / SPEED_OF_LIGHT)


def fresnel_coefficients(material: Material, incidence: float, frequency: float):
    """Complex reflection coefficients (perpendicular, parallel).

    `incidence` is measured from the facet normal, in [0, pi/2].  The
    material enters through its complex relative permittivity
    eps_r - j sigma / (2 pi f eps0); loss carries a negative imaginary part.
    """
    incidence = _number("incidence", incidence, 0.0, high=math.pi / 2)
    frequency = _number("frequency", frequency, 0.0, strict=True)
    g_perp, g_par = _fresnel_arrays(
        np.asarray(material.eps_r), np.asarray(material.sigma),
        np.asarray(math.cos(incidence)), frequency,
    )
    return complex(g_perp), complex(g_par)


def _fresnel_arrays(eps_r, sigma, cos_inc, frequency):
    eta = eps_r - 1j * sigma / (2.0 * np.pi * frequency * EPSILON_0)
    sin2 = 1.0 - cos_inc**2
    root = np.sqrt(eta - sin2)  # principal branch: decaying transmitted wave
    g_perp = (cos_inc - root) / (cos_inc + root)
    g_par = (eta * cos_inc - root) / (eta * cos_inc + root)
    return g_perp, g_par


# ---------------------------------------------------------------------------
# path records

@dataclass(frozen=True)
class Mpc:
    """One row of a `PathSet`, as plain Python values; `kind` is "los" or
    "refl:<order>".  A row is checked when `PathSet.of` tables it."""

    delay: float
    power: float
    aod: tuple[float, float]
    aoa: tuple[float, float]
    phases: tuple[float, float, float, float]
    xpr: float
    kind: str
    facets: tuple[int, ...] = ()

    @property
    def is_los(self) -> bool:
        return self.kind == "los"


def _kind(order: int) -> str:
    return "los" if order == 0 else f"refl:{order}"


@lru_cache(maxsize=64)
def _kind_order(kind: str) -> int:
    """Reflection order of a path kind: "los" is 0, "refl:<n>" is n >= 1."""
    match = re.fullmatch(r"los|refl:([1-9][0-9]*)", kind)
    if match is None:
        raise ValueError(f"unknown kind {kind!r}")
    return int(match[1] or 0)


# column name -> shape of one path's entry
_PATH_COLUMNS = {"delay": (), "power": (), "aod": (2,), "aoa": (2,),
                 "phases": (4,), "xpr": (), "order": ()}


# the closed range of each bounded column of a PathSet, in the order of
# the checks, with an open end as the float next to it: delay, power and
# xpr, then aod and aoa as (elevation, azimuth)
_PATH_LOW = np.array([0.0, 0.0, np.nextafter(0.0, 1.0), *(-math.pi / 2, -math.pi) * 2])
_PATH_HIGH = np.array([sys.float_info.max, sys.float_info.max, math.inf,
                       *(math.pi / 2, np.nextafter(math.pi, 0.0)) * 2])
_PATH_RANGE_ERRORS = ("delay must be finite and >= 0, got {}",
                      "power must be finite and >= 0, got {}",
                      "xpr must be > 0, got {}",
                      "aod elevation out of [-pi/2, pi/2]: {}",
                      "aod azimuth out of [-pi, pi): {}",
                      "aoa elevation out of [-pi/2, pi/2]: {}",
                      "aoa azimuth out of [-pi, pi): {}")


@dataclass(frozen=True, eq=False)
class PathSet:
    """Static multipath components as one table of read-only columns.

    `delay` (s), `power` (linear), `xpr` (linear cross-polarization ratio,
    inf for line of sight) and `order` (reflection count, 0 for line of
    sight) are (P,); `aod` and `aoa` are (P, 2) rows of (elevation in
    [-pi/2, pi/2], azimuth in [-pi, pi)) in radians, and `phases` (P, 4)
    the initial phases (vv, vh, hv, hh).  `facets` holds each path's
    reflecting facet indices when traced and is () when loaded from a map.
    Construction checks every value and at most one line of sight; an
    error reports the earliest row at which the table stops being valid.
    Equal tables hash equal.  Iteration and an integer index give `Mpc`
    rows, a slice a PathSet.
    """

    delay: np.ndarray = ()
    power: np.ndarray = ()
    aod: np.ndarray = ()
    aoa: np.ndarray = ()
    phases: np.ndarray = ()
    xpr: np.ndarray = ()
    order: np.ndarray = ()
    facets: tuple = ()

    def __post_init__(self):
        for name, shape in _PATH_COLUMNS.items():
            column = np.array(getattr(self, name), dtype=int if name == "order" else float)
            column = column.reshape(-1, *shape)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        facets = tuple(self.facets)
        object.__setattr__(self, "facets", facets if any(facets) else ())
        if any(len(getattr(self, name)) != len(self) for name in _PATH_COLUMNS) \
                or len(self.facets) not in (0, len(self)):
            raise ValueError("path columns must share one length")
        d, p, ph, x, o = self.delay, self.power, self.phases, self.xpr, self.order
        bounded = np.column_stack((d, p, x, self.aod, self.aoa))
        in_range = (_PATH_LOW <= bounded) & (bounded <= _PATH_HIGH)
        finite = np.isfinite(ph).all(axis=1)
        los = o == 0
        n_los = np.count_nonzero(los)
        if in_range.all() and finite.all() and (o >= 0).all() and n_los < 2:
            return
        checks = [(in_range[:, k], message, bounded[:, k])
                  for k, message in enumerate(_PATH_RANGE_ERRORS)]
        checks[2:2] = [(finite, "phases must be finite, got {}", ph)]
        checks.append((o >= 0, "order must be >= 0, got {}", o))
        if n_los > 1:  # the table stops being valid at its second line of sight
            checks.append((np.cumsum(los) < 2,
                           f"expected at most one line-of-sight path, got {n_los}", o))
        # the error names the earliest bad row, and carries it as `_row`
        row, i = min((np.argmin(ok), i) for i, (ok, _, _) in enumerate(checks)
                     if not ok.all())
        _, message, values = checks[i]
        error = ValueError(message.format(values[row].tolist()))
        error._row = int(row)
        raise error

    @classmethod
    def of(cls, rows) -> "PathSet":
        """The checked table of `Mpc` rows."""
        return cls(*zip(*((m.delay, m.power, m.aod, m.aoa, m.phases, m.xpr,
                           _kind_order(m.kind), m.facets) for m in rows)))

    def __len__(self) -> int:
        return len(self.delay)

    def __iter__(self):
        angles = (map(tuple, a.tolist()) for a in (self.aod, self.aoa, self.phases))
        return map(Mpc, self.delay.tolist(), self.power.tolist(), *angles,
                   self.xpr.tolist(), self.kinds, self.facets or ((),) * len(self))

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return next(itertools.islice(self, range(len(self))[index], None))
        rows = np.arange(len(self))[index]
        return PathSet(*(getattr(self, name)[rows] for name in _PATH_COLUMNS),
                       tuple(self.facets[i] for i in rows) if self.facets else ())

    def __eq__(self, other):
        return isinstance(other, PathSet) and self.facets == other.facets and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _PATH_COLUMNS)

    def __hash__(self):
        # the delays tell tables apart and are cheap to hash; + 0.0 folds
        # -0.0 into 0.0, which array_equal holds equal
        return hash((self.delay + 0.0).tobytes())

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(map(_kind, self.order.tolist()))

    def branches(self) -> tuple[int, "PathSet", np.ndarray]:
        """(LoS count, this table with its LoS path first, power shares).

        A path's share of its branch's power is 1 for the LoS path and, for a
        reflection, its power over the reflections' sum, which must be > 0.
        """
        los = self.order == 0
        refl = self.power[~los]
        total = refl.sum()
        if len(refl) and total <= 0.0:
            raise ValueError("static reflected paths carry no power")
        n_los = int(np.count_nonzero(los))
        first = self if not n_los or los[0] else self[np.argsort(~los, kind="stable")]
        return n_los, first, np.concatenate([np.ones(n_los), refl / total])


def _angles_of(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """(elevation, azimuth in [-pi, pi)) of vectors given as x, y and z planes."""
    sin_el = z / np.sqrt(x * x + y * y + z * z)
    el = np.arcsin(np.minimum(np.maximum(sin_el, -1.0, out=sin_el), 1.0, out=sin_el))
    az = np.arctan2(y, x)
    az[az == math.pi] = -math.pi
    return el, az


def direction_angles(vec) -> tuple[float, float]:
    """(elevation, azimuth) of a direction vector, azimuth wrapped to [-pi, pi)."""
    v = np.asarray(vec, dtype=float).reshape(3, 1)
    if not (v * v).sum():
        raise ValueError("zero direction vector")
    return tuple(float(angle[0]) for angle in _angles_of(*v))


def unit_from_angles(elevation, azimuth) -> np.ndarray:
    """Unit vectors of (elevation, azimuth) angles of one shape, (..., 3)."""
    ce = np.cos(elevation)
    out = np.empty(np.shape(ce) + (3,))
    np.multiply(np.cos(azimuth), ce, out=out[..., 0])
    np.multiply(np.sin(azimuth), ce, out=out[..., 1])
    np.sin(elevation, out=out[..., 2])
    return out


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the counter of a path's
# uniform j is its key + (j + 1) gamma
_COUNTERS = np.arange(1, 7, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of a uint64 array; arithmetic wraps mod 2^64."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _path_draws(keys: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial phases (P, 4) and cross-polarization ratios (P,) of P paths
    from their uint64 keys.  Uniform j < 6 is the top 53 bits of
    splitmix64(key + (j + 1) gamma); the phases are 2 pi u0..u3 and the XPR
    of a reflection is log-normal from the Box-Muller normal of u4 and u5,
    that of a line of sight (order 0) inf."""
    u = (_splitmix64(keys[:, None] + _COUNTERS) >> 11) * 2.0**-53
    normal = np.sqrt(-2.0 * np.log1p(-u[:, 4])) * np.cos(2.0 * math.pi * u[:, 5])
    xpr = 10.0 ** ((XPR_MEAN_DB + XPR_STD_DB * normal) / 10.0)
    return 2.0 * math.pi * u[:, :4], np.where(orders > 0, xpr, math.inf)


# ---------------------------------------------------------------------------
# packed scene geometry

class _Geometry:
    """Facets packed as homogeneous rows, vertices as homogeneous columns.

    `planes` (n, 4) holds each facet's plane (normal, -offset), so that
    planes[f] . (p, 1) is the height of p over facet f; `normals` is a view
    of its first three columns.  `sides` (n, V, 4) holds each edge's
    half-plane (w, -w . v) for the edge v -> v' of normal n and vector e,
    with w = n x (e / |e|) the unit in-plane normal pointing into the facet,
    so that sides[f, k] . (p, 1) is how far p lies inside edge k.  Facets
    with fewer than V edges are padded with zero rows, which every point
    satisfies.  `flat` holds every vertex as a column (x, y, z, 1) and
    `flat_sq` its squared norm, rounded up (see the module docstring).
    """

    def __init__(self, facets: tuple[Facet, ...]):
        vmax = max((len(f.vertices) for f in facets), default=3)
        self.count = len(facets)
        self.planes = np.array([(*f.normal, -f.offset) for f in facets]).reshape(-1, 4)
        self.normals = self.planes[:, :3]
        self.eps_r = np.array([f.material.eps_r for f in facets], dtype=float)
        self.sigma = np.array([f.material.sigma for f in facets], dtype=float)
        verts = np.zeros((self.count, vmax, 3))
        units = np.zeros((self.count, vmax, 3))  # pad: zero edges
        for i, f in enumerate(facets):
            m = len(f.vertices)
            verts[i, :m] = f.vertices
            verts[i, m:] = f.vertices[-1]  # pad: repeated vertex
            units[i, :m] = f.edges / f.edge_len[:, None]
        inward = np.cross(self.normals[:, None, :], units)
        self.sides = np.concatenate(
            [inward, -np.einsum("fvk,fvk->fv", inward, verts)[..., None]], axis=2)
        # vertex-major columns, so column v n + g is vertex v of g and
        # reductions over v are cheap
        xyz = verts.transpose(2, 1, 0).reshape(3, -1)
        self.flat = np.concatenate([xyz, np.ones((1, xyz.shape[1]))])
        self.flat_sq = _ROUND_UP * np.einsum("kc,kc->c", xyz, xyz)

    def mirror(self, points: np.ndarray, fi: np.ndarray) -> np.ndarray:
        n = self.normals[fi]
        dist = np.einsum("mk,mk->m", points, n) + self.planes[fi, 3]
        return points - 2.0 * dist[:, None] * n

    def inside(self, points: np.ndarray, fi) -> np.ndarray:
        """Whether points (..., 3) lie at most INTERSECT_TOL m outside every
        edge of facets fi, which index the facet axis: an index array, or a
        slice, whose facets broadcast with the points' leading axes.
        """
        sides = self.sides[fi]
        s = np.einsum("...vk,...k->...v", sides[..., :3], points) + sides[..., 3]
        return (s >= -INTERSECT_TOL).all(axis=-1)

    def blocked(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """True per row when any facet interior cuts the open segment a->b.

        Crossings within INTERSECT_TOL meters of either endpoint do not
        count, so segments that start or end on a reflecting facet are not
        blocked by it.
        """
        if self.count == 0:
            return np.zeros(len(a), dtype=bool)
        d = b - a
        seg_len = np.linalg.norm(d, axis=1, keepdims=True)
        na = a @ self.normals.T
        nd = d @ self.normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -(na + self.planes[:, 3]) / nd
        tol = INTERSECT_TOL / np.where(seg_len > 0.0, seg_len, 1.0)
        cand = np.isfinite(t) & (t > tol) & (t < 1.0 - tol)
        if not cand.any():
            return np.zeros(len(a), dtype=bool)
        # non-candidate rows may hold t = +-inf or nan; zero them so the
        # product stays finite (those rows are masked out below anyway)
        hit = a[:, None, :] + np.where(cand, t, 0.0)[:, :, None] * d[:, None, :]
        return (cand & self.inside(hit, slice(None))).any(axis=1)


@lru_cache(maxsize=8)
def _geometry(facets: tuple[Facet, ...]) -> _Geometry:
    return _Geometry(facets)


# ---------------------------------------------------------------------------
# image tree: facet sequences that can reach some receiver, pruned before
# any receiver is seen

def _image_tree(geom: _Geometry, tx: np.ndarray, max_order: int):
    """Yield (seq, imgs) blocks of surviving sequences of orders 1..max_order.

    seq is (m, k) facet indices and imgs (m, k, 3) the images of tx through
    each prefix.  Every block holds at most _BLOCK // V^2 rows
    for V vertices per facet, order 1 aside, which holds one row per facet.
    """
    n = geom.count
    if n == 0 or max_order < 1:
        return
    seq = np.arange(n, dtype=np.int64)[:, None]
    imgs = geom.mirror(np.broadcast_to(tx, (n, 3)), seq[:, 0])[:, None, :]
    yield from _grow(geom, seq, imgs, max_order)


def _grow(geom: _Geometry, seq: np.ndarray, imgs: np.ndarray, max_order: int):
    yield seq, imgs
    if seq.shape[1] == max_order:
        return
    nv = geom.sides.shape[1]
    step = max(1, _BLOCK // (geom.count * nv * nv))
    for start in range(0, len(seq), step):
        pseq, pimgs = seq[start:start + step], imgs[start:start + step]
        parent, child = _children(geom, pseq, pimgs)
        if len(child):
            last = geom.mirror(pimgs[parent, -1], child)
            yield from _grow(
                geom, np.concatenate([pseq[parent], child[:, None]], axis=1),
                np.concatenate([pimgs[parent], last[:, None]], axis=1), max_order)


def _children(geom: _Geometry, seq: np.ndarray, imgs: np.ndarray):
    """(parent row, child facet) pairs that pass the plane-side and beam tests."""
    f = seq[:, -1]
    img = imgs[:, -1]
    p, (n, nv) = len(f), geom.sides.shape[:2]
    flat = geom.flat                                          # (4, V n)
    plane = geom.planes[f]                                    # (p, 4)
    side = np.einsum("pk,pk->p", img, plane[:, :3]) + plane[:, 3]
    sign = np.sign(side)[:, None]
    # plane side: some vertex of g on the real side of f, opposite the image;
    # einsum, not @: BLAS threads products this large, which oversubscribes
    # the cores under a build_map pool
    level = np.einsum("pk,kc->pc", plane, flat)
    keep = (sign * level < _PRUNE_SLACK).reshape(p, nv, n).any(axis=1)
    # beam: the planes through the image and each edge of f, normals toward f
    height = np.einsum("pwk,kc->pwc", _walls(geom, f, img, side), flat)
    # |v - I| from |v|^2 - 2 I.v + |I|^2, one more (p, V n) product
    ray = np.concatenate(
        [-2.0 * img, _ROUND_UP * np.einsum("pk,pk->p", img, img)[:, None]], axis=1)
    reach = np.einsum("pk,kc->pc", ray, flat) + geom.flat_sq
    np.sqrt(np.maximum(reach, 0.0, out=reach), out=reach)
    # an image on or within a subnormal height of f's plane: infinite margin
    with np.errstate(divide="ignore", over="ignore"):
        growth = (reach + _PRUNE_SLACK) / np.abs(side)[:, None]
    margin = _PRUNE_SLACK * (1.0 + growth)
    keep &= ~(height < -margin[:, None]).reshape(p, nv, nv, n).all(axis=2).any(axis=1)
    keep[np.arange(p), f] = False
    return np.nonzero(keep)


def _walls(geom: _Geometry, f: np.ndarray, img: np.ndarray, side: np.ndarray):
    """(p, V, 4) planes through each image I and each edge of its facet f,
    unit normals toward f, given the height side = P . (I, 1) of I over f's
    plane P.

    Each plane lies in the pencil of P and the edge's half-plane S, as
    |P . (I, 1)| S - sign(P . (I, 1)) (S . (I, 1)) P.  A zero padding row of
    `sides` gives a zero row, and so does an image on f's plane.
    """
    plane, sides = geom.planes[f], geom.sides[f]
    across = np.einsum("pwk,pk->pw", sides[..., :3], img) + sides[..., 3]
    walls = np.abs(side)[:, None, None] * sides \
        - (np.sign(side)[:, None] * across)[:, :, None] * plane[:, None, :]
    norm = np.linalg.norm(walls[..., :3], axis=2, keepdims=True)
    walls /= np.where(norm > 0.0, norm, 1.0)
    return walls


def _walk(geom: _Geometry, seq: np.ndarray, imgs: np.ndarray, rxs: np.ndarray):
    """Walk each sequence back from each receiver of rxs (R, 3).

    Returns (row, owner, qs) of the valid (receiver, sequence) pairs: row
    indexes seq, owner indexes rxs and qs (pairs, order, 3) holds the
    reflection points; None when no pair is valid.  The last reflection
    is found over the (R, m) grid of pairs, each facet row taken once per
    sequence; the earlier ones over the pairs still valid.
    """
    m, order = seq.shape
    row = owner = qs = None
    target = rxs[:, None, :]
    for j in range(order - 1, -1, -1):
        image, fj = (imgs[:, j], seq[:, j]) if row is None else (imgs[row, j], seq[row, j])
        n_j = geom.normals[fj]
        toward = target - image
        denom = np.einsum("...k,...k->...", toward, n_j)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = -(np.einsum("mk,mk->m", image, n_j) + geom.planes[fj, 3]) / denom
        ok = np.isfinite(t) & (t > 1e-12) & (t < 1.0 - 1e-12)
        t = np.where(ok, t, 0.5)  # placeholder rows, masked out below
        q = image + t[..., None] * toward
        ok &= geom.inside(q, fj)
        valid = np.flatnonzero(ok)
        if not len(valid):
            return None
        if row is None:
            owner, row = np.divmod(valid, m)
            qs = np.empty((len(valid), order, 3))
            q = q.reshape(-1, 3)
        else:
            row, owner, qs = row[valid], owner[valid], qs[valid]
        qs[:, j] = q[valid]
        target = qs[:, j]
    return row, owner, qs


def _point(name: str, value) -> np.ndarray:
    point = np.asarray(value, dtype=float)
    # math.isfinite over the three floats costs a fifth of np.isfinite's call
    if point.shape != (3,) or not all(map(math.isfinite, point.tolist())):
        raise ValueError(f"{name} must be three finite numbers, got {value!r}")
    return point


def _receivers(rx) -> tuple[np.ndarray, bool]:
    """rx as an (N, 3) block, and whether it was one point, a block of one."""
    block = np.asarray(rx, dtype=float)
    if block.ndim != 2:
        return _point("rx", rx)[None], True
    if block.shape[1] != 3:
        raise ValueError(f"rx must be an (N, 3) block, got shape {block.shape}")
    bad = ~np.isfinite(block).all(axis=1)
    if bad.any():
        raise ValueError(f"rx must be an (N, 3) block of finite numbers, got "
                         f"{block[bad.argmax()].tolist()} at row {bad.argmax()}")
    return block, False


def trace_static_mpcs(scene: Scene, tx, rx, max_order: int = 2,
                      frequency: float = DEFAULT_FREQUENCY) -> PathSet | tuple[PathSet, ...]:
    """All specular paths from tx to rx up to max_order reflections.

    Returns a PathSet sorted by (delay, kind, facets).  Power is the
    free-space gain over the unfolded path length times the
    polarization-averaged reflection loss of each bounce.  Deterministic:
    equal inputs give equal outputs, including the per-path phases.

    rx may also be an (N, 3) block of receivers; the result is then a tuple
    of N PathSets in block order, each equal to the trace of its receiver
    alone.  The image tree is built once per call, and the line-of-sight
    test, the walk, the blocking tests and the Fresnel gains run over
    (receiver, sequence) rows, with receivers chunked so that no array of
    the walk exceeds _BLOCK elements.  One point is a block of one.  The
    angles, phases and XPRs of all the call's paths are computed in one
    pass.  The draws are keyed on each path's (tx, rx, order, facets), so a
    change of the tracer's arithmetic that keeps the paths keeps the draws.
    """
    tx, (rxs, single) = _point("tx", tx), _receivers(rx)
    if (rxs == tx).all(axis=1).any():
        raise ValueError("tx and rx coincide")
    max_order = _integer("max_order", max_order, 0)
    frequency = _number("frequency", frequency, 0.0, strict=True)

    geom = _geometry(scene.facets)
    # each receiver's paths as (delay, power, aod, aoa, order, facets) rows,
    # with aod and aoa as direction vectors
    found = [[] for _ in range(len(rxs))]

    clear = ~geom.blocked(np.repeat(tx[None, :], len(rxs), axis=0), rxs)
    for r in np.flatnonzero(clear).tolist():
        dist = float(np.linalg.norm(rxs[r] - tx))
        found[r].append((dist / SPEED_OF_LIGHT,
                         10.0 ** (friis_path_gain(dist, frequency) / 10.0),
                         (rxs[r] - tx).tolist(), (tx - rxs[r]).tolist(), 0, ()))

    for seq, imgs in _image_tree(geom, tx, max_order):
        # receivers per chunk: a walk array holds up to the V edge rows
        # (4 V) or the reflection points (3 order) of each pair
        width = len(seq) * max(geom.sides[0].size, 3 * seq.shape[1])
        step = max(1, _BLOCK // width)
        for start in range(0, len(rxs), step):
            _reflections(geom, seq, imgs, tx, rxs[start:start + step], frequency,
                         found[start:start + step])

    # each path's key: the blake2b-64 digest of its tx and rx as float64 and
    # its order and facets as int64, native and unaligned, read little-endian
    keys = []
    for rx, rows in zip(rxs.tolist(), found):
        rows.sort(key=lambda r: (r[0], _kind(r[4]), r[5]))
        link = struct.pack("=6d", *tx.tolist(), *rx)
        keys += (hashlib.blake2b(link + struct.pack(f"=q{len(f)}q", o, *f),
                                 digest_size=8).digest() for *_, o, f in rows)
    delay, power, aod, aoa, order, facets = tuple(zip(*itertools.chain(*found))) or ((),) * 6
    el, az = _angles_of(*np.array((aod, aoa)).reshape(2, -1, 3).transpose(2, 0, 1))
    aod, aoa = np.stack((el, az), axis=-1)
    phases, xpr = _path_draws(np.frombuffer(b"".join(keys), dtype="<u8"), np.array(order))
    ends = list(itertools.accumulate(map(len, found), initial=0))
    tables = tuple(PathSet(delay[a:b], power[a:b], aod[a:b], aoa[a:b], phases[a:b], xpr[a:b],
                           order[a:b], facets[a:b]) for a, b in zip(ends, ends[1:]))
    return tables[0] if single else tables


def _reflections(geom: _Geometry, seq: np.ndarray, imgs: np.ndarray, tx: np.ndarray,
                 rxs: np.ndarray, frequency: float, found: list) -> None:
    """Append to found[r] the (delay, power, aod, aoa, order, facets) row of
    every path of the sequences seq (m, order) from tx to receiver rxs[r],
    with aod and aoa as direction vectors."""
    walked = _walk(geom, seq, imgs, rxs)
    if walked is None:
        return
    row, owner, qs = walked
    order = seq.shape[1]
    rx = rxs[owner]
    points = np.concatenate([np.broadcast_to(tx, (len(row), 1, 3)), qs, rx[:, None]],
                            axis=1)
    ok = np.ones(len(row), dtype=bool)
    for leg in range(order + 1):
        ok &= ~geom.blocked(points[:, leg], points[:, leg + 1])
    if not ok.any():
        return
    row, owner, qs, rx, points = row[ok], owner[ok], qs[ok], rx[ok], points[ok]
    fseq = seq[row]
    length = np.linalg.norm(imgs[row, order - 1] - rx, axis=1)
    gain = (SPEED_OF_LIGHT / (4.0 * np.pi * length * frequency)) ** 2
    for j in range(order):
        inc = points[:, j + 1] - points[:, j]
        inc /= np.linalg.norm(inc, axis=1, keepdims=True)
        cos_i = np.abs(np.einsum("mk,mk->m", inc, geom.normals[fseq[:, j]]))
        g_perp, g_par = _fresnel_arrays(
            geom.eps_r[fseq[:, j]], geom.sigma[fseq[:, j]],
            np.clip(cos_i, 0.0, 1.0), frequency)
        gain *= 0.5 * (np.abs(g_perp) ** 2 + np.abs(g_par) ** 2)
    aod, aoa = (qs[:, 0] - tx).tolist(), (qs[:, order - 1] - rx).tolist()
    for r, facets, dist, g, d, a in zip(owner.tolist(), map(tuple, fseq.tolist()),
                                        length.tolist(), gain.tolist(), aod, aoa):
        found[r].append((dist / SPEED_OF_LIGHT, g, d, a, order, facets))
