"""Deterministic multipath extraction by the image method.

Paths are found by mirroring the transmitter through ordered facet sequences
and walking the chain back from the receiver.  A candidate sequence is kept
when every reflection point lands inside its facet and no other facet blocks
any leg of the path.  Facets are opaque specular reflectors; diffraction and
transmission are out of scope.

The candidates come from an image tree (Allen & Berkley, JASA 1979), built
in each call from the geometry, tx and the maximum order; image positions
do not depend on the receiver.  The children of a node (..., f) with image
I are the facets g != f that pass two receiver-independent tests:

- plane side: some vertex of g lies on the real side of f's plane, the side
  opposite I;
- beam (after Funkhouser et al., SIGGRAPH 1998): g is not wholly outside
  any of the planes through I and an edge of f, each oriented toward f.

Only the surviving sequences are walked back from the receiver.  On the
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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scene import INTERSECT_TOL, Facet, Material, Scene

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


# ---------------------------------------------------------------------------
# basic link budget and reflection coefficients

def friis_path_gain(distance: float, frequency: float) -> float:
    """Free-space power gain in dB: -20 log10(4 pi d f / c)."""
    if distance <= 0.0:
        raise ValueError(f"distance must be > 0, got {distance}")
    if frequency <= 0.0:
        raise ValueError(f"frequency must be > 0, got {frequency}")
    return -20.0 * math.log10(4.0 * math.pi * distance * frequency / SPEED_OF_LIGHT)


def fresnel_coefficients(material: Material, incidence: float, frequency: float):
    """Complex reflection coefficients (perpendicular, parallel).

    `incidence` is measured from the facet normal, in [0, pi/2].  The
    material enters through its complex relative permittivity
    eps_r - j sigma / (2 pi f eps0); loss carries a negative imaginary part.
    """
    if not 0.0 <= incidence <= math.pi / 2:
        raise ValueError(f"incidence must be in [0, pi/2], got {incidence}")
    if frequency <= 0.0:
        raise ValueError(f"frequency must be > 0, got {frequency}")
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


@dataclass(frozen=True, eq=False)
class PathSet:
    """Static multipath components as one table of read-only columns.

    `delay` (s), `power` (linear), `xpr` (linear cross-polarization ratio,
    inf for line of sight) and `order` (reflection count, 0 for line of
    sight) are (P,); `aod` and `aoa` are (P, 2) rows of (elevation in
    [-pi/2, pi/2], azimuth in [-pi, pi)) in radians, and `phases` (P, 4)
    the initial phases (vv, vh, hv, hh).  `facets` holds each path's
    reflecting facet indices when traced and is () when loaded from a map.
    Construction checks every value and at most one line of sight.  Equal
    tables hash equal.  Iteration and an integer index give `Mpc` rows, a
    slice a PathSet.
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
        checks = [
            ((0.0 <= d) & (d < math.inf), "delay must be finite and >= 0, got {}", d),
            ((0.0 <= p) & (p < math.inf), "power must be finite and >= 0, got {}", p),
            (np.isfinite(ph).all(axis=1), "phases must be finite, got {}", ph),
            (x > 0.0, "xpr must be > 0, got {}", x)]
        for name in ("aod", "aoa"):
            el, az = getattr(self, name).T
            checks += [((-math.pi / 2 <= el) & (el <= math.pi / 2),
                        name + " elevation out of [-pi/2, pi/2]: {}", el),
                       ((-math.pi <= az) & (az < math.pi),
                        name + " azimuth out of [-pi, pi): {}", az)]
        checks.append((o >= 0, "order must be >= 0, got {}", o))
        for ok, message, values in checks:
            if not ok.all():
                raise ValueError(message.format(values[np.argmin(ok)].tolist()))
        n_los = np.count_nonzero(o == 0)
        if n_los > 1:
            raise ValueError(f"expected at most one line-of-sight path, got {n_los}")

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


def direction_angles(vec) -> tuple[float, float]:
    """(elevation, azimuth) of a direction vector, azimuth wrapped to [-pi, pi)."""
    v = np.asarray(vec, dtype=float)
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise ValueError("zero direction vector")
    el = math.asin(max(-1.0, min(1.0, v[2] / r)))
    az = math.atan2(v[1], v[0])
    if az >= math.pi:
        az -= 2.0 * math.pi
    return el, az


def unit_from_angles(elevation, azimuth) -> np.ndarray:
    """Unit vectors of (elevation, azimuth) angles of one shape, (..., 3)."""
    ce = np.cos(elevation)
    return np.stack([ce * np.cos(azimuth), ce * np.sin(azimuth),
                     np.sin(elevation)], axis=-1)


def _path_rng(kind: str, facets: tuple[int, ...], delay: float) -> np.random.Generator:
    # geometry-keyed stream: the tracer stays a pure function of its inputs
    h = hashlib.blake2b(digest_size=8)
    h.update(kind.encode())
    h.update(np.asarray(facets, dtype=np.int64).tobytes())
    h.update(np.float64(delay).tobytes())
    return np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "little")))


def _draw_phases_xpr(kind: str, facets: tuple[int, ...], delay: float):
    rng = _path_rng(kind, facets, delay)
    phases = tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, 4))
    if kind == "los":
        return phases, math.inf
    xpr = float(10.0 ** (rng.normal(XPR_MEAN_DB, XPR_STD_DB) / 10.0))
    return phases, xpr


# ---------------------------------------------------------------------------
# packed scene geometry

class _Geometry:
    def __init__(self, facets: tuple[Facet, ...]):
        count = len(facets)
        vmax = max((len(f.vertices) for f in facets), default=3)
        self.count = count
        self.normals = np.zeros((count, 3))
        self.offsets = np.zeros(count)
        self.verts = np.zeros((count, vmax, 3))
        self.edges = np.zeros((count, vmax, 3))
        self.edge_len = np.ones((count, vmax))
        self.eps_r = np.zeros(count)
        self.sigma = np.zeros(count)
        for i, f in enumerate(facets):
            m = len(f.vertices)
            self.normals[i] = f.normal
            self.offsets[i] = f.offset
            self.verts[i, :m] = f.vertices
            self.verts[i, m:] = f.vertices[-1]  # pad: repeated vertex, zero edge
            nxt = np.roll(f.vertices, -1, axis=0)
            self.edges[i, :m] = nxt - f.vertices
            lengths = np.linalg.norm(self.edges[i, :m], axis=1)
            self.edge_len[i, :m] = np.where(lengths > 0.0, lengths, 1.0)
            self.eps_r[i] = f.material.eps_r
            self.sigma[i] = f.material.sigma

    def mirror(self, points: np.ndarray, fi: np.ndarray) -> np.ndarray:
        n = self.normals[fi]
        d = self.offsets[fi]
        dist = np.einsum("mk,mk->m", points, n) - d
        return points - 2.0 * dist[:, None] * n

    def inside(self, points: np.ndarray, fi: np.ndarray) -> np.ndarray:
        """points (M,3) against the facet selected per row by fi (M,)."""
        verts = self.verts[fi]
        edges = self.edges[fi]
        rel = points[:, None, :] - verts
        cr = np.cross(edges, rel)
        s = np.einsum("mvk,mk->mv", cr, self.normals[fi]) / self.edge_len[fi]
        return (s >= -INTERSECT_TOL).all(axis=1)

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
            t = (self.offsets[None, :] - na) / nd
        tol = INTERSECT_TOL / np.where(seg_len > 0.0, seg_len, 1.0)
        cand = np.isfinite(t) & (t > tol) & (t < 1.0 - tol)
        if not cand.any():
            return np.zeros(len(a), dtype=bool)
        # non-candidate rows may hold t = +-inf or nan; zero them so the
        # product stays finite (those rows are masked out below anyway)
        hit = a[:, None, :] + np.where(cand, t, 0.0)[:, :, None] * d[:, None, :]
        rel = hit[:, :, None, :] - self.verts[None, :, :, :]
        cr = np.cross(self.edges[None, :, :, :], rel)
        s = np.einsum("mfvk,fk->mfv", cr, self.normals) / self.edge_len[None, :, :]
        inside = (s >= -INTERSECT_TOL).all(axis=2)
        return (cand & inside).any(axis=1)


@lru_cache(maxsize=8)
def _geometry(facets: tuple[Facet, ...]) -> _Geometry:
    return _Geometry(facets)


# ---------------------------------------------------------------------------
# image tree: facet sequences that can reach some receiver, pruned before
# any receiver is seen

def _image_tree(geom: _Geometry, tx: np.ndarray, max_order: int):
    """Yield (seq, imgs) blocks of surviving sequences of orders 1..max_order.

    seq is (m, k) facet indices and imgs (m, k, 3) the images of tx through
    each prefix.  Every block holds at most _BLOCK // (V * max(V, 3)) rows
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
    nv = geom.verts.shape[1]
    step = max(1, _BLOCK // (geom.count * nv * max(nv, 3)))
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
    verts = geom.verts                                        # (n, V, 3)
    normal, offset = geom.normals[f], geom.offsets[f]
    side = np.einsum("pk,pk->p", img, normal) - offset
    sign = np.sign(side)[:, None, None]
    # plane side: some vertex of g on the real side of f, opposite the image
    level = np.einsum("pk,gvk->pgv", normal, verts) - offset[:, None, None]
    keep = (sign * level < _PRUNE_SLACK).any(axis=2)
    # beam: the planes through the image and each edge of f, normals toward f
    walls = np.cross(verts[f] - img[:, None, :], geom.edges[f]) * -sign
    norm = np.linalg.norm(walls, axis=2, keepdims=True)
    walls /= np.where(norm > 0.0, norm, 1.0)                  # (p, V, 3)
    height = np.einsum("pwk,gvk->pwgv", walls, verts) \
        - np.einsum("pwk,pk->pw", walls, img)[:, :, None, None]
    reach = np.linalg.norm(verts[None] - img[:, None, None, :], axis=3)
    with np.errstate(divide="ignore"):
        growth = (reach + _PRUNE_SLACK) / np.abs(side)[:, None, None]
    margin = _PRUNE_SLACK * (1.0 + growth)
    keep &= ~(height < -margin[:, None]).all(axis=3).any(axis=1)
    keep[np.arange(len(f)), f] = False
    return np.nonzero(keep)


def _walk(geom: _Geometry, seq: np.ndarray, imgs: np.ndarray, rx: np.ndarray):
    """Walk each sequence back from rx; (seq, qs, last_image) of the valid rows."""
    m, order = seq.shape
    qs = np.empty((m, order, 3))
    seq_a, imgs_a, qs_a = seq, imgs, qs
    target_a = np.broadcast_to(rx, (m, 3))
    for j in range(order - 1, -1, -1):
        image = imgs_a[:, j]
        n_j = geom.normals[seq_a[:, j]]
        d_j = geom.offsets[seq_a[:, j]]
        denom = np.einsum("mk,mk->m", target_a - image, n_j)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (d_j - np.einsum("mk,mk->m", image, n_j)) / denom
        ok = np.isfinite(t) & (t > 1e-12) & (t < 1.0 - 1e-12)
        t = np.where(ok, t, 0.5)  # placeholder rows, masked out below
        q = image + t[:, None] * (target_a - image)
        ok &= geom.inside(q, seq_a[:, j])
        if not ok.any():
            return None
        seq_a = seq_a[ok]
        imgs_a = imgs_a[ok]
        qs_a = qs_a[ok]
        qs_a[:, j] = q[ok]
        target_a = qs_a[:, j]
    return seq_a, qs_a, imgs_a[:, order - 1]


def trace_static_mpcs(scene: Scene, tx, rx, max_order: int = 2,
                      frequency: float = DEFAULT_FREQUENCY) -> PathSet:
    """All specular paths from tx to rx up to max_order reflections.

    Returns a PathSet sorted by (delay, kind, facets).  Power is the
    free-space gain over the unfolded path length times the
    polarization-averaged reflection loss of each bounce.  Deterministic:
    equal inputs give equal outputs, including the per-path phases.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    if tx.shape != (3,) or rx.shape != (3,):
        raise ValueError("tx and rx must be 3-vectors")
    if np.array_equal(tx, rx):
        raise ValueError("tx and rx coincide")
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    if frequency <= 0.0:
        raise ValueError(f"frequency must be > 0, got {frequency}")

    geom = _geometry(scene.facets)
    rows = []  # PathSet columns of each path

    if not geom.blocked(tx[None, :], rx[None, :])[0]:
        dist = float(np.linalg.norm(rx - tx))
        delay = dist / SPEED_OF_LIGHT
        rows.append((delay, 10.0 ** (friis_path_gain(dist, frequency) / 10.0),
                     direction_angles(rx - tx), direction_angles(tx - rx),
                     *_draw_phases_xpr("los", (), delay), 0, ()))

    for block in _image_tree(geom, tx, max_order):
        walked = _walk(geom, *block, rx)
        if walked is None:
            continue
        seq, qs, last_img = walked
        order = seq.shape[1]
        points = np.concatenate(
            [np.broadcast_to(tx, (len(seq), 1, 3)), qs,
             np.broadcast_to(rx, (len(seq), 1, 3))], axis=1)
        ok = np.ones(len(seq), dtype=bool)
        for leg in range(order + 1):
            ok &= ~geom.blocked(points[:, leg], points[:, leg + 1])
        if not ok.any():
            continue
        seq, qs, last_img, points = seq[ok], qs[ok], last_img[ok], points[ok]
        length = np.linalg.norm(last_img - rx, axis=1)
        gain = (SPEED_OF_LIGHT / (4.0 * np.pi * length * frequency)) ** 2
        for j in range(order):
            inc = points[:, j + 1] - points[:, j]
            inc /= np.linalg.norm(inc, axis=1, keepdims=True)
            cos_i = np.abs(np.einsum("mk,mk->m", inc, geom.normals[seq[:, j]]))
            g_perp, g_par = _fresnel_arrays(
                geom.eps_r[seq[:, j]], geom.sigma[seq[:, j]],
                np.clip(cos_i, 0.0, 1.0), frequency)
            gain *= 0.5 * (np.abs(g_perp) ** 2 + np.abs(g_par) ** 2)
        for i in range(len(seq)):
            fseq = tuple(int(f) for f in seq[i])
            delay = float(length[i]) / SPEED_OF_LIGHT
            rows.append((delay, float(gain[i]),
                         direction_angles(qs[i, 0] - tx),
                         direction_angles(qs[i, order - 1] - rx),
                         *_draw_phases_xpr(_kind(order), fseq, delay), order, fseq))

    rows.sort(key=lambda r: (r[0], _kind(r[6]), r[7]))
    return PathSet(*zip(*rows))
