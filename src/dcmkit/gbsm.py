"""Stochastic moving-cluster synthesis for the dynamic channel part.

Dynamic scatterers are grouped into clusters anchored near the link ends
(twin-cluster layout): each cluster owns an anchor direction and distance on
the transmit side and another on the receive side, a virtual delay that
stands in for the unobserved bounce in between, a constant velocity per
side, and a bundle of rays with small angle offsets.  Every draw of a
spawn comes from one block of uniforms of a PCG64 generator seeded by
(seed, location), so a (seed, config, location) triple always produces the
same ensemble.  Ensemble averages draw many seeds as one block, which
equals their single spawns bit for bit.
"""

from __future__ import annotations

import math
import struct
import typing
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

from .raytrace import DEFAULT_FREQUENCY, SPEED_OF_LIGHT, _angles_of, unit_from_angles
from .scene import _REALS, _integer, _number


def isotropic_pattern(elevation, azimuth):
    """Unit vertical response, no horizontal response.  Accepts arrays."""
    zeros = np.zeros(np.broadcast(elevation, azimuth).shape)
    return zeros + 1.0, zeros


@dataclass(frozen=True)
class AntennaArray:
    """Uniform linear array along a fixed axis.

    Element v sits at v * spacing along the axis given by `orientation`
    (elevation, azimuth).  `pattern(el, az) -> (F_v, F_h)` is the common
    element response per polarization and must broadcast over arrays.  The
    default, `isotropic_pattern`, reads no angle: when both ends use it, ray
    synthesis skips the angles and the polarization mix.  Any other pattern
    takes the general path, and one that returns (1, 0) gives the same bits.
    """

    n_elements: int = 1
    spacing: float = 0.5 * SPEED_OF_LIGHT / DEFAULT_FREQUENCY
    orientation: tuple[float, float] = (0.0, 0.0)
    pattern: object = isotropic_pattern

    def __post_init__(self):
        object.__setattr__(self, "n_elements", _integer("n_elements", self.n_elements, 1))
        object.__setattr__(self, "spacing", _number("spacing", self.spacing, 0.0, strict=True))
        if np.shape(self.orientation) != (2,) or not np.isfinite(self.orientation).all():
            raise ValueError(f"orientation must be two finite angles, got {self.orientation}")

    @cached_property
    def axis(self) -> np.ndarray:
        axis = unit_from_angles(*self.orientation)
        axis.flags.writeable = False
        return axis

    def element_offset(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n_elements:
            raise ValueError(f"element index {v} out of range")
        return v * self.spacing * self.axis


@dataclass(frozen=True)
class GbsmConfig:
    """Knobs of the stochastic cluster generator.

    Cluster powers follow a single-slope exponential decay over excess delay
    with log-normal per-cluster shadowing, then normalize to unit total.
    Rays split a cluster's power uniformly.  Angles are radians, delays
    seconds, distances meters.  Field annotations are the one statement of
    the field types: construction converts every value to its field's type
    (int, float or a pair of floats) and rejects bools, strings, NaN,
    infinities and wrong shapes with a ValueError, so map files and JSON
    overrides share one check.
    """

    n_clusters: int = 15
    rays_per_cluster: int = 10
    carrier_frequency: float = DEFAULT_FREQUENCY
    cluster_speed: float = 0.5
    delay_decay: float = 200e-9
    virtual_delay_mean: float = 30e-9
    angle_spread_intra: float = math.radians(5.0)
    xpr_mean_db: float = 8.0
    xpr_std_db: float = 3.0
    copolar_imbalance: float = 1.0
    shadow_std_db: float = 3.0
    anchor_range: tuple[float, float] = (20.0, 200.0)
    elevation_range: tuple[float, float] = (-math.radians(20.0), math.radians(20.0))
    azimuth_range: tuple[float, float] = (-math.pi, math.pi)
    seed: int = 0

    def __post_init__(self):
        self._set(vars(self))

    def with_overrides(self, **kwargs) -> "GbsmConfig":
        """A copy that converts and checks only the fields given."""
        unknown = sorted(kwargs.keys() - _FIELD_TYPES.keys())
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        new = object.__new__(type(self))
        vars(new).update(vars(self))
        new._set(kwargs)
        return new

    def _set(self, values: dict) -> None:
        """Convert and check each of `values` with `config_field`, bounds
        included, and check the order of each range given."""
        for name, value in list(values.items()):
            value = config_field(name, value, bounded=True)
            object.__setattr__(self, name, value)
            if name.endswith("_range"):
                low, high = value
                if not (math.isfinite(low) and math.isfinite(high) and low <= high) \
                        or name == "anchor_range" and low <= 0.0:
                    raise ValueError(f"bad {name} {value}")


# the lower bounds of the bounded number fields, as `_integer` and
# `_number` take them: (least,) or (low, strict)
_LOWER_BOUNDS = {"n_clusters": (0,), "rays_per_cluster": (1,),
                 "carrier_frequency": (0.0, True), "delay_decay": (0.0, True),
                 "virtual_delay_mean": (0.0, True), "cluster_speed": (0.0,),
                 "copolar_imbalance": (0.0,)}


def config_field(name: str, value, bounded: bool = False):
    """`value` as the type of GbsmConfig field `name`.

    Raises ValueError for an unknown field and for a value of the wrong
    type: bools, strings, non-integers for int fields, NaN and infinities
    for float fields (the rules of `_integer` and `_number`), anything but
    two numbers for pair fields.  When `bounded`, a number below its
    field's `_LOWER_BOUNDS` entry is rejected in the same call; the map
    reader leaves bounds to `GbsmConfig`, whose errors name the [gbsm]
    header rather than the value's line.
    """
    bounds = _LOWER_BOUNDS.get(name, ()) if bounded else ()
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ValueError(f"unknown config fields: {name}")
    if kind is int:
        return _integer(name, value, *bounds)
    if kind is float:
        return _number(name, value, *bounds)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, _REALS) and not isinstance(v, bool) for v in value)):
        return float(value[0]), float(value[1])
    raise ValueError(f"{name} must be a pair of numbers, got {value!r}")


_FIELD_TYPES = typing.get_type_hints(GbsmConfig)


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """An ensemble of C moving twin-anchored clusters of m rays each.

    Per-cluster arrays lead with C and stack the two link ends, transmit
    end first, as they are drawn: `power` is each cluster's share of the
    total dynamic power (shares sum to one), `distance` (C, 2) the anchor
    distances, `direction` (C, 2, 2) the anchor directions as (elevation,
    azimuth) rows, `velocity` (C, 2, 3) the anchor velocity vectors in m/s
    and `virtual_delay` the delay of the unobserved bounce.  Per-ray arrays
    lead with (C, m): angle offsets `offset` (C, m, 2, 2) per end, phases
    (C, m, 4) and linear XPR.  Rays split their cluster's power evenly.
    Construction derives once what every synthesis reads: the ray anchors
    at t = 0 in meters from the link ends, `_anchors` (2, 3, C, m, 1) by
    end and component, a view of an array laid out (component, cluster,
    ray, end).  The power of every ray, `ray_power` (C, m), its square root
    and the ray gains between isotropic elements are derived on first use.
    """

    power: np.ndarray
    distance: np.ndarray
    direction: np.ndarray
    velocity: np.ndarray
    virtual_delay: np.ndarray
    offset: np.ndarray
    phases: np.ndarray
    xpr: np.ndarray

    def __post_init__(self):
        if self.power.min(initial=0.0) < 0.0:
            raise ValueError("cluster power must be >= 0")
        if self.virtual_delay.min(initial=0.0) < 0.0:
            raise ValueError("virtual delay must be >= 0")
        # (elevation, azimuth) of every ray at both ends, (C, m, 2, 2), with
        # the elevations clipped to [-pi/2, pi/2]; cosines and sines at once
        angles = self.offset + self.direction.repeat(self.rays_per_cluster, axis=0
                                                     ).reshape(self.offset.shape)
        el = angles[..., 0]
        np.minimum(np.maximum(el, -math.pi / 2, out=el), math.pi / 2, out=el)
        trig = np.empty((2,) + angles.shape)
        np.cos(angles, out=trig[0])
        np.sin(angles, out=trig[1])
        # unit vectors (cos az cos el, sin az cos el, sin el), laid out
        # (component, cluster, ray, end) as they come, then scaled to the
        # anchor distances
        anchors = np.empty((3,) + angles.shape[:3])
        np.multiply(trig[:, ..., 1], trig[0, ..., 0], out=anchors[:2])
        anchors[2] = trig[1, ..., 0]
        anchors *= self.distance.repeat(self.rays_per_cluster, axis=0).reshape(angles.shape[:3])
        object.__setattr__(self, "_anchors", anchors.transpose(3, 0, 1, 2)[..., None])

    def __len__(self) -> int:
        return len(self.power)

    @property
    def rays_per_cluster(self) -> int:
        return self.xpr.shape[1]

    @cached_property
    def ray_power(self) -> np.ndarray:
        m = self.rays_per_cluster
        return (self.power * (1.0 / m)).repeat(m).reshape(-1, m)

    @property
    def _amplitude(self) -> np.ndarray:
        """sqrt(ray power), (C, 1): one value for the rays of a cluster."""
        return np.sqrt(self.power * (1.0 / self.rays_per_cluster))[:, None]

    @cached_property
    def _isotropic_gain(self) -> np.ndarray:
        """sqrt(ray power) exp(j phase_vv), (R, 1): each ray's gain when both
        ends have unit vertical and no horizontal response."""
        gain = np.exp(1j * self.phases[..., 0])
        gain *= self._amplitude
        return gain.reshape(-1, 1)


def spawn_clusters(config: GbsmConfig, location) -> ClusterSet:
    """Draw a cluster ensemble for a (tx, rx) location pair.

    PCG64 seeded by SeedSequence([seed mod 2**64, *location words]), the
    words being the location's float64 bits, fills one (n, 13 + 14 m) block
    of uniforms u in [0, 1).  Row c is cluster c, so each cluster depends
    only on (seed, location, c) and the ensemble is order-independent.
    Columns of a row, ranges inclusive:

    - 0-9: low + (high - low) u for d_t, el_t, az_t, d_r, el_r, az_r,
      sin el_a, az_a, sin el_z, az_z; a velocity is cluster_speed times the
      unit vector of (arcsin(sin el), az).
    - 10: virtual delay -virtual_delay_mean log1p(-u).
    - 11..11+m radii and 12+m..12+2m angles of Box-Muller normals
      sqrt(-2 log1p(-u_r)) cos(2 pi u_theta): shadowing, then m ray XPRs.
    - 13+2m..12+6m minus 13+6m..12+10m, as -log1p(-u): Laplace angle
      offsets (m, 2, 2) as aod el, aod az, aoa el, aoa az.
    - 13+10m..12+14m: phases 2 pi u, (m, 4).
    """
    return _draw_clusters(config, (config.seed,), location)


def _draw_clusters(config: GbsmConfig, seeds, location) -> ClusterSet:
    """`spawn_clusters` with each of `seeds`, bit for bit, stacked in one set.

    Member e fills rows e n .. (e + 1) n - 1 of the uniform block from its
    own generator; each transform runs once over all rows, and the delay
    minimum and power sum once per member, so each member's powers sum to one.
    """
    tx, rx = location  # entropy: the float64 bits of the pair
    loc = _location_words(struct.pack("<6d", *tx, *rx))
    members, n, m = len(seeds), config.n_clusters, config.rays_per_cluster
    u = np.empty((members * n, 13 + 14 * m))
    for e, seed in enumerate(seeds):
        words = np.array((*_entropy_words([seed & 0xFFFFFFFFFFFFFFFF]), *loc), np.uint32)
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(words))).random(
            out=u[e * n:(e + 1) * n])
    lows, spans = _uniform_scales(config.anchor_range, config.elevation_range,
                                  config.azimuth_range)
    uniform = lows + spans * u[:, :10]
    # log1p(-u) of every column from the virtual delay to the Laplace ones
    logs = np.log1p(-u[:, 10:13 + 10 * m])
    virtual = -config.virtual_delay_mean * logs[:, 0]
    normal = np.sqrt(-2.0 * logs[:, 1:2 + m]) \
        * np.cos(2.0 * math.pi * u[:, 12 + m:13 + 2 * m])
    offsets = (config.angle_spread_intra
               * (logs[:, 3 + 6 * m:] - logs[:, 3 + 2 * m:3 + 6 * m])).reshape(-1, m, 2, 2)
    velocity = config.cluster_speed * unit_from_angles(np.arcsin(uniform[:, 6::2]),
                                                       uniform[:, 7::2])
    # (distance, elevation, azimuth) of each end's anchor, (C, 2, 3)
    ends = uniform[:, :6].reshape(-1, 2, 3)
    distance = ends[..., 0]
    delays = ((distance[:, 0] + distance[:, 1]) / SPEED_OF_LIGHT + virtual).reshape(members, n)
    excess = delays - delays.min(axis=1, initial=math.inf, keepdims=True)
    weights = np.exp(-excess / config.delay_decay) \
        * 10.0 ** (config.shadow_std_db * normal[:, 0] / 10.0).reshape(members, n)
    weights /= weights.sum(axis=1, keepdims=True)
    return ClusterSet(
        power=weights.reshape(-1), distance=distance, direction=ends[..., 1:],
        velocity=velocity, virtual_delay=virtual, offset=offsets,
        phases=(2.0 * math.pi * u[:, 13 + 10 * m:]).reshape(-1, m, 4),
        xpr=10.0 ** ((config.xpr_mean_db + config.xpr_std_db * normal[:, 1:]) / 10.0))


@lru_cache(maxsize=8)
def _uniform_scales(*ranges) -> tuple[np.ndarray, np.ndarray]:
    """(low, high - low) of the uniform columns; ranges that differ only in the
    sign of a zero give bit-equal columns low + (high - low) u."""
    lows, highs = np.array([*ranges * 2, *[(-1.0, 1.0), (-math.pi, math.pi)] * 2]).T
    return lows, highs - lows


@lru_cache(maxsize=64)
def _location_words(bits: bytes) -> tuple[int, ...]:
    """SeedSequence's words of a location's six float64 bit patterns."""
    return tuple(_entropy_words(struct.unpack("<6Q", bits)))


def _entropy_words(values) -> list[int]:
    """SeedSequence's words of ints < 2**64: the low 32 bits, then any non-zero rest."""
    return [w for v in values for w in ((v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,))]


def _ray_vectors(clusters: ClusterSet, t: float, dt, tx_offset, rx_offset) -> np.ndarray:
    """Element-to-anchor vectors of every ray once its anchors have moved on to t + dt.

    `dt` is a grid of Q time offsets; `tx_offset`/`rx_offset` are antenna
    element positions relative to the link ends, one (3,) vector or one per
    grid point (Q, 3), or None for an element at its link end.  Returns
    (anchor + v t) + v dt - offset as (2, 3, C, m, Q): by end (transmit,
    receive), component (x, y, z), cluster, ray and time.
    """
    vectors = _moved(clusters._anchors, _velocities(clusters), t, np.asarray(dt, dtype=float))
    for end, offset in enumerate((tx_offset, rx_offset)):
        shift = _shift(offset)
        if shift is not None:
            vectors[end] -= shift
    return vectors


def _velocities(clusters: ClusterSet) -> np.ndarray:
    """The anchor velocities as (2, 3, C, 1, 1), broadcasting like `_anchors`."""
    return clusters.velocity.transpose(1, 2, 0)[..., None, None]


def _moved(anchors: np.ndarray, velocities: np.ndarray, t: float, dt: np.ndarray) -> np.ndarray:
    """(anchors + velocities t) + velocities dt as a new array, the Q points
    of `dt` on its last axis, where `anchors` and `velocities` have one."""
    rel = anchors + velocities * t
    # a cluster's velocity broadcasts over its rays; when every dt is zero,
    # adding v dt would change no coordinate but the sign of a zero, so the
    # vectors copy the anchors instead (count_nonzero is the cheaper test on
    # a handful of numbers)
    if np.count_nonzero(dt):
        return np.add(velocities * dt, rel)
    return rel if dt.size == 1 else rel.repeat(dt.size, axis=-1)


def _shift(offset) -> np.ndarray | None:
    """An element offset as components (3, 1, 1, Q or 1), or None when it
    is None or zero: subtracting a zero offset changes no length."""
    if offset is None or not np.count_nonzero(offset):
        return None
    return np.asarray(offset, dtype=float).T.reshape(3, 1, 1, -1)


# the most vectors (6 R Q numbers) that `ray_delays` forms as one stacked
# array: one product over both ends and all components makes the fewest
# calls, planes formed one at a time move the least memory.  Timed against
# each other, the stacked array took 0.4 of the time of the planes at 900
# numbers (a one-pair update), 0.84 at 14,400, 1.2 times as long at 57,600
# and 1.4 times at 392,400 (a chunk of the narrowband series).
_STACKED_VECTORS = 1 << 15


def ray_delays(clusters: ClusterSet, t: float, dt, tx_offset, rx_offset) -> np.ndarray:
    """Delays (R, Q) of every ray once its anchors have moved on to t + dt.

    Arguments as in `_ray_vectors`.  A delay is the two element-to-anchor
    legs, each sqrt((x x + y y) + z z), over c plus the virtual delay.  Up
    to `_STACKED_VECTORS` numbers, the vectors of both ends are formed as
    one stacked array; beyond it, one (C, m, Q) plane at a time, so no
    (3, R, Q) array is held.  Both give the same bits.
    """
    n, m = len(clusters), clusters.rays_per_cluster
    dt = np.asarray(dt, dtype=float)
    if 6 * n * m * dt.size <= _STACKED_VECTORS:
        squares = _ray_vectors(clusters, t, dt, tx_offset, rx_offset)
        squares *= squares
        legs = squares[:, 0] + squares[:, 1]
        legs += squares[:, 2]
        np.sqrt(legs, out=legs)
        delays = legs[0] + legs[1]
    else:
        anchors, velocities, delays = clusters._anchors, _velocities(clusters), None
        for end, offset in enumerate((tx_offset, rx_offset)):
            shift, leg = _shift(offset), None
            for axis in range(3):
                plane = _moved(anchors[end, axis], velocities[end, axis], t, dt)
                if shift is not None:
                    plane -= shift[axis]
                plane *= plane
                leg = plane if leg is None else np.add(leg, plane, out=leg)
                del plane  # free before the next plane is formed
            np.sqrt(leg, out=leg)
            delays = leg if delays is None else np.add(delays, leg, out=delays)
            del leg
    delays /= SPEED_OF_LIGHT
    delays += clusters.virtual_delay[:, None, None]
    return delays.reshape(n * m, delays.shape[-1])


def ray_taps(clusters: ClusterSet, t: float, dt, tx_array: AntennaArray,
             rx_array: AntennaArray, pair: tuple[int, int], config: GbsmConfig):
    """Delays and complex amplitudes (R, Q) of every ray for one antenna pair.

    Anchors move on to t + dt as in `ray_delays`.  Amplitude is sqrt(ray
    power) times the polarization mix of the element patterns, read at the
    angles of the element-to-anchor vectors of `_ray_vectors`, and the
    carrier phase exp(j 2 pi f_c tau).  When both arrays use
    `isotropic_pattern` itself, the mix is exp(j phase_vv) whatever the
    angles, so the gain is one per ray, kept by the cluster set, and no
    vector or angle is computed.  Any other pattern, one returning (1, 0)
    too, takes the general path, which gives those same bits: every term it
    adds is a signed zero.
    """
    # element 0 sits at its array's origin, the link end
    offsets = [array.element_offset(v) if v else None
               for array, v in zip((tx_array, rx_array), pair)]
    delays = ray_delays(clusters, t, dt, *offsets)
    if tx_array.pattern is rx_array.pattern is isotropic_pattern:
        gains = clusters._isotropic_gain
    else:
        # each end's x, y and z planes (R, Q), views of the stacked vectors
        tx, rx = _ray_vectors(clusters, t, dt, *offsets).reshape((2, 3) + delays.shape)
        f_tx = tx_array.pattern(*_angles_of(*tx))
        f_rx = rx_array.pattern(*_angles_of(*rx))
        mix = _pol_mix(f_rx, f_tx, clusters.phases.reshape(-1, 1, 4),
                       clusters.xpr.reshape(-1, 1), config.copolar_imbalance)
        gains = (clusters._amplitude[..., None] * mix.reshape(clusters.xpr.shape + mix.shape[1:])
                 ).reshape(mix.shape)
    # gains first, into the carrier's buffer: numpy's fused complex product
    # rounds a b unlike b a, and `gains * np.exp(...)` may run as the large
    # temporary times gains, in place
    carrier = np.exp(2j * math.pi * config.carrier_frequency * delays)
    return delays, np.multiply(gains, carrier, out=carrier)


@dataclass
class Taps:
    """Parallel-array tap container for one antenna pair."""

    delays: np.ndarray
    amps: np.ndarray
    kinds: tuple[str, ...]

    @staticmethod
    def empty() -> "Taps":
        return Taps(np.zeros(0), np.zeros(0, dtype=complex), ())

    def __len__(self) -> int:
        return len(self.delays)

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def scaled(self, factor: float) -> "Taps":
        return Taps(self.delays, self.amps * factor, self.kinds)

    def merged(self, other: "Taps") -> "Taps":
        delays = np.concatenate([self.delays, other.delays])
        order = delays.argsort(kind="stable")
        kinds = self.kinds + other.kinds  # itemgetter of one index returns no tuple
        kinds = itemgetter(*order.tolist())(kinds) if len(kinds) > 1 else kinds
        amps = np.concatenate([self.amps, other.amps]).take(order)
        return Taps(delays.take(order), amps, kinds)


def _pol_mix(f_rx, f_tx, phases: np.ndarray, xpr: np.ndarray, mu: float) -> np.ndarray:
    """Polarization mix of element responses; phases (..., 4) broadcast with xpr."""
    (rv, rh), (tv, th), inv = f_rx, f_tx, 1.0 / xpr
    # exp(j phase) as four contiguous planes, in one call
    e = phases.transpose((-1,) + tuple(range(phases.ndim - 1)))
    e0, e1, e2, e3 = np.exp(np.multiply(1j, e, out=np.empty(e.shape, complex)))
    return (rv * (e0 * tv + np.sqrt(mu * inv) * e1 * th)
            + rh * (np.sqrt(inv) * e2 * tv + math.sqrt(mu) * e3 * th))


@lru_cache(maxsize=8)
def _ray_kinds(n_clusters: int, rays: int) -> tuple[str, ...]:
    return tuple(f"dyn:{c}:{r}" for c in range(n_clusters) for r in range(rays))


def dynamic_cir(clusters: ClusterSet, tx_array: AntennaArray,
                rx_array: AntennaArray, t: float, config: GbsmConfig) -> dict:
    """Dynamic-part impulse response taps per antenna pair (v, u).

    Taps are the rays of `ray_taps` at time t, tagged `dyn:<cluster>:<ray>`.
    The expected total power over all taps is one by construction (unit
    patterns).  Arrays that both use `isotropic_pattern` take the shortcut
    of `ray_taps`; a custom pattern takes the general path, with the same
    bits when it returns (1, 0).
    """
    t = _number("t", t, 0.0)
    kinds = _ray_kinds(len(clusters), clusters.rays_per_cluster)
    out = {}
    for v in range(tx_array.n_elements):
        for u in range(rx_array.n_elements):
            delays, amps = ray_taps(clusters, t, (0.0,), tx_array, rx_array,
                                    (v, u), config)
            out[(v, u)] = Taps(delays[:, 0], amps[:, 0], kinds)
    return out
