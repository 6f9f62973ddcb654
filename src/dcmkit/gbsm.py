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

from .raytrace import DEFAULT_FREQUENCY, SPEED_OF_LIGHT, unit_from_angles


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
        n = self.n_elements
        if isinstance(n, bool) or not isinstance(n, _INTEGERS) or n < 1:
            raise ValueError(f"n_elements must be an integer >= 1, got {n!r}")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be finite and > 0, got {self.spacing}")
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
        """A copy that converts only the fields given, then checks all rules."""
        unknown = sorted(kwargs.keys() - _FIELD_TYPES.keys())
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        new = object.__new__(type(self))
        vars(new).update(vars(self))
        new._set(kwargs)
        return new

    def _set(self, values: dict) -> None:
        for name, value in list(values.items()):
            object.__setattr__(self, name, config_field(name, value))
        if self.n_clusters < 0:
            raise ValueError(f"n_clusters must be >= 0, got {self.n_clusters}")
        if self.rays_per_cluster < 1:
            raise ValueError(f"rays_per_cluster must be >= 1, got {self.rays_per_cluster}")
        for name in ("carrier_frequency", "delay_decay", "virtual_delay_mean"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.cluster_speed < 0.0:
            raise ValueError("cluster_speed must be >= 0")
        if self.anchor_range[0] <= 0.0:
            raise ValueError(f"bad anchor_range {self.anchor_range}")
        for name in ("anchor_range", "elevation_range", "azimuth_range"):
            low, high = getattr(self, name)
            if not (math.isfinite(low) and math.isfinite(high) and low <= high):
                raise ValueError(f"bad {name} {(low, high)}")


_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def config_field(name: str, value):
    """`value` as the type of GbsmConfig field `name`.

    Raises ValueError for an unknown field and for a value of the wrong
    type: bools, strings, non-integers for int fields, NaN and infinities
    for float fields, anything but two numbers for pair fields.
    """
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ValueError(f"unknown config fields: {name}")
    if not isinstance(value, bool):
        if kind is int and isinstance(value, _INTEGERS):
            return int(value)
        if kind is float and isinstance(value, _REALS):
            if not math.isfinite(value):
                raise ValueError(f"config field {name} must be finite, got {value!r}")
            return float(value)
        if (kind not in (int, float) and isinstance(value, (list, tuple))
                and len(value) == 2
                and all(isinstance(v, _REALS) and not isinstance(v, bool) for v in value)):
            return float(value[0]), float(value[1])
    what = {int: "an integer", float: "a number"}.get(kind, "a pair of numbers")
    raise ValueError(f"config field {name} must be {what}, got {value!r}")


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
    at t = 0 in meters from the link ends and the anchor velocities,
    end-major and component-major, (2, 3, C, m, 1) and (2, 3, C, 1, 1)
    (`_anchors`, `_velocities`); the power of every ray, `ray_power`
    (C, m); and for the R = C m rays the virtual delays and sqrt(ray
    power), (R, 1).  The ray gains between isotropic elements are derived
    on first use.
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
        m = self.rays_per_cluster
        # both ends in one pass, end-major as `_ray_vectors` reads them (a
        # cluster-major layout slows it): angles (2, C, m, 2), anchors (2, C, m, 3)
        angles = np.add(self.direction.transpose(1, 0, 2)[:, :, None],
                        self.offset.transpose(2, 0, 1, 3), order="C")
        el = np.minimum(np.maximum(angles[..., 0], -math.pi / 2), math.pi / 2)
        anchors = self.distance.T[:, :, None, None] * unit_from_angles(el, angles[..., 1])
        velocities = np.ascontiguousarray(self.velocity.transpose(1, 2, 0))
        ray_power = (self.power * (1.0 / m)).repeat(m).reshape(-1, m)
        for name, value in (
                ("_anchors", anchors.transpose(0, 3, 1, 2)[..., None]),
                ("_velocities", velocities[..., None, None]),
                ("_virtual", np.repeat(self.virtual_delay, m)[:, None]),
                ("ray_power", ray_power),
                ("_amplitude", np.sqrt(ray_power).reshape(-1, 1))):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.power)

    @property
    def rays_per_cluster(self) -> int:
        return self.xpr.shape[1]

    @cached_property
    def _isotropic_gain(self) -> np.ndarray:
        """sqrt(ray power) exp(j phase_vv), (R, 1): each ray's gain when both
        ends have unit vertical and no horizontal response."""
        return self._amplitude * np.exp(1j * self.phases[..., 0].reshape(-1, 1))


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
    loc = _entropy_words(struct.unpack("<6Q", struct.pack("<6d", *tx, *rx)))
    members, n, m = len(seeds), config.n_clusters, config.rays_per_cluster
    u = np.empty((members * n, 13 + 14 * m))
    for e, seed in enumerate(seeds):
        words = np.array(_entropy_words([seed & 0xFFFFFFFFFFFFFFFF]) + loc, np.uint32)
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


def _entropy_words(values) -> list[int]:
    """SeedSequence's words of ints < 2**64: the low 32 bits, then any non-zero rest."""
    return [w for v in values for w in ((v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,))]


def _ray_vectors(clusters: ClusterSet, t: float, dt, tx_offset, rx_offset):
    """Element-to-anchor vectors of every ray once its anchors have moved on to t + dt.

    `dt` is a grid of Q time offsets; `tx_offset`/`rx_offset` are antenna
    element positions relative to the link ends, one (3,) vector or one per
    grid point (Q, 3).  Yields six planes (R, Q) of the R = C m rays in
    cluster-major order, one at a time: x, y and z of (anchor + v t) + v dt
    - offset at the transmit end, then at the receive end.
    """
    dt = np.asarray(dt, dtype=float)
    q = dt.size
    start = clusters._anchors + clusters._velocities * t
    # a cluster's velocity broadcasts over its rays; when every dt is zero,
    # adding v dt would change no coordinate but the sign of a zero, so the
    # planes copy the anchors instead (count_nonzero is the cheaper test on
    # a handful of numbers)
    moved = clusters._velocities * dt if np.count_nonzero(dt) else None
    for end, offset in enumerate((tx_offset, rx_offset)):
        offset = np.asarray(offset, dtype=float)
        # subtracting a zero offset changes no length
        shifts = offset.T.reshape(3, 1, -1) if np.count_nonzero(offset) else (None,) * 3
        for i, shift in enumerate(shifts):
            if moved is None:
                rel = start[end, i].repeat(q, axis=-1).reshape(-1, q)
            else:
                rel = np.add(moved[end, i], start[end, i]).reshape(-1, q)
            if shift is not None:
                rel -= shift
            yield rel


def _leg_length(planes) -> np.ndarray:
    """sqrt((x x + y y) + z z) of the next three planes; squares them in place."""
    norm = next(planes)
    norm *= norm
    for _ in range(2):
        plane = next(planes)
        norm += np.multiply(plane, plane, out=plane)
        del plane  # free before the next plane is formed
    return np.sqrt(norm, out=norm)


def ray_delays(clusters: ClusterSet, t: float, dt, tx_offset, rx_offset) -> np.ndarray:
    """Delays (R, Q) of every ray once its anchors have moved on to t + dt.

    Arguments as in `_ray_vectors`.  A delay is the two element-to-anchor
    legs over c plus the virtual delay.  The legs are taken one end and one
    component at a time, so no (3, R, Q) array is formed.
    """
    planes = _ray_vectors(clusters, t, dt, tx_offset, rx_offset)
    delays = _leg_length(planes)
    delays += _leg_length(planes)
    delays /= SPEED_OF_LIGHT
    delays += clusters._virtual
    return delays


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
    offsets = tx_array.element_offset(pair[0]), rx_array.element_offset(pair[1])
    delays = ray_delays(clusters, t, dt, *offsets)
    if tx_array.pattern is rx_array.pattern is isotropic_pattern:
        gains = clusters._isotropic_gain
    else:
        vectors = list(_ray_vectors(clusters, t, dt, *offsets))
        f_tx = tx_array.pattern(*_angles_of(*vectors[:3]))
        f_rx = rx_array.pattern(*_angles_of(*vectors[3:]))
        gains = clusters._amplitude * _pol_mix(
            f_rx, f_tx, clusters.phases.reshape(-1, 1, 4),
            clusters.xpr.reshape(-1, 1), config.copolar_imbalance)
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


def _angles_of(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """(elevation, azimuth) of vectors given as x, y and z planes."""
    sin_el = z / np.sqrt(x * x + y * y + z * z)
    el = np.arcsin(np.minimum(np.maximum(sin_el, -1.0, out=sin_el), 1.0, out=sin_el))
    az = np.arctan2(y, x)
    return el, az


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
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    kinds = _ray_kinds(len(clusters), clusters.rays_per_cluster)
    out = {}
    for v in range(tx_array.n_elements):
        for u in range(rx_array.n_elements):
            delays, amps = ray_taps(clusters, t, (0.0,), tx_array, rx_array,
                                    (v, u), config)
            out[(v, u)] = Taps(delays[:, 0], amps[:, 0], kinds)
    return out
