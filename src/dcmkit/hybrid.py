"""Mixing of deterministic static and stochastic dynamic channel parts.

`KFactors` owns the split: k_s compares line-of-sight power against static
reflected power, k_d compares it against the dynamic scattered power, and
the combined ratio obeys 1/k = 1/k_s + 1/k_d.  Each branch is synthesized
at unit power and scaled so the power shares come out as
 1/(1/k_s + 1/k_d + 1)              line of sight,
 (1/k_s)/(1/k_s + 1/k_d + 1)        static reflections,
 (1/k_d)/(1/k_s + 1/k_d + 1)        dynamic scatter.
The static paths come as one `PathSet`, which holds at most one line of
sight; synthesis and statistics take the reflections' power shares from
`PathSet.branches`, which rejects reflections without power.  Tap
amplitudes keep exp(j 2 pi f_c tau) as their initial phase; the transfer
function multiplies by exp(-j 2 pi tau (f - f_c)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .gbsm import (AntennaArray, GbsmConfig, Taps, _pol_mix, dynamic_cir,
                   isotropic_pattern, ray_taps, spawn_clusters)
from .raytrace import SPEED_OF_LIGHT, PathSet, unit_from_angles
from .scene import _REALS

# elements of one (rays, samples) block of a narrowband series (1 MiB of
# complex amplitudes, the fastest size from 2**13 to 2**20); the statistics
# kernel sizes its member blocks and tiles at a third of it, a factor tuned
# by timing, not the shape of any array
_SERIES_BLOCK = 1 << 16
# the default array, shared so that its axis is computed once
_ONE_ELEMENT = AntennaArray()
_NO_TAPS = Taps.empty()


@dataclass(frozen=True)
class KFactors:
    """The (k_s, k_d) power ratios and every weight derived from them."""

    k_s: float
    k_d: float

    def __post_init__(self):
        for name in ("k_s", "k_d"):
            value = getattr(self, name)
            if not isinstance(value, _REALS) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:  # an int beyond the float range is an infinite ratio
                object.__setattr__(self, name, float(value))
            except OverflowError:
                object.__setattr__(self, name, math.inf if value > 0 else -math.inf)
        if not (self.k_s > 0.0 and self.k_d > 0.0) \
                or math.isinf(1.0 / self.k_s + 1.0 / self.k_d):
            raise ValueError("component ratios must be > 0 with a finite "
                             f"1/k_s + 1/k_d, got {self.k_s}, {self.k_d}")

    @property
    def k(self) -> float:
        """Combined power ratio from the harmonic law 1/k = 1/k_s + 1/k_d."""
        inv = 1.0 / self.k_s + 1.0 / self.k_d
        return math.inf if inv == 0.0 else 1.0 / inv

    @property
    def branch_weights(self) -> tuple[float, float]:
        """Amplitude weights (static branch, dynamic branch); squares sum to 1."""
        a, b = 1.0 / self.k_s, 1.0 / self.k_d
        denom = a + b + 1.0
        return math.sqrt((a + 1.0) / denom), math.sqrt(b / denom)

    def static_split(self, has_los: bool, has_refl: bool) -> tuple[float, float]:
        """Amplitude weights (LoS, reflections) inside the unit-power static part.

        An absent branch hands its weight to the other one so the static part
        keeps unit power (degenerate normalization).
        """
        if not has_refl:
            return (1.0 if has_los else 0.0), 0.0
        if not has_los:
            return 0.0, 1.0
        a = 1.0 / self.k_s
        return math.sqrt(1.0 / (a + 1.0)), math.sqrt(a / (a + 1.0))


@dataclass
class ChannelSnapshot:
    """Per-antenna-pair taps at one time instant, sorted by delay."""

    t: float
    location: tuple
    taps: dict

    def pair(self, v: int = 0, u: int = 0) -> Taps:
        return self.taps[(v, u)]


def static_cir(paths: PathSet, tx_array: AntennaArray, rx_array: AntennaArray,
               k: KFactors, frequency: float, mu: float = 1.0) -> dict:
    """Static-part taps per antenna pair from a table of traced paths.

    The LoS path and the reflections share the unit-power static part as
    `k.static_split` says; reflected-path powers renormalize to their
    share (`PathSet.branches`).  Per-element delays shift by the plane-wave
    projection of the element offsets on the departure/arrival directions.
    Arrays that both use `isotropic_pattern` take the shortcut of
    `ray_taps`: every path's gain is exp(j phase_vv), the LoS path's too,
    and no pattern or polarization mix is evaluated.  Any other pattern
    takes the general path, with the same bits when it returns (1, 0).
    """
    n_los, paths, share = paths.branches()
    w_los, w_refl = k.static_split(n_los > 0, len(paths) > n_los)
    weights = np.repeat([w_los, w_refl], [n_los, len(paths) - n_los]) * np.sqrt(share)

    kinds = paths.kinds
    isotropic = tx_array.pattern is rx_array.pattern is isotropic_pattern
    # contiguous (elevation, azimuth) rows (2, P), strided ones may take
    # other SIMD loops: read by the patterns and by the element offsets of
    # an array of more than one element
    aod, aoa = (angles.T.copy() if array.n_elements > 1 or not isotropic else None
                for array, angles in ((tx_array, paths.aod), (rx_array, paths.aoa)))
    if isotropic:
        gains = np.exp(1j * paths.phases[:, 0])
    else:
        # patterns and polarization depend on the path only, not on the pair
        f_tx, f_rx = tx_array.pattern(*aod), rx_array.pattern(*aoa)
        gains = _pol_mix(f_rx, f_tx, paths.phases, paths.xpr, mu)
        if n_los:  # the LoS path keeps its co-polar terms only
            (tv, th), (rv, rh) = ([f[0] for f in fs] for fs in (f_tx, f_rx))
            ph = paths.phases[0].tolist()
            gains[0] = complex(rv * tv * np.exp(1j * ph[0]) + rh * th * np.exp(1j * ph[3]))
    weighted = weights * gains

    pairs = {}
    proj_tx, proj_rx = _projections(tx_array, aod), _projections(rx_array, aoa)
    for v, p_tx in enumerate(proj_tx):
        for u, p_rx in enumerate(proj_rx):
            tau = paths.delay - (p_tx + p_rx) / SPEED_OF_LIGHT
            amps = weighted * np.exp(2j * math.pi * frequency * tau)
            order = np.argsort(tau, kind="stable")
            pairs[(v, u)] = Taps(tau[order], amps[order],
                                 tuple(kinds[i] for i in order))
    return pairs


def _projections(array: AntennaArray, rows: np.ndarray | None) -> list:
    """Each element's offset projected on the unit vectors of the
    (elevation, azimuth) rows (2, P).  A one-element array sits at its
    origin: 0.0, no projection and no rows needed."""
    if array.n_elements == 1:
        return [0.0]
    directions = unit_from_angles(*rows)
    return [directions @ array.element_offset(v) for v in range(array.n_elements)]


def combine_cir(h_static: dict, h_dynamic: dict, k: KFactors,
                t: float = 0.0, location=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
                ) -> ChannelSnapshot:
    """Weight the unit-power branches and merge them delay-sorted.

    The static weight is above 0 for every k_s; the dynamic one is 0 when
    k_d is infinite, and then the dynamic branch contributes no taps.
    """
    w_s, w_d = k.branch_weights
    if h_static and h_dynamic and h_static.keys() != h_dynamic.keys():
        raise ValueError("static and dynamic parts cover different antenna pairs")
    taps = {}
    for key in sorted(h_static.keys() | h_dynamic.keys()):
        dyn = h_dynamic.get(key, _NO_TAPS) if w_d != 0.0 else _NO_TAPS
        taps[key] = h_static.get(key, _NO_TAPS).scaled(w_s).merged(dyn.scaled(w_d))
    return ChannelSnapshot(t=t, location=location, taps=taps)


def rician_params(snapshot: ChannelSnapshot, pair: tuple[int, int] = (0, 0)
                  ) -> tuple[complex, float]:
    """Narrowband fading parameters of one antenna pair.

    Returns (A, sigma2): A is the coherent sum of the deterministic taps
    (LoS plus static reflections, mixing weights already applied), sigma2 is
    half the realized dynamic tap power, i.e. the per-quadrature variance of
    the diffuse sum.
    """
    taps = snapshot.pair(*pair)
    is_dyn = np.array([k.startswith("dyn:") for k in taps.kinds], dtype=bool)
    a = complex(taps.amps[~is_dyn].sum()) if len(taps) else 0.0 + 0.0j
    sigma2 = float(np.sum(np.abs(taps.amps[is_dyn]) ** 2)) / 2.0 if len(taps) else 0.0
    return a, sigma2


# on a receiver route over the 63-record room map, 1 entry serves 86 % of
# the updates, 8 serve 90 % and 64 serve 99 %
@lru_cache(maxsize=64)
def _static_taps(paths: PathSet, tx_array: AntennaArray, rx_array: AntennaArray,
                 k: KFactors, frequency: float, mu: float) -> dict:
    # the module global, so a replaced `static_cir` is the one that runs
    taps = static_cir(paths, tx_array, rx_array, k, frequency, mu=mu)
    for pair in taps.values():  # shared by every model with these inputs
        pair.delays.flags.writeable = pair.amps.flags.writeable = False
    return taps


@dataclass(frozen=True)
class ChannelModel:
    """Static path set plus the stochastic generator for one link.

    This is the state every statistics routine operates on: the traced
    paths, the power split, the cluster generator configuration and the
    terminal arrays.  A model is an immutable value, so `replace` gives a
    consistent model.  Its static taps come from one memo keyed by exactly
    what `static_cir` reads, which excludes the seed, so models with equal
    static inputs share one synthesis and one dict of taps.
    """

    static_mpcs: PathSet
    k: KFactors
    gbsm: GbsmConfig
    tx_array: AntennaArray = _ONE_ELEMENT
    rx_array: AntennaArray = _ONE_ELEMENT
    location: tuple = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    def static_taps(self) -> dict:
        return _static_taps(self.static_mpcs, self.tx_array, self.rx_array, self.k,
                            self.gbsm.carrier_frequency, self.gbsm.copolar_imbalance)

    def spawn(self):
        return spawn_clusters(self.gbsm, self.location)

    def reseeded(self, seed: int) -> "ChannelModel":
        """Copy of this model whose stochastic part uses another seed."""
        return replace(self, gbsm=self.gbsm.with_overrides(seed=seed))

    def snapshot(self, t: float) -> ChannelSnapshot:
        clusters = self.spawn()
        dyn = dynamic_cir(clusters, self.tx_array, self.rx_array, t, self.gbsm)
        return combine_cir(self.static_taps(), dyn, self.k,
                           t=t, location=self.location)

    def narrowband_series(self, t_grid, pair: tuple[int, int] = (0, 0)
                          ) -> np.ndarray:
        """Sum of all taps at the carrier over a time grid (one realization).

        The static contribution is constant; the dynamic taps move with
        their clusters.  Equivalent to summing snapshot amplitudes at every
        t, but vectorized over time, as many samples at a time as keep one
        (rays, samples) block near `_SERIES_BLOCK` elements.  The series
        does not depend on the block length.
        """
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid.ndim != 1:
            raise ValueError(f"t_grid must be 1-D, got shape {t_grid.shape}")
        if not ((0.0 <= t_grid) & (t_grid < math.inf)).all():
            raise ValueError("times must be >= 0 and finite")
        w_s, w_d = self.k.branch_weights
        static_sum = complex(self.static_taps()[pair].amps.sum()) * w_s

        clusters = self.spawn()
        out = np.full(len(t_grid), static_sum, dtype=complex)
        if not clusters or w_d == 0.0:
            return out

        chunk = max(1, _SERIES_BLOCK // (len(clusters) * clusters.rays_per_cluster))
        for lo in range(0, len(t_grid), chunk):
            ts = t_grid[lo:lo + chunk]
            amps = ray_taps(clusters, 0.0, ts, self.tx_array, self.rx_array,
                            pair, self.gbsm)[1]
            # ray by ray: numpy sums a one-sample block pairwise instead
            total = amps[0].copy()
            for row in amps[1:]:
                total += row
            out[lo:lo + len(ts)] += w_d * total
        return out
