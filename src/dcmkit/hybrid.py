"""Mixing of deterministic static and stochastic dynamic channel parts.

The split is governed by two Rician-style ratios: k_s compares line-of-sight
power against static reflected power, k_d compares it against the dynamic
scattered power.  The combined ratio obeys 1/k = 1/k_s + 1/k_d.  Each branch
is synthesized at unit power and scaled so the power shares come out as
 1/(1/k_s + 1/k_d + 1)              line of sight,
 (1/k_s)/(1/k_s + 1/k_d + 1)        static reflections,
 (1/k_d)/(1/k_s + 1/k_d + 1)        dynamic scatter.
Tap amplitudes keep exp(j 2 pi f_c tau) as their initial phase; the transfer
function multiplies by exp(-j 2 pi tau (f - f_c)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gbsm import (AntennaArray, GbsmConfig, Taps, _pol_mix, dynamic_cir,
                   ray_taps, spawn_clusters)
from .raytrace import SPEED_OF_LIGHT, Mpc, unit_from_angles

REL_TOL = 1e-12
# elements of one (rays, samples) block of a narrowband series: 1 MiB of
# complex amplitudes, the fastest of the sizes measured from 2**13 to 2**20
_SERIES_BLOCK = 1 << 16


def compose_k(k_s: float, k_d: float) -> float:
    """Combined power ratio from the harmonic law 1/k = 1/k_s + 1/k_d."""
    if not k_s > 0.0 or not k_d > 0.0:
        raise ValueError(f"component ratios must be > 0, got {k_s}, {k_d}")
    inv = 1.0 / k_s + 1.0 / k_d
    return math.inf if inv == 0.0 else 1.0 / inv


def mixing_weights(k_s: float, k_d: float) -> tuple[float, float]:
    """Amplitude weights (static branch, dynamic branch); squares sum to 1."""
    if not k_s > 0.0 or not k_d > 0.0:
        raise ValueError(f"component ratios must be > 0, got {k_s}, {k_d}")
    a = 1.0 / k_s
    b = 1.0 / k_d
    denom = a + b + 1.0
    return math.sqrt((a + 1.0) / denom), math.sqrt(b / denom)


@dataclass(frozen=True)
class KFactors:
    """Validated (k_s, k_d, k) triple; use from_split to build one."""

    k_s: float
    k_d: float
    k: float

    def __post_init__(self):
        if not self.k_s > 0.0 or not self.k_d > 0.0 or not self.k > 0.0:
            raise ValueError("ratios must be > 0")
        lhs = 0.0 if math.isinf(self.k) else 1.0 / self.k
        rhs = (0.0 if math.isinf(self.k_s) else 1.0 / self.k_s) \
            + (0.0 if math.isinf(self.k_d) else 1.0 / self.k_d)
        if abs(lhs - rhs) > REL_TOL * max(abs(lhs), abs(rhs), 1e-300):
            raise ValueError(f"1/k = {lhs} does not match 1/k_s + 1/k_d = {rhs}")

    @classmethod
    def from_split(cls, k_s: float, k_d: float) -> "KFactors":
        return cls(k_s, k_d, compose_k(k_s, k_d))


@dataclass
class ChannelSnapshot:
    """Per-antenna-pair taps at one time instant, sorted by delay."""

    t: float
    location: tuple
    taps: dict

    def pair(self, v: int = 0, u: int = 0) -> Taps:
        return self.taps[(v, u)]


def static_branch_split(k_s: float, has_los: bool, has_nlos: bool) -> tuple[float, float]:
    """Amplitude weights (LoS, static NLoS) inside the unit-power static part.

    An absent branch hands its weight to the other one so the static part
    keeps unit power (degenerate normalization).
    """
    if not k_s > 0.0:
        raise ValueError(f"k_s must be > 0, got {k_s}")
    if not has_nlos:
        return (1.0 if has_los else 0.0), 0.0
    if not has_los:
        return 0.0, 1.0
    a = 1.0 / k_s
    return math.sqrt(1.0 / (a + 1.0)), math.sqrt(a / (a + 1.0))


def _los_gain(mpc: Mpc, f_tx, f_rx) -> complex:
    tv, th = f_tx
    rv, rh = f_rx
    return complex(rv * tv * np.exp(1j * mpc.phases[0])
                   + rh * th * np.exp(1j * mpc.phases[3]))


def static_cir(mpcs, tx_array: AntennaArray, rx_array: AntennaArray,
               k_s: float, frequency: float, mu: float = 1.0) -> dict:
    """Static-part taps per antenna pair from traced path records.

    Reflected-path powers renormalize to unit branch power; the LoS branch
    is unit power by itself.  Per-element delays shift by the plane-wave
    projection of the element offsets on the departure/arrival directions.
    """
    mpcs = list(mpcs)
    los = [m for m in mpcs if m.is_los]
    nlos = [m for m in mpcs if not m.is_los]
    if len(los) > 1:
        raise ValueError(f"expected at most one line-of-sight path, got {len(los)}")
    w_los, w_nlos = static_branch_split(k_s, bool(los), bool(nlos))

    ordered = los + nlos
    weights = np.array([w_los] * len(los)
                       + list(w_nlos * np.sqrt(_normalized_powers(nlos))))
    pairs = {}
    if not ordered:
        return {(v, u): Taps.empty()
                for v in range(tx_array.n_elements)
                for u in range(rx_array.n_elements)}

    delays = np.array([m.delay for m in ordered])
    aod_el = np.array([m.aod[0] for m in ordered])
    aod_az = np.array([m.aod[1] for m in ordered])
    aoa_el = np.array([m.aoa[0] for m in ordered])
    aoa_az = np.array([m.aoa[1] for m in ordered])
    s_tx = unit_from_angles(aod_el, aod_az)
    s_rx = unit_from_angles(aoa_el, aoa_az)
    phases = np.array([m.phases for m in ordered])
    xpr = np.array([m.xpr for m in ordered])
    kinds = tuple(m.kind for m in ordered)

    for v in range(tx_array.n_elements):
        l_v = tx_array.element_offset(v)
        f_tx = tx_array.pattern(aod_el, aod_az)
        for u in range(rx_array.n_elements):
            l_u = rx_array.element_offset(u)
            f_rx = rx_array.pattern(aoa_el, aoa_az)
            tau = delays - (s_tx @ l_v + s_rx @ l_u) / SPEED_OF_LIGHT
            gains = _pol_mix(f_rx, f_tx, phases, xpr, mu)
            if los:
                gains = gains.copy()
                gains[0] = _los_gain(los[0], (f_tx[0][0], f_tx[1][0]),
                                     (f_rx[0][0], f_rx[1][0]))
            amps = weights * gains * np.exp(2j * math.pi * frequency * tau)
            order = np.argsort(tau, kind="stable")
            pairs[(v, u)] = Taps(tau[order], amps[order],
                                 tuple(kinds[i] for i in order))
    return pairs


def _normalized_powers(mpcs) -> np.ndarray:
    if not mpcs:
        return np.zeros(0)
    p = np.array([m.power for m in mpcs], dtype=float)
    total = p.sum()
    if total <= 0.0:
        raise ValueError("static reflected paths carry no power")
    return p / total


def combine_cir(h_static: dict, h_dynamic: dict, k: KFactors,
                t: float = 0.0, location=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
                ) -> ChannelSnapshot:
    """Weight the unit-power branches and merge them delay-sorted.

    The static weight is above 0 for every k_s; the dynamic one is 0 when
    k_d is infinite, and then the dynamic branch contributes no taps.
    """
    w_s, w_d = mixing_weights(k.k_s, k.k_d)
    keys = set(h_static) | set(h_dynamic)
    if h_static and h_dynamic and set(h_static) != set(h_dynamic):
        raise ValueError("static and dynamic parts cover different antenna pairs")
    taps = {}
    for key in sorted(keys):
        stat = h_static.get(key, Taps.empty())
        dyn = h_dynamic.get(key, Taps.empty())
        dyn = dyn.scaled(w_d) if w_d != 0.0 else Taps.empty()
        taps[key] = stat.scaled(w_s).merged(dyn)
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


@dataclass
class ChannelModel:
    """Static path set plus the stochastic generator for one link.

    This is the state every statistics routine operates on: the frozen
    traced paths, the power split, the cluster generator configuration and
    the terminal arrays.  Static taps are synthesized once and cached.
    """

    static_mpcs: tuple
    k: KFactors
    gbsm: GbsmConfig
    tx_array: AntennaArray = field(default_factory=AntennaArray)
    rx_array: AntennaArray = field(default_factory=AntennaArray)
    location: tuple = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    _static_cache: dict | None = field(default=None, repr=False, compare=False)

    def static_taps(self) -> dict:
        if self._static_cache is None:
            self._static_cache = static_cir(
                self.static_mpcs, self.tx_array, self.rx_array,
                self.k.k_s, self.gbsm.carrier_frequency,
                mu=self.gbsm.copolar_imbalance)
        return self._static_cache

    def spawn(self, seed: int | None = None):
        cfg = self.gbsm if seed is None else self.gbsm.with_overrides(seed=seed)
        return spawn_clusters(cfg, self.location)

    def reseeded(self, seed: int) -> "ChannelModel":
        """Copy of this model whose stochastic part uses another seed."""
        return ChannelModel(self.static_mpcs, self.k,
                            self.gbsm.with_overrides(seed=int(seed)),
                            self.tx_array, self.rx_array, self.location)

    def snapshot(self, t: float, seed: int | None = None) -> ChannelSnapshot:
        clusters = self.spawn(seed)
        dyn = dynamic_cir(clusters, self.tx_array, self.rx_array, t, self.gbsm)
        return combine_cir(self.static_taps(), dyn, self.k,
                           t=t, location=self.location)

    def narrowband_series(self, t_grid, seed: int | None = None,
                          pair: tuple[int, int] = (0, 0)) -> np.ndarray:
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
        if np.any(t_grid < 0.0):
            raise ValueError("times must be >= 0")
        w_s, w_d = mixing_weights(self.k.k_s, self.k.k_d)
        static_sum = complex(self.static_taps()[pair].amps.sum()) * w_s

        clusters = self.spawn(seed)
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
