"""Correlation functions, power spectra, spreads, and level crossing rates.

All second-order statistics descend from one correlation definition

    R(offsets) = E[ H*(base) H(base + offsets) ]

with offsets in transmit element spacing, receive element spacing, time,
frequency, and receiver location.  One kernel, `_corr_grid`, evaluates it
for `stfcf`, `fcf_closed_form`, `angular_psd` and `doppler_psd`.  The
line-of-sight and static-reflection branches are evaluated in closed form
(their only randomness, the frozen initial phases, drops diagonal terms);
the dynamic branch is averaged over seeded cluster ensembles.  With these
conventions the frequency correlation of a tap set is
sum_k P_k exp(-j 2 pi df tau_k), its delay spectrum is the inverse
transform with kernel exp(+j 2 pi tau df) peaking at the true delays, and a
cluster receding from both ends shows a negative mean Doppler.

Spectra from finite lag windows are Hann-tapered and mass-rebinned onto a
fixed support, so total mass equals the zero-lag correlation exactly; a
pure tone concentrates in the bin containing it up to the documented
resolution floor (about a third of a bin width in rms terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gbsm import ray_delays
from .hybrid import ChannelModel, KFactors, _static_paths, rician_params
from .raytrace import SPEED_OF_LIGHT, unit_from_angles

DEFAULT_ENSEMBLE = 200


# ---------------------------------------------------------------------------
# containers

def _check_evaluation(ensemble: int, t: float, dt=0.0) -> None:
    """Reject an empty ensemble and evaluation times t + dt before zero."""
    if ensemble < 1:
        raise ValueError(f"ensemble must be >= 1, got {ensemble}")
    if t < 0.0 or np.any(t + np.asarray(dt) < 0.0):
        raise ValueError("evaluation times must be >= 0")


@dataclass(frozen=True)
class CorrelationQuery:
    """Offsets for one correlation evaluation.

    dr_t / dr_r displace the transmit / receive element along the array
    axis (meters), dt and df offset time and frequency, dloc displaces the
    receiver location.  `t` and `f` set the evaluation point (f = None means
    the carrier); `ensemble` sizes the Monte-Carlo average of the dynamic
    branch.
    """

    dr_t: float = 0.0
    dr_r: float = 0.0
    dt: float = 0.0
    df: float = 0.0
    dloc: tuple[float, float, float] = (0.0, 0.0, 0.0)
    t: float = 0.0
    f: float | None = None
    ensemble: int = DEFAULT_ENSEMBLE

    def __post_init__(self):
        _check_evaluation(self.ensemble, self.t, self.dt)


@dataclass(frozen=True)
class Psd:
    """Discrete one-dimensional power density on a strictly increasing grid.

    `clipped` reports mass that was discarded: negative estimation ripple
    and, for angular spectra, leakage outside the visible region.
    """

    support: np.ndarray
    density: np.ndarray
    clipped: float = 0.0

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        density = np.asarray(self.density, dtype=float)
        if support.ndim != 1 or support.shape != density.shape or len(support) < 2:
            raise ValueError("support and density must be matching 1-D arrays")
        if np.any(np.diff(support) <= 0.0):
            raise ValueError("support must be strictly increasing")
        if np.any(density < 0.0):
            raise ValueError("density must be non-negative")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "density", density)

    @property
    def mass(self) -> float:
        return float(np.sum(self.density * np.gradient(self.support)))


@dataclass(frozen=True)
class LcrInputs:
    """Envelope process summary feeding the crossing-rate formula.

    k is the coherent-to-diffuse power ratio (0 for pure diffuse).  b0, b1,
    b2 are the zeroth to second spectral moments of the diffuse correlation,
    differentiated against one lag variable; rates come out per unit of that
    variable.
    """

    k: float
    b0: float
    b1: float
    b2: float

    def __post_init__(self):
        if self.k < 0.0:
            raise ValueError("k must be >= 0")
        if not self.b0 > 0.0:
            raise ValueError("b0 must be > 0")
        if self.b2 < 0.0:
            raise ValueError("b2 must be >= 0")
        scale = max(self.b0 * self.b2, self.b1 * self.b1, 1e-300)
        if self.b0 * self.b2 - self.b1 * self.b1 < -1e-9 * scale:
            raise ValueError("b0*b2 - b1^2 must be >= 0")


# ---------------------------------------------------------------------------
# branch correlations

def branch_power_coefficients(k: KFactors, has_los: bool, has_nlos: bool
                              ) -> tuple[float, float, float]:
    """Power shares (LoS, static reflections, dynamic).

    Matches the synthesis path exactly, including the degenerate
    normalization when a static sub-branch is absent.  The shares sum to
    one whenever at least one static path exists; with no static path at
    all the static power is dropped and the sum is the dynamic share w_d².
    """
    w_s, w_d = k.branch_weights
    a_l, a_s = k.static_split(has_los, has_nlos)
    return (w_s * a_l) ** 2, (w_s * a_s) ** 2, w_d ** 2


def _ensemble_seed(base_seed: int, member: int) -> int:
    ss = np.random.SeedSequence([base_seed & 0xFFFFFFFFFFFFFFFF, 0xC0FFEE, member])
    return int(ss.generate_state(1, np.uint64)[0])


def _offset_grids(*offsets) -> list[np.ndarray]:
    """Broadcast scalar or 1-D offsets to one grid of Q points."""
    arrays = [np.asarray(x, dtype=float) for x in offsets]
    q = max(a.size for a in arrays)
    if any(a.ndim and len(a) != q for a in arrays):
        raise ValueError("offset grids must share one length")
    return [np.broadcast_to(a, (q,)) for a in arrays]


def _dynamic_corr_grid(model: ChannelModel, dr_t, dr_r, dt, df, dloc,
                       t: float = 0.0, f=None,
                       ensemble: int = DEFAULT_ENSEMBLE) -> np.ndarray:
    """Monte-Carlo dynamic branch correlation over offset grids.

    All offsets share one cluster ensemble, so differences across the grid
    (finite-difference derivatives, lag spectra) stay smooth.
    """
    dr_t, dr_r, dt, df = _offset_grids(dr_t, dr_r, dt, df)
    q = len(df)
    fc = model.gbsm.carrier_frequency
    f_base = fc if f is None else f
    if model.gbsm.n_clusters == 0:
        return np.zeros(q, dtype=complex)

    # offset side: elements displaced along the axes, rx moved by dloc
    off_t = model.tx_array.axis[None, :] * dr_t[:, None]
    off_r = model.rx_array.axis[None, :] * dr_r[:, None] + dloc
    origin = np.zeros(3)
    acc = np.zeros(q, dtype=complex)
    for member in range(ensemble):
        clusters = model.spawn(_ensemble_seed(model.gbsm.seed, member))
        tau0 = ray_delays(clusters, t, (0.0,), origin, origin)[0]
        tau1 = ray_delays(clusters, t, dt, off_t, off_r)[0]
        phase = tau1 * (2.0 * fc - f_base - df)[None, :] \
            - tau0 * (2.0 * fc - f_base)
        acc += clusters.ray_power.reshape(-1) @ np.exp(2j * math.pi * phase)
    return acc / ensemble


def _corr_grid(model: ChannelModel, dr_t, dr_r, dt, df, dloc=(0.0, 0.0, 0.0),
               t=0.0, f=None, ensemble=DEFAULT_ENSEMBLE) -> np.ndarray:
    """Branch-weighted correlation R(offsets) over grids of offsets.

    dr_t, dr_r, dt and df are scalars or 1-D grids of one length Q; dloc is
    one (3,) receiver displacement.  The LoS and static-reflection branches
    are exact sums over the frozen paths, each path displaced in delay by
    its projection on the offsets; the dynamic branch is averaged over
    `ensemble` seeded cluster sets.
    """
    _check_evaluation(ensemble, t, dt)
    dr_t, dr_r, dt, df = _offset_grids(dr_t, dr_r, dt, df)
    fc = model.gbsm.carrier_frequency
    f_base = fc if f is None else f
    los, refl, p = _static_paths(model.static_mpcs)
    c_l, c_s, c_d = branch_power_coefficients(model.k, bool(los), bool(refl))
    r_los = r_refl = np.zeros(len(df), dtype=complex)
    mpcs = los + refl
    if mpcs:
        taus = np.array([m.delay for m in mpcs])[:, None]
        s_t = unit_from_angles(*np.array([m.aod for m in mpcs]).T)
        s_r = unit_from_angles(*np.array([m.aoa for m in mpcs]).T)
        shift = (np.outer(s_t @ model.tx_array.axis, dr_t)
                 + np.outer(s_r @ model.rx_array.axis, dr_r)
                 + (s_r @ dloc)[:, None]) / SPEED_OF_LIGHT
        # (tau - shift)(2 f_c - f - df) - tau (2 f_c - f), without the two
        # products of size tau f_c that cancel
        phase = -shift * (2.0 * fc - f_base - df)[None, :] - taus * df[None, :]
        paths = np.exp(2j * math.pi * phase)
        r_los = np.ones(len(los)) @ paths[:len(los)]
        r_refl = p @ paths[len(los):]
    out = c_l * r_los + c_s * r_refl
    if c_d > 0.0:
        out = out + c_d * _dynamic_corr_grid(model, dr_t, dr_r, dt, df, dloc,
                                             t=t, f=f, ensemble=ensemble)
    return out


def stfcf(model: ChannelModel, query: CorrelationQuery) -> complex:
    """Space-time-frequency correlation at one offset tuple.

    Branch-weighted sum of the closed-form static correlations and the
    Monte-Carlo dynamic correlation.  All offsets zero gives the summed
    branch powers: 1 exactly when the model has a static path, w_d² when it
    has none (see `branch_power_coefficients`).
    """
    return complex(_corr_grid(model, query.dr_t, query.dr_r, query.dt, query.df,
                              query.dloc, query.t, query.f, query.ensemble)[0])


def fcf_closed_form(model: ChannelModel, df_grid, t: float = 0.0,
                    ensemble: int = DEFAULT_ENSEMBLE) -> np.ndarray:
    """Frequency correlation over a grid of frequency offsets.

    Static parts are exact tap sums sum_k P_k exp(-j 2 pi df tau_k); the
    dynamic part averages the same expression over cluster ensembles.
    FCF(0) = 1 exactly when the model has a static path; with none it is
    the dynamic share w_d² (see `branch_power_coefficients`).
    """
    return _corr_grid(model, 0.0, 0.0, 0.0, df_grid, t=t, ensemble=ensemble)


# ---------------------------------------------------------------------------
# spectra

def delay_psd(fcf_values, df_grid) -> Psd:
    """Delay power density as the inverse transform of frequency correlation.

    The grid must be uniform and aligned to its spacing (it normally
    contains df = 0).  Delays come out on the conjugate grid
    tau_j = j / (N step); total mass equals the zero-offset correlation.
    """
    values = np.asarray(fcf_values, dtype=complex)
    df_grid = np.asarray(df_grid, dtype=float)
    if values.shape != df_grid.shape or values.ndim != 1 or len(values) < 2:
        raise ValueError("need matching 1-D fcf and offset arrays")
    steps = np.diff(df_grid)
    step = steps[0]
    if step <= 0.0 or np.any(np.abs(steps - step) > 1e-9 * step):
        raise ValueError("frequency offsets must be uniformly spaced ascending")
    ratio = df_grid[0] / step
    if abs(ratio - round(ratio)) > 1e-6:
        raise ValueError("frequency offset grid must be aligned to its spacing")
    n = len(values)
    taus = np.arange(n) / (n * step)
    spectrum = np.fft.ifft(values) * n * step
    density = np.real(spectrum * np.exp(2j * math.pi * taus * df_grid[0]))
    clipped = -float(np.sum(density[density < 0.0])) / (n * step)
    density = np.maximum(density, 0.0)
    return Psd(taus, density, clipped=clipped)


def rms_spread(psd: Psd, circular: bool = False) -> float:
    """Root second central moment of a density; circular mean for angles."""
    w = psd.density * np.gradient(psd.support)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("density carries no mass")
    x = psd.support
    if circular:
        mean = math.atan2(float(np.sum(w * np.sin(x))), float(np.sum(w * np.cos(x))))
        dev = np.mod(x - mean + math.pi, 2.0 * math.pi) - math.pi
        return float(np.sqrt(np.sum(w * dev ** 2) / total))
    mean = float(np.sum(w * x) / total)
    return float(np.sqrt(np.sum(w * (x - mean) ** 2) / total))


def _lag_spectrum_masses(lags: np.ndarray):
    """Hann-windowed DTFT of a Hermitian lag sequence, as bin masses.

    `lags` holds R(0), R(1 step), ...  Returns (nu_centers, masses) on the
    normalized frequency circle [-1/2, 1/2); masses sum to R(0) exactly
    before any clamping (the window is 1 at lag zero).  Negative ripple is
    clamped and returned separately.
    """
    n = len(lags)
    if n < 2:
        raise ValueError("need at least two lags")
    window = 0.5 * (1.0 + np.cos(np.pi * np.arange(n) / n))
    weighted = lags * window
    m = 8 * (2 * n - 1)
    # place lags q = 0..n-1 and q = -(n-1)..-1 on the length-m circle, so
    # m * ifft evaluates sum_q w_q R_q exp(+j 2 pi nu q) per fine bin
    circle = np.zeros(m, dtype=complex)
    circle[:n] = weighted
    circle[m - (n - 1):] = np.conj(weighted[1:][::-1])
    masses = np.real(np.fft.fftshift(np.fft.ifft(circle)))  # ifft's 1/m: bin measure
    nu = (np.arange(m) - m // 2) / m
    clipped = -float(np.sum(masses[masses < 0.0]))
    masses = np.maximum(masses, 0.0)
    return nu, masses, clipped


def _rebin(positions: np.ndarray, masses: np.ndarray, grid: np.ndarray):
    """Accumulate masses into the grid bins containing each position.

    Returns (density, spilled) where spilled is mass outside the grid span.
    """
    width = np.diff(grid)
    edges = np.concatenate([[grid[0] - width[0] / 2.0],
                            (grid[:-1] + grid[1:]) / 2.0,
                            [grid[-1] + width[-1] / 2.0]])
    idx = np.searchsorted(edges, positions, side="right") - 1
    inside = (idx >= 0) & (idx < len(grid))
    binned = np.bincount(idx[inside], weights=masses[inside], minlength=len(grid))
    spilled = float(masses[~inside].sum())
    return binned / np.gradient(grid), spilled


def angular_psd(model: ChannelModel, n_lags: int = 64, ensemble: int = 64,
                t: float = 0.0) -> Psd:
    """Arrival power density over the cone angle around the receive axis.

    Built from the spatial correlation sampled every quarter wavelength
    along the receive array axis, Hann-windowed, transformed to the
    direction-cosine domain and mass-rebinned onto the angle grid.  A linear
    aperture only resolves the cone angle theta in [0, pi]; the support is
    that angle in radians, in 1-degree bins.
    """
    if model.rx_array.n_elements < 2:
        raise ValueError("angular statistics need a receive array of >= 2 elements")
    grid = np.linspace(0.0, math.pi, 181)
    dr = np.arange(n_lags) * (SPEED_OF_LIGHT / model.gbsm.carrier_frequency) / 4.0
    nu, masses, clipped = _lag_spectrum_masses(
        _corr_grid(model, 0.0, dr, 0.0, 0.0, t=t, ensemble=ensemble))
    # lag phase exp(-j 2 pi q cos/4) meets kernel exp(+j 2 pi q nu), so an
    # arrival at cone angle theta lands at direction cosine 4 nu = cos theta
    cosines = 4.0 * nu
    visible = np.abs(cosines) <= 1.0
    clipped += float(masses[~visible].sum())
    theta = np.arccos(cosines[visible])
    density, spilled = _rebin(theta, masses[visible], grid)
    return Psd(grid, density, clipped=clipped + spilled)


def doppler_psd(model: ChannelModel, duration: float = 0.512, dt: float = 1e-3,
                ensemble: int = 64, t: float = 0.0) -> Psd:
    """Doppler power density from the windowed time correlation.

    Lag spacing dt bounds the support to [-1/(2 dt), 1/(2 dt)); bins of
    4/(L dt) make a pure tone concentrate in one bin.  A receding cluster
    produces negative Doppler.
    """
    if not duration > 0.0 or not dt > 0.0:
        raise ValueError(f"duration and dt must be > 0, got {duration}, {dt}")
    lags_t = np.arange(max(2, int(round(duration / dt)))) * dt
    return doppler_psd_from_lags(
        _corr_grid(model, 0.0, 0.0, lags_t, 0.0, t=t, ensemble=ensemble), dt)


def doppler_psd_from_lags(lags, dt: float) -> Psd:
    """Doppler density from an explicit time-correlation lag sequence."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    lags = np.asarray(lags, dtype=complex)
    step = 4.0 / (len(lags) * dt)
    half = max(1, int(math.floor((0.5 / dt) / step)))
    grid = np.arange(-half, half + 1) * step
    if np.all(lags == lags[0]):
        # constant correlation: the spectrum is a pure zero-shift line
        density, spilled = _rebin(np.zeros(1), np.array([lags[0].real]), grid)
        return Psd(grid, density, clipped=spilled)
    nu, masses, clipped = _lag_spectrum_masses(lags)
    density, spilled = _rebin(nu / dt, masses, grid)
    return Psd(grid, density, clipped=clipped + spilled)


# ---------------------------------------------------------------------------
# level crossings

def lcr_analytic(inputs: LcrInputs, levels, n_quad: int = 200) -> np.ndarray:
    """Mean upward crossing rate at each envelope level.

    Levels are relative to the rms envelope.  Rates are per unit of the lag
    variable behind the spectral moments (per meter for spatial lags, per
    second for time lags).  The K = 0 limit reduces to the Rayleigh closed
    form sqrt(2 pi) f R exp(-R^2) for isotropic moments.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if np.any(levels < 0.0):
        raise ValueError("levels must be >= 0")
    k = inputs.k
    b0, b1, b2 = inputs.b0, inputs.b1, inputs.b2
    det = b0 * b2 - b1 * b1
    spread2 = b2 / b0 - (b1 / b0) ** 2
    if spread2 < 0.0:
        raise ValueError("invalid moments: b2/b0 < (b1/b0)^2")
    chi_num = k * b1 * b1
    if chi_num > 0.0 and det <= 0.0:
        raise ValueError("degenerate moments: b0*b2 == b1^2 with k > 0")
    chi = math.sqrt(chi_num / det) if chi_num > 0.0 else 0.0

    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    theta = 0.25 * math.pi * (nodes + 1.0)
    w = 0.25 * math.pi * weights
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    erf_t = np.array([math.erf(x) for x in chi * sin_t])
    cross = np.exp(-(chi * sin_t) ** 2) + math.sqrt(math.pi) * chi * sin_t * erf_t

    r = levels[:, None]
    decay = k + (k + 1.0) * r ** 2
    arg = 2.0 * math.sqrt(k * (k + 1.0)) * r * cos_t[None, :]
    integrand = 0.5 * (np.exp(arg - decay) + np.exp(-arg - decay))
    integral = (integrand * cross[None, :]) @ w
    rate = (2.0 * levels * math.sqrt(k + 1.0) / math.pi ** 1.5) \
        * math.sqrt(spread2) * integral
    return rate


def lcr_empirical(envelope, level: float, duration: float) -> float:
    """Upward crossings of `level` per unit duration in a sampled envelope."""
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    env = np.asarray(envelope, dtype=float)
    if env.ndim != 1 or len(env) < 2:
        raise ValueError("envelope must be a 1-D series of >= 2 samples")
    crossings = int(np.count_nonzero((env[:-1] < level) & (env[1:] >= level)))
    return crossings / duration


def lcr_time_inputs(model: ChannelModel, t: float = 0.0,
                    ensemble: int = 256) -> LcrInputs:
    """Crossing-rate inputs for the narrowband envelope over time.

    In time, every static path is frozen, so the coherent amplitude is the
    full static phasor sum and only the dynamic branch is diffuse.  The
    moments are therefore taken from the dynamic correlation alone, and k
    is the realized coherent-to-diffuse power ratio of antenna pair (0, 0),
    not the line-of-sight ratio.  The moments come from the correlation at
    lags 0 and the time over which the clusters move a hundredth of a
    wavelength.  Rates from these inputs are per second.
    """
    amp, sigma2 = rician_params(model.snapshot(0.0))
    if sigma2 <= 0.0:
        raise ValueError("no diffuse power: envelope never crosses")
    k = abs(amp) ** 2 / (2.0 * sigma2)
    speed = model.gbsm.cluster_speed
    if speed <= 0.0:
        raise ValueError("time statistics need a positive cluster speed")
    step = SPEED_OF_LIGHT / model.gbsm.carrier_frequency / (100.0 * speed)
    _check_evaluation(ensemble, t)
    r = _dynamic_corr_grid(model, 0.0, 0.0, np.array([0.0, step]), 0.0,
                           (0.0, 0.0, 0.0), t=t, ensemble=ensemble)
    # spectral moments from the correlation at lags 0 and step
    b0 = float(np.real(r[0]))
    b1 = float(np.imag(r[1])) / step
    b2 = 2.0 * (b0 - float(np.real(r[1]))) / step ** 2
    return LcrInputs(k=k, b0=b0, b1=b1, b2=max(b2, 0.0))


# ---------------------------------------------------------------------------
# empirical distribution

def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Right-continuous empirical distribution as (values, probabilities)."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("need a non-empty 1-D sample array")
    values, counts = np.unique(arr, return_counts=True)
    return values, np.cumsum(counts) / len(arr)
