"""Correlation functions, power spectra, spreads, and level crossing rates.

All second-order statistics descend from one correlation definition

    R(offsets) = E[ H*(base) H(base + offsets) ]

with offsets in transmit element spacing, receive element spacing, time,
frequency, and receiver location.  One kernel, `stfcf`, evaluates it
over grids of offsets, and `fcf_closed_form`, `angular_psd` and
`doppler_psd` each call it with one grid.  The
line-of-sight and static-reflection branches are evaluated in closed form
(their only randomness, the frozen initial phases, drops diagonal terms);
the dynamic branch is averaged over seeded cluster ensembles, drawn in
member blocks and worked in tiles of at most `_SERIES_BLOCK` elements per
array.  A uniform frequency grid with no other offset takes one
exponential per ray and a running product; every other grid takes the ray
delays of each grid point's offsets and its unit phasors from a
1024-entry table and a short series (`_phasor`), not from libm's complex
exp.  Sums run in ray and then member order, so no result depends on the
block or tile sizes.  With these
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

from .gbsm import _draw_clusters, ray_delays
from .hybrid import _SERIES_BLOCK, ChannelModel, KFactors, rician_params
from .raytrace import SPEED_OF_LIGHT, _point, unit_from_angles
from .scene import _integer, _number

DEFAULT_ENSEMBLE = 200


# ---------------------------------------------------------------------------
# containers

def _check_evaluation(ensemble: int, t: float, dt=0.0) -> None:
    """Reject a bad ensemble count, a time t that is not a finite number >= 0
    and times t + dt that are not finite and >= 0."""
    _integer("ensemble", ensemble, 1)
    times = _number("t", t, 0.0) + np.asarray(dt, dtype=float)
    if not ((0.0 <= times) & (times < math.inf)).all():
        raise ValueError("evaluation times must be >= 0 and finite")


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
        if not (np.isfinite(support).all() and np.isfinite(density).all()):
            raise ValueError("support and density must be finite")
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
        for name, low, strict in (("k", 0.0, False), ("b0", 0.0, True),
                                  ("b1", -math.inf, False), ("b2", 0.0, False)):
            object.__setattr__(self, name, _number(name, getattr(self, name), low, strict))
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
    if any(a.ndim > 1 or a.ndim and len(a) != q for a in arrays):
        raise ValueError("offsets must be scalars or 1-D grids of one length")
    return [np.broadcast_to(a, (q,)) for a in arrays]


def _dynamic_corr_grid(model: ChannelModel, dr_t, dr_r, dt, df, dloc,
                       t: float = 0.0, f=None,
                       ensemble: int = DEFAULT_ENSEMBLE) -> np.ndarray:
    """Monte-Carlo dynamic branch correlation over offset grids.

    All offsets share one cluster ensemble, so differences across the grid
    (finite-difference derivatives, lag spectra) stay smooth.
    """
    dr_t, dr_r, dt, df = _offset_grids(dr_t, dr_r, dt, df)
    cfg = model.gbsm
    fc = cfg.carrier_frequency
    f_base = fc if f is None else f
    if cfg.n_clusters == 0:
        return np.zeros(len(df), dtype=complex)

    # a (dt, tx offset, rx offset) column per grid point; rx moved by dloc
    columns = np.column_stack([dt, model.tx_array.axis * dr_t[:, None],
                               model.rx_array.axis * dr_r[:, None] + dloc])
    steps = np.diff(df)
    geometric = not columns.any() and bool(np.all(steps == steps[:1]))
    rays = cfg.n_clusters * cfg.rays_per_cluster
    block = max(1, _SERIES_BLOCK // (3 * rays * (1 if geometric else len(df))))
    acc = np.zeros(len(df), dtype=complex)
    for lo in range(0, ensemble, block):
        seeds = [_ensemble_seed(cfg.seed, e) for e in range(lo, min(lo + block, ensemble))]
        clusters = _draw_clusters(cfg, seeds, model.location)
        power = clusters.ray_power.reshape(-1)
        tau0 = ray_delays(clusters, t, (0.0,), np.zeros(3), np.zeros(3))[:, 0]
        if geometric:
            terms = _geometric_terms(tau0, df[0], steps[0] if len(steps) else 0.0, len(df))
        else:
            terms = _phase_terms(clusters, tau0, t, columns,
                                 2.0 * fc - f_base - df, 2.0 * fc - f_base)
        sums = np.empty((len(df), len(seeds)), dtype=complex)
        for points, x in terms:  # (grid points, rays of every member)
            x = x * power
            sums[points] = x.reshape(len(x), len(seeds), rays).sum(axis=2)
        for row in sums.T:
            acc += row
    return acc / ensemble


def _geometric_terms(tau, df0: float, step: float, q: int):
    """Rows exp(-2j pi tau (df0 + k step)), k < q, each a view the next overwrites.

    One exponential per ray starts the rows, then a running product.
    """
    ratio = np.exp(-2j * math.pi * (tau * step))
    x = np.exp(-2j * math.pi * (tau * df0))
    for k in range(q):
        yield k, x[None, :]
        x *= ratio


def _phase_terms(clusters, tau0, t: float, columns, gain, base: float):
    """Tiles of exp(2j pi (tau1 gain - tau0 base)), tau1 at each point's column.

    The delays of a tile are computed straight from its columns, and the
    unit phasors by `_phasor`.
    """
    width = max(1, _SERIES_BLOCK // (3 * len(tau0)))
    for lo in range(0, len(columns), width):
        points = slice(lo, lo + width)
        c = columns[points]
        phase = ray_delays(clusters, t, c[:, 0], c[:, 1:4], c[:, 4:7]).T
        phase *= gain[points, None]
        phase -= tau0 * base
        yield points, _phasor(phase)


# exp(2j pi k / 1024), k < 1024: one quadrant from exp, the other three from
# it exactly, as products with j, -1 and -j
_QUARTER = np.exp(1j * (np.arange(256) * (math.pi / 512)))
_TURNS = np.concatenate([_QUARTER, 1j * _QUARTER, -_QUARTER, -1j * _QUARTER])
# cos and sin of a r, a = 2 pi / 1024, as series in r: the first omitted
# terms are below (pi / 1024)**6 / 720 < 2e-18 for |r| <= 1/2
_A = math.pi / 512
_C2, _C4 = -_A ** 2 / 2, _A ** 4 / 24
_S1, _S3, _S5 = _A, -_A ** 3 / 6, _A ** 5 / 120


def _phasor(cycles: np.ndarray) -> np.ndarray:
    """exp(2j pi cycles), table-driven (Tang, ACM TOMS 1989).

    1024 cycles = k + r, with k = rint(1024 cycles): the scaling and the
    subtraction are exact, and |r| <= 1/2.  The result is the table entry
    exp(2j pi k / 1024) times a cos/sin series in r.  It is within 2e-15 of
    `np.exp(2j * pi * (cycles - rint(cycles)))` with |z| within 4e-16 of
    1, and it costs a fraction of libm's complex exp.  Past |cycles| of
    2**52 every float is whole and the result is 1.
    """
    r = np.clip(cycles, -2.0 ** 52, 2.0 ** 52)
    r *= 1024.0
    k = np.rint(r)
    r -= k
    index = k.astype(np.intp)
    z = _TURNS.take(np.bitwise_and(index, 1023, out=index))
    del index
    # the series by Horner's rule on contiguous arrays, reusing buffers:
    # u = r r in k's, sin r (...) in r's, cos in one more
    u = np.multiply(r, r, out=k)
    t = u * _S5
    t += _S3
    t *= u
    t += _S1
    r *= t
    np.multiply(u, _C4, out=t)
    t += _C2
    t *= u
    t += 1.0
    w = np.empty(r.shape, dtype=complex)
    w.real = t
    w.imag = r
    z *= w
    return z


def stfcf(model: ChannelModel, dr_t=0.0, dr_r=0.0, dt=0.0, df=0.0,
          dloc=(0.0, 0.0, 0.0), t=0.0, f=None,
          ensemble: int = DEFAULT_ENSEMBLE) -> np.ndarray:
    """Space-time-frequency correlation R(offsets), (Q,) over offset grids.

    dr_t / dr_r displace the transmit / receive element along the array
    axis (meters), dt and df offset time and frequency; each is a scalar or
    a 1-D grid of one length Q, and scalars alone give Q = 1.  dloc is one
    finite (3,) receiver displacement, `t` and `f` the evaluation point
    (f = None means the carrier).  The LoS and static-reflection branches
    are exact sums over the frozen paths, each path displaced in delay by
    its projection on the offsets; the dynamic branch is averaged over
    `ensemble` seeded cluster sets.  All offsets zero gives the summed
    branch powers: 1 exactly when the model has a static path, w_d² when it
    has none (see `branch_power_coefficients`).
    """
    _check_evaluation(ensemble, t, dt)
    dr_t, dr_r, dt, df = _offset_grids(dr_t, dr_r, dt, df)
    for name, grid in (("dr_t", dr_t), ("dr_r", dr_r), ("df", df)):
        bad = grid[~np.isfinite(grid)]
        if len(bad):
            raise ValueError(f"{name} must be finite, got {bad[0]}")
    dloc = _point("dloc", dloc)
    fc = model.gbsm.carrier_frequency
    f_base = fc if f is None else _number("f", f, 0.0, strict=True)
    n_los, paths, share = model.static_mpcs.branches()
    c_l, c_s, c_d = branch_power_coefficients(model.k, n_los > 0, len(paths) > n_los)
    s_t = unit_from_angles(*paths.aod.T)
    s_r = unit_from_angles(*paths.aoa.T)
    shift = (np.outer(s_t @ model.tx_array.axis, dr_t)
             + np.outer(s_r @ model.rx_array.axis, dr_r)
             + (s_r @ dloc)[:, None]) / SPEED_OF_LIGHT
    # (tau - shift)(2 f_c - f - df) - tau (2 f_c - f), without the two
    # products of size tau f_c that cancel
    phase = -shift * (2.0 * fc - f_base - df)[None, :] - paths.delay[:, None] * df[None, :]
    terms = np.exp(2j * math.pi * phase)  # (paths, grid points), LoS first
    r_los = share[:n_los] @ terms[:n_los]
    r_refl = share[n_los:] @ terms[n_los:]
    out = c_l * r_los + c_s * r_refl
    if c_d > 0.0:
        out = out + c_d * _dynamic_corr_grid(model, dr_t, dr_r, dt, df, dloc,
                                             t=t, f=f, ensemble=ensemble)
    return out


def fcf_closed_form(model: ChannelModel, df_grid, t: float = 0.0,
                    ensemble: int = DEFAULT_ENSEMBLE) -> np.ndarray:
    """Frequency correlation over a grid of frequency offsets.

    Static parts are exact tap sums sum_k P_k exp(-j 2 pi df tau_k); the
    dynamic part averages the same expression over cluster ensembles.
    FCF(0) = 1 exactly when the model has a static path; with none it is
    the dynamic share w_d² (see `branch_power_coefficients`).
    """
    return stfcf(model, df=df_grid, t=t, ensemble=ensemble)


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
    n_lags = _integer("n_lags", n_lags, 2)
    if model.rx_array.n_elements < 2:
        raise ValueError("angular statistics need a receive array of >= 2 elements")
    grid = np.linspace(0.0, math.pi, 181)
    dr = np.arange(n_lags) * (SPEED_OF_LIGHT / model.gbsm.carrier_frequency) / 4.0
    nu, masses, clipped = _lag_spectrum_masses(
        stfcf(model, dr_r=dr, t=t, ensemble=ensemble))
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
    duration = _number("duration", duration, 0.0, strict=True)
    dt = _number("dt", dt, 0.0, strict=True)
    steps = _number("duration / dt", duration / dt, 0.0, strict=True)
    lags_t = np.arange(max(2, int(round(steps)))) * dt
    return doppler_psd_from_lags(
        stfcf(model, dt=lags_t, t=t, ensemble=ensemble), dt)


def doppler_psd_from_lags(lags, dt: float) -> Psd:
    """Doppler density from an explicit time-correlation lag sequence."""
    dt = _number("dt", dt, 0.0, strict=True)
    lags = np.asarray(lags, dtype=complex)
    if lags.ndim != 1 or len(lags) == 0:
        raise ValueError("lags must be a non-empty 1-D sequence")
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
    n_quad = _integer("n_quad", n_quad, 1)
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if not ((0.0 <= levels) & (levels < math.inf)).all():
        raise ValueError("levels must be finite and >= 0")
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
    duration = _number("duration", duration, 0.0, strict=True)
    level = _number("level", level)
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
    _check_evaluation(ensemble, t)
    amp, sigma2 = rician_params(model.snapshot(0.0))
    if sigma2 <= 0.0:
        raise ValueError("no diffuse power: envelope never crosses")
    k = abs(amp) ** 2 / (2.0 * sigma2)
    speed = model.gbsm.cluster_speed
    if speed <= 0.0:
        raise ValueError("time statistics need a positive cluster speed")
    step = SPEED_OF_LIGHT / model.gbsm.carrier_frequency / (100.0 * speed)
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
