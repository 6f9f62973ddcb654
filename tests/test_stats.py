"""Correlation, spectrum, spread, and crossing-rate statistics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c as C0

from dcmkit import Mpc, rician_params, static_cir, stats
from dcmkit.gbsm import _draw_clusters, ray_delays
from dcmkit.raytrace import unit_from_angles
from dcmkit.stats import (LcrInputs, Psd, angular_psd, branch_power_coefficients,
                          delay_psd, doppler_psd, doppler_psd_from_lags,
                          empirical_cdf, fcf_closed_form, lcr_analytic,
                          lcr_empirical, lcr_time_inputs, rms_spread, stfcf)

from conftest import make_model

FC = 5.5e9


def los_mpc(delay=3e-7, az=0.0):
    return Mpc(delay=delay, power=1.0, aod=(0.0, 0.0), aoa=(0.0, az),
               phases=(0.0, 0.0, 0.0, 0.0), xpr=math.inf, kind="los")


def nlos_mpc(delay=4e-7, az=0.3, kind="refl:1"):
    return Mpc(delay=delay, power=0.5, aod=(0.0, az), aoa=(0.0, az),
               phases=(0.1, 0.2, 0.3, 0.4), xpr=6.3, kind=kind)


def two_tap_model(k_s=1.0, k_d=math.inf):
    # LoS at 300 ns plus one reflection at 400 ns
    return make_model([los_mpc(3e-7), nlos_mpc(4e-7)], k_s=k_s, k_d=k_d)


def psd_mean(psd):
    w = psd.density * np.gradient(psd.support)
    return float(np.sum(psd.support * w) / w.sum())


# ---------------------------------------------------------------------------
# containers

def test_fcf_rejects_powerless_reflections():
    model = make_model([los_mpc(), replace(nlos_mpc(), power=0.0)])
    with pytest.raises(ValueError, match="static reflected paths carry no power"):
        fcf_closed_form(model, np.array([0.0, 1e6]), ensemble=2)


def test_stfcf_defaults_and_validation():
    # no displacement and the carrier by default, one point for scalar offsets
    model = two_tap_model(k_s=2.0, k_d=10.0)
    r = stfcf(model, ensemble=2)
    assert r.shape == (1,)
    for kw in ({"dloc": (0.0, 0.0, 0.0), "f": None}, {"f": FC}):
        assert stfcf(model, ensemble=2, **kw).tobytes() == r.tobytes()
    with pytest.raises(ValueError):
        stfcf(model, ensemble=0)
    with pytest.raises(ValueError):
        stfcf(model, t=-1.0)
    with pytest.raises(ValueError):
        stfcf(model, t=1.0, dt=-2.0)
    stfcf(model, t=2.0, dt=-1.0, ensemble=2)


def test_psd_validation_and_mass():
    psd = Psd(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]))
    assert abs(psd.mass - 2.0) < 1e-12
    with pytest.raises(ValueError):
        Psd(np.array([0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Psd(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Psd(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        Psd(np.array([0.0]), np.array([1.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Psd(np.array([0.0, 1.0, bad]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="must be finite"):
            Psd(np.array([0.0, 1.0, 2.0]), np.array([1.0, bad, 1.0]))


def test_lcr_inputs_validation():
    LcrInputs(k=0.0, b0=1.0, b1=0.0, b2=0.0)
    LcrInputs(k=1.0, b0=1.0, b1=2.0, b2=4.0)  # det == 0 is allowed
    with pytest.raises(ValueError):
        LcrInputs(k=-0.1, b0=1.0, b1=0.0, b2=1.0)
    with pytest.raises(ValueError):
        LcrInputs(k=0.0, b0=0.0, b1=0.0, b2=1.0)
    with pytest.raises(ValueError):
        LcrInputs(k=0.0, b0=1.0, b1=0.0, b2=-1.0)
    with pytest.raises(ValueError):
        LcrInputs(k=0.0, b0=1.0, b1=2.0, b2=1.0)
    for bad in ({"k": math.nan}, {"k": math.inf}, {"b0": math.inf}, {"b0": math.nan},
                {"b1": math.nan}, {"b2": math.inf}, {"b2": math.nan}):
        with pytest.raises(ValueError, match="must be finite"):
            LcrInputs(**{"k": 0.0, "b0": 1.0, "b1": 0.0, "b2": 1.0, **bad})


def test_branch_power_coefficients_partition():
    from dcmkit import KFactors
    for k_s, k_d in [(1.0, 1.0), (2.0, 10.0), (5.0, math.inf), (0.3, 0.7)]:
        k = KFactors(k_s, k_d)
        c_l, c_s, c_d = branch_power_coefficients(k, True, True)
        assert abs(c_l + c_s + c_d - 1.0) < 1e-12
        assert abs(c_l / c_s - k_s) < 1e-9 * k_s
    # power assigned to an absent static branch is dropped, matching synthesis
    k = KFactors(2.0, 10.0)
    c_l, c_s, c_d = branch_power_coefficients(k, False, False)
    assert c_l == 0.0 and c_s == 0.0
    assert abs(c_d - k.branch_weights[1] ** 2) < 1e-15


MALFORMED_STATIC = [
    ("two LoS paths", [los_mpc(3e-7), nlos_mpc(4e-7), los_mpc(5e-7)],
     "expected at most one line-of-sight path, got 2"),
    ("reflections without power",
     [los_mpc(3e-7), replace(nlos_mpc(4e-7), power=0.0),
      replace(nlos_mpc(5e-7), power=0.0)],
     "static reflected paths carry no power"),
]


@pytest.mark.parametrize("mpcs, message", [case[1:] for case in MALFORMED_STATIC],
                         ids=[case[0] for case in MALFORMED_STATIC])
@pytest.mark.parametrize("call", [
    lambda m: static_cir(m.static_mpcs, m.tx_array, m.rx_array, m.k, FC),
    lambda m: m.snapshot(0.0),
    lambda m: fcf_closed_form(m, np.arange(4) * 1e6, ensemble=1),
    lambda m: stfcf(m, df=1e6, ensemble=1),
    lambda m: doppler_psd(m, duration=0.004, ensemble=1),
    lambda m: angular_psd(m, n_lags=4, ensemble=1),
], ids=["static_cir", "snapshot", "fcf_closed_form", "stfcf", "doppler_psd",
        "angular_psd"])
def test_malformed_static_paths_fail_alike(mpcs, message, call):
    """Synthesis and every statistic fail alike on malformed static paths.

    A second LoS path fails where the model's PathSet is built, so no call
    sees it; reflections without power fail in `PathSet.branches`, which
    every call uses.
    """
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(make_model(mpcs, rx_elements=2, n_clusters=2, rays_per_cluster=2))


# ---------------------------------------------------------------------------
# correlation functions

def test_stfcf_is_one_at_zero_offsets():
    model = two_tap_model(k_s=2.0, k_d=10.0)
    r = stfcf(model, ensemble=50)
    assert r.shape == (1,) and abs(r[0] - 1.0) < 1e-12


def test_stfcf_matches_fcf_closed_form_on_grid():
    # both paths share the same seeded ensemble members
    model = two_tap_model(k_s=2.0, k_d=10.0)
    df = np.arange(5) * 2e6
    fcf = fcf_closed_form(model, df, ensemble=50)
    pointwise = np.array([stfcf(model, df=float(d), ensemble=50)[0] for d in df])
    assert np.max(np.abs(fcf - pointwise)) < 1e-12
    assert stfcf(model, df=df, ensemble=50).tobytes() == fcf.tobytes()


def test_los_only_correlation_has_unit_magnitude():
    model = make_model([los_mpc()], k_s=5.0, k_d=math.inf)
    for df in [0.0, 3.7e6, 41e6]:
        r = stfcf(model, df=df)[0]
        assert abs(abs(r) - 1.0) < 1e-12
    r = stfcf(model, dr_r=0.012, df=1e6)[0]
    assert abs(abs(r) - 1.0) < 1e-12


def test_los_only_correlation_follows_spatial_offsets():
    # one plane wave: a transmit element step dr_t and a receiver move dloc
    # shift its delay by their projections on the departure/arrival vectors;
    # the kernel's phase -shift (2 fc - f) carries no rounding of tau fc, so
    # a long path at a high carrier holds the same bound
    for delay, fc in [(3e-7, 5.5e9), (1e-6, 28e9)]:
        mpc = Mpc(delay=delay, power=1.0, aod=(0.2, 0.7), aoa=(-0.1, 2.1),
                  phases=(0.0, 0.0, 0.0, 0.0), xpr=math.inf, kind="los")
        model = make_model([mpc], k_s=5.0, k_d=math.inf, tx_elements=2,
                           carrier_frequency=fc)
        for dr_t, dloc, f in [(0.004, (0.03, -0.02, 0.011), 0.97 * fc),
                              (-0.013, (-0.2, 0.15, 0.05), 1.02 * fc)]:
            r = stfcf(model, dr_t=dr_t, dloc=dloc, f=f)[0]
            shift = (unit_from_angles(*mpc.aod) @ model.tx_array.axis * dr_t
                     + unit_from_angles(*mpc.aoa) @ np.asarray(dloc)) / C0
            assert abs(r - np.exp(-2j * math.pi * (2.0 * fc - f) * shift)) < 1e-12


def test_two_tap_fcf_null_at_half_inverse_spacing():
    # equal-power taps 100 ns apart null at df = 5 MHz
    model = two_tap_model(k_s=1.0, k_d=math.inf)
    vals = fcf_closed_form(model, np.array([0.0, 5e6]))
    assert abs(vals[0] - 1.0) < 1e-12
    assert abs(vals[1]) < 1e-9


# ---------------------------------------------------------------------------
# delay spectrum

def test_delay_psd_recovers_bin_aligned_taps():
    model = two_tap_model(k_s=1.0, k_d=math.inf)
    grid = np.arange(100) * 1e6  # tau bins every 10 ns
    psd = delay_psd(fcf_closed_form(model, grid), grid)
    masses = psd.density * np.gradient(psd.support)
    assert abs(masses[30] - 0.5) < 1e-12  # 300 ns
    assert abs(masses[40] - 0.5) < 1e-12  # 400 ns
    assert masses.sum() - masses[30] - masses[40] < 1e-9
    assert psd.clipped < 1e-9
    assert abs(psd.mass - 1.0) < 1e-9
    assert abs(rms_spread(psd) - 50e-9) < 1e-15


def test_delay_psd_mass_identity_with_dynamic_branch():
    model = two_tap_model(k_s=2.0, k_d=4.0)
    grid = np.arange(256) * 0.5e6
    vals = fcf_closed_form(model, grid, ensemble=20)
    psd = delay_psd(vals, grid)
    # clamped ripple is reported, never silently dropped
    assert abs(psd.mass - psd.clipped - vals[0].real) < 1e-12
    assert psd.clipped > 0.0


def test_delay_psd_grid_validation():
    vals = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        delay_psd(vals, np.array([0.0, 1e6, 2.5e6, 3e6]))
    with pytest.raises(ValueError):
        delay_psd(vals, np.array([3e6, 2e6, 1e6, 0.0]))
    with pytest.raises(ValueError):
        delay_psd(vals, np.array([0.3e6, 1.3e6, 2.3e6, 3.3e6]))
    with pytest.raises(ValueError):
        delay_psd(vals, np.arange(5) * 1e6)


# ---------------------------------------------------------------------------
# spreads

def test_rms_spread_two_point_translation_dilation():
    d = 0.5 / 1e-7
    base = Psd(np.array([0.0, 1e-7]), np.array([d, d]))
    assert abs(rms_spread(base) - 50e-9) < 1e-15
    shifted = Psd(base.support + 3.7e-8, base.density)
    assert abs(rms_spread(shifted) - rms_spread(base)) < 1e-15
    dilated = Psd(base.support * 2.0, base.density)
    assert abs(rms_spread(dilated) - 2.0 * rms_spread(base)) < 1e-15


def test_rms_spread_circular_wraps():
    ang = np.radians([10.0, 350.0])
    d = np.ones(2) / np.gradient(ang)
    psd = Psd(ang, d)
    assert abs(rms_spread(psd, circular=True) - math.radians(10.0)) < 1e-12
    assert rms_spread(psd) > math.radians(150.0)  # linear treats them as far
    ang2 = np.radians([80.0, 100.0])
    psd2 = Psd(ang2, np.ones(2) / np.gradient(ang2))
    assert abs(rms_spread(psd2, circular=True) - math.radians(10.0)) < 1e-12
    assert abs(rms_spread(psd2) - math.radians(10.0)) < 1e-12


def test_rms_spread_single_spike_is_zero():
    dens = np.zeros(5)
    dens[2] = 4.0
    assert rms_spread(Psd(np.arange(5.0), dens)) == 0.0
    with pytest.raises(ValueError):
        rms_spread(Psd(np.arange(5.0), np.zeros(5)))


# ---------------------------------------------------------------------------
# angular spectrum

def test_angular_psd_broadside_plane_wave():
    model = make_model([los_mpc(az=math.pi / 2)], k_s=5.0, k_d=math.inf,
                       rx_elements=2)
    psd = angular_psd(model)
    peak = psd.support[int(np.argmax(psd.density))]
    assert abs(peak - math.pi / 2) < 1e-12
    assert rms_spread(psd) < math.radians(3.0)  # resolution floor only
    assert abs(psd.mass - 1.0) < 0.05


def test_angular_psd_off_axis_wave_lands_near_cone_angle():
    model = make_model([los_mpc(az=math.radians(60.0))], k_s=5.0,
                       k_d=math.inf, rx_elements=2)
    psd = angular_psd(model)
    peak = psd.support[int(np.argmax(psd.density))]
    assert abs(peak - math.radians(60.0)) < math.radians(1.5)
    assert rms_spread(psd) < math.radians(3.0)


def test_angular_psd_two_wave_spread():
    waves = [los_mpc(az=math.radians(80.0)),
             nlos_mpc(delay=4e-7, az=math.radians(100.0))]
    model = make_model(waves, k_s=1.0, k_d=math.inf, rx_elements=2)
    psd = angular_psd(model)
    # equal-power arrivals 10 deg either side of broadside
    assert abs(rms_spread(psd) - math.radians(10.0)) < math.radians(1.0)


def test_angular_psd_requires_receive_aperture():
    model = make_model([los_mpc()], k_s=5.0, k_d=math.inf, rx_elements=1)
    with pytest.raises(ValueError):
        angular_psd(model)
    model = make_model([los_mpc()], k_s=5.0, k_d=math.inf, rx_elements=4)
    assert angular_psd(model).mass > 0.5


# ---------------------------------------------------------------------------
# doppler spectrum

def test_doppler_psd_static_channel_is_a_zero_line():
    model = two_tap_model(k_s=2.0, k_d=math.inf)
    psd = doppler_psd(model)
    assert rms_spread(psd) == 0.0
    assert abs(psd.mass - 1.0) < 1e-12
    nz = np.nonzero(psd.density)[0]
    assert len(nz) == 1 and psd.support[nz[0]] == 0.0


def test_doppler_psd_dynamic_mass_identity_and_bounds():
    model = make_model([], k_s=1.0, k_d=1e-6, seed=7)
    c_d = branch_power_coefficients(model.k, False, False)[2]
    psd = doppler_psd(model, ensemble=32)
    assert abs(psd.mass - psd.clipped - c_d) < 1e-9
    # anchors move at 0.5 m/s on both ends: support within ~2 v fc / c
    spread = rms_spread(psd)
    assert 1.0 < spread < 40.0
    assert abs(psd_mean(psd)) < 5.0


def test_doppler_tone_concentrates_in_one_bin():
    n, dt = 512, 1e-3
    step = 4.0 / (n * dt)
    f0 = 2.0 * step
    lags = np.exp(2j * math.pi * f0 * np.arange(n) * dt)
    psd = doppler_psd_from_lags(lags, dt)
    ipk = int(np.argmax(psd.density))
    # phase advance of the correlation means increasing delay: negative shift
    assert abs(psd.support[ipk] + f0) < 1e-9
    frac = psd.density[ipk] * np.gradient(psd.support)[ipk]
    assert frac >= 0.95
    assert abs(psd.mass - psd.clipped - 1.0) < 1e-12


def test_doppler_receding_rate_maps_to_negative_shift():
    # delay growing at 1 m/s puts the line near -fc/c = -18.35 Hz
    n, dt = 512, 1e-3
    rate = FC / C0
    lags = np.exp(2j * math.pi * rate * np.arange(n) * dt)
    psd = doppler_psd_from_lags(lags, dt)
    step = 4.0 / (n * dt)
    peak = psd.support[int(np.argmax(psd.density))]
    assert abs(peak + rate) < step
    assert abs(psd_mean(psd) + rate) < step


def test_doppler_psd_rejects_nonpositive_steps():
    model = two_tap_model(k_s=2.0, k_d=8.0)
    for kwargs in ({"dt": 0.0}, {"dt": -1e-3}, {"duration": 0.0},
                   {"duration": 1e300, "dt": 1e-300}):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            doppler_psd(model, **kwargs)
    for dt in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            doppler_psd_from_lags(np.ones(4), dt)
    for lags in ([], np.ones((2, 4))):
        with pytest.raises(ValueError, match="lags must be a non-empty 1-D sequence"):
            doppler_psd_from_lags(lags, 1e-3)


def test_doppler_psd_short_window_keeps_three_bins():
    # 4 lags give bins of 4/(4 dt) = 1 kHz: the support is -1, 0, +1 kHz
    model = two_tap_model(k_s=2.0, k_d=8.0)
    psd = doppler_psd(model, duration=4e-3, ensemble=4)
    assert np.allclose(psd.support, [-1e3, 0.0, 1e3])
    assert abs(psd.mass - psd.clipped - 1.0) < 1e-9


def test_correlation_entries_check_ensemble_and_time():
    model = make_model([los_mpc(), nlos_mpc()], k_s=2.0, k_d=8.0, rx_elements=4)
    entries = [lambda **kw: fcf_closed_form(model, [0.0, 1e6], **kw),
               lambda **kw: stfcf(model, **kw),
               lambda **kw: angular_psd(model, n_lags=8, **kw),
               lambda **kw: doppler_psd(model, duration=8e-3, **kw),
               lambda **kw: lcr_time_inputs(model, **kw)]
    for entry in entries:
        for ensemble in (0, -2):
            with pytest.raises(ValueError, match="ensemble must be an integer >= 1"):
                entry(ensemble=ensemble)
        # a float used to fail inside range() and a bool ran one member
        for ensemble in (2.5, True, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="ensemble must be an integer"):
                entry(ensemble=ensemble)
        for t in (-1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="^t must be finite and >= 0, got "):
                entry(t=t)
    for dt in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="evaluation times must be >= 0 and finite"):
            stfcf(model, t=0.5, dt=dt)
    # each offset is named: a non-finite one would turn the correlation into NaN
    for name in ("dr_t", "dr_r", "df"):
        for bad in (math.nan, math.inf, -math.inf, [0.0, math.nan]):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
                stfcf(model, **{name: bad}, ensemble=2)
    with pytest.raises(ValueError, match="^df must be finite, got "):
        fcf_closed_form(make_model([]), [0.0, math.nan], ensemble=2)
    for dloc in ((math.nan, 0.0, 0.0), (0.0, 0.0, math.inf), (1.0, 2.0), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="^dloc must be three finite numbers, got "):
            stfcf(model, dloc=dloc, ensemble=2)
    for grids in ({"df": np.zeros((4, 1))}, {"df": np.zeros((2, 2))},
                  {"dt": np.zeros(3), "df": np.zeros(2)}):
        with pytest.raises(ValueError, match="^offsets must be scalars or 1-D grids"):
            stfcf(model, **grids, ensemble=2)
    for f in (math.nan, math.inf, 0.0, -FC):
        with pytest.raises(ValueError, match="^f must be finite and > 0, got "):
            stfcf(model, f=f, ensemble=2)
    # the inputs are checked before a model without diffuse power is seen
    frozen = two_tap_model(k_s=2.0, k_d=math.inf)
    with pytest.raises(ValueError, match="ensemble must be an integer >= 1"):
        lcr_time_inputs(frozen, ensemble=0)
    with pytest.raises(ValueError, match="^t must be finite and >= 0, got nan"):
        lcr_time_inputs(frozen, t=math.nan)


# (dr_t, dr_r, dt, df, dloc, t, f) grids for each path through the kernel
LAMBDA = C0 / FC
KERNEL_GRIDS = {
    "geometric": (0.0, 0.0, 0.0, np.arange(7) * 3e6, (0.0, 0.0, 0.0), 0.0, None),
    "uneven df": (0.0, 0.0, 0.0, np.array([0.0, 1e6, 3e6, 3e6, 2e6]),
                  (0.0, 0.0, 0.0), 0.2, None),
    "time lags": (0.0, 0.0, np.arange(9) * 1e-3, 0.0, (0.0, 0.0, 0.0), 0.0, None),
    "rx lags": (0.0, np.arange(6) * LAMBDA / 4, 0.0, 0.0, (0.0, 0.0, 0.0), 0.0, None),
    "mixed": (np.array([0.0, 0.01, 0.0, 0.0, 0.01]), 0.0,
              np.array([0.0, 1e-3, 0.0, 2e-3, 1e-3]),
              np.array([0.0, 1e6, 2e6, 0.0, 5e5]), (0.1, 0.0, -0.2), 0.3, 5.4e9),
}


def member_by_member(model, dr_t, dr_r, dt, df, dloc, t, f, ensemble):
    """The dynamic correlation as one spawn and one delay grid per member."""
    dr_t, dr_r, dt, df = np.broadcast_arrays(dr_t, dr_r, dt, df)
    fc = model.gbsm.carrier_frequency
    f_base = fc if f is None else f
    off_t = np.outer(dr_t, model.tx_array.axis)
    off_r = np.outer(dr_r, model.rx_array.axis) + dloc
    acc = np.zeros(len(df), dtype=complex)
    for member in range(ensemble):
        seed = stats._ensemble_seed(model.gbsm.seed, member)
        clusters = model.reseeded(seed).spawn()
        tau0 = ray_delays(clusters, t, (0.0,), np.zeros(3), np.zeros(3))
        tau1 = ray_delays(clusters, t, dt, off_t, off_r)
        phase = tau1 * (2.0 * fc - f_base - df) - tau0 * (2.0 * fc - f_base)
        acc += clusters.ray_power.reshape(-1) @ np.exp(2j * math.pi * phase)
    return acc / ensemble


@pytest.mark.parametrize("grid", sorted(KERNEL_GRIDS))
def test_dynamic_correlation_ignores_block_and_tile_sizes(monkeypatch, grid):
    model = make_model([], tx_elements=2, rx_elements=6, seed=11)
    args = KERNEL_GRIDS[grid]

    def corr():
        return stats._dynamic_corr_grid(model, *args[:5], t=args[5], f=args[6],
                                        ensemble=7)

    full = corr()
    # sums in another order, and geometric rows in place of exponentials
    assert np.max(np.abs(full - member_by_member(model, *args, 7))) < 1e-12
    for size in (1, 2000):  # one member and one grid point at a time; mixed
        monkeypatch.setattr(stats, "_SERIES_BLOCK", size)
        assert corr().tobytes() == full.tobytes(), size


def test_geometric_fcf_rows_match_direct_exponentials():
    model = make_model([], seed=4)
    df = np.arange(256) * 1e6
    seeds = [stats._ensemble_seed(model.gbsm.seed, e) for e in range(6)]
    clusters = _draw_clusters(model.gbsm, seeds, model.location)
    tau = ray_delays(clusters, 0.0, (0.0,), np.zeros(3), np.zeros(3))[:, 0]
    direct = np.exp(-2j * math.pi * np.outer(df, tau))
    terms = stats._geometric_terms(tau, 0.0, 1e6, 256)
    rows = np.concatenate([x.copy() for _, x in terms])
    assert np.max(np.abs(rows - direct)) <= 1e-12
    expected = direct @ clusters.ray_power.reshape(-1) / len(seeds)
    got = stats._dynamic_corr_grid(model, 0.0, 0.0, 0.0, df, (0.0, 0.0, 0.0),
                                   ensemble=len(seeds))
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_phasor_matches_exp_of_the_reduced_phase():
    edges = np.array([0.5, 0.0, 1.0, 2.0, 3.0, 1.0 / 2048.0, 8000.0, 8000.5,
                      1.0 - 2.0 ** -40, 2.0 ** 60, 1e306])
    cycles = np.concatenate([np.linspace(-3.0, 3.0, 600_001), edges, -edges,
                             np.random.default_rng(5).uniform(-8000.0, 8000.0, 100_000)])
    reduced = cycles - np.rint(cycles)
    z = stats._phasor(cycles)
    assert np.max(np.abs(z - np.exp(2j * math.pi * reduced))) <= 2e-15
    assert np.max(np.abs(np.abs(z) - 1.0)) <= 4e-16
    # exact on the table's own points, and 1 wherever the phase is whole
    quarter = stats._phasor(np.array([0.0, -0.0, 0.25, 0.5, -0.25, 7.0, 2.0 ** 60]))
    assert quarter.tolist() == [1, 1, 1j, -1, -1j, 1, 1]


# ---------------------------------------------------------------------------
# level crossing rates

def test_lcr_analytic_matches_rayleigh_closed_form():
    f_m = 10.0
    inputs = LcrInputs(k=0.0, b0=1.0, b1=0.0, b2=2.0 * math.pi**2 * f_m**2)
    levels = np.linspace(0.01, 3.0, 50)
    got = lcr_analytic(inputs, levels)
    want = math.sqrt(2.0 * math.pi) * f_m * levels * np.exp(-levels**2)
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_lcr_analytic_quadrature_converged():
    inputs = LcrInputs(k=5.0, b0=1.0, b1=-3.0, b2=100.0)
    levels = np.linspace(0.01, 3.0, 50)
    a = lcr_analytic(inputs, levels, n_quad=200)
    b = lcr_analytic(inputs, levels, n_quad=400)
    assert np.max(np.abs(a - b) / b) < 1e-10


def test_lcr_analytic_scale_invariance():
    levels = np.linspace(0.1, 2.5, 20)
    a = lcr_analytic(LcrInputs(k=5.0, b0=1.0, b1=-3.0, b2=100.0), levels)
    b = lcr_analytic(LcrInputs(k=5.0, b0=7.3, b1=-3.0 * 7.3, b2=730.0), levels)
    assert np.max(np.abs(a - b) / a) < 1e-12


def test_lcr_analytic_rejects_bad_inputs():
    good = LcrInputs(k=0.0, b0=1.0, b1=0.0, b2=1.0)
    with pytest.raises(ValueError):
        lcr_analytic(good, [-0.5])
    # coherent part with a fully correlated derivative has no finite rate
    degenerate = LcrInputs(k=1.0, b0=1.0, b1=2.0, b2=4.0)
    with pytest.raises(ValueError):
        lcr_analytic(degenerate, [1.0])
    slightly_off = LcrInputs(k=0.0, b0=1.0, b1=1.0, b2=1.0 - 5e-10)
    with pytest.raises(ValueError):
        lcr_analytic(slightly_off, [1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="levels must be finite and >= 0"):
            lcr_analytic(good, [1.0, bad])


def test_lcr_empirical_counts_upward_crossings():
    assert lcr_empirical([1.0, 3.0, 1.0, 3.0, 1.0], 2.0, 1.0) == 2.0
    assert lcr_empirical([1.0, 3.0, 1.0, 3.0, 1.0], 4.0, 2.0) == 0.0
    assert lcr_empirical([1.0, 2.0, 3.0], 2.0, 0.5) == 2.0  # touch counts
    with pytest.raises(ValueError):
        lcr_empirical([1.0, 2.0], 1.5, 0.0)
    with pytest.raises(ValueError):
        lcr_empirical([1.0], 0.5, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="duration must be finite and > 0"):
            lcr_empirical([1.0, 2.0], 1.5, bad)
    with pytest.raises(ValueError, match="^level must be finite, got nan"):
        lcr_empirical([1.0, 2.0], math.nan, 1.0)


def test_lcr_time_inputs_use_realized_coherent_ratio():
    model = two_tap_model(k_s=2.0, k_d=8.0)
    inputs = lcr_time_inputs(model, ensemble=64)
    amp, sigma2 = rician_params(model.snapshot(0.0))
    want_k = abs(amp) ** 2 / (2.0 * sigma2)
    assert abs(inputs.k - want_k) < 1e-12 * want_k
    assert abs(inputs.b0 - 1.0) < 1e-9
    assert inputs.b2 >= 0.0


def test_lcr_time_inputs_need_diffuse_power():
    frozen = two_tap_model(k_s=2.0, k_d=math.inf)
    with pytest.raises(ValueError):
        lcr_time_inputs(frozen)
    parked = make_model([], k_s=1.0, k_d=0.1, cluster_speed=0.0)
    with pytest.raises(ValueError, match="positive cluster speed"):
        lcr_time_inputs(parked)


# ---------------------------------------------------------------------------
# empirical distributions

def test_empirical_cdf_and_lookup():
    values, probs = empirical_cdf([3.0, 1.0, 2.0, 2.0])
    assert np.array_equal(values, [1.0, 2.0, 3.0])
    assert np.allclose(probs, [0.25, 0.75, 1.0])
    with pytest.raises(ValueError):
        empirical_cdf([])
