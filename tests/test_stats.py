"""Correlation, spectrum, spread, and crossing-rate statistics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c as C0

from dcmkit import Mpc, rician_params, static_cir
from dcmkit.raytrace import unit_from_angles
from dcmkit.stats import (CorrelationQuery, LcrInputs, Psd, angular_psd,
                          branch_power_coefficients, delay_psd, doppler_psd,
                          doppler_psd_from_lags, empirical_cdf,
                          fcf_closed_form, lcr_analytic, lcr_empirical,
                          lcr_time_inputs, rms_spread, stfcf)

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


def test_correlation_query_validation():
    q = CorrelationQuery()
    assert q.dloc == (0.0, 0.0, 0.0) and q.f is None
    with pytest.raises(ValueError):
        CorrelationQuery(ensemble=0)
    with pytest.raises(ValueError):
        CorrelationQuery(t=-1.0)
    with pytest.raises(ValueError):
        CorrelationQuery(t=1.0, dt=-2.0)
    CorrelationQuery(t=2.0, dt=-1.0)


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
    lambda m: stfcf(m, CorrelationQuery(df=1e6, ensemble=1)),
    lambda m: doppler_psd(m, duration=0.004, ensemble=1),
    lambda m: angular_psd(m, n_lags=4, ensemble=1),
], ids=["static_cir", "snapshot", "fcf_closed_form", "stfcf", "doppler_psd",
        "angular_psd"])
def test_malformed_static_paths_fail_alike(mpcs, message, call):
    """Synthesis and every statistic split the static paths with one check."""
    model = make_model(mpcs, rx_elements=2, n_clusters=2, rays_per_cluster=2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(model)


# ---------------------------------------------------------------------------
# correlation functions

def test_stfcf_is_one_at_zero_offsets():
    model = two_tap_model(k_s=2.0, k_d=10.0)
    r = stfcf(model, CorrelationQuery(ensemble=50))
    assert abs(r - 1.0) < 1e-12


def test_stfcf_matches_fcf_closed_form_on_grid():
    # both paths share the same seeded ensemble members
    model = two_tap_model(k_s=2.0, k_d=10.0)
    df = np.arange(5) * 2e6
    fcf = fcf_closed_form(model, df, ensemble=50)
    pointwise = np.array(
        [stfcf(model, CorrelationQuery(df=float(d), ensemble=50)) for d in df])
    assert np.max(np.abs(fcf - pointwise)) < 1e-12


def test_los_only_correlation_has_unit_magnitude():
    model = make_model([los_mpc()], k_s=5.0, k_d=math.inf)
    for df in [0.0, 3.7e6, 41e6]:
        r = stfcf(model, CorrelationQuery(df=df))
        assert abs(abs(r) - 1.0) < 1e-12
    r = stfcf(model, CorrelationQuery(dr_r=0.012, df=1e6))
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
            r = stfcf(model, CorrelationQuery(dr_t=dr_t, dloc=dloc, f=f))
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
    for kwargs in ({"dt": 0.0}, {"dt": -1e-3}, {"duration": 0.0}):
        with pytest.raises(ValueError, match="must be > 0"):
            doppler_psd(model, **kwargs)
    with pytest.raises(ValueError, match="dt must be > 0"):
        doppler_psd_from_lags(np.ones(4), 0.0)


def test_doppler_psd_short_window_keeps_three_bins():
    # 4 lags give bins of 4/(4 dt) = 1 kHz: the support is -1, 0, +1 kHz
    model = two_tap_model(k_s=2.0, k_d=8.0)
    psd = doppler_psd(model, duration=4e-3, ensemble=4)
    assert np.allclose(psd.support, [-1e3, 0.0, 1e3])
    assert abs(psd.mass - psd.clipped - 1.0) < 1e-9


def test_correlation_entries_check_ensemble_and_time():
    model = make_model([los_mpc(), nlos_mpc()], k_s=2.0, k_d=8.0, rx_elements=4)
    entries = [lambda **kw: fcf_closed_form(model, [0.0, 1e6], **kw),
               lambda **kw: angular_psd(model, n_lags=8, **kw),
               lambda **kw: doppler_psd(model, duration=8e-3, **kw),
               lambda **kw: lcr_time_inputs(model, **kw)]
    for entry in entries:
        for ensemble in (0, -2):
            with pytest.raises(ValueError, match="ensemble must be >= 1"):
                entry(ensemble=ensemble)
        with pytest.raises(ValueError, match="evaluation times must be >= 0"):
            entry(t=-1e-3)


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


def test_lcr_empirical_counts_upward_crossings():
    assert lcr_empirical([1.0, 3.0, 1.0, 3.0, 1.0], 2.0, 1.0) == 2.0
    assert lcr_empirical([1.0, 3.0, 1.0, 3.0, 1.0], 4.0, 2.0) == 0.0
    assert lcr_empirical([1.0, 2.0, 3.0], 2.0, 0.5) == 2.0  # touch counts
    with pytest.raises(ValueError):
        lcr_empirical([1.0, 2.0], 1.5, 0.0)
    with pytest.raises(ValueError):
        lcr_empirical([1.0], 0.5, 1.0)


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
