"""Release gate: the full acceptance checklist, one test per criterion.

Every test prints a single pass/fail line with its measured figures, so a
plain run of this file reads as the acceptance report.  Tolerances and time
caps are asserted, not just displayed.  All randomness is seeded; the
statistical checks use sample sizes large enough that their margins are not
borderline (see the recorded figures in each line).
"""

import math
import time

import numpy as np
from scipy import stats as sps
from scipy.constants import c as C0

from dcmkit import (AntennaArray, ChannelModel, GbsmConfig, KFactors, Mpc, PathSet,
                    build_map, estimate_k_split, fcf_closed_form,
                    friis_path_gain, grid_points, lcr_analytic,
                    lcr_time_inputs, load_map, loads_map, loads_scene,
                    match_mpcs, query, rician_params,
                    rms_spread, save_map, dumps_map, doppler_psd,
                    trace_static_mpcs, update_snapshot)
from dcmkit.cli import main as cli_main
from dcmkit.gbsm import ray_delays
from dcmkit.stats import (LcrInputs, angular_psd, branch_power_coefficients,
                          delay_psd, stfcf)

from conftest import GROUND_SCENE, ROOM_SCENE, make_model, panel_field_scene
from test_raytrace import _oracle_paths, _random_scene


def _report(num: int, label: str, checks):
    """One pass/fail line per criterion; checks are (ok, detail) pairs."""
    ok = all(c for c, _ in checks)
    detail = "; ".join(d for _, d in checks)
    print(f"acceptance {num} {label}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"acceptance {num} {label}: {detail}"


def _wrap(az: float) -> float:
    return (az + math.pi) % (2.0 * math.pi) - math.pi


def _tap(delay, kind, az=0.0, power=1.0):
    xpr = math.inf if kind == "los" else 4.0
    return Mpc(delay=delay, power=power, aod=(0.0, 0.0), aoa=(0.0, az),
               phases=(0.1, 0.2, 0.3, 0.4), xpr=xpr, kind=kind)


# --------------------------------------------------------------------------
# 1. power-split algebra

def test_criterion_1_mixing_algebra():
    t0 = time.monotonic()
    grid = np.logspace(-3.0, 3.0, 100)
    worst_h = worst_w = 0.0
    for k_s in grid:
        for k_d in grid:
            factors = KFactors(k_s, k_d)
            k = factors.k
            worst_h = max(worst_h,
                          abs(1.0 / k - (1.0 / k_s + 1.0 / k_d)) * k)
            w_s, w_d = factors.branch_weights
            worst_w = max(worst_w, abs(w_s * w_s + w_d * w_d - 1.0))
    elapsed = time.monotonic() - t0
    _report(1, "mixing algebra", [
        (worst_h <= 1e-12, f"harmonic-law rel dev {worst_h:.2e} <= 1e-12"),
        (worst_w <= 1e-12, f"weight power sum dev {worst_w:.2e} <= 1e-12"),
        (elapsed < 1.0, f"{len(grid) ** 2} pairs in {elapsed:.2f} s < 1 s"),
    ])


# --------------------------------------------------------------------------
# 2. tracer against the brute-force oracle

def test_criterion_2_tracer_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240819)
    freq = 5.5e9
    worst_tau = worst_pow = 0.0
    sets_equal = True
    for _ in range(20):
        scene = _random_scene(rng)
        tx = rng.uniform(-3.0, 3.0, 3)
        rx = rng.uniform(-3.0, 3.0, 3)
        if np.linalg.norm(rx - tx) < 0.5:
            rx = rx + 1.0
        expected = _oracle_paths(scene, tx, rx, 2, freq)
        got = trace_static_mpcs(scene, tx, rx, max_order=2, frequency=freq)
        sets_equal &= {(m.kind, m.facets) for m in got} == set(expected)
        for m in got:
            delay, power = expected[(m.kind, m.facets)]
            worst_tau = max(worst_tau, abs(m.delay - delay))
            worst_pow = max(worst_pow, abs(m.power - power) / power)

    ground = loads_scene(GROUND_SCENE)
    two_ray = trace_static_mpcs(ground, (0.0, 0.0, 10.0), (100.0, 0.0, 1.5),
                                max_order=1)
    d_los = two_ray[0].delay * 1e9
    d_refl = two_ray[1].delay * 1e9
    friis = friis_path_gain(100.0, 5.5e9)
    elapsed = time.monotonic() - t0
    _report(2, "tracer vs oracle", [
        (sets_equal, "20 random scenes: identical path sets"),
        (worst_tau <= 1e-12, f"worst delay dev {worst_tau:.2e} s <= 1e-12"),
        (worst_pow <= 1e-9, f"worst power rel dev {worst_pow:.2e} <= 1e-9"),
        (abs(d_los - 334.77) < 0.01 and abs(d_refl - 335.77) < 0.01,
         f"two-ray delays {d_los:.2f}/{d_refl:.2f} ns"),
        (abs(friis - (-87.26)) < 0.01, f"100 m free-space {friis:.2f} dB"),
        (elapsed < 30.0, f"{elapsed:.1f} s < 30 s"),
    ])


# --------------------------------------------------------------------------
# 3. composite envelope distribution

def test_criterion_3_envelope_distribution():
    t0 = time.monotonic()
    room = loads_scene(ROOM_SCENE)
    mpcs = trace_static_mpcs(room, (1.0, 1.0, 1.5), (3.0, 3.5, 1.5),
                             max_order=1)
    k = KFactors(6.0, 6.0)
    rice_model = ChannelModel(mpcs, k, GbsmConfig(seed=0))
    # 0.25 s between samples decorrelates the moving clusters (coherence
    # time is ~54 ms at 0.5 m/s), so the pool is effectively independent
    t_grid = np.arange(100) * 0.25
    env = np.concatenate([
        np.abs(rice_model.reseeded(10_000 + i).narrowband_series(t_grid))
        for i in range(1000)])
    a, sigma2 = rician_params(rice_model.snapshot(0.0))
    sig = math.sqrt(sigma2)
    ks_rice = sps.kstest(env, sps.rice(b=abs(a) / sig, scale=sig).cdf)

    ray_model = ChannelModel(PathSet(), k, GbsmConfig(seed=1))
    env_r = np.concatenate([
        np.abs(ray_model.reseeded(20_000 + i).narrowband_series(t_grid))
        for i in range(1000)])
    a_r, sigma2_r = rician_params(ray_model.snapshot(0.0))
    ks_ray = sps.kstest(env_r, sps.rayleigh(scale=math.sqrt(sigma2_r)).cdf)
    elapsed = time.monotonic() - t0
    _report(3, "envelope distribution", [
        (len(env) == 100_000 and len(env_r) == 100_000,
         f"{len(env)} samples per law"),
        (abs(a) > 0.0, f"coherent amplitude {abs(a):.3f} (k={k.k:g})"),
        (ks_rice.pvalue > 0.05,
         f"rice KS D={ks_rice.statistic:.4f} p={ks_rice.pvalue:.2f} > 0.05"),
        (abs(a_r) == 0.0, "static removed: coherent amplitude 0"),
        (ks_ray.pvalue > 0.05,
         f"rayleigh KS D={ks_ray.statistic:.4f} p={ks_ray.pvalue:.2f} > 0.05"),
        (elapsed < 120.0, f"{elapsed:.1f} s < 120 s"),
    ])


# --------------------------------------------------------------------------
# 4. frequency-correlation and delay-density identities

def test_criterion_4_fcf_psd_identities():
    taps = PathSet.of([_tap(0.0, "los"), _tap(100e-9, "refl:1", az=0.5)])
    static = ChannelModel(taps, KFactors(1.0, math.inf),
                          GbsmConfig(seed=0))
    hybrid = ChannelModel(taps, KFactors(2.0, 10.0),
                          GbsmConfig(seed=3))
    f0 = fcf_closed_form(hybrid, [0.0], ensemble=32)[0]

    grid = np.arange(100) * 1e6  # 100 ns lands exactly on delay bin 10
    fcf = fcf_closed_form(static, grid)
    psd = delay_psd(fcf, grid)
    r0 = stfcf(static)[0]
    spread = rms_spread(psd)

    null_grid = np.arange(41) * 0.25e6
    mags = np.abs(fcf_closed_form(static, null_grid))
    null_at = float(null_grid[int(np.argmin(mags))])
    _report(4, "fcf/psd identities", [
        (abs(f0 - 1.0) <= 1e-9, f"|fcf(0) - 1| = {abs(f0 - 1.0):.2e} <= 1e-9"),
        (abs(psd.mass - r0.real) <= 1e-6,
         f"delay-psd mass dev {abs(psd.mass - r0.real):.2e} <= 1e-6"),
        (abs(null_at - 5e6) <= 0.25e6,
         f"two-tap null at {null_at / 1e6:.2f} MHz (expect 5 +- 0.25)"),
        (abs(spread - 50e-9) <= 1e-15,
         f"equal taps 0/100 ns: rms spread dev {abs(spread - 50e-9):.1e} s"),
    ])


# --------------------------------------------------------------------------
# 5. level-crossing rates

def test_criterion_5_crossing_rates():
    t0 = time.monotonic()
    f_m = 30.0  # isotropic diffuse moments: b2/b0 = 2 pi^2 f_m^2
    iso = LcrInputs(k=0.0, b0=1.0, b1=0.0, b2=2.0 * math.pi ** 2 * f_m ** 2)
    levels = np.linspace(0.05, 3.0, 50)
    got = lcr_analytic(iso, levels)
    want = math.sqrt(2.0 * math.pi) * f_m * levels * np.exp(-levels ** 2)
    worst = float(np.max(np.abs(got - want) / want))

    ground = loads_scene(GROUND_SCENE)
    mpcs = trace_static_mpcs(ground, (0.0, 0.0, 10.0), (100.0, 0.0, 1.5),
                             max_order=1)
    model = make_model(mpcs, k_s=2.0, k_d=8.0)
    inp = lcr_time_inputs(model, ensemble=256)
    scan = np.linspace(0.05, 2.5, 246)
    peak = float(scan[int(np.argmax(lcr_analytic(inp, scan)))])
    test_levels = np.array([peak * 10 ** (-0.05), peak, peak * 10 ** 0.05])
    ana = lcr_analytic(inp, test_levels)

    a, sigma2 = rician_params(model.snapshot(0.0))
    rms = math.sqrt(abs(a) ** 2 + 2.0 * sigma2)
    dt, n_t, n_runs = 1e-3, 5000, 200
    t_grid = np.arange(n_t) * dt
    crossings = np.zeros(3)
    for i in range(n_runs):
        env = np.abs(model.reseeded(5_000 + i).narrowband_series(t_grid)) / rms
        for j, lv in enumerate(test_levels):
            crossings[j] += np.count_nonzero((env[:-1] < lv) & (env[1:] >= lv))
    emp = crossings / (n_runs * (n_t - 1) * dt)
    rel = np.abs(emp - ana) / ana
    elapsed = time.monotonic() - t0
    _report(5, "crossing rates", [
        (worst <= 1e-6, f"rayleigh closed form rel dev {worst:.2e} <= 1e-6"),
        (n_runs * n_t >= 1_000_000, f"{n_runs * n_t} envelope samples"),
        (float(np.max(rel)) <= 0.15,
         "near peak {:.2f}: empirical {} vs analytic {} (worst rel {:.3f})".format(
             peak, np.round(emp, 3), np.round(ana, 3), float(np.max(rel)))),
        (elapsed < 300.0, f"{elapsed:.1f} s < 300 s"),
    ])


# --------------------------------------------------------------------------
# 6. parameter trends

def test_criterion_6_parameter_trends():
    t0 = time.monotonic()
    pure_dyn = KFactors(1.0, 1e-6)
    n_seeds = 100

    # (a) doubling cluster speed doubles the rms doppler spread
    slow, fast = [], []
    for s in range(n_seeds):
        m1 = ChannelModel(PathSet(), pure_dyn, GbsmConfig(seed=s, cluster_speed=0.5))
        m2 = ChannelModel(PathSet(), pure_dyn, GbsmConfig(seed=s, cluster_speed=1.0))
        slow.append(rms_spread(doppler_psd(m1, duration=2.048, ensemble=1)))
        fast.append(rms_spread(doppler_psd(m2, duration=2.048, ensemble=1)))
    ratio = float(np.median(fast) / np.median(slow))

    # (b) more clusters decorrelate the transfer function faster
    means = []
    for n in (5, 15, 25):
        vals = [abs(fcf_closed_form(
            ChannelModel(PathSet(), pure_dyn, GbsmConfig(seed=s, n_clusters=n)),
            [2e6], ensemble=1)[0]) for s in range(n_seeds)]
        means.append(float(np.mean(vals)))

    # (c) cluster count leaves the angular spread alone when the dynamic
    # arrival cone sits inside the span of the traced static arrivals
    room = loads_scene(ROOM_SCENE)
    tx = (1.0, 1.0, 1.5)
    route = [(2.0 + 0.2 * i, 2.0 + 0.2 * i, 1.5) for i in range(6)]
    az_cone = (math.radians(85.0), math.radians(95.0))
    cone_inside = True
    route_mpcs = []
    for loc in route:
        mm = trace_static_mpcs(room, tx, loc, max_order=1)
        cones = [math.acos(math.cos(m.aoa[0]) * math.cos(m.aoa[1]))
                 for m in mm]
        cone_inside &= (min(cones) < math.radians(78.0)
                        and max(cones) > math.radians(102.0))
        route_mpcs.append(mm)
    k_half = KFactors(2.0, 2.0)
    lo, hi = {}, {}
    for n in (5, 15, 25):
        per_loc = []
        for loc, mm in zip(route, route_mpcs):
            meds = [math.degrees(rms_spread(angular_psd(
                ChannelModel(mm, k_half, GbsmConfig(
                    seed=s, n_clusters=n, azimuth_range=az_cone,
                    elevation_range=(-0.2, 0.2)),
                    rx_array=AntennaArray(n_elements=2),
                    location=(tx, loc)),
                ensemble=1))) for s in range(n_seeds)]
            per_loc.append(float(np.median(meds)))
        lo[n], hi[n] = min(per_loc), max(per_loc)
    bin_deg = 1.0  # default angle grid spacing
    lo_dev = max(abs(lo[a] - lo[b]) for a in lo for b in lo)
    hi_dev = max(abs(hi[a] - hi[b]) for a in hi for b in hi)

    # (d) with few rays per cluster the envelope tail is starved; adding
    # clusters restores deep-tail excursions and their crossings
    c_d = branch_power_coefficients(pure_dyn, False, False)[2]
    t_grid = np.arange(2000) * 1e-3
    level = 1.7
    rates = []
    for n in (5, 15, 25):
        count = 0
        for s in range(n_seeds):
            m = ChannelModel(PathSet(), pure_dyn, GbsmConfig(
                seed=1000 + s, n_clusters=n, rays_per_cluster=2))
            env = np.abs(m.narrowband_series(t_grid)) / math.sqrt(c_d)
            count += int(np.count_nonzero((env[:-1] < level)
                                          & (env[1:] >= level)))
        rates.append(count / (n_seeds * (len(t_grid) - 1) * 1e-3))
    elapsed = time.monotonic() - t0
    _report(6, "parameter trends", [
        (1.8 <= ratio <= 2.2,
         f"(a) doppler spread ratio at 2x speed {ratio:.3f} in [1.8, 2.2]"),
        (means[0] > means[1] > means[2],
         "(b) mean |fcf| at 2 MHz {} strictly decreasing".format(
             [round(v, 4) for v in means])),
        (cone_inside and lo_dev <= bin_deg and hi_dev <= bin_deg,
         f"(c) route min/max angular spread shifts {lo_dev:.2f}/{hi_dev:.2f}"
         f" deg <= {bin_deg} deg bin"),
        (rates[0] < rates[1] < rates[2],
         "(d) crossing rate at 1.7 rms {} strictly increasing".format(
             [round(r, 2) for r in rates])),
        (elapsed < 600.0, f"100 seeds per trend, {elapsed:.1f} s < 600 s"),
    ])


# --------------------------------------------------------------------------
# 7. map update speed

def test_criterion_7_update_speed():
    t0 = time.monotonic()
    scene = panel_field_scene()
    tx = (0.5, 0.5, 5.0)
    pts = grid_points((-8.0, -8.0, 1.5), (10, 10, 1), 1.75)
    dcm = build_map(scene, tx, pts, max_order=3)

    rebuilds = []
    for p in pts[:5]:
        t1 = time.monotonic()
        mpcs = trace_static_mpcs(scene, tx, p, max_order=3)
        model = ChannelModel(mpcs, KFactors(2.0, 10.0),
                             GbsmConfig(seed=0), location=(tx, tuple(p)))
        model.static_taps()
        rebuilds.append(time.monotonic() - t1)
    updates = []
    for i, p in enumerate(pts[:20]):
        t1 = time.monotonic()
        update_snapshot(dcm, p, t=0.1, seed=i)
        updates.append(time.monotonic() - t1)
    # each update above is the first at its record, so it synthesizes the
    # static taps; repeats at one record reuse them, as a moving terminal does
    repeats = []
    for i in range(20):
        t1 = time.monotonic()
        update_snapshot(dcm, pts[0], t=0.1, seed=100 + i)
        repeats.append(time.monotonic() - t1)
    med_rebuild = float(np.median(rebuilds))
    med_update = float(np.median(updates))
    frac = med_update / med_rebuild
    elapsed = time.monotonic() - t0
    _report(7, "update speed", [
        (scene.n_facets >= 100 and len(pts) == 100,
         f"{scene.n_facets} facets, {len(pts)} grid points, 3 bounces"),
        (frac <= 0.05,
         f"median update {med_update * 1e3:.2f} ms vs rebuild "
         f"{med_rebuild * 1e3:.0f} ms = {frac:.2%} <= 5%; steady state "
         f"{np.median(repeats) * 1e3:.2f} ms at one record"),
        (elapsed < 300.0, f"{elapsed:.1f} s < 300 s"),
    ])


# --------------------------------------------------------------------------
# 8. power-ratio calibration round trip

def test_criterion_8_calibration():
    t0 = time.monotonic()
    # hand-checked distance: (2 ns / 5 ns, 1 deg / 5 deg) -> 0.4472
    ref = PathSet.of([_tap(100e-9, "los", az=math.radians(30.0))])
    sim = PathSet.of([_tap(102e-9, "los", az=math.radians(31.0))])
    m = match_mpcs(ref, sim, scales=(5e-9, math.radians(5.0)), threshold=1.0)
    d_hand = m.distances[0]

    # exact recovery from expected powers
    # a reference table tells the line of sight from the other paths only;
    # the match decides which of those are static
    ref3 = PathSet.of([_tap(100e-9, "los"), _tap(150e-9, "refl:1", az=0.8, power=0.5),
                       _tap(400e-9, "refl:1", az=-2.0, power=0.25)])
    est0 = estimate_k_split(match_mpcs(ref3, ref3[:2]), ref3)
    exact = (est0.k_s == 2.0 and est0.k_d == 4.0 and est0.k == KFactors(2, 4).k)

    # realized powers: map on a 0.25 m grid, measurements at jittered
    # locations with that seed's cluster draw folded in
    room = loads_scene(ROOM_SCENE)
    tx = (1.0, 1.0, 1.5)
    pts = grid_points((1.75, 1.75, 1.5), (7, 9, 1), 0.25)
    k_s_true, k_d_true = 2.0, 4.0
    k = KFactors(k_s_true, k_d_true)
    dcm = build_map(room, tx, pts, max_order=1, k_s=k_s_true, k_d=k_d_true)
    c_l, c_s, c_d = branch_power_coefficients(k, True, True)
    rng = np.random.default_rng(8)
    p_los = p_matched = p_unmatched = 0.0
    ks_seed, kd_seed = [], []
    for i in range(500):
        g = pts[int(rng.integers(len(pts)))]
        true_loc = (g[0] + rng.uniform(-0.1, 0.1),
                    g[1] + rng.uniform(-0.1, 0.1), g[2])
        static = trace_static_mpcs(room, tx, true_loc, max_order=1)
        nlos_tot = sum(p.power for p in static if not p.is_los)
        reference = [
            Mpc(delay=p.delay,
                power=c_l if p.is_los else c_s * p.power / nlos_tot,
                aod=p.aod, aoa=p.aoa, phases=p.phases, xpr=p.xpr,
                kind=p.kind, facets=p.facets)
            for p in static]
        model = ChannelModel(static, k, GbsmConfig(seed=30_000 + i),
                             location=(tx, true_loc))
        cl = model.spawn()
        m = cl.rays_per_cluster
        delays = ray_delays(cl, 0.0, (0.0,), np.zeros(3), np.zeros(3))
        for c in range(len(cl)):
            for r in range(m):
                (aod, aoa), (aod_off, aoa_off) = cl.direction[c], cl.offset[c, r]
                el = min(max(aoa[0] + aoa_off[0], -math.pi / 2),
                         math.pi / 2)
                el_d = min(max(aod[0] + aod_off[0], -math.pi / 2),
                           math.pi / 2)
                # a scattered ray enters the reference as a non-LoS path
                reference.append(Mpc(
                    delay=float(delays[c * m + r, 0]),
                    power=c_d * float(cl.power[c]) * (1.0 / m),
                    aod=(el_d, _wrap(aod[1] + aod_off[1])),
                    aoa=(el, _wrap(aoa[1] + aoa_off[1])),
                    phases=tuple(cl.phases[c, r].tolist()),
                    xpr=float(cl.xpr[c, r]), kind="refl:1"))
        reference = PathSet.of(reference)
        match = match_mpcs(reference, query(dcm, g).mpcs)
        est = estimate_k_split(match, reference)
        ks_seed.append(est.k_s)
        kd_seed.append(est.k_d)
        got = {idx for idx, _ in match.pairs}
        for idx, p in enumerate(reference):
            if p.is_los:
                p_los += p.power
            elif idx in got:
                p_matched += p.power
            else:
                p_unmatched += p.power
    ks_hat, kd_hat = p_los / p_matched, p_los / p_unmatched
    ks_med, kd_med = float(np.median(ks_seed)), float(np.median(kd_seed))
    elapsed = time.monotonic() - t0
    _report(8, "calibration round trip", [
        (abs(d_hand - math.hypot(0.4, 0.2)) <= 1e-12,
         f"hand-checked match distance {d_hand:.6f}"),
        (exact, f"expected powers: k_s={est0.k_s:g} k_d={est0.k_d:g} exact"),
        (abs(ks_hat / k_s_true - 1.0) <= 0.10
         and abs(kd_hat / k_d_true - 1.0) <= 0.10,
         f"500-seed pooled: k_s {ks_hat:.3f} (true 2), k_d {kd_hat:.3f} "
         f"(true 4), both within 10%"),
        (abs(ks_med / k_s_true - 1.0) <= 0.10
         and abs(kd_med / k_d_true - 1.0) <= 0.10,
         f"per-seed medians {ks_med:.3f}/{kd_med:.3f} within 10%"),
        (elapsed < 300.0, f"{elapsed:.1f} s < 300 s"),
    ])


# --------------------------------------------------------------------------
# 9. persistence and cross-run determinism

def test_criterion_9_determinism(tmp_path, monkeypatch, capsys):
    room = loads_scene(ROOM_SCENE)
    tx = (1.0, 1.0, 1.5)
    pts = grid_points((2.0, 2.0, 1.5), (2, 2, 1), 0.5)
    dcm = build_map(room, tx, pts, max_order=1)
    text = dumps_map(dcm)
    stable_text = dumps_map(loads_map(text)) == text
    p1, p2 = tmp_path / "a.dcm", tmp_path / "b.dcm"
    save_map(dcm, p1)
    save_map(load_map(p1), p2)
    stable_file = p1.read_bytes() == p2.read_bytes()

    scene_path = tmp_path / "room.scene"
    scene_path.write_text(ROOM_SCENE)
    points_path = tmp_path / "pts.csv"
    points_path.write_text("2,2,1.5\n2.5,2,1.5\n")
    maps = []
    for name, threads in (("t1.dcm", "1"), ("t1b.dcm", "1"), ("t2.dcm", "2")):
        out = tmp_path / name
        monkeypatch.setenv("DCM_THREADS", threads)
        rc = cli_main(["build", "--scene", str(scene_path), "--tx", "1,1,1.5",
                       "--points", str(points_path), "--max-order", "1",
                       "--out", str(out)])
        assert rc == 0
        maps.append(out.read_bytes())
    capsys.readouterr()
    monkeypatch.delenv("DCM_THREADS")

    argv = ["update", "--map", str(tmp_path / "t1.dcm"), "--at", "2,2,1.5",
            "--t", "0.25", "--seed", "7"]
    outs = []
    for _ in range(2):
        assert cli_main(argv) == 0
        outs.append(capsys.readouterr().out)
    _report(9, "persistence/determinism", [
        (stable_text, "dump-load-dump text identical"),
        (stable_file, "save-load-save file bytes identical"),
        (maps[0] == maps[1], "repeated build byte-identical"),
        (maps[0] == maps[2], "worker count 1 vs 2 byte-identical"),
        (outs[0] == outs[1] and len(outs[0]) > 0,
         "repeated update output identical"),
    ])
