"""Command line interface.

Subcommands cover the offline/online split of the channel map workflow:
`build` traces a map, `query` and `update` read it back, `simulate`
produces narrowband time series, `stats` derives second-order statistics,
and `bench` compares offline rebuild cost against online snapshot updates.
Results are CSV on stdout or, with
--out, written atomically next to the target path.  Diagnostics go to
stderr only, so stdout stays machine-readable.  Commands that draw random
numbers require an explicit --seed; identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import dcm as dcmmod
from .gbsm import AntennaArray, GbsmConfig
from .hybrid import ChannelModel, KFactors, rician_params
from .raytrace import trace_static_mpcs
from .scene import _floats, load_scene
from .stats import (angular_psd, delay_psd, doppler_psd, empirical_cdf,
                    fcf_closed_form, lcr_analytic, lcr_empirical,
                    lcr_time_inputs, rms_spread)


def _numbers(text: str, n: int) -> tuple[float, ...]:
    """`n` finite numbers for argparse: a bad value is a usage error (exit 2)."""
    try:
        return _floats(text, n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _triple(text: str) -> tuple[float, ...]:
    return _numbers(text, 3)


def _finite(text: str) -> float:
    return _numbers(text, 1)[0]


def _count(text: str, least: int = 1) -> int:
    """An integer >= `least`: a count of items to make or time."""
    count = int(text) if text.strip().isdecimal() else least - 1
    if count < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return count


def _order(text: str) -> int:
    """A reflection order: an integer >= 0."""
    return _count(text, 0)


def _counts(text: str) -> tuple[int, ...]:
    """Grid point counts nx,ny,nz: three integers >= 1."""
    try:
        counts = tuple(map(_count, text.split(",")))
    except argparse.ArgumentTypeError:
        counts = ()
    if len(counts) != 3:
        raise argparse.ArgumentTypeError(f"expected three integers >= 1, got {text!r}")
    return counts


def _db_ratio(text: str) -> float:
    """A power ratio given in dB, as a linear ratio `KFactors` accepts."""
    try:
        ratio = 10.0 ** (_finite(text) / 10.0)
        KFactors(ratio, math.inf)  # an infinite partner is neutral
    except (OverflowError, ValueError):
        raise argparse.ArgumentTypeError(
            f"{text} dB is out of range for a power ratio") from None
    return ratio


def _positive(text: str) -> float:
    try:
        value = _floats(text, 1)[0]
    except ValueError:
        value = 0.0
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _levels(text: str) -> list[float]:
    """Level sweep: either `a,b,c` or an inclusive `start:step:stop` range."""
    if ":" not in text:
        return list(_numbers(text, text.count(",") + 1))
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:step:stop, got {text!r}")
    start, step, stop = (_finite(p) for p in parts)
    if step <= 0.0 or stop < start:
        raise argparse.ArgumentTypeError("need step > 0 and stop >= start")
    steps = (stop - start) / step
    if steps == math.inf:
        raise argparse.ArgumentTypeError(f"too many levels in {text!r}")
    return [start + i * step for i in range(int(steps + 1e-9) + 1)]


def _fmt(x: float) -> str:
    return "%.10g" % x


def _db(power: float) -> float:
    """10 log10 of a power; -inf for zero power."""
    return 10.0 * math.log10(power) if power > 0.0 else -math.inf


def _write_csv(out: str | None, header: str, rows) -> None:
    text = header + "\n" + "".join(row + "\n" for row in rows)
    if out is None:
        sys.stdout.write(text)
        return
    dcmmod.write_text_atomic(out, text)


def _load_config(path: str | None) -> dict:
    """Scatter config overrides from a JSON object; GbsmConfig checks the types."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _gbsm_from_args(args) -> GbsmConfig:
    overrides = _load_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return GbsmConfig().with_overrides(**overrides)


def _build_points(args) -> list[tuple[float, float, float]]:
    if args.points is not None:
        pts = []
        no = 0
        try:
            with open(args.points, "rb") as fh:
                for no, line in enumerate(fh, start=1):
                    bad = [b for b in line if b > 0x7F]
                    if bad:
                        raise ValueError(f"non-ASCII byte 0x{bad[0]:02x}")
                    line = line.decode("ascii").strip()
                    if line and not line.startswith("#"):
                        pts.append(_floats(line, 3))
        except ValueError as exc:
            raise ValueError(f"{args.points}:{no}: {exc}") from None
        if not pts:
            raise ValueError(f"{args.points}: no locations found")
        return pts
    if args.origin is None or args.shape is None or args.spacing is None:
        raise ValueError("need either --points or --origin/--shape/--spacing")
    return dcmmod.grid_points(args.origin, args.shape, args.spacing)


def _model_for(args, rx_elements: int = 1) -> ChannelModel:
    dmap = dcmmod.load_map(args.map)
    overrides = _load_config(getattr(args, "config", None))
    rx = AntennaArray(n_elements=rx_elements) if rx_elements > 1 else AntennaArray()
    return dcmmod.model_from_map(dmap, args.at, seed=args.seed,
                                 overrides=overrides, rx_array=rx,
                                 tolerance=args.tolerance)


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_build(args) -> int:
    scene = load_scene(args.scene)
    gbsm = _gbsm_from_args(args)
    points = _build_points(args)
    t0 = time.perf_counter()
    dmap = dcmmod.build_map(scene, args.tx, points, max_order=args.max_order,
                            k_s=args.k_s, k_d=args.k_d, gbsm=gbsm)
    dcmmod.save_map(dmap, args.out)
    elapsed = time.perf_counter() - t0
    print(f"traced {len(points)} locations in {elapsed:.2f} s "
          f"-> {args.out}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    dmap = dcmmod.load_map(args.map)
    rec = dcmmod.query(dmap, args.at, tolerance=args.tolerance)
    paths = rec.mpcs
    rows = []
    for kind, delay, power, aod, aoa in zip(paths.kinds, paths.delay.tolist(),
                                            paths.power.tolist(), paths.aod.tolist(),
                                            paths.aoa.tolist()):
        values = [delay * 1e9, _db(power), *map(math.degrees, aod + aoa)]
        rows.append(",".join([kind, *map(_fmt, values)]))
    _write_csv(args.out,
               "kind,delay_ns,power_db,aod_el_deg,aod_az_deg,aoa_el_deg,aoa_az_deg",
               rows)
    return 0


def _cmd_update(args) -> int:
    dmap = dcmmod.load_map(args.map)
    overrides = _load_config(args.config)
    snap = dcmmod.update_snapshot(dmap, args.at, args.t, seed=args.seed,
                                  overrides=overrides, tolerance=args.tolerance)
    rows = []
    for (v, u) in sorted(snap.taps):
        taps = snap.taps[(v, u)]
        for delay, amp, kind in zip(taps.delays, taps.amps, taps.kinds):
            rows.append(",".join([
                str(v), str(u), kind, _fmt(delay * 1e9),
                _fmt(amp.real), _fmt(amp.imag),
            ]))
    _write_csv(args.out, "v,u,kind,delay_ns,amp_real,amp_imag", rows)
    return 0


def _cmd_simulate(args) -> int:
    model = _model_for(args)
    n = int(round(args.duration / args.dt))
    if n < 1:
        raise ValueError("duration must cover at least one step")
    t_grid = args.t0 + np.arange(n) * args.dt
    series = model.narrowband_series(t_grid)
    rows = [",".join([_fmt(t), _fmt(h.real), _fmt(h.imag), _fmt(abs(h))])
            for t, h in zip(t_grid, series)]
    _write_csv(args.out, "t_s,h_real,h_imag,envelope", rows)
    return 0


def _fcf(args):
    model = _model_for(args)
    df = np.arange(args.df_count) * args.df_step
    return df, fcf_closed_form(model, df, ensemble=args.ensemble)


def _cmd_stats_fcf(args) -> int:
    df, values = _fcf(args)
    rows = [",".join([_fmt(f), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))])
            for f, v in zip(df, values)]
    _write_csv(args.out, "df_hz,fcf_real,fcf_imag,fcf_abs", rows)
    return 0


def _cmd_stats_delay_psd(args) -> int:
    df, values = _fcf(args)
    psd = delay_psd(values, df)
    widths = np.gradient(psd.support)
    rows = []
    for tau, dens, w in zip(psd.support, psd.density, widths):
        rows.append(",".join([_fmt(tau * 1e9), _fmt(_db(dens * w))]))
    _write_csv(args.out, "delay_ns,power_db", rows)
    return 0


def _spread_cdf(args, base: ChannelModel, header: str, spread_of) -> int:
    """CSV of the empirical CDF of one spread per reseeded realization."""
    spreads = [spread_of(base.reseeded(args.seed + s)) for s in range(args.samples)]
    values, probs = empirical_cdf(spreads)
    rows = [",".join([_fmt(v), _fmt(p)]) for v, p in zip(values, probs)]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_stats_angular(args) -> int:
    base = _model_for(args, rx_elements=args.rx_elements)
    return _spread_cdf(args, base, "spread_deg,cdf", lambda model: math.degrees(
        rms_spread(angular_psd(model, n_lags=args.n_lags, ensemble=1))))


def _cmd_stats_doppler(args) -> int:
    return _spread_cdf(args, _model_for(args), "spread_hz,cdf", lambda model: rms_spread(
        doppler_psd(model, duration=args.duration, dt=args.dt, ensemble=1)))


def _cmd_stats_lcr(args) -> int:
    model = _model_for(args)
    inputs = lcr_time_inputs(model, ensemble=args.ensemble)
    levels = np.array([10.0 ** (db / 20.0) for db in args.levels_db])
    analytic = lcr_analytic(inputs, levels)
    t_grid = np.arange(int(round(args.duration / args.dt))) * args.dt
    series = model.narrowband_series(t_grid)
    # normalize by the exact mean power, not the realized one, so the
    # empirical rates share the analytic levels' reference
    amp, sigma2 = rician_params(model.snapshot(0.0))
    env = np.abs(series) / math.sqrt(abs(amp) ** 2 + 2.0 * sigma2)
    rows = []
    for db, level, rate in zip(args.levels_db, levels, analytic):
        emp = lcr_empirical(env, level, args.duration)
        rows.append(",".join([_fmt(db), _fmt(rate), _fmt(emp)]))
    _write_csv(args.out, "level_db,lcr_analytic,lcr_empirical", rows)
    return 0


def _cmd_bench(args) -> int:
    """Time offline construction against online snapshot updates."""
    scene = load_scene(args.scene)
    points = _build_points(args)
    gbsm = GbsmConfig(seed=args.seed)
    t0 = time.perf_counter()
    dmap = dcmmod.build_map(scene, args.tx, points, max_order=args.max_order,
                            gbsm=gbsm)
    build_s = time.perf_counter() - t0
    n_paths = sum(len(r.mpcs) for r in dmap.records.values())

    sample = points[:min(args.rebuilds, len(points))]
    rebuild_times = []
    for loc in sample:
        rec = dmap.records[tuple(loc)]
        factors = KFactors(rec.k_s, rec.k_d)
        t0 = time.perf_counter()
        mpcs = trace_static_mpcs(scene, args.tx, loc, max_order=args.max_order,
                                 frequency=gbsm.carrier_frequency)
        ChannelModel(mpcs, factors, gbsm, location=(args.tx, loc)).static_taps()
        rebuild_times.append(time.perf_counter() - t0)

    update_times = []
    for i in range(args.updates):
        loc = points[i % len(points)]
        t0 = time.perf_counter()
        dcmmod.update_snapshot(dmap, loc, t=0.0, seed=args.seed + i)
        update_times.append(time.perf_counter() - t0)

    rebuild_med = float(np.median(rebuild_times))
    update_med = float(np.median(update_times))
    rows = [
        ",".join(["build_total", str(len(points)), "%.6f" % build_s]),
        ",".join(["rebuild_median", str(len(sample)), "%.6f" % rebuild_med]),
        ",".join(["update_median", str(args.updates), "%.6f" % update_med]),
        ",".join(["update_over_rebuild", str(args.updates),
                  "%.6f" % (update_med / rebuild_med)]),
    ]
    print(f"facets={len(scene.facets)} max_order={args.max_order} "
          f"workers={dcmmod.worker_count()} paths={n_paths}", file=sys.stderr)
    _write_csv(args.out, "metric,samples,value", rows)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_lookup_args(p) -> None:
    p.add_argument("--map", required=True, help="channel map file")
    p.add_argument("--at", required=True, type=_triple,
                   help="receiver location x,y,z")
    p.add_argument("--tolerance", type=_finite, default=1e-6,
                   help="lookup tolerance in meters")


def _add_map_args(p) -> None:
    _add_lookup_args(p)
    p.add_argument("--seed", type=int, required=True,
                   help="random seed (results repeat for equal seeds)")
    p.add_argument("--config", help="JSON file of scatter config overrides")
    p.add_argument("--out", help="write CSV here instead of stdout")


def _add_trace_args(p) -> None:
    p.add_argument("--scene", required=True, help="scene geometry file")
    p.add_argument("--tx", required=True, type=_triple, help="transmitter x,y,z")
    p.add_argument("--points", help="CSV of receiver locations, one x,y,z per line")
    p.add_argument("--origin", type=_triple, help="grid origin x,y,z")
    p.add_argument("--shape", type=_counts, help="grid point counts nx,ny,nz")
    p.add_argument("--spacing", type=_finite, help="grid spacing in meters")
    p.add_argument("--max-order", type=_order, default=2, help="reflection depth")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcmkit",
        description="Hybrid channel model with pre-built channel maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="trace static paths over a location grid")
    _add_trace_args(p)
    p.add_argument("--out", required=True, help="output map path")
    p.add_argument("--ks-db", dest="k_s", type=_db_ratio, default="3",
                   help="line-of-sight to static-reflection power ratio, dB")
    p.add_argument("--kd-db", dest="k_d", type=_db_ratio, default="10",
                   help="line-of-sight to dynamic-scatter power ratio, dB")
    p.add_argument("--config", help="JSON file of scatter config overrides")
    p.add_argument("--seed", type=int, default=0, help="stored scatter seed")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="print the stored record at a location")
    _add_lookup_args(p)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("update", help="compose a fresh snapshot at a location")
    _add_map_args(p)
    p.add_argument("--t", type=_finite, default=0.0, help="snapshot time, seconds")
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("simulate", help="narrowband channel time series")
    _add_map_args(p)
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--dt", type=_positive, default=1e-3, help="sample step, seconds")
    p.add_argument("--duration", type=_finite, default=1.0, help="series length, seconds")
    p.set_defaults(func=_cmd_simulate)

    ps = sub.add_parser("stats", help="second-order statistics")
    stat = ps.add_subparsers(dest="stat", required=True)

    p = stat.add_parser("fcf", help="frequency correlation")
    _add_map_args(p)
    p.add_argument("--df-step", type=_finite, default=1e6)
    p.add_argument("--df-count", type=_count, default=101)
    p.add_argument("--ensemble", type=_count, default=200)
    p.set_defaults(func=_cmd_stats_fcf)

    p = stat.add_parser("delay-psd", help="delay power density")
    _add_map_args(p)
    p.add_argument("--df-step", type=_finite, default=1e6)
    p.add_argument("--df-count", type=_count, default=256)
    p.add_argument("--ensemble", type=_count, default=200)
    p.set_defaults(func=_cmd_stats_delay_psd)

    p = stat.add_parser("angular-spread-cdf",
                        help="arrival spread distribution across realizations")
    _add_map_args(p)
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--rx-elements", type=_count, default=8)
    p.add_argument("--n-lags", type=_count, default=64)
    p.set_defaults(func=_cmd_stats_angular)

    p = stat.add_parser("doppler-spread-cdf",
                        help="Doppler spread distribution across realizations")
    _add_map_args(p)
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--duration", type=_finite, default=0.512)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.set_defaults(func=_cmd_stats_doppler)

    p = stat.add_parser("lcr", help="level crossing rate, analytic and empirical")
    _add_map_args(p)
    p.add_argument("--levels", dest="levels_db", type=_levels,
                   default=[-20.0, -15.0, -10.0, -5.0, 0.0, 5.0],
                   help="envelope levels relative to rms, dB; a,b,c or start:step:stop")
    p.add_argument("--duration", type=_finite, default=4.0)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.add_argument("--ensemble", type=_count, default=256)
    p.set_defaults(func=_cmd_stats_lcr)

    p = sub.add_parser("bench",
                       help="compare full rebuild against online update timing")
    _add_trace_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rebuilds", type=_count, default=5,
                   help="locations to re-trace for the baseline timing")
    p.add_argument("--updates", type=_count, default=20,
                   help="online snapshot updates to time")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each type checks one option; the step count needs both
    if "dt" in vars(args) and not math.isfinite(args.duration / args.dt):
        parser.error("--duration / --dt must be a finite number of steps, "
                     f"got {args.duration} / {args.dt}")
    try:
        return args.func(args)
    except BrokenPipeError:
        # reader closed the pipe; exit quietly like any other filter
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
