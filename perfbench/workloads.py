"""The three benchmark workloads and the run loop they share.

Every loop is closed with one caller: the next operation starts when the
previous one returned.  Inputs come from the run's seed only.  See
README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

import checks
from spans import Tracer, hooks, median
from speed import Speed

from dcmkit import dcm as D
from dcmkit import gbsm as G
from dcmkit import hybrid as H
from dcmkit import raytrace as R
from dcmkit import scene as SC
from dcmkit import stats as ST

ROOM_SCENE = """\
[material] name=wall eps_r=5.31 sigma=0.0326
[material] name=floor eps_r=3.91 sigma=0.33
[facet] material=floor v=0,0,0;4,0,0;4,5,0;0,5,0
[facet] material=wall  v=0,0,3;4,0,3;4,5,3;0,5,3
[facet] material=wall  v=0,0,0;4,0,0;4,0,3;0,0,3
[facet] material=wall  v=0,5,0;4,5,0;4,5,3;0,5,3
[facet] material=wall  v=0,0,0;0,5,0;0,5,3;0,0,3
[facet] material=wall  v=4,0,0;4,5,0;4,5,3;4,0,3
"""
ROOM_TX = (1.0, 1.0, 1.5)
# The room maps of update-room and stats-room: a grid of receivers 0.25 m
# apart at head height.  A lookup within half a cell's diagonal resolves any
# location inside the grid to its nearest record.
ROOM_ORIGIN = (1.75, 1.75, 1.5)
ROOM_SPACING = 0.25
ROOM_TOLERANCE = 0.5 * ROOM_SPACING * 3.0 ** 0.5
ANGULAR_ELEMENTS = 8
PANEL_TX = (0.5, 0.5, 5.0)
PANEL_FACETS = 101
# build-panel draws one block of receivers per this many seconds of the
# run's budget; a block of ten takes ~11 s on the seed commit.
PANEL_BLOCK_S = 15.0
# Steps per second of a run's budget: at 30 s, 12 cold CLI queries on
# build-panel, 15 cold CLI updates on update-room and 2 series on stats-room.
PANEL_CLI_PER_S = 0.4
CLI_UPDATES_PER_S = 0.5
SERIES_PER_S = 0.07


def panel_scene_text(nx: int = 10, ny: int = 10) -> str:
    """Acceptance-7 panel field: nx*ny vertical panels over a ground plane."""
    lines = ["[material] name=concrete eps_r=5.31 sigma=0.0326",
             "[material] name=glass eps_r=6.27 sigma=0.0167",
             "[facet] material=concrete v=-400,-400,0;400,-400,0;400,400,0;-400,400,0"]
    for i in range(nx):
        for j in range(ny):
            x, y = -45.0 + 10.0 * i, -45.0 + 10.0 * j
            mat = "concrete" if (i + j) % 2 == 0 else "glass"
            if (i + j) % 2 == 0:
                v = f"{x},{y - 1.5},0;{x},{y + 1.5},0;{x},{y + 1.5},3;{x},{y - 1.5},3"
            else:
                v = f"{x - 1.5},{y},0;{x + 1.5},{y},0;{x + 1.5},{y},3;{x - 1.5},{y},3"
            lines.append(f"[facet] material={mat} v={v}")
    return "\n".join(lines) + "\n"


def panel_points():
    """The acceptance-7 receiver grid, 10 x 10, x-major."""
    return D.grid_points((-8.0, -8.0, 1.5), (10, 10, 1), 1.75)


def room_points(shape):
    return D.grid_points(ROOM_ORIGIN, shape, ROOM_SPACING)


def point_key(p) -> str:
    return ",".join("%g" % v for v in p)


def fmt_xyz(p) -> str:
    return ",".join(repr(float(v)) for v in p)


def cli_env(root: str) -> dict:
    """The caller's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Sizes:
    """Workload sizes.  The defaults are the benchmark; tests shrink them."""

    setup_repeats: int = 3             # and at least setup_min_s of set-ups
    setup_min_s: float = 1.0
    check_ensemble: int = 2            # fcf sanity check on every workload
    import_repeats: int = 3            # cold `import dcmkit.cli` probes
    # build-panel
    panel_receivers: int = 10          # per block, each on its own grid row
    # update-room and stats-room
    room_shape: tuple = (7, 9, 1)
    room_order: int = 2
    # update-room
    repeat_every: int = 50
    # stats-room
    fcf_offsets: int = 64
    fcf_ensemble: int = 200
    doppler_ensemble: int = 64
    angular_ensemble: int = 64
    lcr_ensemble: int = 256
    series_samples: int = 100_000


class Run:
    """State of one benchmark run: timings, counts, failures and spans."""

    def __init__(self, root, workdir, seed: int, seconds: float, trace: bool,
                 sizes: Sizes | None = None):
        self.root = os.fspath(root)
        self.workdir = os.fspath(workdir)
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.sizes = sizes or Sizes()
        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.tracer = Tracer(enabled=False)
        self.spans = Tracer(enabled=self.trace)
        self.samples: dict[str, list[float]] = {}
        self.when: dict[str, list[tuple[float, float]]] = {}
        self.speed = Speed()
        self.counts: dict[str, int] = {}
        self.derived: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.hooks_missing: list[str] = []

    # -- timing ------------------------------------------------------------

    @contextmanager
    def traced(self):
        """Spans on and the package's calls hooked, for the duration."""
        if not self.trace:
            yield
            return
        self.tracer = self.spans
        try:
            with hooks(self.spans) as missing:
                new = sorted(set(missing) - set(self.hooks_missing))
                if new:
                    print("perfbench: no hook for " + ", ".join(new), file=sys.stderr)
                    self.hooks_missing = sorted(set(self.hooks_missing) | set(new))
                yield
        finally:
            self.tracer = Tracer(enabled=False)

    def timed(self, name: str, phase: str, fn, *args, **kwargs):
        """Run one operation under a root span and keep its wall time and
        when it ran, with the reference kernel timed around it."""
        self.speed.sample()
        t0 = time.perf_counter()
        with self.tracer.op(name, phase):
            out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.samples.setdefault(name, []).append(t1 - t0)
        self.when.setdefault(name, []).append((t0, t1))
        self.speed.sample()
        return out

    def scaled(self, name: str) -> list[float]:
        """The samples of `name`, each scaled to the reference speed."""
        return [x * self.speed.scale(t0, t1)
                for x, (t0, t1) in zip(self.samples.get(name, []), self.when.get(name, []))]

    def attempt(self, name: str, phase: str, fn, *args, check=None, **kwargs):
        """Count, time and check one operation; a failure is kept, not raised.

        Returns (ok, output).  `check(output)` runs untimed, under a check
        span; a raised CheckFailed or any other exception fails the op.
        """
        self.attempted += 1
        try:
            out = self.timed(name, phase, fn, *args, **kwargs)
            if check is not None:
                with self.tracer.op("check." + name, "check"):
                    check(out)
        except Exception as exc:  # run boundary: record the failure and go on
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return False, None
        return True, out

    def per_run(self, rate: float) -> int:
        """How many steps a run makes at `rate` per second of its budget;
        at least one."""
        return max(1, round(rate * self.seconds))

    def check(self, name: str, fn, *args) -> None:
        """An untimed end-of-run check; a failure counts as a failed op."""
        self.attempted += 1
        try:
            with self.tracer.op(name, "check"):
                fn(*args)
        except Exception as exc:  # run boundary, as in attempt()
            self.fail(f"{name}: {type(exc).__name__}: {exc}")

    def note(self, message: str) -> None:
        """A known deviation from the package's documentation; not a failure."""
        if message not in self.notes:
            self.notes.append(message)
            print("perfbench: NOTE " + message, file=sys.stderr)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print("perfbench: FAILED " + message, file=sys.stderr)

    # -- helpers -----------------------------------------------------------

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, span: str, *args: str) -> str:
        """One cold `python -m dcmkit.cli` process; returns its stdout."""
        with self.tracer.span(span):
            proc = subprocess.run([sys.executable, "-m", "dcmkit.cli", *args],
                                  cwd=self.root, env=cli_env(self.root), capture_output=True,
                                  text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"dcmkit {args[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return proc.stdout

    def fcf_sanity(self, dmap, location, tolerance: float, where: str) -> None:
        """fcf(0) of a map record's model equals the power its branches carry,
        and its delay PSD keeps that mass.

        `branch_power_coefficients` is documented to match synthesis
        exactly, so this holds for every record.  Their documented sum, and
        fcf(0), is 1; a record without static paths misses that (the static
        share is dropped), which is noted, not failed.  See README.md.
        """
        model = D.model_from_map(dmap, location, seed=self.seed, tolerance=tolerance)
        df = np.arange(8) * 1e6
        fcf = ST.fcf_closed_form(model, df, ensemble=self.sizes.check_ensemble)
        power = sum(ST.branch_power_coefficients(
            model.k, any(m.is_los for m in model.static_mpcs),
            any(not m.is_los for m in model.static_mpcs)))
        checks.check_fcf_psd(fcf, ST.delay_psd(fcf, df), where, expected=power)
        if abs(power - 1.0) > 1e-9:
            self.note(f"{where}: fcf(0) = {power:.6g}, not 1, on a record with "
                      f"{len(model.static_mpcs)} static paths")

    def loop(self, name: str, inputs, do, check=None, budget=None, min_ops: int = 0,
             step=None, steps: int = 0):
        """Closed loop of `do(input)` over `inputs`, or, given a `budget`,
        until `budget` seconds of ops and `min_ops` ops.

        `steps` calls of `step(input)` are spread evenly over the loop, each
        after the op of its input: by the share of the inputs done, or, given
        a budget, by the share of it spent.  So the steps meet the machine
        load of the whole run, as the ops do, not that of one stretch of it.

        When tracing, every input runs twice, untraced and traced, in
        alternating order so that warm-up cancels.  The budget counts the
        traced ops only, so a traced run weighs ops against steps as an
        untraced run does, and the paired times give the tracing overhead.
        Returns the inputs used.
        """
        used = []
        spent = 0.0
        done = 0
        for inp in inputs:
            if budget is not None and len(used) >= min_ops and spent >= budget:
                break
            used.append(inp)
            chk = None if check is None else (lambda out, i=inp: check(i, out))
            if self.trace and len(used) % 2:
                self.attempt("untraced." + name, "op", do, inp, check=chk)
            t0 = time.perf_counter()
            with self.traced():
                self.attempt(name, "op", do, inp, check=chk)
            spent += time.perf_counter() - t0
            if self.trace and not len(used) % 2:
                self.attempt("untraced." + name, "op", do, inp, check=chk)
            progress = len(used) / len(inputs) if budget is None else spent / budget
            while done < steps and progress >= (done + 0.5) / steps:
                with self.traced():
                    step(inp)
                done += 1
        if self.trace:
            plain = sum(self.samples.get("untraced." + name, []))
            traced = sum(self.samples.get(name, []))
            if plain > 0.0:
                self.derived["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
        return used

    def setup(self, fn):
        """Set up `setup_repeats` times and for `setup_min_s` at least, or
        once when tracing; keep the last state.  Cheap set-ups repeat more,
        so their median is as steady as that of costly ones."""
        s = self.sizes
        state = None
        count, spent = 0, 0.0
        with self.traced():
            while count < (1 if self.trace else s.setup_repeats) or (
                    not self.trace and spent < s.setup_min_s):
                state = self.timed("setup_s", "setup", fn)
                count, spent = count + 1, spent + self.samples["setup_s"][-1]
        return state


# ---------------------------------------------------------------------------
# build-panel: offline map build on the acceptance-7 panel field

class BuildPanel:
    """Order-3 map build; tracing is ~99 % of the time here, 0 % elsewhere."""

    name = "build-panel"
    op_metric = "build_s"
    step_metric = "cli_query_s"
    follows_reference = ()

    def __init__(self, run: Run):
        self.run = run
        with open(os.path.join(os.path.dirname(__file__), "panel_counts.json")) as fh:
            self.expected = json.load(fh)["receivers"]
        self.points = panel_points()

    def _setup(self):
        path = self.run.path("panel.scene")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(panel_scene_text())
        scene = SC.load_scene(path)
        checks.require(scene.n_facets == PANEL_FACETS, f"panel scene has {scene.n_facets} facets")
        return scene

    def receivers(self):
        """A fixed set per run: one block per PANEL_BLOCK_S seconds of the
        budget, each block on distinct grid rows in a seeded order.

        Receivers cost 0.84-1.12 s each, so the set must not depend on how
        fast the builds are.
        """
        rng = self.run.rng
        out = []
        for _ in range(max(1, round(self.run.seconds / PANEL_BLOCK_S))):
            for row in rng.permutation(10)[:self.run.sizes.panel_receivers]:
                out.append(self.points[int(row) * 10 + int(rng.integers(10))])
        return out

    def _build(self, rx):
        dmap = D.build_map(self.scene, PANEL_TX, [rx], max_order=3)
        path = self.run.path("panel-%s.dcm" % point_key(rx))
        D.save_map(dmap, path)
        return dmap, path

    def _check(self, rx, out):
        dmap, path = out
        where = f"build-panel rx {point_key(rx)}"
        rec = dmap.records[tuple(rx)]
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        self.built[point_key(rx)] = (rec, len(text))
        checks.check_panel_counts(rec.mpcs, self.expected[point_key(rx)], where)
        loaded = D.load_map(path)
        checks.check_redump(text, D.dumps_map(loaded), where)
        snap = D.update_snapshot(loaded, rx, t=0.0, seed=self.run.seed)
        cfg = loaded.gbsm
        checks.check_taps(snap.pair(), len(rec.mpcs), cfg.n_clusters * cfg.rays_per_cluster, where)
        self.run.fcf_sanity(loaded, rx, 1e-6, where)

    def _cli_query(self, rx):
        """A cold CLI query of the map just built for `rx`."""
        run = self.run
        rec, _size = self.built.get(point_key(rx), (None, 0))
        run.attempt(self.step_metric, "step", run.cli, "cli.query_s", "query",
                    "--map", run.path("panel-%s.dcm" % point_key(rx)), "--at=" + fmt_xyz(rx),
                    check=lambda out: checks.check_cli_rows(out, len(rec.mpcs),
                                                            "build-panel CLI query"))

    def execute(self):
        run = self.run
        self.scene = run.setup(self._setup)
        self.built = {}
        used = run.loop(self.op_metric, self.receivers(), self._build, self._check,
                        step=self._cli_query, steps=run.per_run(PANEL_CLI_PER_S))
        built = [self.built[k] for k in map(point_key, used) if k in self.built]
        totals = [sum(col) for col in zip(*(checks.path_counts(rec.mpcs) for rec, _ in built))]
        for label, value in zip(("los", "order1", "order2", "order3"), totals):
            run.counts["raytrace.paths." + label] = value
        run.counts["dcm.map_bytes"] = sum(size for _rec, size in built)
        run.counts["dcm.records"] = len(built)
        if run.trace:
            self._probe_orders(used, run.counts.get("raytrace.paths.order3", 0))

    def _probe_orders(self, receivers, kept3):
        """Per-order tracer time: trace at max_order 0..2, difference the calls."""
        run = self.run
        with run.traced():
            times = {k: [] for k in range(3)}
            for rx in receivers:
                for k in range(3):
                    t0 = time.perf_counter()
                    with run.tracer.op("probe.raytrace.max_order%d" % k, "probe"):
                        R.trace_static_mpcs(self.scene, PANEL_TX, rx, max_order=k)
                    times[k].append(time.perf_counter() - t0)
        # the traced builds called trace_static_mpcs at order 3 on the same
        # receivers, first to last
        n = len(receivers)
        t3 = run.spans.durations("raytrace.trace_static_mpcs_ms", ("op",))[:n]
        run.derived["raytrace.order1_s"] = (median(np.subtract(times[1], times[0])), "s")
        run.derived["raytrace.order2_s"] = (median(np.subtract(times[2], times[1])), "s")
        run.derived["raytrace.order3_s"] = (median(np.subtract(t3, times[2])), "s")
        nf = PANEL_FACETS
        run.derived["raytrace.kept_per_candidate.order3"] = (
            kept3 / (n * nf * (nf - 1) ** 2), "ratio")
        run.derived["dcm.encode_s"] = (
            median(run.spans.self_durations("dcm.build_map_s", ("op",))), "s")
        run.derived["dcm.write_file_ms"] = (
            1e3 * median(run.spans.self_durations("dcm.save_map_ms", ("op",))), "ms")


# ---------------------------------------------------------------------------
# update-room: online snapshot updates along a receiver route

class UpdateRoom:
    """update_snapshot calls along a route, then cold CLI updates."""

    name = "update-room"
    op_metric = "update_ms"
    step_metric = "cli_update_s"
    # The only timings that follow the reference kernel closely enough to
    # be scaled to its speed (speed.py).
    follows_reference = ("setup_s", "update_ms", "cli_update_s")

    def __init__(self, run: Run):
        self.run = run
        self.points = room_points(run.sizes.room_shape)

    def _setup(self):
        scene = SC.loads_scene(ROOM_SCENE)
        dmap = D.build_map(scene, ROOM_TX, self.points, max_order=self.run.sizes.room_order)
        path = self.run.path("room.dcm")
        D.save_map(dmap, path)
        return D.load_map(path)

    def route(self):
        """A receiver walking straight legs between seeded waypoints in the
        grid's footprint, with one update per half wavelength it moves.

        Half a wavelength of the map's carrier is the spatial sampling step
        that resolves the Doppler of the receiver's own motion.  The receiver
        walks at the map's scatterer speed, so t advances by the time that
        step takes.  Each location is looked up with ROOM_TOLERANCE, which
        resolves it to its nearest record; the run of steps spent on one
        record follows from the grid spacing over the step.  Every call gets
        its own seed.  Yields (i, record index, location, t, seed, new),
        where `new` says the record differs from the step before.
        """
        cfg = self.dmap.gbsm
        step = 0.5 * SPEED_OF_LIGHT / cfg.carrier_frequency
        dt = step / cfg.cluster_speed
        rng = self.run.rng
        grid = np.asarray(self.points)
        lo, hi = grid.min(axis=0), grid.max(axis=0)
        pos, goal = rng.uniform(lo, hi), rng.uniform(lo, hi)
        prev = -1
        for i in itertools.count():
            rec = int(np.argmin(np.linalg.norm(grid - pos, axis=1)))
            yield (i, rec, tuple(float(v) for v in pos), i * dt,
                   (self.run.seed << 24) + i, rec != prev)
            prev = rec
            rest = goal - pos
            dist = float(np.linalg.norm(rest))
            if dist <= step:
                pos, goal = goal, rng.uniform(lo, hi)
            else:
                pos = pos + rest * (step / dist)

    def _update(self, step):
        _i, _rec, loc, t, seed, _new = step
        return D.update_snapshot(self.dmap, loc, t=t, seed=seed, tolerance=ROOM_TOLERANCE)

    def _check(self, step, snap):
        i, rec_idx, _loc, _t, _seed, _new = step
        where = f"update-room step {i}"
        rec = self.dmap.records[self.points[rec_idx]]
        cfg = self.dmap.gbsm
        checks.check_taps(snap.pair(), len(rec.mpcs), cfg.n_clusters * cfg.rays_per_cluster, where)
        if i % self.run.sizes.repeat_every == 0:
            checks.check_same_taps(snap.pair(), self._update(step).pair(), where)
        if i == 0:
            self.first_taps = len(snap.pair())
            self.rays = sum(1 for k in snap.pair().kinds if k.startswith("dyn:"))

    def _cli_update(self, step):
        """A cold CLI update at the route step just taken."""
        run = self.run
        _i, _rec, loc, t, seed, _new = step
        expect = len(self._update(step).pair())
        run.attempt(self.step_metric, "step", run.cli, "cli.update_s", "update",
                    "--map", run.path("room.dcm"), "--at=" + fmt_xyz(loc), "--t", repr(t),
                    "--seed", str(seed), "--tolerance", repr(ROOM_TOLERANCE),
                    check=lambda out: checks.check_cli_rows(out, expect,
                                                            "update-room CLI update"))

    def execute(self):
        run = self.run
        self.dmap = run.setup(self._setup)
        path = run.path("room.dcm")
        used = run.loop(self.op_metric, self.route(), self._update, self._check,
                        budget=0.55 * run.seconds, min_ops=1, step=self._cli_update,
                        steps=run.per_run(CLI_UPDATES_PER_S))
        with run.traced():
            run.check("update-room fcf", run.fcf_sanity, self.dmap, self.points[0],
                      1e-6, "update-room fcf")
        run.counts["dcm.records"] = len(self.dmap.records)
        run.counts["dcm.map_bytes"] = os.path.getsize(path)
        run.counts["hybrid.taps_per_snapshot"] = getattr(self, "first_taps", 0)
        run.counts["gbsm.rays_per_spawn"] = getattr(self, "rays", 0)
        new = [step[5] for step in used[1:]]
        run.derived["hybrid.record_reuse_frac"] = (new.count(False) / max(1, len(new)), "frac")
        # the update time on a record reached the step before, and on a new
        # one: a static-tap cache would speed up the first only
        times = run.samples.get(self.op_metric, [])
        if not run.trace and len(times) == len(used):
            for label, flag in (("same", False), ("new", True)):
                xs = [x for x, step in zip(times[1:], used[1:]) if step[5] == flag]
                if xs:
                    run.samples["update_%s_record_ms" % label] = xs
        if run.trace:
            self._probe_cli(path)

    def _probe_cli(self, path):
        """Cold-import cost of the CLI, and the map load it pays per call."""
        run = self.run
        env = cli_env(run.root)
        with run.traced():
            for _ in range(run.sizes.import_repeats):
                with run.tracer.op("probe.cli.import", "probe"):
                    with run.tracer.span("cli.import_s"):
                        subprocess.run([sys.executable, "-c", "import dcmkit.cli"],
                                       cwd=run.root, env=env, check=True, timeout=120)
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dcmkit.cli"],
                                  cwd=run.root, env=env, capture_output=True, text=True,
                                  check=True, timeout=120)
            for _ in range(5):
                with run.tracer.op("probe.cli.load_map", "probe"):
                    D.load_map(path)
        run.derived["cli.import_s"] = (median(run.spans.durations("cli.import_s", ("probe",))), "s")
        imports = import_times(proc.stderr)
        run.derived["cli.import_numpy_s"] = (imports.get("numpy", 0.0), "s")
        run.derived["cli.import_scipy_s"] = (imports.get("scipy", 0.0), "s")
        load = run.spans.durations("dcm.load_map_ms", ("probe",))
        run.derived["cli.load_map_ms"] = (1e3 * median(load), "ms")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per top-level package from `-X importtime` output.

    A module's line follows the lines of the imports nested in it, indented
    deeper.  Only a package's outermost lines count, since their cumulative
    time already holds the nested ones.
    """
    lines = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        lines.append((len(name) - len(name.lstrip()), name.strip().split(".", 1)[0],
                      int(parts[1]) / 1e6))
    totals: dict[str, float] = {}
    ancestors: list[tuple[int, str]] = []
    for depth, pkg, cum in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if all(p != pkg for _d, p in ancestors):
            totals[pkg] = totals.get(pkg, 0.0) + cum
        ancestors.append((depth, pkg))
    return totals


# ---------------------------------------------------------------------------
# stats-room: the statistics panel at one room location

class StatsRoom:
    """Ensemble statistics with fixed ensemble sizes, then a long series."""

    name = "stats-room"
    op_metric = "stats_panel_s"
    step_metric = "series_s"
    follows_reference = ()

    def __init__(self, run: Run):
        self.run = run
        points = room_points(run.sizes.room_shape)
        self.location = points[int(run.rng.integers(len(points)))]

    def _setup(self):
        s = self.run.sizes
        scene = SC.loads_scene(ROOM_SCENE)
        dmap = D.build_map(scene, ROOM_TX, [self.location], max_order=s.room_order)
        path = self.run.path("stats.dcm")
        D.save_map(dmap, path)
        dmap = D.load_map(path)
        model = D.model_from_map(dmap, self.location, seed=self.run.seed)
        array = G.AntennaArray(n_elements=ANGULAR_ELEMENTS)
        model_rx = D.model_from_map(dmap, self.location, seed=self.run.seed, rx_array=array)
        # models cache their static taps; make them here, once, as a user would
        model.static_taps()
        model_rx.static_taps()
        return dmap, model, model_rx

    def _panel(self, _round):
        s = self.run.sizes
        df = np.arange(s.fcf_offsets) * 1e6
        fcf = ST.fcf_closed_form(self.model, df, ensemble=s.fcf_ensemble)
        dpsd = ST.delay_psd(fcf, df)
        spread = ST.rms_spread(dpsd)
        ST.doppler_psd(self.model, ensemble=s.doppler_ensemble)
        ST.angular_psd(self.model_rx, ensemble=s.angular_ensemble)
        inputs = ST.lcr_time_inputs(self.model, ensemble=s.lcr_ensemble)
        rates = ST.lcr_analytic(inputs, self.levels)
        return fcf, dpsd, spread, rates

    def _check_panel(self, _round, out):
        fcf, dpsd, spread, rates = out
        checks.check_fcf_psd(fcf, dpsd, "stats-room panel")
        checks.require(spread > 0.0 and np.isfinite(spread),
                       f"stats-room: rms delay spread {spread}")
        checks.check_rates(rates, "stats-room analytic LCR")

    def _series(self):
        t_grid = np.arange(self.run.sizes.series_samples) * 1e-3
        return self.model.narrowband_series(t_grid)

    def _check_series(self, series):
        n = self.run.sizes.series_samples
        checks.require(len(series) == n and bool(np.all(np.isfinite(series))),
                       "stats-room: series not finite")
        amp, sigma2 = H.rician_params(self.model.snapshot(0.0))
        env = np.abs(series) / np.sqrt(abs(amp) ** 2 + 2.0 * sigma2)
        rates = [ST.lcr_empirical(env, level, n * 1e-3) for level in self.levels]
        checks.check_rates(rates, "stats-room empirical LCR")

    def execute(self):
        run = self.run
        s = run.sizes
        self.levels = np.array([10.0 ** (db / 20.0) for db in (-20, -15, -10, -5, 0, 5)])
        self.dmap, self.model, self.model_rx = run.setup(self._setup)
        run.loop(self.op_metric, itertools.count(), self._panel, self._check_panel,
                 budget=0.6 * run.seconds, min_ops=2, steps=run.per_run(SERIES_PER_S),
                 step=lambda _round: run.attempt(self.step_metric, "step", self._series,
                                                 check=self._check_series))
        with run.traced():
            run.check("stats-room CLI fcf", self._cli_fcf)
        run.counts["stats.ensemble_members"] = (
            s.fcf_ensemble + s.doppler_ensemble + s.angular_ensemble + s.lcr_ensemble)
        run.counts["dcm.records"] = len(self.dmap.records)
        run.counts["raytrace.paths"] = len(self.model.static_mpcs)
        run.counts["dcm.map_bytes"] = os.path.getsize(run.path("stats.dcm"))
        series = run.samples.get(self.step_metric, [])
        if series:
            run.derived["series_msamples_per_s"] = (
                s.series_samples / 1e6 / median(series), "1e6/s")
        if run.trace:
            spawn = sum(run.spans.durations("gbsm.spawn_clusters_us", ("op",)))
            panel = sum(run.samples[self.op_metric])
            run.derived["stats.spawn_share"] = (spawn / panel, "frac")

    def _cli_fcf(self):
        out = self.run.cli("cli.stats_fcf_s", "stats", "fcf", "--map", self.run.path("stats.dcm"),
                           "--at=" + fmt_xyz(self.location), "--seed", str(self.run.seed),
                           "--df-count", "8", "--ensemble", str(self.run.sizes.check_ensemble))
        checks.check_cli_fcf(out, "stats-room CLI fcf")


WORKLOADS = {cls.name: cls for cls in (BuildPanel, UpdateRoom, StatsRoom)}
