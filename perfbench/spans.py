"""In-memory spans, call hooks into dcmkit, and timing summaries.

A span is (name, start, end, parent, op).  Spans of one operation (one
receiver build, one update, one panel, one query, ...) share the op id of
the root span that opened it.  Spans stay in memory and are written out
once, when the run ends.  Self time of a span is its duration minus the
durations of its direct children; a layer's self time is the sum over the
spans whose name starts with that layer.

Spans are recorded from the benchmark's own files only: `hooks()` swaps the
public functions the package calls between its modules for timing
wrappers, and restores them on exit.  Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager

LAYERS = ("scene", "raytrace", "gbsm", "hybrid", "stats", "dcm", "cli")

# (module, attribute, span name).  Each attribute is looked up at call time
# by the code that calls it, so replacing it on the module catches calls
# made inside the package as well as the benchmark's own calls.
HOOKS = (
    ("dcmkit.scene", "loads_scene", "scene.loads_scene_ms"),
    ("dcmkit.dcm", "trace_static_mpcs", "raytrace.trace_static_mpcs_ms"),
    ("dcmkit.dcm", "build_map", "dcm.build_map_s"),
    ("dcmkit.dcm", "query", "dcm.query_us"),
    ("dcmkit.dcm", "model_from_map", "dcm.model_from_map_us"),
    ("dcmkit.dcm", "update_snapshot", "dcm.update_snapshot_ms"),
    ("dcmkit.dcm", "dumps_map", "dcm.dumps_map_ms"),
    ("dcmkit.dcm", "loads_map", "dcm.loads_map_ms"),
    ("dcmkit.dcm", "save_map", "dcm.save_map_ms"),
    ("dcmkit.dcm", "load_map", "dcm.load_map_ms"),
    ("dcmkit.hybrid", "spawn_clusters", "gbsm.spawn_clusters_us"),
    ("dcmkit.hybrid", "dynamic_cir", "gbsm.dynamic_cir_us"),
    ("dcmkit.hybrid", "static_cir", "hybrid.static_cir_us"),
    ("dcmkit.hybrid", "combine_cir", "hybrid.combine_cir_us"),
    ("dcmkit.hybrid.ChannelModel", "narrowband_series", "hybrid.narrowband_series_s"),
    ("dcmkit.stats", "fcf_closed_form", "stats.fcf_closed_form_s"),
    ("dcmkit.stats", "delay_psd", "stats.delay_psd_ms"),
    ("dcmkit.stats", "rms_spread", "stats.rms_spread_us"),
    ("dcmkit.stats", "doppler_psd", "stats.doppler_psd_s"),
    ("dcmkit.stats", "angular_psd", "stats.angular_psd_s"),
    ("dcmkit.stats", "lcr_time_inputs", "stats.lcr_time_inputs_s"),
    ("dcmkit.stats", "lcr_analytic", "stats.lcr_analytic_ms"),
    ("dcmkit.stats", "lcr_empirical", "stats.lcr_empirical_ms"),
)

UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def unit_of(name: str) -> str:
    """Unit implied by a metric name's suffix: _s, _ms or _us."""
    suffix = name.rsplit("_", 1)[-1]
    return suffix if suffix in UNIT_SCALE else "s"


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


class Tracer:
    """Collects spans; `enabled` False makes every span a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.phases: dict[int, str] = {}
        self._stack: list[int] = []
        self._next_op = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self.parents.append(parent)
        self.ops.append(self.ops[parent] if parent >= 0 else -1)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.ends[idx] = time.perf_counter()

    @contextmanager
    def op(self, name: str, phase: str):
        """Root span of one operation; `phase` is setup/op/step/check/probe."""
        if not self.enabled:
            yield
            return
        if self._stack:
            raise RuntimeError(f"op {name!r} opened inside span {self.names[self._stack[-1]]!r}")
        op_id = self._next_op
        self._next_op += 1
        self.phases[op_id] = phase
        idx = len(self.names)
        with self.span(name):
            self.ops[idx] = op_id
            yield

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- derived figures ---------------------------------------------------

    def durations(self, name: str, phases=None) -> list[float]:
        return [e - s for n, s, e, o in zip(self.names, self.starts, self.ends, self.ops)
                if n == name and (phases is None or self.phases.get(o) in phases)]

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def self_durations(self, name: str, phases=None) -> list[float]:
        own = self.self_times()
        return [own[i] for i, n in enumerate(self.names)
                if n == name and (phases is None or self.phases.get(self.ops[i]) in phases)]

    def layer_self(self, phases) -> tuple[dict[str, float], float]:
        """Self seconds per layer over ops of the given phases, and their total."""
        own = self.self_times()
        per = {layer: 0.0 for layer in LAYERS + ("bench",)}
        total = 0.0
        for i, name in enumerate(self.names):
            if self.phases.get(self.ops[i]) not in phases:
                continue
            per[layer_of(name)] += own[i]
            if self.parents[i] < 0:
                total += self.ends[i] - self.starts[i]
        return per, total

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                    "op": self.ops[i], "phase": self.phases.get(self.ops[i]),
                }) + "\n")


@contextmanager
def hooks(tracer: Tracer):
    """Route the package's public calls through spans for the duration.

    Yields the hook targets the package no longer has; their spans are
    missing from the run, and their per-call metrics read 0.
    """
    saved = []
    missing = []
    try:
        for target, attr, name in HOOKS:
            obj = _resolve(target)
            fn = getattr(obj, attr, None) if obj is not None else None
            if fn is None:
                missing.append(f"{target}.{attr}")
                continue
            saved.append((obj, attr, fn))
            setattr(obj, attr, tracer.wrap(fn, name))
        yield missing
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)


def _resolve(target: str):
    parts = target.split(".")
    obj = sys.modules.get(parts[0])
    for part in parts[1:]:
        obj = getattr(obj, part, None)
    return obj


# ---------------------------------------------------------------------------
# summaries

def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("empty sample")
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    """Median of a sample; 0.0 for an empty one."""
    return quantile(values, 0.5) if len(values) else 0.0


def tail_percentile(n: int) -> int | None:
    """Highest of p50/p90/p99 with at least ten samples beyond it, if any."""
    best = None
    for pct in (50, 90, 99):
        if n * (100 - pct) / 100.0 >= 10:
            best = pct
    return best


def summary(samples_s, unit: str) -> dict:
    """p50, the highest percentile with ten samples beyond it, and n."""
    scale = UNIT_SCALE[unit]
    vals = [v * scale for v in samples_s]
    out = {"unit": unit, "n": len(vals)}
    if not vals:
        return out
    out["p50"] = quantile(vals, 0.5)
    pct = tail_percentile(len(vals))
    if pct is not None and pct > 50:
        out["tail_pct"] = pct
        out["tail"] = quantile(vals, pct / 100.0)
    return out
