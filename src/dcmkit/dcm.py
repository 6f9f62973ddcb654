"""Dynamic channel map: pre-built static paths plus fast online updates.

A map is built offline by ray tracing every receiver grid point against one
transmitter, and stores per point the static paths together with the two
power ratios that weight static against dynamic scattering.  Online, a
query returns the stored record and an update composes it with freshly
spawned dynamic clusters, which costs milliseconds instead of the full
trace.

Maps persist to a line-oriented ASCII format (magic `DCMv2`).  Values are
stored in SI units (seconds, linear power, radians) and every float is
written as its shortest round-trip `repr`, so a load returns exactly the
values that were saved and save, load and save again produce byte-identical
files.  Loads follow the scene grammar: every `[map]`, `[gbsm]` and record
key at most once, each `mpc` line exactly its seven keys and a kind of
`los` or `refl:<n>`, every number finite (except an `xpr`, `ks` or `kd` of
`inf`), one `kind=los` path per record at most, and a malformed line fails
with its 1-based number.  A map is derived data: a file in another format
is rejected and has to be rebuilt from its scene.  Writes go to a fresh
temporary file that is atomically renamed over the target.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .gbsm import AntennaArray, GbsmConfig, config_field
from .hybrid import _ONE_ELEMENT, ChannelModel, ChannelSnapshot, KFactors
from .raytrace import PathSet, _kind_order, _point, trace_static_mpcs
from .scene import Scene, _fields, _floats, _integer, _number

MAGIC = "DCMv2"
DEFAULT_K_STATIC = 10.0 ** 0.3   # 3 dB
DEFAULT_K_DYNAMIC = 10.0         # 10 dB
MATCH_SCALES = (3.125e-9, math.radians(5.0))


class DcmLookupError(LookupError):
    """No stored record close enough to the requested location."""


@dataclass(frozen=True)
class DcmRecord:
    """Static paths and mixing ratios for one receiver location."""

    tx: tuple[float, float, float]
    rx: tuple[float, float, float]
    k_s: float
    k_d: float
    mpcs: PathSet

    def __post_init__(self):
        # the reader's and the model's rules, so every record that can be
        # saved also loads; the ratios are kept for the models made from it
        for name in ("tx", "rx"):
            object.__setattr__(self, name, tuple(_point(name, getattr(self, name)).tolist()))
        object.__setattr__(self, "_k", KFactors(self.k_s, self.k_d))
        if not isinstance(self.mpcs, PathSet):
            raise TypeError("mpcs must be a PathSet; convert rows with PathSet.of")


@dataclass
class DcmMap:
    """Offline-traced channel map over a set of receiver locations."""

    frequency: float
    max_order: int
    scene_hash: str
    gbsm: GbsmConfig
    records: dict[tuple[float, float, float], DcmRecord]
    _located: tuple = field(default=((), None), init=False, repr=False, compare=False)

    def __post_init__(self):
        # the reader's header rules, so every map that can be saved also loads
        self.frequency = _number("frequency", self.frequency, 0.0, strict=True)
        self.max_order = _integer("max_order", self.max_order, 0)
        if not (self.scene_hash.isascii() and self.scene_hash.isprintable()):
            raise ValueError(f"scene_hash must be printable ASCII, got {self.scene_hash!r}")
        if self.gbsm.carrier_frequency != self.frequency:
            raise ValueError(_carrier_mismatch(self.gbsm.carrier_frequency, self.frequency))
        for key, record in self.records.items():
            if key != record.rx:
                raise ValueError(f"record key {key!r} is not its rx {record.rx!r}")

    def locations(self) -> np.ndarray:
        """Record locations (N, 3), read-only, rebuilt when the record keys change."""
        keys = tuple(self.records)
        if keys != self._located[0]:
            self._located = keys, np.array(keys, dtype=float).reshape(-1, 3)
            self._located[1].flags.writeable = False
        return self._located[1]


@dataclass(frozen=True)
class MatchResult:
    """Greedy pairing between reference and simulated path lists."""

    pairs: tuple[tuple[int, int], ...]
    distances: tuple[float, ...]
    unmatched_ref: tuple[int, ...]
    unmatched_sim: tuple[int, ...]
    scales: tuple[float, float] = MATCH_SCALES
    threshold: float = 1.0


# ---------------------------------------------------------------------------
# path matching and ratio estimation

def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def match_mpcs(reference: PathSet, simulated: PathSet, scales=MATCH_SCALES,
               threshold: float = 1.0) -> MatchResult:
    """Greedily pair paths that are close in (delay, arrival azimuth).

    Distance is the Euclidean norm of the scaled delay difference and the
    wrapped azimuth-of-arrival difference; pairs beyond `threshold` stay
    unmatched.  Ties resolve by reference index, then simulated index.
    """
    d_tau = np.subtract.outer(reference.delay, simulated.delay) / scales[0]
    d_ang = _wrap_angle(np.subtract.outer(reference.aoa[:, 1], simulated.aoa[:, 1]))
    dist = np.hypot(d_tau, d_ang / scales[1])
    near = np.nonzero(dist <= threshold)
    chosen, used = {}, set()  # reference index -> (simulated index, distance)
    for d, i, j in sorted(zip(dist[near].tolist(), *(k.tolist() for k in near))):
        if i not in chosen and j not in used:
            chosen[i] = (j, d)
            used.add(j)
    pairs = sorted(chosen.items())
    return MatchResult(
        pairs=tuple((i, j) for i, (j, _) in pairs),
        distances=tuple(d for _, (_, d) in pairs),
        unmatched_ref=tuple(sorted(set(range(len(reference))) - chosen.keys())),
        unmatched_sim=tuple(sorted(set(range(len(simulated))) - used)),
        scales=(float(scales[0]), float(scales[1])),
        threshold=float(threshold),
    )


def estimate_k_split(match: MatchResult, reference: PathSet) -> KFactors:
    """Estimate the static and dynamic power ratios from matched paths.

    The line-of-sight power is referenced against the summed power of the
    other reference paths: those matched by the simulation count as static,
    the rest as dynamic.  An empty group yields an infinite ratio; a
    reference set without line of sight is an error.
    """
    los = reference.order == 0
    if not los.any():
        raise ValueError("reference must contain exactly one line-of-sight path")
    matched = np.zeros(len(reference), dtype=bool)
    matched[[i for i, _ in match.pairs]] = True
    p_los = float(reference.power[los][0])
    # summed in index order, as plain floats
    p_static = sum(reference.power[matched & ~los].tolist())
    p_dynamic = sum(reference.power[~matched & ~los].tolist())
    k_s = p_los / p_static if p_static > 0.0 else math.inf
    k_d = p_los / p_dynamic if p_dynamic > 0.0 else math.inf
    return KFactors(k_s, k_d)


# ---------------------------------------------------------------------------
# building

def grid_points(origin, shape, spacing) -> list[tuple[float, float, float]]:
    """Rectangular lattice of locations, x-major then y then z."""
    ox, oy, oz = (_number("origin", v) for v in origin)
    if not all(v >= 1 and v % 1 == 0 for v in shape):
        raise ValueError(f"shape counts must be integers >= 1, got {tuple(shape)}")
    nx, ny, nz = (int(v) for v in shape)
    try:
        sx, sy, sz = (_number("spacing", v) for v in spacing)
    except TypeError:
        sx = sy = sz = _number("spacing", spacing)
    return [(ox + i * sx, oy + j * sy, oz + k * sz)
            for i in range(nx) for j in range(ny) for k in range(nz)]


def worker_count() -> int:
    """Worker processes for map building, from the DCM_THREADS variable.

    Unset or empty means single process; 0 means one per CPU; any other
    non-negative integer is taken literally.
    """
    raw = os.environ.get("DCM_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"DCM_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError("DCM_THREADS must be >= 0")
    return n or os.cpu_count() or 1


def _trace_records(build, points) -> list[DcmRecord]:
    """The records of a block of receiver locations, traced in one call."""
    scene, tx, max_order, frequency, k_s, k_d = build
    tables = trace_static_mpcs(scene, np.asarray(tx), np.asarray(points),
                               max_order=max_order, frequency=frequency)
    return [DcmRecord(tx=tx, rx=point, k_s=k_s, k_d=k_d, mpcs=_without_facets(mpcs))
            for point, mpcs in zip(points, tables)]


def _without_facets(paths: PathSet) -> PathSet:
    # the traced table with its checked columns shared: a map stores no facets
    bare = object.__new__(PathSet)
    bare.__dict__.update(vars(paths), facets=())
    return bare


# what a build_map pool worker traces against, sent once per worker: a
# scene sent with every block would also be packed again for every block
_worker_build = ()


def _start_worker(build):
    global _worker_build
    _worker_build = build


def _worker_trace(points):
    return _trace_records(_worker_build, points)


def build_map(scene: Scene, tx, points, max_order: int = 2,
              k_s: float = DEFAULT_K_STATIC, k_d: float = DEFAULT_K_DYNAMIC,
              gbsm: GbsmConfig | None = None) -> DcmMap:
    """Trace static paths for every receiver location and assemble a map.

    Tracing runs at the carrier frequency of the dynamic-scatter
    configuration so both halves of the model agree.  The locations are
    traced as one block, in one `trace_static_mpcs` call; with DCM_THREADS
    set, a process pool traces one contiguous block per worker.  Results
    are assembled in location order either way, so the output is identical.
    """
    if gbsm is None:
        gbsm = GbsmConfig()
    tx = tuple(float(v) for v in tx)
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        raise ValueError("need at least one receiver location")
    if len(set(pts)) != len(pts):
        twice = next(p for i, p in enumerate(pts) if p in pts[:i])
        raise ValueError(f"receiver location {_fmt_vec(twice)} is given twice")
    KFactors(k_s, k_d)  # validate early
    build = (scene, tx, max_order, gbsm.carrier_frequency, k_s, k_d)
    workers = min(worker_count(), len(pts))
    if workers > 1:
        # one contiguous block of locations per worker
        size = -(-len(pts) // workers)
        blocks = [pts[i:i + size] for i in range(0, len(pts), size)]
        with ProcessPoolExecutor(max_workers=len(blocks), initializer=_start_worker,
                                 initargs=(build,)) as pool:
            records = [r for block in pool.map(_worker_trace, blocks) for r in block]
    else:
        records = _trace_records(build, pts)
    return DcmMap(
        frequency=gbsm.carrier_frequency,
        max_order=max_order,
        scene_hash=scene.source_hash,
        gbsm=gbsm,
        records={r.rx: r for r in records},
    )


# ---------------------------------------------------------------------------
# online use

def query(dcm: DcmMap, location, tolerance: float = 1e-6) -> DcmRecord:
    """Record at `location` (three finite numbers) or the nearest within `tolerance` m."""
    loc = _point("location", location)
    key = tuple(loc.tolist())
    rec = dcm.records.get(key)
    if rec is not None:
        return rec
    if not dcm.records:
        raise DcmLookupError("map holds no records")
    offsets = dcm.locations() - loc
    dists = np.sqrt(np.add.reduce(offsets * offsets, axis=1))  # np.linalg.norm's sum
    best = int(dists.argmin())
    near = dcm._located[0][best]
    if dists[best] <= tolerance:
        return dcm.records[near]
    raise DcmLookupError(
        f"no record within {tolerance:g} m of {key}; "
        f"nearest is {tuple(map(float, near))} at {dists[best]:.6g} m")


def model_from_map(dcm: DcmMap, location, seed: int | None = None,
                   overrides: dict | None = None,
                   tx_array: AntennaArray | None = None,
                   rx_array: AntennaArray | None = None,
                   tolerance: float = 1e-6) -> ChannelModel:
    """Hybrid channel model reconstructed from one stored record.

    `overrides` patches fields of the stored dynamic-scatter configuration;
    `seed` overrides its seed.  A carrier other than the map's frequency is
    rejected, since the stored static paths hold only at that frequency.
    """
    rec = query(dcm, location, tolerance=tolerance)
    cfg = dcm.gbsm
    patch = dict(overrides or {})
    if seed is not None:
        patch["seed"] = seed
    if patch:
        cfg = cfg.with_overrides(**patch)
    if cfg.carrier_frequency != dcm.frequency:
        raise ValueError(_carrier_mismatch(cfg.carrier_frequency, dcm.frequency))
    return ChannelModel(
        static_mpcs=rec.mpcs,
        k=rec._k,
        gbsm=cfg,
        tx_array=tx_array if tx_array is not None else _ONE_ELEMENT,
        rx_array=rx_array if rx_array is not None else _ONE_ELEMENT,
        location=(rec.tx, rec.rx),
    )


def update_snapshot(dcm: DcmMap, location, t: float, seed: int | None = None,
                    overrides: dict | None = None,
                    tx_array: AntennaArray | None = None,
                    rx_array: AntennaArray | None = None,
                    tolerance: float = 1e-6) -> ChannelSnapshot:
    """Fast online snapshot: stored static paths plus fresh dynamic clusters.

    The static side is reused exactly as stored: updates at one record share
    one memo entry of static taps, and the first update at a record
    synthesizes them once (for isotropic arrays without any pattern or
    polarization mix).  An update costs a lookup (a near miss scans the
    map's kept location array), one cluster spawn, whose `ClusterSet`
    derives only the ray anchors, the dynamic taps of each antenna pair
    (for one pair, every ray's delay from one stacked array of both ends'
    vectors) and one mixing pass.  The spawn is about half of it, and its
    seeded generator alone about a tenth.  On perfbench's update-room
    workload an update read 0.525 ms against 0.583 ms before the spawn
    derived only the anchors; see README, "Update cost".
    """
    model = model_from_map(dcm, location, seed=seed, overrides=overrides,
                           tx_array=tx_array, rx_array=rx_array,
                           tolerance=tolerance)
    return model.snapshot(t)


# ---------------------------------------------------------------------------
# persistence

def _fmt(x: float) -> str:
    # float() first: numpy 2 scalars repr as "np.float64(...)"
    return repr(float(x))


def _fmt_vec(vec) -> str:
    return ",".join(_fmt(v) for v in vec)


def _record_lines(rec: DcmRecord) -> list[str]:
    paths = rec.mpcs
    # %r of each column's tolist() float is _fmt's repr
    table = np.column_stack([paths.delay, paths.power, paths.aod, paths.aoa,
                             paths.phases, paths.xpr]).tolist()
    lines = [
        "[record]",
        "tx=" + _fmt_vec(rec.tx),
        "rx=" + _fmt_vec(rec.rx),
        "ks=" + _fmt(rec.k_s),
        "kd=" + _fmt(rec.k_d),
    ]
    lines.extend("mpc kind=%s delay=%r power=%r aod=%r,%r aoa=%r,%r phases=%r,%r,%r,%r"
                 " xpr=%r" % (kind, *row) for kind, row in zip(paths.kinds, table))
    return lines


_MAP_KEYS = ("frequency", "max_order", "scene")
_GBSM_KEYS = tuple(f.name for f in fields(GbsmConfig))
_RECORD_KEYS = ("tx", "rx", "ks", "kd")
_MPC_KEYS = ("kind", "delay", "power", "aod", "aoa", "phases", "xpr")


# an mpc line as dumps_map writes it: the keys in _MPC_KEYS order, one space
# apart, and every number spelled with the characters of a float's repr; the
# first group is a reflection's order, None for a line of sight
_MPC_LINE = re.compile(
    "mpc kind=(?:los|refl:([1-9][0-9]*)) delay={0} power={0} aod={0},{0} aoa={0},{0}"
    " phases={0},{0},{0},{0} xpr={0}".format("([-+.0-9a-z]+)"))


def _parse_mpc(line: str) -> tuple[int, list[float]]:
    """One `mpc` line of any spelling the grammar allows, checked key by key:
    its reflection order and its 11 numbers (delay, power, aod, aoa, phases
    and xpr)."""
    f = _fields(line.split()[1:], _MPC_KEYS)
    # PathSet checks every value itself, so the vectors skip the finite test
    values = [float(f["delay"]), float(f["power"]), *_floats(f["aod"], 2, finite=False),
              *_floats(f["aoa"], 2, finite=False), *_floats(f["phases"], 4, finite=False),
              float(f["xpr"])]
    return _kind_order(f["kind"]), values


def dumps_map(dcm: DcmMap) -> str:
    lines = [MAGIC, "[map]",
             "frequency=" + _fmt(dcm.frequency),
             "max_order=%d" % dcm.max_order,
             "scene=" + dcm.scene_hash,
             "[gbsm]"]
    for f in fields(GbsmConfig):
        value = getattr(dcm.gbsm, f.name)
        if isinstance(value, tuple):
            lines.append("%s=%s" % (f.name, _fmt_vec(value)))
        elif isinstance(value, int):
            lines.append("%s=%d" % (f.name, value))
        else:
            lines.append("%s=%s" % (f.name, _fmt(value)))
    for rec in dcm.records.values():
        lines.extend(_record_lines(rec))
    return "\n".join(lines) + "\n"


def _config_text(text: str):
    """A [gbsm] value as written: an int, a float, or a pair of numbers."""
    if "," in text:
        return _floats(text, 2)
    try:
        return int(text)
    except ValueError:
        return float(text)


def loads_map(text: str) -> DcmMap:
    """Parse a map; any malformed line raises ValueError naming its number."""
    lines = text.splitlines()
    if lines and lines[0].startswith("DCMv") and lines[0] != MAGIC:
        raise ValueError(f"line 1: {lines[0]} map, but only {MAGIC} is read; "
                         "rebuild it with dcmkit build")
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"line 1: not a channel map file (missing {MAGIC} header)")
    header: dict = {}
    gbsm_kw: dict = {}
    gbsm_line = carrier_line = frequency_line = None
    records: dict[tuple, DcmRecord] = {}
    section = keys = None
    current: dict = {}  # the section's values so far, each key at most once
    # the record's mpc lines: their numbers, in rows of 11, orders and line numbers
    values: list = []
    orders: list = []
    mpc_lines: list = []
    # the groups of the mpc lines _MPC_LINE read since the last other line,
    # 12 a line; they are converted before any other line is read, so a token
    # float() refuses fails at its line, as it does in the checked reader
    pending: list = []
    record_line = 0

    def flush():
        orders.extend(int(refl or 0) for refl in pending[::12])
        del pending[::12]
        try:
            values.extend(map(float, pending))
        except ValueError:  # the checked reader names the first such line
            for at in mpc_lines[len(mpc_lines) - len(pending) // 11:]:
                try:
                    _parse_mpc(lines[at - 1])
                except ValueError as exc:
                    raise ValueError(f"line {at}: {exc}") from None
            raise
        pending.clear()

    def finish():
        if section != "record":
            return
        table = np.array(values, dtype=float).reshape(-1, 11)
        try:
            paths = PathSet(table[:, 0], table[:, 1], table[:, 2:4], table[:, 4:6],
                            table[:, 6:10], table[:, 10], orders)
        except ValueError as exc:  # the table names its earliest bad row
            raise ValueError(f"line {mpc_lines[exc._row]}: {exc}") from None
        for need in _RECORD_KEYS:
            if need not in current:
                raise ValueError(f"line {record_line}: record missing {need}=")
        rec = DcmRecord(tx=current["tx"], rx=current["rx"], k_s=current["ks"],
                        k_d=current["kd"], mpcs=paths)
        if rec.rx in records:
            raise ValueError(f"line {record_line}: duplicate record at "
                             f"rx={_fmt_vec(rec.rx)}")
        records[rec.rx] = rec

    for no, line in enumerate(lines[1:], start=2):
        if section == "record":
            match = _MPC_LINE.fullmatch(line)
            if match is not None:
                pending += match.groups()
                mpc_lines.append(no)
                continue
            flush()
        if not line.strip():
            continue
        if line in ("[map]", "[gbsm]", "[record]"):
            finish()
            section = line[1:-1]
            if section == "map":
                keys, current = _MAP_KEYS, header
            elif section == "gbsm":
                keys, current, gbsm_line = _GBSM_KEYS, gbsm_kw, no
            else:
                keys, current, record_line = _RECORD_KEYS, {}, no
                values, orders, mpc_lines = [], [], []
            continue
        try:
            if section is None:
                raise ValueError("content before any section header")
            if section == "record" and line.startswith("mpc "):
                order, numbers = _parse_mpc(line)
                orders.append(order)
                values += numbers
                mpc_lines.append(no)
                continue
            # a section line is one key=value token; a scene built in code
            # has no hash, so its map writes an empty scene=
            (key, val), = _fields([line], keys, current, blank=("scene",)).items()
            if section == "map":
                if key == "frequency":
                    frequency_line = no
                    val = _number(key, float(val), 0.0, strict=True)
                elif key == "max_order":
                    val = _integer(key, int(val), 0)
                header[key] = val
            elif section == "gbsm":
                gbsm_kw[key] = config_field(key, _config_text(val))
                if key == "carrier_frequency":
                    carrier_line = no
            elif key in ("tx", "rx"):
                current[key] = _floats(val, 3)
            else:
                current[key] = float(val)
                try:  # KFactors owns the rule: this ratio, then the pair
                    KFactors(current.get("ks", math.inf), current.get("kd", math.inf))
                except ValueError:
                    raise ValueError(f"{key} must be > 0 and keep 1/ks + 1/kd "
                                     f"finite, got {val}") from None
        except KeyError as exc:
            raise ValueError(f"line {no}: missing field {exc.args[0]!r}") from None
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {no}: {exc}") from None
    flush()
    finish()
    try:
        gbsm = GbsmConfig(**gbsm_kw)
    except ValueError as exc:
        raise ValueError(f"line {gbsm_line}: [gbsm] {exc}") from None

    missing = [key for key in _MAP_KEYS if key not in header]
    if missing:
        raise ValueError(f"map header missing {missing[0]}=")
    # DcmMap checks these rules too; checked here they name their line
    if gbsm.carrier_frequency != header["frequency"]:
        raise ValueError(f"line {carrier_line or frequency_line}: [gbsm] "
                         f"{_carrier_mismatch(gbsm.carrier_frequency, header['frequency'])}")
    return DcmMap(frequency=header["frequency"], max_order=header["max_order"],
                  scene_hash=header["scene"], gbsm=gbsm, records=records)


def _carrier_mismatch(carrier: float, frequency: float) -> str:
    return (f"carrier_frequency={_fmt(carrier)} differs from the map "
            f"frequency={_fmt(frequency)} its static paths were traced at")


def write_text_atomic(path, text: str) -> None:
    """Write ASCII text so readers see the old file or the new one, never a mix.

    The text goes to a fresh temporary file in the target's directory,
    which is then renamed over the target; concurrent writers never share
    a temporary name.  The file gets the mode a plain open() would give.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=os.path.dirname(path) or ".")
    try:
        with open(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_map(dcm: DcmMap, path) -> None:
    """Serialize atomically (see `write_text_atomic`)."""
    write_text_atomic(path, dumps_map(dcm))


def load_map(path) -> DcmMap:
    """Read a map file; a byte that is not ASCII fails with its 1-based line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: non-ASCII byte 0x{data[exc.start]:02x}") from None
    return loads_map(text)
