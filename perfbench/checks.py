"""Output invariants that any correct dcmkit keeps.

Every check raises CheckFailed with a message naming what broke.  None of
them compares digests of seeded random streams, so a change that
legitimately redraws those streams still passes.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """A benchmark output violates an invariant."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def path_counts(mpcs) -> list[int]:
    """Paths kept per order: [line of sight, order 1, order 2, order 3]."""
    counts = [0, 0, 0, 0]
    for m in mpcs:
        if m.kind == "los":
            counts[0] += 1
        elif m.kind.startswith("refl:"):
            order = int(m.kind.split(":", 1)[1])
            require(1 <= order <= 3, f"unexpected path kind {m.kind}")
            counts[order] += 1
    return counts


def check_panel_counts(mpcs, expected, where: str) -> None:
    got = path_counts(mpcs)
    require(got == list(expected),
            f"{where}: paths per order {got}, recorded {list(expected)}")


def check_redump(text_on_disk: str, redumped: str, where: str) -> None:
    require(text_on_disk == redumped,
            f"{where}: map text changed after load and dump")


def check_taps(taps, n_static: int, n_dynamic: int, where: str) -> None:
    """Finite taps, sorted by delay, one per static path and dynamic ray."""
    delays = np.asarray(taps.delays)
    amps = np.asarray(taps.amps)
    n = len(delays)
    require(n == n_static + n_dynamic,
            f"{where}: {n} taps, expected {n_static} static + {n_dynamic} dynamic")
    require(len(amps) == n and len(taps.kinds) == n,
            f"{where}: tap arrays differ in length")
    require(bool(np.all(np.isfinite(delays))) and bool(np.all(np.isfinite(amps))),
            f"{where}: non-finite tap")
    require(bool(np.all(np.diff(delays) >= 0.0)), f"{where}: taps not sorted by delay")


def check_same_taps(a, b, where: str) -> None:
    """A repeated (seed, location, t) gives identical taps."""
    require(a.kinds == b.kinds
            and np.array_equal(a.delays, b.delays)
            and np.array_equal(a.amps, b.amps),
            f"{where}: repeated update gave different taps")


def check_fcf_psd(fcf, psd, where: str, expected: float = 1.0) -> None:
    """fcf(0) = expected (1 unless stated), and the delay spectrum's net
    mass equals fcf(0).

    `Psd.clipped` is the negative ripple removed from the density, so the
    mass before clipping is psd.mass - psd.clipped.
    """
    f0 = complex(fcf[0])
    require(abs(f0 - expected) <= 1e-9, f"{where}: fcf(0) = {f0}, expected {expected}")
    require(abs((psd.mass - psd.clipped) - f0.real) <= 1e-6,
            f"{where}: delay-PSD mass {psd.mass - psd.clipped} != fcf(0) {f0.real}")


def check_rates(rates, where: str) -> None:
    arr = np.atleast_1d(np.asarray(rates, dtype=float))
    require(arr.size > 0 and bool(np.all(np.isfinite(arr))) and bool(np.all(arr >= 0.0)),
            f"{where}: crossing rates must be finite and >= 0, got {arr}")


def check_cli_rows(stdout: str, expected_rows: int, where: str) -> None:
    lines = stdout.splitlines()
    require(len(lines) == expected_rows + 1,
            f"{where}: CLI printed {len(lines) - 1} rows, expected {expected_rows}")


def check_cli_fcf(stdout: str, where: str) -> None:
    rows = stdout.splitlines()[1:]
    require(bool(rows), f"{where}: CLI printed no fcf rows")
    df, re_, im, _abs = (float(v) for v in rows[0].split(","))
    require(df == 0.0 and abs(complex(re_, im) - 1.0) <= 1e-9,
            f"{where}: CLI fcf(0) = {complex(re_, im)}, expected 1")


def check_counts_repeat(current: dict, previous: dict, where: str) -> None:
    """Exact counts of two runs of the same code on the same seed agree."""
    for key in sorted(set(current) & set(previous)):
        require(current[key] == previous[key],
                f"{where}: count {key} = {current[key]}, an earlier run gave {previous[key]}")
