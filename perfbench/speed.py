"""A machine-speed probe, so that timings from a shared, noisy host can be
compared across runs.

On the 2-vCPU virtual machine this benchmark was defined on, the speed of
the same Python code drifts by 30-45 % in phases lasting seconds to
minutes, which swamps any regression bound when raw wall times are
compared run to run.  The probe is a fixed piece of pure-Python work of the
kind foltab spends its time on (building, hashing and comparing frozen
dataclass term trees, recursion, dict traffic, string formatting).  The
benchmark runs it between items and scales each item's wall time by
REFERENCE_S over the probe times around it: a reported time is the measured
wall time converted to a machine on which one probe takes REFERENCE_S.
Raw wall times and probe times are reported alongside in the run metadata.
The probe does not touch foltab, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from time import perf_counter

# median probe duration on the machine the benchmark was defined on
# (x86_64, 2 vCPUs, CPython 3.11.7)
REFERENCE_S = 0.0006
WINDOW = 3  # probes on each side of an item that set its scale


@dataclass(frozen=True)
class _Term:
    name: str
    args: tuple


def _depth(t: _Term) -> int:
    return 1 + max((_depth(a) for a in t.args), default=0)


def probe() -> float:
    """Seconds one fixed piece of work takes now.  The garbage collector is
    held off meanwhile: a collection of the program's heap would say
    nothing about the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        seen: dict = {}
        for i in range(20):
            t = _Term("a", ())
            for d in range(8):
                t = _Term("fg"[d % 2], (t, _Term(str(i % 5), ())))
            seen[t] = seen.get(t, 0) + _depth(t)
            _ = f"{t.name}({len(t.args)})" == t.args[0].name
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_median(n: int) -> float:
    return statistics.median(probe() for _ in range(n))


def scales(probes: list[float]) -> list[float]:
    """Scale factor for each of the len(probes) - 1 intervals between
    consecutive probes: REFERENCE_S over the median of the probes nearest
    to the interval."""
    out = []
    for i in range(len(probes) - 1):
        near = probes[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        out.append(REFERENCE_S / statistics.median(near))
    return out
