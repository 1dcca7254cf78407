"""foltab benchmark: one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the program is imported from the `src/` directory next
to this one.  The seed makes the inputs.  A first pass over the workload's
items warms up and is checked item by item with the benchmark's own oracles;
timed passes then repeat until S seconds have gone by, and each of their
outputs must equal the checked one.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with
--trace 1, untraced and traced passes alternate and it carries the
per-layer metrics and the tracing overhead.  The line before it holds the
run's metadata: machine, source size, pass and sample counts, raw timings
and the first problems the checks found.

Times are scaled by the machine-speed probe in `speed.py`, which runs
between items and between set-up measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9


SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.speed import probe_median
before = probe_median(5)
start = time.perf_counter()
import foltab, foltab.cli
elapsed = time.perf_counter() - start
print(elapsed, before, probe_median(5))
"""


def measure_setup(speed) -> tuple[float, float]:
    """(scaled, raw) median time a fresh interpreter takes to import foltab
    and its command line: the fixed cost every CLI call pays on top of
    starting Python.  Each child scales its own time by probes run just
    before and after the import."""
    command = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(ROOT)]
    subprocess.run(command, check=True, capture_output=True)  # writes the bytecode cache
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(command, check=True, capture_output=True, text=True)
        elapsed, before, after = map(float, child.stdout.split())
        raw.append(elapsed)
        scaled.append(elapsed * speed.REFERENCE_S / ((before + after) / 2))
    return statistics.median(scaled), statistics.median(raw)


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "src_foltab_lines": sum(
            len(p.read_text().splitlines()) for p in (SRC / "foltab").glob("*.py")
        ),
    }


@dataclass
class Pass:
    raw: list[float]  # wall seconds per item
    scaled: list[float]  # the same, scaled by the speed probe
    starts: list[int]  # per item, the mark taken before it

    @property
    def scale(self) -> float:
        return sum(self.scaled) / sum(self.raw)


class Runner:
    """Runs passes over a workload's items and keeps what the checks found."""

    def __init__(self, workload, items, seed: int, speed):
        self.workload = workload
        self.items = items
        self.seed = seed
        self.speed = speed
        self.reference: list = [None] * len(items)
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.size = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def _fail(self, item, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{item.name}: {problem}")

    def run_pass(self, run, first=False, marks=None) -> Pass:
        """Run every item once.  The first pass checks every output; later
        passes require it to repeat exactly.  `marks`, when given, is
        called before each item and its values are kept."""
        raw = []
        starts = []
        probes = [self.speed.probe()]
        for i, item in enumerate(self.items):
            if marks is not None:
                starts.append(marks())
            start = time.perf_counter()
            try:
                output, error = run(item), None
            except Exception as e:  # a failing item is counted, never fatal
                output, error = None, f"{type(e).__name__}: {e}"
            raw.append(time.perf_counter() - start)
            probes.append(self.speed.probe())
            self.attempted += 1
            if error is not None:
                self._fail(item, error)
                continue
            fingerprint = self.workload.fingerprint(item, output)
            if first:
                self.reference[i] = fingerprint
                self._check(item, output)
            elif fingerprint != self.reference[i]:
                self._fail(item, "output differs from the checked pass")
        scaled = [t * k for t, k in zip(raw, self.speed.scales(probes))]
        return Pass(raw, scaled, starts)

    def _check(self, item, output) -> None:
        try:
            outcome = self.workload.check(item, output, random.Random(f"{self.seed}:{item.name}"))
        except Exception as e:
            self._fail(item, f"check raised {type(e).__name__}: {e}")
            return
        self.decided += outcome.decided
        self.size += outcome.size
        if outcome.note:
            self.notes.append(outcome.note)
        if not outcome.ok:
            self._fail(item, outcome.problem)


def per_item_medians(rows) -> list[float]:
    return [statistics.median(row[i] for row in rows) for i in range(len(rows[0]))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "foltab" / "__init__.py").is_file():
        print(f"perfbench: no foltab package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # as foltab.cli.main does: tree walkers recurse along long branches
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    from perfbench import speed
    from perfbench import trace as tracing
    from perfbench.workloads import PROOF_SIZES, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s, setup_raw_s = measure_setup(speed)
    items = workload.make(args.seed, ROOT)
    runner = Runner(workload, items, args.seed, speed)
    runner.run_pass(workload.run, first=True)

    tracer = tracing.Tracer() if args.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not plain or (tracer and not traced):
        if tracer is None or len(traced) >= len(plain):
            plain.append(runner.run_pass(workload.run))
            continue
        tracer.install()
        try:
            done = runner.run_pass(tracer.span("item", workload.run), marks=lambda: len(tracer.spans))
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        traced.append(done)
        layers.append(tracing.pass_layers(spans, counts, done.scale))
        hyper_ms = tracing.stage_ms_by_item(spans, done.starts, "hyperconv.hyper")
        layers[-1]["hyper_ms_by_item"] = [h * s / r for h, s, r in zip(hyper_ms, done.scaled, done.raw)]

    n = len(items)
    tail = max(0, n - 11)  # the highest rank with at least ten samples beyond it
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "items": n,
        "passes": len(plain),
        "traced_passes": len(traced),
        "item_tail": f"rank {tail + 1} of {n} per-item medians (p{100 * (tail + 1) / n:.1f})",
        "raw_wall_s": sum(per_item_medians([p.raw for p in plain])),
        "raw_setup_s": setup_raw_s,
        "speed_scale": statistics.median(p.scale for p in plain),
        "machine": machine(),
        "problems": runner.problems,
        "notes": runner.notes,
    }

    if tracer is None:
        # one pass, estimated item by item: a slow spell of the machine in
        # one pass then moves only the items it overlapped
        latencies = sorted(per_item_medians([p.scaled for p in plain]))
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(latencies), "s"),
            "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "item_tail_ms": (latencies[tail] * 1e3, "ms"),
            "ok_share": ((runner.attempted - runner.failed) / runner.attempted, "share"),
            "decided_share": (runner.decided / n, "share"),
            "output_size": (runner.size, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        values = layer_metrics(layers, items, tracing, PROOF_SIZES)
        plain_wall = sum(per_item_medians([p.scaled for p in plain]))
        traced_wall = sum(per_item_medians([p.scaled for p in traced]))
        values["trace.overhead_share"] = (traced_wall / plain_wall - 1, "share")
    print(json.dumps(meta))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(layers, items, tracing, families) -> dict:
    """Medians over the traced passes, and the per-doubling growth of the
    hyper conversion time for each proof family."""
    out = {
        name: (statistics.median(layer[name] for layer in layers), unit)
        for name, unit in tracing.LAYER_UNITS.items()
    }
    hyper_ms = per_item_medians([layer["hyper_ms_by_item"] for layer in layers])
    for family in families:
        points = [(item.expect["k"], hyper_ms[i]) for i, item in enumerate(items) if item.kind == family]
        out[f"hyperconv.exp_{family}"] = (tracing.growth_exponent(points) if points else 0.0, "log2")
    return out


if __name__ == "__main__":
    sys.exit(main())
