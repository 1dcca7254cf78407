#!/usr/bin/env python3
"""Output fingerprints: one SHA-256 per benchmark workload and seed, and per
bundled sample and command, over a canonical text of what was computed.

    python3 scripts/fingerprints.py --write tests/data/fingerprints.json
    python3 scripts/fingerprints.py --check tests/data/fingerprints.json

The workloads are imported from `perfbench.workloads` and run item by item
as the benchmark runs them (seeds 1-3).  Each item's output becomes text:
interpolate-kb gives the interpolant and its report without timings
(shortcut, sizes, hyper rounds and measures, lifted terms, ground
interpolant, requirement results, verification verdicts); proof-scale gives
S3, S4, the rounds and the document; prove-oracle gives the status, the
inference count and the document.  The 24 samples go through `foltab
import`, `hyper --stats --trace` and `stats --json`, with the timing lines
and fields removed.  `--check` exits 1 and names every fingerprint that
moved, is missing or is new.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import foltab.cli  # noqa: E402
from foltab.hyperconv import measure_string  # noqa: E402
from foltab.tptp import format_formula  # noqa: E402

SEEDS = (1, 2, 3)
SAMPLES = ROOT / "src" / "foltab" / "samples"


def _report_text(report) -> str:
    trace = report.trace
    v = report.verification
    cert = report.certificate
    fields = [
        ("shortcut", cert.shortcut),
        ("sizes", (report.size_before, report.size_after)),
        ("rounds", None if trace is None else [measure_string(r.measure) for r in trace.rounds]),
        ("lifted", [] if cert.lifted is None else [str(t) for t in cert.lifted.terms]),
        ("ground", format_formula(cert.ground_interpolant)),
        ("require", sorted(report.require_results.items())),
        ("verify", None if v is None else (
            v.vocabulary_ok, v.variables_ok, v.f_entails_h, v.h_entails_g, sorted(v.properties.items())
        )),
    ]
    return "\n".join(f"{k}: {x!r}" for k, x in fields)


def item_text(workload: str, output) -> str:
    """The canonical text of one item's output."""
    if workload == "interpolate-kb":
        text, report = output
        if text is None:
            return f"not proved: {report}"
        return f"{text}\n{_report_text(report)}"
    return repr(output)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def workload_fingerprint(name: str, seed: int) -> str:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    parts = []
    for item in workload.make(seed, ROOT):
        parts.append(f"== {item.name}\n{item_text(name, workload.run(item))}\n")
    return _digest("".join(parts))


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = foltab.cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _untimed_stats(text: str) -> str:
    head, _, body = text.partition("\n")
    report = json.loads(body)
    for row in report["rows"]:
        row.pop("T2", None)
    report["summary"].pop("T2", None)
    return f"{head}\n{json.dumps(report, indent=2, sort_keys=True)}"


def sample_fingerprints() -> dict[str, str]:
    out = {}
    for path in sorted(SAMPLES.glob("*.proof")):
        out[f"samples/import/{path.stem}"] = _digest(_cli(["import", "--proof", str(path)]))
        hyper = _cli(["hyper", "--proof", str(path), "--stats", "--trace"])
        hyper = "".join(l for l in hyper.splitlines(True) if not l.startswith("% time:"))
        out[f"samples/hyper/{path.stem}"] = _digest(hyper)
    out["samples/stats"] = _digest(_untimed_stats(_cli(["stats", "--json"])))
    return out


def fingerprints(keys=None) -> dict[str, str]:
    """Every fingerprint, or those named in `keys`."""
    want = None if keys is None else set(keys)
    out = {}
    for name in ("interpolate-kb", "proof-scale", "prove-oracle"):
        for seed in SEEDS:
            key = f"{name}/{seed}"
            if want is None or key in want:
                out[key] = workload_fingerprint(name, seed)
    if want is None or any(k.startswith("samples/") for k in want):
        out.update((k, v) for k, v in sample_fingerprints().items() if want is None or k in want)
    return out


def compare(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """One line per fingerprint that moved, is missing or is new."""
    lines = [f"moved: {k}" for k in sorted(expected.keys() & got.keys()) if expected[k] != got[k]]
    lines += [f"missing: {k}" for k in sorted(expected.keys() - got.keys())]
    lines += [f"new: {k}" for k in sorted(got.keys() - expected.keys())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="write the fingerprints to FILE")
    mode.add_argument("--check", metavar="FILE", help="compare the fingerprints with FILE")
    args = parser.parse_args(argv)
    # as foltab.cli.main does: tree walkers recurse along long branches
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    got = fingerprints()
    if args.write:
        Path(args.write).write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} fingerprints to {args.write}")
        return 0
    lines = compare(json.loads(Path(args.check).read_text()), got)
    for line in lines:
        print(line)
    print(f"{len(got)} fingerprints, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
