"""Spans around foltab's coarse stage functions, recorded from outside.

`Tracer.install` replaces a stage function by a timing wrapper in the
module that calls it (for example `foltab.interpolation.prove`, which the
pipeline and the verifier both call), so the program itself is unchanged.
Spans are kept in memory as [name, start, end, parent]; counts are taken
from each call's result after its span has ended.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, counter); each module is a place that calls
# the stage, so one stage may be wrapped in several modules
STAGES = (
    ("foltab.tptp", "parse_fof_file", "tptp.parse", None),
    ("foltab.tptp", "parse_clause_file", "tptp.parse", None),
    ("foltab.tptp", "format_formula", "tptp.format", None),
    ("foltab.interpolation", "interpolate", "interpolation.pipeline", None),
    ("foltab.interpolation", "synthesize_definition", "interpolation.pipeline", None),
    ("foltab.interpolation", "freeze_free_vars", "normalize.clausify", None),
    ("foltab.interpolation", "skolemize_clausify", "normalize.clausify", "clausify"),
    ("foltab.interpolation", "prove", "tableaux.prove", "prove"),
    ("foltab.interpolation", "ground_tableau", "tableaux.ground", None),
    ("foltab.interpolation", "assign_sides", "tableaux.assign_sides", None),
    ("foltab.interpolation", "hyper_convert", "hyperconv.hyper", "hyper"),
    ("foltab.interpolation", "extract_ipol", "interpolation.extract", None),
    ("foltab.interpolation", "lift_parts", "interpolation.lift", None),
    ("foltab.interpolation", "hornify", "interpolation.hornify", None),
    ("foltab.interpolation", "verify_interpolant", "interpolation.verify", "verify"),
    ("foltab.interpolation", "is_u_range_restricted", "restriction.check", None),
    ("foltab.interpolation", "is_vgt_range_restricted", "restriction.check", None),
    ("foltab.interpolation", "is_horn", "restriction.check", None),
    ("foltab.interpolation", "is_horn_like", "restriction.check", None),
    ("foltab.tableaux", "prove", "tableaux.prove", "prove"),
    ("foltab.proofs", "parse_proof", "proofs.parse", None),
    ("foltab.proofs", "to_tree", "proofs.to_tree", None),
    ("foltab.proofs", "ground_deduction", "proofs.ground", None),
    ("foltab.proofs", "to_cut_normal_form", "proofs.cut_nf", "cut_nf"),
    ("foltab.hyperconv", "hyper_convert", "hyperconv.hyper", "hyper"),
    ("foltab.documents", "format_tableau", "documents.format", None),
)


def _count(kind: str, counts: Counter, result) -> None:
    if kind == "clausify":
        counts["normalize.clauses"] += len(result.clauses)
    elif kind == "prove":
        counts["tableaux.inferences"] += result.inferences
        counts["prove." + result.status] += 1
    elif kind == "hyper":
        out, trace = result
        counts["hyperconv.rounds"] += trace.total_rounds
        counts["hyperconv.regular_splices"] += trace.regular_splices
        counts["hyperconv.s3_nodes"] += trace.input_size
        counts["hyperconv.s4_nodes"] += trace.output_size
    elif kind == "cut_nf":
        counts["proofs.s3_nodes"] += result.inner_size()
    elif kind == "verify":
        counts["interpolation.verify_inconclusive"] += "inconclusive" in (
            result.f_entails_h,
            result.h_entails_g,
        )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if counter is not None:
                _count(counter, counts, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in STAGES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self):
        """The spans and counts recorded since the last call."""
        spans, counts = self.spans[:], self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def within(spans, index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


LAYER_TIMES = {
    "tptp.parse_ms": "tptp.parse",
    "tptp.format_ms": "tptp.format",
    "normalize.clausify_ms": "normalize.clausify",
    "tableaux.prove_ms": "tableaux.prove",
    "tableaux.ground_ms": "tableaux.ground",
    "tableaux.assign_sides_ms": "tableaux.assign_sides",
    "proofs.parse_ms": "proofs.parse",
    "proofs.to_tree_ms": "proofs.to_tree",
    "proofs.ground_ms": "proofs.ground",
    "proofs.cut_nf_ms": "proofs.cut_nf",
    "hyperconv.hyper_ms": "hyperconv.hyper",
    "interpolation.pipeline_ms": "interpolation.pipeline",
    "interpolation.extract_ms": "interpolation.extract",
    "interpolation.lift_ms": "interpolation.lift",
    "interpolation.hornify_ms": "interpolation.hornify",
    "interpolation.verify_ms": "interpolation.verify",
    "restriction.check_ms": "restriction.check",
    "documents.format_ms": "documents.format",
}


LAYER_UNITS = {
    **{metric: "ms" for metric in LAYER_TIMES},
    "interpolation.verify_prove_ms": "ms",
    "normalize.clauses": "count",
    "tableaux.prove_calls": "count",
    "tableaux.inferences": "count",
    "tableaux.proved_share": "share",
    "tableaux.saturated_share": "share",
    "proofs.s3_nodes": "count",
    "hyperconv.rounds": "count",
    "hyperconv.regular_splices": "count",
    "hyperconv.s4_nodes": "count",
    "hyperconv.size_ratio": "ratio",
    "interpolation.verify_inconclusive": "count",
    "trace.spans": "count",
}


def stage_ms_by_item(spans, starts: list[int], stage: str) -> list[float]:
    """Self time in ms of one stage within each item; `starts` holds the
    index of each item's first span."""
    own = self_times(spans)
    bounds = list(starts) + [len(spans)]
    return [
        sum(own[j] for j in range(bounds[i], bounds[i + 1]) if spans[j][0] == stage) * 1e3
        for i in range(len(starts))
    ]


def pass_layers(spans, counts: Counter, scale: float) -> dict[str, float]:
    """Per-layer totals of one traced pass: counts, and self time in ms
    multiplied by `scale`."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    verify_prove = 0.0
    calls: Counter = Counter()
    for i, span in enumerate(spans):
        by_name[span[0]] += own[i]
        calls[span[0]] += 1
        if span[0] == "tableaux.prove" and within(spans, i, "interpolation.verify"):
            verify_prove += own[i]
    out = {metric: by_name[name] * 1e3 * scale for metric, name in LAYER_TIMES.items()}
    prove_calls = calls["tableaux.prove"]
    s3 = counts["hyperconv.s3_nodes"]
    out.update(
        {
            "interpolation.verify_prove_ms": verify_prove * 1e3 * scale,
            "normalize.clauses": counts["normalize.clauses"],
            "tableaux.prove_calls": prove_calls,
            "tableaux.inferences": counts["tableaux.inferences"],
            "tableaux.proved_share": counts["prove.proved"] / prove_calls if prove_calls else 0.0,
            "tableaux.saturated_share": counts["prove.saturated"] / prove_calls if prove_calls else 0.0,
            "proofs.s3_nodes": counts["proofs.s3_nodes"],
            "hyperconv.rounds": counts["hyperconv.rounds"],
            "hyperconv.regular_splices": counts["hyperconv.regular_splices"],
            "hyperconv.s4_nodes": counts["hyperconv.s4_nodes"],
            "hyperconv.size_ratio": counts["hyperconv.s4_nodes"] / s3 if s3 else 0.0,
            "interpolation.verify_inconclusive": counts["interpolation.verify_inconclusive"],
            "trace.spans": len(spans),
        }
    )
    return out


def growth_exponent(points) -> float:
    """Least-squares slope of log2(time) over log2(k): the log2 of the time
    growth per doubling of k."""
    xs = [math.log2(k) for k, _ in points]
    ys = [math.log2(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
