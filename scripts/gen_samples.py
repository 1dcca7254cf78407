#!/usr/bin/env python3
"""Regenerate the bundled sample proof documents under src/foltab/samples/.

Every emitted document is validated end to end: parse, ground, translate to
cut normal form, hyper-convert.  The summary printed at the end shows the
size ratios the stats command will report.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from foltab.hyperconv import hyper_convert
from foltab.proofs import format_proof, ground_deduction, parse_proof, to_cut_normal_form, to_tree

OUT = Path(__file__).resolve().parent.parent / "src" / "foltab" / "samples"


def chain(k: int) -> str:
    lines = [f"s0 input p0"]
    for i in range(k):
        lines.append(f"s{i+1} input ~p{i} | p{i+1}")
    lines.append(f"s{k+1} input ~p{k}")
    prev = "s0"
    for i in range(k):
        lines.append(f"r{i+1} resolve({prev}, s{i+1}, p{i}) p{i+1}")
        prev = f"r{i+1}"
    lines.append(f"r{k+1} resolve({prev}, s{k+1}, p{k}) false")
    return "\n".join(lines) + "\n"


def fol_chain(k: int) -> str:
    lines = ["s0 input p0(a)"]
    for i in range(k):
        lines.append(f"s{i+1} input ~p{i}(X{i+1}) | p{i+1}(f(X{i+1}))")
    term = "a"
    prev = "s0"
    steps = []
    for i in range(k):
        nxt = f"f({term})"
        steps.append(
            f"r{i+1} resolve({prev}, s{i+1}, p{i}({term})) {{X{i+1} -> {term}}} p{i+1}({nxt})"
        )
        prev = f"r{i+1}"
        term = nxt
    lines.append(f"s{k+1} input ~p{k}({term})")
    lines.extend(steps)
    lines.append(f"r{k+1} resolve({prev}, s{k+1}, p{k}({term})) false")
    return "\n".join(lines) + "\n"


def wide(m: int) -> str:
    lines = [f"s0 input " + " | ".join(f"q{i}" for i in range(1, m + 1))]
    for i in range(1, m + 1):
        lines.append(f"s{i} input ~q{i}")
    prev = "s0"
    for i in range(1, m + 1):
        rest = " | ".join(f"q{j}" for j in range(i + 1, m + 1)) or "false"
        lines.append(f"r{i} resolve({prev}, s{i}, q{i}) {rest}")
        prev = f"r{i}"
    return "\n".join(lines) + "\n"


def diamond() -> str:
    return (
        "s1 input a | b\n"
        "s2 input ~a | c\n"
        "s3 input ~b | c\n"
        "s4 input ~c\n"
        "r1 resolve(s1, s2, a) b | c\n"
        "r2 resolve(r1, s3, b) c\n"
        "r3 resolve(r2, s4, c) false\n"
    )


def shared_lemma() -> str:
    # the unit lemma ~u is derived once and referenced twice
    return (
        "s1 input u | v\n"
        "s2 input u | ~v\n"
        "s3 input ~u | w\n"
        "s4 input ~u | ~w\n"
        "lem resolve(s3, s4, w) ~u\n"
        "r1 resolve(s1, lem, u) v\n"
        "r2 resolve(s2, lem, u) ~v\n"
        "r3 resolve(r1, r2, v) false\n"
    )


def binary_preds() -> str:
    return (
        "s1 input r(a, b)\n"
        "s2 input ~r(X, Y) | s(Y, X)\n"
        "s3 input ~s(Y, X) | t(X)\n"
        "s4 input ~t(a)\n"
        "r1 resolve(s1, s2, r(X, Y)) {X -> a, Y -> b} s(b, a)\n"
        "r2 resolve(r1, s3, s(b, a)) t(a)\n"
        "r3 resolve(r2, s4, t(a)) false\n"
    )


def equality_flavor() -> str:
    # equality treated as an ordinary predicate with explicit axiom instances
    return (
        "s1 input a = b\n"
        "s2 input ~(a = b) | ~p(a) | p(b)\n"
        "s3 input p(a)\n"
        "s4 input ~p(b)\n"
        "r1 resolve(s1, s2, a = b) ~p(a) | p(b)\n"
        "r2 resolve(s3, r1, p(a)) p(b)\n"
        "r3 resolve(r2, s4, p(b)) false\n"
    )


def two_phase(k: int) -> str:
    # two chains joined by a final two-literal clause
    lines = ["s0 input x0 | y0"]
    for i in range(k):
        lines.append(f"sx{i+1} input ~x{i} | x{i+1}")
        lines.append(f"sy{i+1} input ~y{i} | y{i+1}")
    lines.append(f"tx input ~x{k}")
    lines.append(f"ty input ~y{k}")
    prev = "s0"
    for i in range(k):
        lines.append(f"rx{i+1} resolve({prev}, sx{i+1}, x{i}) x{i+1} | y0")
        prev = f"rx{i+1}"
    lines.append(f"rxf resolve({prev}, tx, x{k}) y0")
    prev = "rxf"
    for i in range(k):
        lines.append(f"ry{i+1} resolve({prev}, sy{i+1}, y{i}) y{i+1}")
        prev = f"ry{i+1}"
    lines.append(f"ryf resolve({prev}, ty, y{k}) false")
    return "\n".join(lines) + "\n"


def residual_variable() -> str:
    # Y is never bound by the proof and gets grounded to a fresh constant
    return (
        "s1 input p(X) | r(Y)\n"
        "s2 input ~p(X)\n"
        "s3 input ~r(Y)\n"
        "r1 resolve(s1, s2, p(X)) r(Y)\n"
        "r2 resolve(r1, s3, r(Y)) false\n"
    )


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    docs: dict[str, str] = {}
    for k in range(2, 9):
        docs[f"chain{k:02}.proof"] = chain(k)
    for k in range(1, 5):
        docs[f"folchain{k:02}.proof"] = fol_chain(k)
    for m in range(2, 7):
        docs[f"wide{m:02}.proof"] = wide(m)
    docs["diamond.proof"] = diamond()
    docs["shared_lemma.proof"] = shared_lemma()
    docs["binary_preds.proof"] = binary_preds()
    docs["equality_flavor.proof"] = equality_flavor()
    for k in (1, 2, 3):
        docs[f"two_phase{k}.proof"] = two_phase(k)
    docs["residual_variable.proof"] = residual_variable()

    reduced = 0
    for name, text in sorted(docs.items()):
        doc = parse_proof(text)
        tree = ground_deduction(to_tree(doc))
        tab = to_cut_normal_form(tree)
        _, trace = hyper_convert(tab)
        s3, s4 = trace.input_size, trace.output_size
        if s4 <= s3:
            reduced += 1
        (OUT / name).write_text(format_proof(doc))
        print(f"{name:<26} S3={s3:>4} S4={s4:>4} ratio={s4/s3:.2f} rounds={trace.total_rounds}")
    print(f"{len(docs)} documents, {reduced} with S4 <= S3")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
