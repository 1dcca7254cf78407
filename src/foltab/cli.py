"""Command-line surface: proving, interpolation, the hyper conversion,
fragment checks, interpolant verification, definition synthesis, proof
import, and batch conversion statistics.

Exit codes: 0 success/pass, 1 not proved within limits, 2 requirement or
verification failure, 3 parse/usage error, 4 resource limit.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional

from .documents import format_tableau, parse_tableau
from .hyperconv import hyper_convert, measure_string
from .interpolation import (
    PROPERTY_CHECKS,
    NotProvedError,
    RequirementError,
    interpolate,
    synthesize_definition,
    verify_interpolant,
)
from .normalize import ClauseLimitError, equality_axioms, freeze_free_vars, skolemize_clausify
from .proofs import ProofError, ground_deduction, parse_proof, to_cut_normal_form, to_tree
from .restriction import RestrictionReport, check_vx_preconditions, is_horn_like, prop4_check
from .syntax import And, FreshNamer, InputError, Not, Signature, free_vars, mk_and, read_symbols
from .tableaux import Node, ResourceLimitError, StructureError, prove
from .tptp import ParseError, content_lines, format_formula, parse_clause_file, parse_fof_file, split_problem

EXIT_OK = 0
EXIT_NOT_PROVED = 1
EXIT_FAIL = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4


def _env_number(name: str, kind: type, default):
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise InputError(f"{name}: not a valid {kind.__name__}: {raw!r}") from None


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_formula(path: str):
    """Conjunction of every formula in a fof file, roles ignored."""
    records = parse_fof_file(_read(path))
    if not records:
        raise ParseError("file contains no formulas", 1, 1)
    return mk_and([r.formula for r in records])


def _load_problem(path: str):
    """(axioms conjunction or None, conjecture conjunction or None)."""
    records = parse_fof_file(_read(path))
    axioms, conjectures = split_problem(records)
    ax = mk_and(axioms) if axioms else None
    cj = mk_and(conjectures) if conjectures else None
    return ax, cj


def _requirements(args) -> list[str]:
    """The names given with --require, each a comma-separated list."""
    return [x for chunk in args.require or [] for x in chunk.split(",") if x]


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# prove


def cmd_prove(args) -> int:
    if args.format == "clauses":
        clauses = parse_clause_file(_read(args.input))
    else:
        ax, cj = _load_problem(args.input)
        if ax is None and cj is None:
            print("error: no formulas in input", file=sys.stderr)
            return EXIT_PARSE
        formula = ax if cj is None else (And((ax, Not(cj))) if ax is not None else Not(cj))
        symbols = read_symbols(formula)
        namer = FreshNamer(symbols.names)
        frozen, _, _ = freeze_free_vars(namer, (symbols.free, symbols.free))
        clauses = list(skolemize_clausify(formula, namer, frozen).clauses)
    if args.equality_axioms:
        sig = Signature()
        for c in clauses:
            for l in c.literals:
                sig.extend_with_literal(l)
        clauses = clauses + equality_axioms(sig)

    if not clauses and args.format != "clauses":
        # formulas with no clause are satisfiable: the search saturates at once
        print("% not proved: saturated")
        return EXIT_NOT_PROVED
    if any(not c.literals for c in clauses):
        print("% input contains the empty clause; trivially unsatisfiable")
        return EXIT_OK
    result = prove(
        clauses,
        max_depth=args.max_depth,
        timeout=args.timeout,
        max_inferences=args.max_inferences,
    )
    if not result.proved:
        print(f"% not proved: {result.status}")
        return EXIT_NOT_PROVED
    doc = format_tableau(result.tableau)
    _write_or_print(doc, args.out)
    if args.out:
        print(f"% proved; tableau written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# interpolate


def _report_lines(report, timings: bool) -> list[str]:
    lines = ["% proved: yes"]
    if report.certificate.shortcut:
        lines.append(f"% shortcut: {report.certificate.shortcut}")
    if report.size_before is not None:
        lines.append(f"% tableau-inner-nodes: {report.size_before}")
    if report.trace is not None:
        ratio = report.size_ratio
        lines.append(f"% hyper-rounds: {report.trace.total_rounds}")
        lines.append(f"% hyper-inner-nodes: {report.size_after}")
        if ratio is not None:
            lines.append(f"% hyper-size-ratio: {ratio:.2f}")
    for r in sorted(report.require_results):
        lines.append(f"% require {r}: {'pass' if report.require_results[r] else 'fail'}")
    if report.verification is not None:
        v = report.verification
        lines.append(f"% verify vocabulary: {'pass' if v.vocabulary_ok else 'fail'}")
        lines.append(f"% verify variables: {'pass' if v.variables_ok else 'fail'}")
        lines.append(f"% verify f-entails-h: {v.f_entails_h}")
        lines.append(f"% verify h-entails-g: {v.h_entails_g}")
        for p in sorted(v.properties):
            lines.append(f"% verify {p}: {'pass' if v.properties[p] else 'fail'}")
    if timings:
        for stage in sorted(report.timings_ms):
            lines.append(f"% time {stage}: {report.timings_ms[stage]:.1f} ms")
    return lines


def cmd_interpolate(args) -> int:
    f = _load_formula(args.f)
    g = _load_formula(args.g)
    if args.free_vars is not None:
        declared = {x for x in args.free_vars.split(",") if x}
        if declared != free_vars(f) or declared != free_vars(g):
            print(
                "error: --free-vars must name exactly the free variables of both inputs",
                file=sys.stderr,
            )
            return EXIT_PARSE
    try:
        h, report = interpolate(
            f,
            g,
            require=_requirements(args),
            use_hyper=args.hyper,
            side_tie=args.side_tie.upper(),
            ground_policy=args.ground_side.upper() if args.ground_side != "alternate" else "alternate",
            max_depth=args.max_depth,
            timeout=args.timeout,
            max_inferences=args.max_inferences,
            verify=args.verify,
        )
    except NotProvedError as e:
        print(f"% not proved: {e.result.status}")
        return EXIT_NOT_PROVED
    except RequirementError as e:
        print(format_formula(e.report.interpolant))
        for line in _report_lines(e.report, args.timings):
            print(line)
        print(f"% requirement failure: {e}")
        return EXIT_FAIL
    text = format_formula(h)
    print(text)
    for line in _report_lines(report, args.timings):
        print(line)
    if args.out:
        Path(args.out).write_text(f"fof(interpolant, plain, {text}).\n")
    if args.verify and report.verification is not None and not report.verification.passed:
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# hyper


def _import_proof(text: str, max_nodes: int) -> Node:
    """The root of the cut-normal-form tableau of a resolution proof
    document, whose tree expansion must have at most `max_nodes` steps."""
    tree = to_tree(parse_proof(text), max_nodes=max_nodes)
    return to_cut_normal_form(ground_deduction(tree))


def _load_tableau_or_proof(path: str, max_nodes: int) -> Node:
    text = _read(path)
    _, first, _ = next(content_lines(text), (1, "", ""))
    if first == "tableau":
        return parse_tableau(text)
    return _import_proof(text, max_nodes)


def cmd_hyper(args) -> int:
    tab = _load_tableau_or_proof(args.proof, args.max_nodes)
    t0 = time.perf_counter()
    out, trace = hyper_convert(tab, max_nodes=args.max_nodes)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    doc = format_tableau(out)
    if args.json and not args.out:
        pass  # the JSON report is the whole stdout; use --out for the tableau
    else:
        _write_or_print(doc, args.out)
    size_before, size_after = trace.input_size, trace.output_size
    ratio = size_after / size_before if size_before else float("nan")
    if args.json:
        import json  # only here and in `stats --json`: most calls print no JSON
        print(
            json.dumps(
                {
                    "rounds": trace.total_rounds,
                    "S3": size_before,
                    "S4": size_after,
                    "ratio": round(ratio, 4),
                    "T2": round(elapsed_ms, 1),
                    "regularity_splices": trace.regular_splices,
                    "measures": [measure_string(r.measure) for r in trace.rounds],
                }
            )
        )
    elif args.stats:
        print(f"% rounds: {trace.total_rounds}")
        print(f"% size: {size_before} -> {size_after} (ratio {ratio:.2f})")
        print(f"% regularity-splices: {trace.regular_splices}")
        print(f"% time: {elapsed_ms:.1f} ms")
    if args.trace and not args.json:
        for i, r in enumerate(trace.rounds, start=1):
            print(f"% round {i}: measure {measure_string(r.measure)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    if args.property == "vx-preconditions":
        if not args.f or not args.g:
            print("error: vx-preconditions needs --f and --g", file=sys.stderr)
            return EXIT_PARSE
        f = _load_formula(args.f)
        g = _load_formula(args.g)
        xs = frozenset(x for x in (args.free_vars or "").split(",") if x) or None
        report = check_vx_preconditions(f, g, xs)
    else:
        if not args.input:
            print(f"error: {args.property} needs --input", file=sys.stderr)
            return EXIT_PARSE
        formula = _load_formula(args.input)
        if args.property == "prop4":
            rep = prop4_check(formula)
            print(f"vgt: {rep.vgt}  u(F): {rep.u_self}  u(~F): {rep.u_negation}")
            print(f"consistent: {'yes' if rep.consistent else 'no'}")
            return EXIT_OK if rep.consistent else EXIT_FAIL
        if args.property == "horn-like":
            report = RestrictionReport(is_horn_like(formula))
        else:  # argparse admits only the requirable properties besides these
            report = PROPERTY_CHECKS[args.property](formula)
    print(f"{args.property}: {'yes' if report.verdict else 'no'}")
    for w in report.witnesses:
        print(f"witness: clause ({w.clause}) offends {w.offender} [{w.condition}]")
    return EXIT_OK if report.verdict else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    f = _load_formula(args.f)
    g = _load_formula(args.g)
    h = _load_formula(args.h)
    require = _requirements(args)
    report = verify_interpolant(f, g, h, require, max_depth=args.max_depth, timeout=args.timeout)
    print(f"vocabulary: {'pass' if report.vocabulary_ok else 'fail'}")
    print(f"variables: {'pass' if report.variables_ok else 'fail'}")
    print(f"f-entails-h: {report.f_entails_h}")
    print(f"h-entails-g: {report.h_entails_g}")
    for p in sorted(report.properties):
        print(f"{p}: {'pass' if report.properties[p] else 'fail'}")
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# define


def cmd_define(args) -> int:
    try:
        kb, query = _load_problem(args.input)
        if query is None:
            print("error: input needs a conjecture (the query)", file=sys.stderr)
            return EXIT_PARSE
        if kb is None:
            print("error: input needs axioms (the knowledge base)", file=sys.stderr)
            return EXIT_PARSE
        targets = [t for t in args.targets.split(",") if t]
        r, report = synthesize_definition(
            kb,
            query,
            targets,
            require=_requirements(args),
            max_depth=args.max_depth,
            timeout=args.timeout,
            verify=args.verify,
        )
    except NotProvedError as e:
        print(f"% not definable within limits: {e.result.status}")
        return EXIT_NOT_PROVED
    except RequirementError as e:
        print(format_formula(e.report.interpolant))
        print(f"% requirement failure: {e}")
        return EXIT_FAIL
    text = format_formula(r)
    print(text)
    if args.out:
        Path(args.out).write_text(f"fof(definition, plain, {text}).\n")
    if args.verify and report.verification is not None and not report.verification.passed:
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# import


def cmd_import(args) -> int:
    tab = _import_proof(_read(args.proof), args.max_nodes)
    _write_or_print(format_tableau(tab), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats


def bundled_samples_dir() -> Path:
    return Path(__file__).parent / "samples"


def cmd_stats(args) -> int:
    directory = Path(args.dir) if args.dir else bundled_samples_dir()
    proofs = sorted(directory.glob("*.proof"))
    if not proofs:
        print(f"error: no .proof files in {directory}", file=sys.stderr)
        return EXIT_PARSE
    rows = []
    exit_code = EXIT_OK  # that of the first row that fails
    for path in proofs:
        name = path.name
        try:
            tab = _import_proof(_read(path), args.max_nodes)
            t0 = time.perf_counter()
            _, trace = hyper_convert(tab, max_nodes=args.max_nodes)
            t2 = (time.perf_counter() - t0) * 1000
            s3, s4 = trace.input_size, trace.output_size
            rows.append(
                {
                    "proof": name,
                    "S3": s3,
                    "S4": s4,
                    "ratio": round(s4 / s3, 2) if s3 else None,
                    "T2": round(t2, 1),
                    "rounds": trace.total_rounds,
                }
            )
        except _INPUT_ERRORS + _RESOURCE_ERRORS as e:
            if exit_code == EXIT_OK:
                exit_code = exit_code_of(e)
            rows.append({"proof": name, "S3": None, "S4": None, "ratio": None, "T2": None, "error": str(e)})
    summary = {}
    for key in ("S3", "S4", "ratio", "T2"):
        vals = [r[key] for r in rows if r.get(key) is not None]
        if vals:
            summary[key] = {
                "median": round(_median(vals), 2),
                "min": round(min(vals), 2),
                "max": round(max(vals), 2),
            }
    if args.json:
        import json
        print(json.dumps({"rows": rows, "summary": summary}, indent=2))
    else:
        header = f"{'proof':<28}{'S3':>8}{'S4':>8}{'ratio':>8}{'T2':>8}"
        print(header)
        for r in rows:
            if r.get("error"):
                print(f"{r['proof']:<28}{'--':>8}{'--':>8}{'--':>8}{'--':>8}  {r['error']}")
            else:
                print(
                    f"{r['proof']:<28}{r['S3']:>8}{r['S4']:>8}{r['ratio']:>8.2f}{r['T2']:>8.1f}"
                )
        for key in ("S3", "S4", "ratio", "T2"):
            if key in summary:
                s = summary[key]
                print(f"{key} median {s['median']}  min {s['min']}  max {s['max']}")
    failed = sum(1 for r in rows if "error" in r)
    if failed:
        print(f"error: {failed} of {len(rows)} proof files failed", file=sys.stderr)
    return exit_code


def _median(values: list[float]) -> float:
    """The middle value of `values`, or the mean of the two middle values,
    as statistics.median gives it; importing `statistics` would pull in
    `fractions`, `decimal` and `random` on every CLI call."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foltab",
        description="Clausal-tableau proving and Craig-Lyndon interpolation "
        "with range-restriction and Horn guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    default_depth = _env_number("FOLTAB_MAX_DEPTH", int, 30)
    default_timeout = _env_number("FOLTAB_TIMEOUT", float, None)
    default_nodes = _env_number("FOLTAB_MAX_NODES", int, 10_000_000)

    p = sub.add_parser("prove", help="search for a closed clausal tableau")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["tptp-fof", "clauses"], default="tptp-fof")
    p.add_argument("--max-depth", type=int, default=default_depth)
    p.add_argument("--timeout", type=float, default=default_timeout)
    p.add_argument("--max-inferences", type=int, default=None)
    p.add_argument("--equality-axioms", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("interpolate", help="compute a Craig-Lyndon interpolant")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--require", action="append", metavar="{u-rr,vgt-rr,horn}")
    p.add_argument("--free-vars", default=None)
    p.add_argument("--side-tie", choices=["f", "g"], default="f")
    p.add_argument("--ground-side", choices=["f", "g", "alternate"], default="f")
    p.add_argument("--hyper", action="store_true", help="force the hyper conversion")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--max-depth", type=int, default=default_depth)
    p.add_argument("--timeout", type=float, default=default_timeout)
    p.add_argument("--max-inferences", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("hyper", help="convert a proof to a hyper tableau")
    p.add_argument("--proof", required=True, help="tableau or proof document")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true", help="machine-readable run report")
    p.add_argument("--max-nodes", type=int, default=default_nodes)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hyper)

    p = sub.add_parser("check", help="decide membership in a syntactic fragment")
    p.add_argument("--input")
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument(
        "--property",
        required=True,
        choices=["u-rr", "vgt-rr", "horn", "horn-like", "vx-preconditions", "prop4"],
    )
    p.add_argument("--free-vars", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="verify an interpolant against its inputs")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--require", action="append")
    p.add_argument("--max-depth", type=int, default=default_depth)
    p.add_argument("--timeout", type=float, default=default_timeout)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("define", help="synthesize a definition over target predicates")
    p.add_argument("--input", required=True, help="axioms = knowledge base, conjecture = query")
    p.add_argument("--targets", required=True, help="comma-separated predicate names")
    p.add_argument("--require", action="append")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-depth", type=int, default=default_depth)
    p.add_argument("--timeout", type=float, default=default_timeout)
    p.add_argument("--out")
    p.set_defaults(func=cmd_define)

    p = sub.add_parser("import", help="translate a resolution proof to a cut-normal-form tableau")
    p.add_argument("--proof", required=True)
    p.add_argument("--max-nodes", type=int, default=default_nodes)
    p.add_argument("--out")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("stats", help="batch conversion metrics over a proof directory")
    p.add_argument("--dir", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-nodes", type=int, default=default_nodes)
    p.set_defaults(func=cmd_stats)

    return parser


_RESOURCE_ERRORS = (ClauseLimitError, ResourceLimitError)
_INPUT_ERRORS = (ParseError, ProofError, StructureError, InputError, OSError)


def exit_code_of(e: Exception) -> int:
    """The exit code of an error that ends a command: a resource limit or
    bad input."""
    return EXIT_RESOURCE if isinstance(e, _RESOURCE_ERRORS) else EXIT_PARSE


def main(argv: Optional[list[str]] = None) -> int:
    # every error that ends a command gets its exit code here; commands
    # catch only the errors after which they still print partial output
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            # argparse has printed its message; it exits 2 on a usage error,
            # the code of a failed requirement here, and 0 after --help
            return EXIT_PARSE if e.code == 2 else e.code
        return args.func(args)
    except RecursionError:
        print("error: input nested too deeply (recursion limit exceeded)", file=sys.stderr)
        return EXIT_RESOURCE
    except _RESOURCE_ERRORS + _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return exit_code_of(e)


if __name__ == "__main__":
    sys.exit(main())
