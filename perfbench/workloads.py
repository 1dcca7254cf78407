"""The three workloads.  Each builds a fixed list of items from the seed,
runs one item through the public library calls a foltab command makes
(the timed part), and checks an item's output with the benchmark's own
oracles (untimed).

Every limit is passed explicitly, so the FOLTAB_* environment defaults of
the command line cannot change a run, and no item has a wall-clock timeout:
verdicts, counts and output sizes repeat exactly for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# stages are looked up as module attributes at call time, so that tracing
# can replace them
import foltab.documents
import foltab.hyperconv
import foltab.interpolation
import foltab.proofs
import foltab.syntax
import foltab.tableaux
import foltab.tptp

from . import gen
from . import logic as L

MAX_DEPTH = 30  # the command-line default for prove/interpolate/define
MAX_NODES = 10_000_000  # the command-line default for import/hyper/stats
KB_INFERENCES = 200_000  # interpolate-kb: per prove call (verification gets x4)
GROUND_INFERENCES = 2_000  # prove-oracle: per random ground clause set
CHAIN_INFERENCES = 60_000  # prove-oracle: per chain


@dataclass
class Item:
    name: str
    kind: str
    inputs: dict
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What the untimed check makes of one run of an item."""

    ok: bool
    decided: bool
    size: int
    problem: str = ""
    note: str = ""  # reported with the run's metadata, never gated


# ---------------------------------------------------------------------------
# interpolate-kb: query synthesis, as `foltab interpolate` and `define` do it

KB_SMALL = (  # (kind, count per item list)
    ("u-rr", 225),
    ("horn", 180),
    ("vgt-rr", 135),
    ("define", 135),
)
# four chains of each length: the eleven slowest items, which set the tail
# latency, are then chains of length 10 to 12 and not the rare slow small
# instance a seed happens to draw
KB_CHAIN_LENGTHS = tuple(range(5, 13)) * 4
REQUIRE = {"u-rr": ("u-rr",), "horn": ("horn", "u-rr"), "vgt-rr": ("vgt-rr",), "define": ("vgt-rr",)}


def interpolate_kb_items(seed: int, root: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for kind, count in KB_SMALL:
        for i in range(count):
            if kind == "define":
                kb, query, target = gen.vx_instance(rng, rng.randint(2, 3))
                items.append(_define_item(f"define-{i}", kb, query, target, REQUIRE[kind]))
            else:
                f, g = gen.urr_instance(rng, horn_only=kind == "horn")
                items.append(_interpolate_item(f"{kind}-{i}", f, g, REQUIRE[kind]))
    for i, length in enumerate(KB_CHAIN_LENGTHS):
        f, g = gen.rule_chain_instance(rng, length)
        require = ("u-rr", "horn", "vgt-rr")[i % 3]
        items.append(_interpolate_item(f"chain{length}-{i}", f, g, (require,)))
    rng.shuffle(items)
    return items


def _interpolate_item(name, f, g, require) -> Item:
    inputs = {
        "f": L.fof_text([("f", "axiom", f)]),
        "g": L.fof_text([("g", "axiom", g)]),
        "require": require,
    }
    return Item(name, "interpolate", inputs, {"f": f, "g": g})


def _define_item(name, kb, query, target, require) -> Item:
    records = [(f"kb{i}", "axiom", a) for i, a in enumerate(kb)] + [("query", "conjecture", query)]
    inputs = {"problem": L.fof_text(records), "targets": (target,), "require": require}
    # the definability instance as an interpolation problem: F = KB & Q,
    # G = ~KB' | Q' with every non-target predicate renamed
    rename = _predicates(L.conj(kb + [query])) - {target}

    def primed(f):
        return _rename(f, {p: p + "_bench" for p in rename})

    f = L.conj([L.conj(kb), query])
    g = L.disj([("not", primed(L.conj(kb))), primed(query)])
    return Item(name, "define", inputs, {"f": f, "g": g, "target": target})


def _predicates(f) -> set[str]:
    return {name for name, _ in L.symbols([f])[1]}


def _rename(f, mapping):
    tag = f[0]
    if tag == "lit":
        return ("lit", f[1], mapping.get(f[2], f[2]), f[3])
    if tag in ("and", "or"):
        return (tag, tuple(_rename(p, mapping) for p in f[1]))
    if tag == "not":
        return ("not", _rename(f[1], mapping))
    if tag == "imp":
        return (tag, _rename(f[1], mapping), _rename(f[2], mapping))
    if tag in ("all", "ex"):
        return (tag, f[1], _rename(f[2], mapping))
    return f


def interpolate_kb_run(item: Item):
    parse, mk_and = foltab.tptp.parse_fof_file, foltab.syntax.mk_and
    limits = {"max_depth": MAX_DEPTH, "timeout": None, "max_inferences": KB_INFERENCES}
    inputs = item.inputs
    try:
        if item.kind == "define":
            axioms, conjectures = foltab.tptp.split_problem(parse(inputs["problem"]))
            h, report = foltab.interpolation.synthesize_definition(
                mk_and(axioms), mk_and(conjectures), inputs["targets"],
                require=inputs["require"], verify=True, **limits,
            )
        else:
            f = mk_and([r.formula for r in parse(inputs["f"])])
            g = mk_and([r.formula for r in parse(inputs["g"])])
            h, report = foltab.interpolation.interpolate(
                f, g, require=inputs["require"], verify=True, **limits
            )
    except foltab.interpolation.NotProvedError as e:
        return None, e.result.status
    return foltab.tptp.format_formula(h), report


def interpolate_kb_check(item: Item, output, rng: random.Random) -> Outcome:
    text, report = output
    if text is None:
        return Outcome(True, False, 0)
    problems = []
    if report.verification is None or not report.verification.passed:
        problems.append("verification did not pass")
    if not all(report.require_results.values()):
        problems.append(f"requirements failed: {report.require_results}")
    try:
        h = L.parse_formula(text)
    except L.SyntaxFailure as e:
        return Outcome(False, True, 0, f"unparseable interpolant: {e}")
    if item.kind == "define":
        preds = _predicates(h)
        if not preds <= {item.expect["target"]}:
            problems.append(f"definition uses non-target predicates {sorted(preds)}")
    bad = L.entailment_counterexample(item.expect["f"], h, item.expect["g"], rng, 27)
    if bad:
        problems.append(bad)
    return Outcome(not problems, True, sum(1 for _ in L.literals(h)), "; ".join(problems))


# ---------------------------------------------------------------------------
# proof-scale: proof import and hyper conversion, as `import`, `hyper` and
# `stats` do it

# sizes grow by about sqrt(2), so that neighbouring items in the sorted
# latencies stay close and the percentiles do not jump between runs
PROOF_SIZES = dict.fromkeys(("chain", "wide", "fol_chain"), (10, 14, 20, 28, 40, 56, 80))


def proof_scale_items(seed: int, root: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for family, sizes in PROOF_SIZES.items():
        for k in sizes:
            if family == "chain":
                text = gen.chain(k, gen.lower_name(rng))
            elif family == "wide":
                text = gen.wide(k, gen.lower_name(rng))
            else:
                p, f, a = (gen.lower_name(rng) + suffix for suffix in "pfc")
                text = gen.fol_chain(k, p, f, a, gen.upper_name(rng))
            items.append(Item(f"{family}{k}", family, {"proof": text}, {"k": k}))
    # the bundled sample corpus, as `foltab stats` runs it by default
    for path in sorted((root / "src" / "foltab" / "samples").glob("*.proof")):
        items.append(Item(path.stem, "corpus", {"proof": path.read_text()}))
    rng.shuffle(items)
    return items


def proof_scale_run(item: Item):
    doc = foltab.proofs.parse_proof(item.inputs["proof"])
    tree = foltab.proofs.ground_deduction(foltab.proofs.to_tree(doc, max_nodes=MAX_NODES))
    tab = foltab.proofs.to_cut_normal_form(tree)
    out, trace = foltab.hyperconv.hyper_convert(tab, max_nodes=MAX_NODES)
    return trace.input_size, trace.output_size, trace.total_rounds, foltab.documents.format_tableau(out)


def expected_sizes(family: str, k: int):
    """(S3, S4, rounds) of a proof family, in closed form."""
    if family == "wide":
        return 2 * k + 1, k + 1, k
    return 2 * k + 3, k + 2, k + 1


def proof_scale_check(item: Item, output, rng: random.Random) -> Outcome:
    s3, s4, rounds, doc = output
    problems = []
    if item.kind != "corpus":
        want = expected_sizes(item.kind, item.expect["k"])
        if (s3, s4, rounds) != want:
            problems.append(f"(S3, S4, rounds) = {(s3, s4, rounds)}, expected {want}")
    _, inner, bad = L.check_tableau_document(doc, hyper=True)
    if bad:
        problems.append(bad)
    if inner + 1 != s4:
        problems.append(f"document has {inner} inner nodes below the root, S4 = {s4}")
    return Outcome(not problems, True, s4, "; ".join(problems))


# ---------------------------------------------------------------------------
# prove-oracle: the prover as a checker, as `foltab prove --format clauses`
# runs it

# every (atoms, clauses) shape up to 7 atoms and 14 clauses, GROUND_REPEATS
# times: the seed varies the literals but not the size mix, which would
# otherwise swing the workload's cost from seed to seed
GROUND_SHAPES = tuple((a, c) for a in range(1, 8) for c in range(1, 15))
GROUND_REPEATS = 8
CHAIN_LENGTHS = (5, 10, 15, 20)
ROADMAP_CHAIN20_INFERENCES = 39_731


def prove_oracle_items(seed: int, root: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for i, (n_atoms, n_clauses) in enumerate(GROUND_SHAPES * GROUND_REPEATS):
        clauses = gen.ground_clauses(rng, n_atoms, n_clauses)
        items.append(
            Item(f"ground-{i}", "ground", {"clauses": gen.clause_file(clauses), "cap": GROUND_INFERENCES},
                 {"sat": L.satisfiable(clauses)})
        )
    for k in CHAIN_LENGTHS:
        for goal in (True, False):
            p = gen.lower_name(rng)
            items.append(
                Item(f"implication{k}{'' if goal else '-open'}", "implication",
                     {"clauses": gen.implication_chain(k, p, goal), "cap": CHAIN_INFERENCES},
                     {"sat": not goal})
            )
            p, f, a = (gen.lower_name(rng) + suffix for suffix in "pfc")
            items.append(
                Item(f"term{k}{'' if goal else '-open'}", "term",
                     {"clauses": gen.term_chain(k, p, f, a, goal), "cap": CHAIN_INFERENCES},
                     {"sat": not goal})
            )
    rng.shuffle(items)
    return items


def prove_oracle_run(item: Item):
    clauses = foltab.tptp.parse_clause_file(item.inputs["clauses"])
    result = foltab.tableaux.prove(
        clauses, max_depth=MAX_DEPTH, timeout=None, max_inferences=item.inputs["cap"]
    )
    doc = foltab.documents.format_tableau(result.tableau) if result.proved else None
    return result.status, result.inferences, doc


def prove_oracle_check(item: Item, output, rng: random.Random) -> Outcome:
    status, inferences, doc = output
    sat = item.expect["sat"]
    if status == "proved":
        nodes, _, bad = L.check_tableau_document(doc, hyper=False)
        if sat:
            bad = "proved a satisfiable clause set"
        note = ""
        if item.name == "implication20":
            note = f"implication20: {inferences} inferences (ROADMAP baseline {ROADMAP_CHAIN20_INFERENCES})"
        return Outcome(bad is None, True, nodes, bad or "", note)
    if status == "saturated":
        return Outcome(sat, True, 0, "" if sat else "saturated on an unsatisfiable set")
    return Outcome(True, False, 0)


def _whole(item: Item, output):
    return output


@dataclass(frozen=True)
class Workload:
    make: object  # (seed, checkout root) -> items
    run: object  # item -> output; the timed call
    check: object  # (item, output, rng) -> Outcome
    fingerprint: object = _whole  # (item, output) -> what every pass must repeat


WORKLOADS = {
    "interpolate-kb": Workload(
        interpolate_kb_items,
        interpolate_kb_run,
        interpolate_kb_check,
        lambda item, output: output[0] if output[0] is not None else output[1],
    ),
    "proof-scale": Workload(proof_scale_items, proof_scale_run, proof_scale_check),
    "prove-oracle": Workload(prove_oracle_items, prove_oracle_run, prove_oracle_check),
}
