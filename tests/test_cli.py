import json
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from foltab import cli
from foltab.cli import _median, bundled_samples_dir, main

from helpers import doubling_dag_proof

EX2_F = """fof(a1, axiom, ! [X] : p(X)).
fof(a2, axiom, ! [X] : (p(X) => q(X))).
"""

EX2_G = "fof(g, axiom, (! [X] : (q(X) => r(X))) => r(a)).\n"

EX3_F = "fof(a1, axiom, ! [X] : ! [Y] : p(X, f(X), Y)).\n"
EX3_G = "fof(g, axiom, ? [X] : p(a, X, g(X))).\n"

CONVERSION_INPUT = """tableau
  ~q
    ~p
      p -> 2
    q -> 1
"""

CONVERSION_GOLDEN = """tableau
  p
    ~p -> 1
    q
      ~q -> 2
"""

TWO_STEP_PROOF = """s1 input p
s2 input ~p | q
s3 input ~q
s4 resolve(s1, s2, p) q
s5 resolve(s4, s3, q) false
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_prove_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.p", "fof(a, axiom, p).\nfof(c, conjecture, p).\n")
    assert main(["prove", "--input", good]) == 0
    sat = write(tmp_path, "sat.p", "fof(a, axiom, p).\nfof(c, conjecture, q).\n")
    assert main(["prove", "--input", sat]) == 1
    bad = write(tmp_path, "bad.p", "fof(a, axiom, p &&).\n")
    assert main(["prove", "--input", bad]) == 3


def test_prove_reports_saturation_on_formulas_with_no_clause(tmp_path, capsys):
    for text in ("fof(a, axiom, $true).\n", "fof(c, conjecture, $false).\n"):
        assert main(["prove", "--input", write(tmp_path, "t.p", text)]) == 1
        assert capsys.readouterr().out == "% not proved: saturated\n"
    # a clause file with no clause is an input error, as is a fof file
    # with no formula
    assert main(["prove", "--input", write(tmp_path, "e.cls", ""), "--format", "clauses"]) == 3
    assert main(["prove", "--input", write(tmp_path, "e.p", "")]) == 3


def test_prove_clause_format_and_out(tmp_path, capsys):
    clauses = write(tmp_path, "cs.cls", "p | q\n~p\n~q\n")
    out = str(tmp_path / "tab.txt")
    assert main(["prove", "--input", clauses, "--format", "clauses", "--out", out]) == 0
    text = (tmp_path / "tab.txt").read_text()
    assert text.startswith("tableau\n")
    capsys.readouterr()


def test_prove_empty_clause_shortcut(tmp_path, capsys):
    clauses = write(tmp_path, "cs.cls", "p\nfalse\n")
    assert main(["prove", "--input", clauses, "--format", "clauses"]) == 0
    assert "empty clause" in capsys.readouterr().out


def test_interpolate_golden_outputs(tmp_path, capsys):
    f = write(tmp_path, "f.p", EX2_F)
    g = write(tmp_path, "g.p", EX2_G)
    assert main(["interpolate", "--f", f, "--g", g, "--verify"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "! [V1] : q(V1)"

    f3 = write(tmp_path, "f3.p", EX3_F)
    g3 = write(tmp_path, "g3.p", EX3_G)
    assert main(["interpolate", "--f", f3, "--g", g3]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "! [V1] : ? [V2] : ! [V3] : p(V1,V2,V3)"


def test_interpolate_deterministic_output(tmp_path, capsys):
    f = write(tmp_path, "f.p", EX2_F)
    g = write(tmp_path, "g.p", EX2_G)
    assert main(["interpolate", "--f", f, "--g", g]) == 0
    first = capsys.readouterr().out
    assert main(["interpolate", "--f", f, "--g", g]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_interpolate_hyper_without_requirements(tmp_path, capsys):
    f = write(tmp_path, "f.p", EX2_F)
    g = write(tmp_path, "g.p", EX2_G)
    assert main(["interpolate", "--f", f, "--g", g]) == 0
    assert "% hyper-" not in capsys.readouterr().out
    assert main(["interpolate", "--f", f, "--g", g, "--hyper"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "! [V1] : q(V1)"
    assert "% hyper-rounds: 1" in lines and "% hyper-inner-nodes: 4" in lines
    assert not any(l.startswith("% require") for l in lines)


def test_interpolate_not_proved(tmp_path, capsys):
    f = write(tmp_path, "f.p", "fof(a, axiom, p).\n")
    g = write(tmp_path, "g.p", "fof(a, axiom, q).\n")
    assert main(["interpolate", "--f", f, "--g", g]) == 1


def test_interpolate_on_clause_free_sides_is_not_proved(tmp_path, capsys):
    # F = $true and ~G = ~$false clausify to no clause at all: F does not
    # entail G, which is "not proved" (exit 1), not an input error
    f = write(tmp_path, "f.p", "fof(f, axiom, $true).\n")
    g = write(tmp_path, "g.p", "fof(g, axiom, $false).\n")
    assert main(["interpolate", "--f", f, "--g", g]) == 1
    captured = capsys.readouterr()
    assert captured.out == "% not proved: saturated\n" and captured.err == ""


def test_interpolate_require_horn(tmp_path, capsys):
    # Example F is Horn but not U-range-restricted ({p(X)} is unguarded),
    # so only the Horn guarantee applies here
    f = write(tmp_path, "f.p", EX2_F)
    g = write(tmp_path, "g.p", EX2_G)
    assert main(["interpolate", "--f", f, "--g", g, "--require", "horn", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "% require horn: pass" in out


def test_interpolate_require_u_rr(tmp_path, capsys):
    f = write(
        tmp_path,
        "f.p",
        "fof(a1, axiom, p(a)).\nfof(a2, axiom, ! [X] : (p(X) => q(X))).\n",
    )
    g = write(tmp_path, "g.p", "fof(g, axiom, q(a)).\n")
    assert main(["interpolate", "--f", f, "--g", g, "--require", "u-rr,horn", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "% require u-rr: pass" in out
    assert "% require horn: pass" in out


def test_interpolate_requirement_failure_exit_code(tmp_path, capsys):
    # F not U-range-restricted and the interpolant cannot be either
    f = write(tmp_path, "f.p", "fof(a, axiom, ! [X] : q(X)).\n")
    g = write(tmp_path, "g.p", "fof(g, axiom, q(a)).\n")
    assert main(["interpolate", "--f", f, "--g", g, "--require", "u-rr"]) == 2


def test_interpolate_require_horn_on_a_non_horn_interpolant_exits_2(tmp_path, capsys):
    # the only interpolant is p | q, which is not Horn-like, so hornify
    # does not apply and the requirement check reports the miss
    f = write(tmp_path, "f.p", "fof(a, axiom, p | q).\n")
    g = write(tmp_path, "g.p", "fof(a, axiom, p | q).\n")
    assert main(["interpolate", "--f", f, "--g", g, "--require", "horn"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "p | q"
    assert "% require horn: fail" in lines
    assert captured.err == ""


def test_interpolate_ground_side_picks_the_side_of_the_fresh_constant(tmp_path, capsys):
    # the proof's one variable grounds to a fresh constant; lifted as an F
    # term it is bound existentially, as a G term universally
    f = write(tmp_path, "f.p", "fof(f, axiom, ! [X] : r(X)).\n")
    g = write(tmp_path, "g.p", "fof(g, axiom, ? [X] : r(X)).\n")
    assert main(["interpolate", "--f", f, "--g", g]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "? [V1] : r(V1)"
    assert main(["interpolate", "--f", f, "--g", g, "--ground-side", "g"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "! [V1] : r(V1)"
    for side in ("f", "g", "alternate"):
        for tie in ("f", "g"):
            args = ["--ground-side", side, "--side-tie", tie, "--verify"]
            assert main(["interpolate", "--f", f, "--g", g, *args]) == 0, args
            assert "fail" not in capsys.readouterr().out


def test_interpolate_side_tie_labels_a_clause_of_both_sides(tmp_path, capsys):
    # ~p | q is a clause of F and of ~G: labelled F, the interpolant is q,
    # labelled G, it is p
    f = write(tmp_path, "f.p", "fof(f, axiom, p & (~p | q)).\n")
    g = write(tmp_path, "g.p", "fof(g, axiom, q | ~(~p | q)).\n")
    for tie, want in (("f", "q"), ("g", "p")):
        assert main(["interpolate", "--f", f, "--g", g, "--side-tie", tie, "--verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == want
        assert "% verify f-entails-h: pass" in lines and "% verify h-entails-g: pass" in lines
    assert main(["interpolate", "--f", f, "--g", g]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "q"


def test_interpolate_timings_list_the_stages_that_ran(tmp_path, capsys):
    f = write(tmp_path, "f.p", "fof(f, axiom, ! [X] : r(X)).\n")
    g = write(tmp_path, "g.p", "fof(g, axiom, ? [X] : r(X)).\n")
    for args, stages in (
        (["--verify"], ["clausify", "extract", "ground", "prove", "verify"]),
        (["--require", "horn"], ["clausify", "extract", "ground", "hyper", "prove"]),
    ):
        assert main(["interpolate", "--f", f, "--g", g, "--timings", *args]) == 0
        times = [l for l in capsys.readouterr().out.splitlines() if l.startswith("% time ")]
        assert [l.split()[2] for l in times] == [f"{s}:" for s in stages]
        assert all(re.fullmatch(r"% time \w+: \d+\.\d ms", l) for l in times), times
    assert main(["interpolate", "--f", f, "--g", g]) == 0
    assert "% time" not in capsys.readouterr().out


def test_define_require_horn_on_a_non_horn_definition_exits_2(tmp_path, capsys):
    kb = write(
        tmp_path,
        "kb.p",
        "fof(k, axiom, ! [X] : (p(X) <=> (q(X) | r(X)))).\nfof(q, conjecture, p(X)).\n",
    )
    assert main(["define", "--input", kb, "--targets", "q,r", "--require", "horn"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "q(X) | r(X)",
        "% requirement failure: interpolant misses requested properties: horn",
    ]
    assert captured.err == ""


def test_hyper_on_tableau_document(tmp_path, capsys):
    doc = write(tmp_path, "input.tab", CONVERSION_INPUT)
    out = str(tmp_path / "hyper.tab")
    assert main(["hyper", "--proof", doc, "--stats", "--trace", "--out", out]) == 0
    assert (tmp_path / "hyper.tab").read_text() == CONVERSION_GOLDEN
    printed = capsys.readouterr().out
    assert "% rounds: 2" in printed
    assert "measure 0 w 2" in printed


def test_hyper_on_proof_document(tmp_path, capsys):
    doc = write(tmp_path, "proof.proof", TWO_STEP_PROOF)
    assert main(["hyper", "--proof", doc]) == 0
    assert capsys.readouterr().out == CONVERSION_GOLDEN


def test_hyper_rejects_cyclic_proof_bindings(tmp_path, capsys):
    doc = write(
        tmp_path,
        "cycle.proof",
        "s1 input p(f(X))\ns2 input ~p(f(X))\ns3 resolve(s1, s2, p(f(X))) {X -> f(X)} false\n",
    )
    assert main(["hyper", "--proof", doc]) == 3
    captured = capsys.readouterr()
    assert "cyclic bindings through X at line 3" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_hyper_rejects_a_target_depth_too_long_to_read(tmp_path, capsys):
    # more digits than int() converts; no ancestor is that deep
    doc = write(tmp_path, "deep.tab", "tableau\n  p\n    ~p -> " + "9" * 5000 + "\n")
    assert main(["hyper", "--proof", doc]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: no ancestor at depth 9999")
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.count("\n") == 1
    # leading zeros do not count
    doc = write(tmp_path, "zeros.tab", "tableau\n  p\n    ~p -> " + "0" * 5000 + "1\n")
    assert main(["hyper", "--proof", doc]) == 0


DEPTH = 5_000


def nested(op: str) -> str:
    """`p` under DEPTH binary connectives `op`, each in parentheses with `q`."""
    text = "p"
    for _ in range(DEPTH):
        text = f"({text} {op} q)"
    return text


DEEP_TERM = "p(" + "f(" * DEPTH + "a" + ")" * (DEPTH + 1)

# the robustness probes: the formula and the exit code of `check`; every
# one interpolates with F = G
PROBES = {
    "negation": ("~(" * DEPTH + "p" + ")" * DEPTH, 0),
    "conjunction": (nested("&"), 0),
    "disjunction": (nested("|"), 0),
    "implication": (nested("=>"), 0),
    "equivalence": (nested("<=>"), 0),
    "term": (DEEP_TERM, 0),
    # X1 ... X4999 occur in no literal: not u-rr
    "quantifiers": ("".join(f"! [X{i}] : " for i in range(DEPTH)) + "p(X0)", 2),
}


@pytest.mark.parametrize("command", ["check", "interpolate"])
@pytest.mark.parametrize("probe", list(PROBES))
def test_deeply_nested_input_at_the_default_recursion_limit(
    default_recursion_limit, tmp_path, capsys, probe, command
):
    text, check_code = PROBES[probe]
    f = write(tmp_path, "f.p", f"fof(f, axiom, {text}).\n")
    if command == "check":
        assert main(["check", "--input", f, "--property", "u-rr"]) == check_code
    else:
        assert main(["interpolate", "--f", f, "--g", f]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == ""
    if command == "check":
        assert captured.out.startswith(f"u-rr: {'yes' if check_code == 0 else 'no'}\n")
    elif probe == "term":
        assert captured.out.splitlines()[0] == DEEP_TERM


def test_a_recursion_error_is_a_resource_error(tmp_path, capsys, monkeypatch):
    # the backstop: no command recurses on its input, but an error of the
    # interpreter's recursion limit still ends with exit 4 and one line
    def deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_check", deep)
    f = write(tmp_path, "f.p", "fof(f, axiom, p).\n")
    assert main(["check", "--input", f, "--property", "u-rr"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: input nested too deeply (recursion limit exceeded)\n"
    assert "Traceback" not in captured.out


def test_hyper_resource_limit(tmp_path, capsys):
    doc = write(tmp_path, "input.tab", CONVERSION_INPUT)
    assert main(["hyper", "--proof", doc, "--max-nodes", "3"]) == 4


def test_hyper_rejects_open_tableau(tmp_path, capsys):
    doc = write(tmp_path, "open.tab", "tableau\n  p\n    q\n")
    assert main(["hyper", "--proof", doc]) == 3


def test_prove_axioms_only_refutation(tmp_path, capsys):
    inp = write(tmp_path, "pair.p", "fof(a1, axiom, p).\nfof(a2, axiom, ~p).\n")
    out = str(tmp_path / "t.tab")
    assert main(["prove", "--input", inp, "--out", out]) == 0
    text = (tmp_path / "t.tab").read_text()
    assert len([l for l in text.splitlines() if l.strip() and l != "tableau"]) == 2


def test_check_vx_preconditions_cli(tmp_path, capsys):
    f = write(
        tmp_path,
        "f.p",
        "fof(k, axiom, (! [X] : (p(X) => q(X))) & (! [X] : (q(X) => p(X))) & p(X)).\n",
    )
    g = write(
        tmp_path,
        "g.p",
        "fof(g, axiom, ~((! [X] : (p1(X) => q(X))) & (! [X] : (q(X) => p1(X)))) | p1(X)).\n",
    )
    assert main(["check", "--f", f, "--g", g, "--property", "vx-preconditions"]) == 0
    capsys.readouterr()


def test_check_prop4_cli(tmp_path, capsys):
    tgd = write(tmp_path, "tgd.p", "fof(a, axiom, ! [X] : ! [Y] : (r(X,Y) => ? [Z] : b(Y,Z))).\n")
    assert main(["check", "--input", tgd, "--property", "prop4"]) == 0
    assert "consistent: yes" in capsys.readouterr().out


def test_check_command(tmp_path, capsys):
    tgd = write(tmp_path, "tgd.p", "fof(a, axiom, ! [X] : ! [Y] : (r(X,Y) => ? [Z] : b(Y,Z))).\n")
    assert main(["check", "--input", tgd, "--property", "vgt-rr"]) == 0
    bad = write(tmp_path, "bad.p", "fof(a, axiom, ! [X] : q(X)).\n")
    assert main(["check", "--input", bad, "--property", "u-rr"]) == 2
    out = capsys.readouterr().out
    assert "witness" in out
    horn = write(tmp_path, "h.p", "fof(a, axiom, p(a) & (~p(a) | q(a))).\n")
    assert main(["check", "--input", horn, "--property", "horn"]) == 0
    broken = write(tmp_path, "broken.p", "fof(a, axiom, p(.\n")
    assert main(["check", "--input", broken, "--property", "horn"]) == 3


NOT_RANGE_RESTRICTED = "fof(a, axiom, ! [X] : (q(X) | s(X))).\nfof(b, axiom, ? [Y] : (p(Y) | ~t(Y))).\n"


@pytest.mark.parametrize(
    "prop, out",
    [
        ("u-rr", "u-rr: no\nwitness: clause (q(X) | s(X)) offends X [universal-not-in-negative]\n"),
        (
            "vgt-rr",
            "vgt-rr: no\n"
            "witness: clause (q(X) | s(X)) offends X [universal-not-in-negative]\n"
            "witness: clause (q(X) & ~t(Y)) offends Y [existential-not-in-positive]\n"
            "witness: clause (s(X) & ~t(Y)) offends Y [existential-not-in-positive]\n",
        ),
        ("horn", "horn: no\n"),
        ("horn-like", "horn-like: no\n"),
    ],
)
def test_check_outputs(tmp_path, capsys, prop, out):
    f = write(tmp_path, "f.p", NOT_RANGE_RESTRICTED)
    assert main(["check", "--input", f, "--property", prop]) == 2
    assert capsys.readouterr().out == out


def test_check_witness_prints_equality_in_input_syntax(tmp_path, capsys):
    f = write(tmp_path, "f.p", "fof(a, axiom, ! [X,Y] : (X = Y | p(X))).\n")
    assert main(["check", "--input", f, "--property", "u-rr"]) == 2
    assert capsys.readouterr().out == (
        "u-rr: no\n"
        "witness: clause (X = Y | p(X)) offends X [universal-not-in-negative]\n"
        "witness: clause (X = Y | p(X)) offends Y [universal-not-in-negative]\n"
    )


@pytest.mark.parametrize("prop", ["u-rr", "vgt-rr", "horn", "horn-like", "prop4"])
def test_check_without_input_is_a_usage_error(capsys, prop):
    assert main(["check", "--property", prop]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {prop} needs --input\n"


def test_verify_command(tmp_path, capsys):
    f = write(tmp_path, "f.p", EX2_F)
    g = write(tmp_path, "g.p", EX2_G)
    h = write(tmp_path, "h.p", "fof(h, axiom, ! [V1] : q(V1)).\n")
    assert main(["verify", "--f", f, "--g", g, "--h", h]) == 0
    bad = write(tmp_path, "badh.p", "fof(h, axiom, r(a)).\n")
    assert main(["verify", "--f", f, "--g", g, "--h", bad]) == 2


def test_verify_command_on_clause_free_inputs(tmp_path, capsys):
    # F = $true and H = $false clausify to no clause at all: the empty
    # clause set is satisfiable, so F |= H fails (exit 2, not a usage error)
    t = write(tmp_path, "t.p", "fof(t, axiom, $true).\n")
    f = write(tmp_path, "f.p", "fof(f, axiom, $false).\n")
    assert main(["verify", "--f", t, "--g", f, "--h", f]) == 2
    out = capsys.readouterr().out
    assert "f-entails-h: fail" in out and "h-entails-g: pass" in out


def test_verify_command_with_require(tmp_path, capsys):
    f = write(tmp_path, "f.p", EX2_F)
    g = write(tmp_path, "g.p", EX2_G)
    h = write(tmp_path, "h.p", "fof(h, axiom, ! [V1] : q(V1)).\n")
    assert main(["verify", "--f", f, "--g", g, "--h", h, "--require", "horn"]) == 0
    out = capsys.readouterr().out
    assert "horn: pass" in out
    assert main(["verify", "--f", f, "--g", g, "--h", h, "--require", "nonsense"]) == 3


def test_define_command(tmp_path, capsys):
    kb = write(
        tmp_path,
        "kb.p",
        "fof(k, axiom, ! [X] : (p(X) <=> q(X))).\nfof(q, conjecture, p(X)).\n",
    )
    assert main(["define", "--input", kb, "--targets", "q"]) == 0
    out = capsys.readouterr().out
    assert "q(" in out.splitlines()[0]


def test_define_all_targets_returns_query(tmp_path, capsys):
    kb = write(
        tmp_path,
        "kb.p",
        "fof(k, axiom, ! [X] : (p(X) => q(X))).\nfof(q, conjecture, p(X)).\n",
    )
    assert main(["define", "--input", kb, "--targets", "p,q"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "p(X)"


def test_import_command(tmp_path, capsys):
    doc = write(tmp_path, "proof.proof", TWO_STEP_PROOF)
    assert main(["import", "--proof", doc]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tableau\n")
    assert main(["import", "--proof", write(tmp_path, "bad.proof", "s1 inut p\n")]) == 3


ARITY_CLASH_PROOF = """1 input p(a)
2 input ~p(a) | q(p)
3 resolve(1, 2, p(a)) q(p)
4 input ~q(p)
5 resolve(3, 4, q(p)) false
"""

ARITY_CLASH_TABLEAU = """tableau
  p(a,b)
    ~p(a,b) -> 1
    p(a)
      ~p(a) -> 2
"""


def test_documents_with_an_arity_clash_exit_as_clause_files_do(tmp_path, capsys):
    for command, text, clauses, message in [
        ("import", ARITY_CLASH_PROOF, "p(a)\n~p(a) | q(p)\n", "symbol used as both function and predicate: p at line 2"),
        # the clause file's clash on the tableau's line, past a comment and a blank line
        ("hyper", ARITY_CLASH_TABLEAU, "p(a,b)\n% c\n\np(a)\n", "arity clash for predicate p: 2 vs 1 at line 4"),
    ]:
        clause_file = write(tmp_path, "clash.cls", clauses)
        assert main(["prove", "--input", clause_file, "--format", "clauses"]) == 3
        expected = capsys.readouterr().err
        assert expected == f"error: {message}\n"
        assert main([command, "--proof", write(tmp_path, "clash.doc", text)]) == 3
        assert capsys.readouterr().err == expected


@pytest.mark.parametrize("command", ["import", "hyper", "stats"])
def test_max_nodes_bounds_proof_expansion(tmp_path, capsys, command):
    doc = write(tmp_path, "dag.proof", doubling_dag_proof(12))
    source = ["--dir", str(tmp_path)] if command == "stats" else ["--proof", doc]
    assert main([command, *source, "--max-nodes", "100"]) == 4
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    message = "proof tree expansion exceeded 100 nodes"
    if command == "stats":
        assert message in captured.out  # in the row of the failed file
    else:
        assert captured.err == f"error: {message}\n"


def test_default_max_nodes_stops_a_deep_dag_before_building_it(tmp_path, monkeypatch, capsys):
    # the expansion has more than 2^40 steps; it is counted, never built
    monkeypatch.delenv("FOLTAB_MAX_NODES", raising=False)
    doc = write(tmp_path, "dag.proof", doubling_dag_proof(40))
    assert main(["import", "--proof", doc]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: proof tree expansion exceeded 10000000 nodes\n"


def test_doubling_dag_proof_converts(tmp_path, capsys):
    doc = write(tmp_path, "dag.proof", doubling_dag_proof(3))
    assert main(["hyper", "--proof", doc, "--stats"]) == 0
    assert "% rounds: " in capsys.readouterr().out


def test_hyper_json_report(tmp_path, capsys):
    doc = write(tmp_path, "input.tab", CONVERSION_INPUT)
    assert main(["hyper", "--proof", doc, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rounds"] == 2
    assert data["measures"] == ["0 w 2", "0 w 1"]
    assert {"S3", "S4", "ratio", "T2"} <= set(data)


def test_prove_equality_axioms_flag(tmp_path, capsys):
    cls = write(tmp_path, "eq.cls", "a = b\np(a)\n~p(b)\n")
    assert main(["prove", "--input", cls, "--format", "clauses", "--max-depth", "8"]) == 1
    capsys.readouterr()
    assert main([
        "prove", "--input", cls, "--format", "clauses", "--max-depth", "8", "--equality-axioms",
    ]) == 0
    capsys.readouterr()


def test_env_default_limits(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FOLTAB_MAX_DEPTH", "1")
    f = write(tmp_path, "f.p", EX2_F)
    g = write(tmp_path, "g.p", EX2_G)
    assert main(["interpolate", "--f", f, "--g", g]) == 1
    monkeypatch.delenv("FOLTAB_MAX_DEPTH")
    assert main(["interpolate", "--f", f, "--g", g]) == 0
    capsys.readouterr()


def test_interpolate_free_vars_validation(tmp_path, capsys):
    f = write(tmp_path, "f.p", "fof(a, axiom, p(X)).\n")
    g = write(tmp_path, "g.p", "fof(a, axiom, p(X)).\n")
    assert main(["interpolate", "--f", f, "--g", g, "--free-vars", "X"]) == 0
    capsys.readouterr()
    assert main(["interpolate", "--f", f, "--g", g, "--free-vars", "Y"]) == 3


def test_stats_on_bundled_samples(capsys):
    assert bundled_samples_dir().is_dir()
    assert main(["stats", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rows = data["rows"]
    assert len(rows) >= 20
    for row in rows:
        assert row.get("error") is None
        assert {"S3", "S4", "ratio", "T2"} <= set(row)
    small_enough = sum(1 for r in rows if r["S4"] <= r["S3"])
    assert small_enough / len(rows) >= 0.8
    for key in ("S3", "S4", "ratio", "T2"):
        vals = [r[key] for r in rows]
        assert data["summary"][key]["median"] == round(statistics.median(vals), 2)


def test_stats_median_is_that_of_statistics():
    rng = random.Random(2405)
    for n in range(1, 40):
        ints = [rng.randint(0, 9) for _ in range(n)]
        floats = [round(rng.uniform(0, 5), rng.randint(0, 3)) for _ in range(n)]
        for vals in (ints, floats, ints + floats):
            assert _median(vals) == statistics.median(vals)


def test_stats_table_output(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0]
    for col in ("S3", "S4", "ratio", "T2"):
        assert col in head
    assert "median" in out


def error_exit(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: ")
    return code


# (a1 & ... & a400) | (b1 & ... & b400) distributes into 160,000 clauses,
# over the 100,000 default limit
WIDE_DNF = " | ".join(
    "(" + " & ".join(f"{c}{i}" for i in range(400)) + ")" for c in "ab"
)


@pytest.mark.parametrize("command", ["prove", "verify", "define"])
def test_clause_limit_is_a_resource_error(tmp_path, capsys, command):
    problem = write(tmp_path, "big.p", f"fof(kb, axiom, {WIDE_DNF}).\nfof(q, conjecture, a1).\n")
    big = write(tmp_path, "bigf.p", f"fof(f, axiom, {WIDE_DNF}).\n")
    small = write(tmp_path, "a1.p", "fof(g, axiom, a1).\n")
    argv = {
        "prove": ["prove", "--input", problem],
        "verify": ["verify", "--f", big, "--g", small, "--h", small],
        "define": ["define", "--input", problem, "--targets", "a1"],
    }[command]
    assert error_exit(capsys, argv) == 4


@pytest.mark.parametrize(
    "command", ["prove", "interpolate", "hyper", "check", "verify", "define", "import", "stats"]
)
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.proof"
    bad.write_bytes(b"fof(a, axiom, p\xff).\n")
    good = write(tmp_path, "good.p", "fof(a, axiom, p).\n")
    bad = str(bad)
    argv = {
        "prove": ["prove", "--input", bad],
        "interpolate": ["interpolate", "--f", bad, "--g", good],
        "hyper": ["hyper", "--proof", bad],
        "check": ["check", "--input", bad, "--property", "horn"],
        "verify": ["verify", "--f", good, "--g", good, "--h", bad],
        "define": ["define", "--input", bad, "--targets", "p"],
        "import": ["import", "--proof", bad],
        "stats": ["stats", "--dir", str(tmp_path)],
    }[command]
    assert error_exit(capsys, argv) == 3


@pytest.mark.parametrize("name", ["FOLTAB_MAX_DEPTH", "FOLTAB_MAX_NODES", "FOLTAB_TIMEOUT"])
def test_non_numeric_limit_variable_is_a_usage_error(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv(name, "ten")
    good = write(tmp_path, "good.p", "fof(a, axiom, p).\nfof(c, conjecture, p).\n")
    assert error_exit(capsys, ["prove", "--input", good]) == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prove"], "the following arguments are required: --input"),
        (["stats", "/some/dir"], "unrecognized arguments: /some/dir"),
        (["hyper", "--proof", "p", "--max-nodes", "many"], "invalid int value: 'many'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ],
)
def test_usage_errors_exit_3(capsys, argv, message):
    # exit code 2 is for failed requirements, so argparse's does not apply
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert message in captured.err
    assert captured.err.startswith("usage: foltab")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["stats", "--help"]) == 0
    assert "--max-nodes" in capsys.readouterr().out


def _stats_dir(tmp_path, files: dict[str, str]) -> str:
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return str(tmp_path)


@pytest.mark.parametrize(
    "files, extra, code",
    [
        ({"a.proof": "s1 inut p\n"}, [], 3),
        ({"a.proof": TWO_STEP_PROOF}, ["--max-nodes", "1"], 4),
        # the first failing row in file order decides
        ({"a.proof": "s1 inut p\n", "b.proof": TWO_STEP_PROOF}, ["--max-nodes", "1"], 3),
        ({"a.proof": TWO_STEP_PROOF, "b.proof": "s1 inut p\n"}, ["--max-nodes", "1"], 4),
        ({"a.proof": TWO_STEP_PROOF, "b.proof": "s1 input p\ns2 input ~p\ns3 resolve(s1, s2, q) false\n"}, [], 3),
    ],
)
def test_stats_exit_code_is_that_of_the_first_failing_row(tmp_path, capsys, files, extra, code):
    assert main(["stats", "--dir", _stats_dir(tmp_path, files), *extra]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.out.count("--  ") >= 1


def test_stats_gives_an_unreadable_file_its_row(tmp_path, capsys):
    (tmp_path / "a.proof").write_bytes(b"s1 input p\xff\n")
    (tmp_path / "b.proof").mkdir()
    (tmp_path / "c.proof").write_text(TWO_STEP_PROOF)
    assert main(["stats", "--dir", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    rows = [line.split() for line in captured.out.splitlines()[1:4]]
    assert [r[0] for r in rows] == ["a.proof", "b.proof", "c.proof"]
    assert rows[0][1:5] == rows[1][1:5] == ["--"] * 4
    assert "not UTF-8 text" in captured.out.splitlines()[1]
    assert rows[2][1:3] == ["5", "3"]  # S3 and S4 of the readable proof
    assert captured.err == "error: 2 of 3 proof files failed\n"


def test_truncated_proof_record_is_a_parse_error(tmp_path, capsys):
    doc = write(tmp_path, "cut.proof", "s1 input p\ns2 resolve(s1,\n")
    assert error_exit(capsys, ["import", "--proof", doc]) == 3


def test_importing_the_cli_loads_no_json():
    # `hyper --json` and `stats --json` import it when they print
    src = Path(__file__).resolve().parent.parent / "src"
    check = f"import sys; sys.path.insert(0, {str(src)!r}); import foltab.cli; print('json' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", check], check=True, capture_output=True, text=True)
    assert out.stdout == "False\n"
