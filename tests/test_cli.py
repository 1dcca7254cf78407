import json


from foltab.cli import bundled_samples_dir, main

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


def test_interpolate_not_proved(tmp_path, capsys):
    f = write(tmp_path, "f.p", "fof(a, axiom, p).\n")
    g = write(tmp_path, "g.p", "fof(a, axiom, q).\n")
    assert main(["interpolate", "--f", f, "--g", g]) == 1


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


def test_verify_command(tmp_path, capsys):
    f = write(tmp_path, "f.p", EX2_F)
    g = write(tmp_path, "g.p", EX2_G)
    h = write(tmp_path, "h.p", "fof(h, axiom, ! [V1] : q(V1)).\n")
    assert main(["verify", "--f", f, "--g", g, "--h", h]) == 0
    bad = write(tmp_path, "badh.p", "fof(h, axiom, r(a)).\n")
    assert main(["verify", "--f", f, "--g", g, "--h", bad]) == 2


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


def test_stats_table_output(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0]
    for col in ("S3", "S4", "ratio", "T2"):
        assert col in head
    assert "median" in out
