"""The command line on hostile input: every command, called in-process on
token soup from the input grammars, mutated valid documents, raw bytes
and empty files, exits with a code of the contract (0 ok, 1 not proved,
2 requirement or verification failure, 3 parse or usage error, 4
resource limit) and prints no Python traceback.  Inputs have at most 60
tokens, every command that takes one gets `--timeout 1`, and the prover
stops after 5,000 inferences, so that an input which parses cannot keep
the search (with equality axioms above all) running until the timeout."""

import contextlib
import io
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from foltab.cli import main

MAX_TOKENS = 60

# the tokens of the formula, clause, tableau and proof grammars, and some
# that none of them admits
TOKENS = (
    "fof", "cnf", "(", ")", ",", ".", "axiom", "conjecture", "plain",
    "!", "?", "[", "]", ":", "~", "&", "|", "=>", "<=", "<=>", "<~>",
    "=", "!=", "$true", "$false", "false", "X", "Y", "X_2", "a", "b",
    "f", "p", "q", "r", "'q t'", "%", "#", "tableau", "[F]", "[G]", "->",
    "0", "1", "2", "-1", "99999999999999999999", "input", "resolve",
    "s1", "s2", "{", "}", "->", "\n", "  ", "\t", "é", "/*",
)

FOF = (
    "fof(a1, axiom, ! [X] : p(X)).\nfof(a2, axiom, ! [X] : (p(X) => q(X))).\n",
    "fof(g, axiom, (! [X] : (q(X) => r(X))) => r(a)).\n",
    "fof(h, axiom, ! [V1] : q(V1)).\n",
    "fof(k, axiom, ! [X] : (p(X) <=> q(X))).\nfof(c, conjecture, ? [Y] : (q(Y) & Y = a)).\n",
)
CLAUSES = ("p(X) | ~q(f(X))\n~p(a)\nq(f(a))\n",)
PROOFS = (
    "tableau\n  ~q(a) [G]\n    ~p(a) [F]\n      p(a) [F] -> 2\n    q(a) [F] -> 1\n",
    "s1 input p\ns2 input ~p | q\ns3 input ~q\ns4 resolve(s1, s2, p) q\ns5 resolve(s4, s3, q) false\n",
    "s1 input p(X)\ns2 input ~p(a)\ns3 resolve(s1, s2, p(a)) {X -> a} false\n",
)

PIECE = re.compile(r"\s+|\w+|[^\w\s]")


@st.composite
def mutated(draw, valid):
    """One of the `valid` documents with up to three tokens inserted,
    deleted, replaced or duplicated."""
    pieces = PIECE.findall(draw(st.sampled_from(valid)))[:MAX_TOKENS]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(pieces)))
        op = draw(st.sampled_from(("insert", "delete", "replace", "duplicate")))
        if op == "insert":
            pieces.insert(i, draw(st.sampled_from(TOKENS)))
        elif i < len(pieces):
            if op == "delete":
                del pieces[i]
            elif op == "replace":
                pieces[i] = draw(st.sampled_from(TOKENS))
            else:
                j = draw(st.integers(i, min(len(pieces), i + 8)))
                pieces[i:i] = pieces[i:j]
    return "".join(pieces[:MAX_TOKENS]).encode()


soup = st.lists(
    st.tuples(st.sampled_from(TOKENS), st.sampled_from(("", " ", "\n"))), max_size=MAX_TOKENS
).map(lambda parts: "".join(t + sep for t, sep in parts).encode())


def contents(valid):
    # mutated documents twice as often as each other kind, so that a
    # command reading three files gets past parsing now and then
    return st.one_of(
        mutated(valid), mutated(valid), soup, st.binary(max_size=MAX_TOKENS), st.just(b"")
    )


LIMIT = ("--timeout", "1", "--max-inferences", "5000")
# each command line from the paths of the files f, g and h and of a
# directory holding f as f.proof, with the documents that command reads
COMMANDS = (
    (lambda f, g, h, d: ["prove", "--input", f, *LIMIT], FOF),
    (lambda f, g, h, d: ["prove", "--input", f, "--format", "clauses", "--equality-axioms", *LIMIT], CLAUSES),
    (lambda f, g, h, d: ["interpolate", "--f", f, "--g", g, "--verify", "--require", "u-rr", *LIMIT], FOF),
    (lambda f, g, h, d: ["interpolate", "--f", f, "--g", g, "--require", "horn,vgt-rr", "--timings", *LIMIT], FOF),
    (lambda f, g, h, d: ["hyper", "--proof", f, "--stats", "--max-nodes", "5000"], PROOFS),
    (lambda f, g, h, d: ["hyper", "--proof", f, "--json", "--max-nodes", "5000"], PROOFS),
    (lambda f, g, h, d: ["check", "--input", f, "--property", "u-rr"], FOF),
    (lambda f, g, h, d: ["check", "--input", f, "--property", "vgt-rr"], FOF),
    (lambda f, g, h, d: ["check", "--input", f, "--property", "horn-like"], FOF),
    (lambda f, g, h, d: ["check", "--input", f, "--property", "prop4"], FOF),
    (lambda f, g, h, d: ["check", "--f", f, "--g", g, "--property", "vx-preconditions"], FOF),
    (lambda f, g, h, d: ["verify", "--f", f, "--g", g, "--h", h, "--require", "u-rr", "--timeout", "1"], FOF),
    (lambda f, g, h, d: ["define", "--input", f, "--targets", "p,q", "--verify", "--timeout", "1"], FOF),
    (lambda f, g, h, d: ["import", "--proof", f, "--max-nodes", "5000"], PROOFS),
    (lambda f, g, h, d: ["stats", "--dir", d, "--json", "--max-nodes", "5000"], PROOFS),
)


@settings(
    max_examples=600,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_every_command_exits_by_the_contract_on_hostile_input(tmp_path_factory, data):
    command, valid = data.draw(st.sampled_from(COMMANDS))
    texts = data.draw(st.lists(contents(valid), min_size=3, max_size=3))
    d = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, text in zip(("f.p", "g.p", "h.p"), texts):
        path = d / name
        path.write_bytes(text)
        paths.append(str(path))
    (d / "f.proof").write_bytes(texts[0])
    argv = command(*paths, str(d))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), (argv, texts, code)
    assert "Traceback" not in err.getvalue() + out.getvalue(), (argv, texts)
