"""The branch walk and the walkers on it, against the recursive walkers
kept in helpers.py: targets, closedness, regularity, simplification,
copies, documents and interpolant values must agree exactly, on random
trees, prover tableaux and the proof families.  Every walker also runs on
a 5,000-deep branch under a recursion limit of 1,000."""

import random
import sys

import pytest

from foltab.documents import format_tableau, parse_tableau
from foltab.hyperconv import hyper_convert
from foltab.interpolation import ipol_map
from foltab.proofs import ground_deduction, parse_proof, to_cut_normal_form, to_tree
from foltab.syntax import App, InputError, Literal, Signature
from foltab.tableaux import (
    Node,
    StructureError,
    Tableau,
    assign_sides,
    branch_walk,
    is_closed,
    is_hyper,
    prove,
    simplify,
    simplify_in_place,
)
from helpers import (
    ancestors,
    is_leaf_closed,
    is_leaf_closing,
    is_regular,
    proof_family,
    random_ground_clauses,
    reference_compute_targets,
    reference_copy,
    reference_copy_subtree,
    reference_depths,
    reference_extend_signature,
    reference_format_tableau,
    reference_hyper_convert,
    reference_ipol_map,
    reference_is_closed,
    reference_is_leaf_closed,
    reference_is_leaf_closing,
    reference_is_regular,
    reference_simplify_in_place,
    reference_tableau_equal,
    tableau_size,
    tt_satisfiable,
)

ATOMS = ("p", "q", "r")
ARGS = ((), (App("a"),), (App("b"),))


def random_tableau(rng: random.Random, size: int) -> Tableau:
    """A random tree over a small vocabulary, so that branches repeat and
    close often; parents are mostly recent nodes, so that branches are
    deep.  Siblings share a side, as in a side-assigned tableau.  Half of
    the trees are closed off: each leaf gets a child that complements a
    literal on its branch."""
    root = Node()
    nodes = [root]

    def add(parent: Node, lit: Literal) -> None:
        side = parent.children[0].side if parent.children else rng.choice("FG")
        parent.add(Node(lit, side))
        nodes.append(parent.children[-1])

    for _ in range(size):
        parent = rng.choice(nodes[-4:] if rng.random() < 0.7 else nodes)
        add(parent, Literal(rng.random() < 0.5, rng.choice(ATOMS), rng.choice(ARGS)))
    if rng.random() < 0.5:
        for leaf in [n for n in nodes if n.literal is not None and not n.children]:
            add(leaf, rng.choice([leaf, *ancestors(leaf)][:-1]).literal.complement())
    return Tableau(root)


def random_tableaux(seed: int, count: int) -> list[Tableau]:
    rng = random.Random(seed)
    return [random_tableau(rng, rng.randint(0, 40)) for _ in range(count)]


def prover_tableaux(seed: int, count: int) -> list[Tableau]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        clauses = random_ground_clauses(rng, max_atoms=6, max_clauses=9)
        if not tt_satisfiable(clauses):
            out.append(prove(clauses, max_depth=12).tableau)
    return out


def family_tableaux() -> list[Tableau]:
    out = []
    for family in ("chain", "wide", "fol_chain"):
        for k in (1, 2, 5, 9):
            doc = parse_proof(proof_family(family, k))
            tab = to_cut_normal_form(ground_deduction(to_tree(doc)))
            out += [tab, hyper_convert(tab)[0]]
    return out


def corpus() -> list[Tableau]:
    return random_tableaux(11, 400) + prover_tableaux(12, 60) + family_tableaux()


def rows(root: Node) -> list[tuple]:
    """Literal, side, depth, child count and target position of every node
    of the tree `root` heads, in pre-order, as the branch walk reads them."""
    out = []
    where = {}
    for n, depth, target in branch_walk(root):
        where[n] = len(out)
        out.append((n.literal, n.side, depth, len(n.children), where.get(target)))
    return out


def reference_rows(tab: Tableau) -> list[tuple]:
    """The rows of the whole tableau, from the reference walkers."""
    targets, depths = reference_compute_targets(tab), reference_depths(tab)
    nodes = list(tab.nodes())
    where = {n: i for i, n in enumerate(nodes)}
    return [
        (n.literal, n.side, depths[n], len(n.children), where.get(targets.get(n)))
        for n in nodes
    ]


@pytest.fixture(scope="module")
def tableaux():
    return corpus()


def test_targets_and_closedness_agree_with_the_reference(tableaux):
    closed = 0
    for tab in tableaux:
        mine, ref = tab.copy(), reference_copy(tab)
        assert rows(mine.root) == reference_rows(ref)
        got = is_closed(mine)
        assert got == reference_is_closed(ref)
        closed += got
        assert is_regular(tab) == reference_is_regular(tab)
        assert is_leaf_closing(tab) == reference_is_leaf_closing(tab)
        assert is_leaf_closed(tab) == reference_is_leaf_closed(tab)
    assert 200 < closed < len(tableaux)


def test_simplification_agrees_with_the_reference(tableaux):
    changed = 0
    for tab in tableaux:
        mine, ref = tab.copy(), reference_copy(tab)
        got = simplify_in_place(mine.root)
        assert got == reference_simplify_in_place(ref.root)
        assert rows(mine.root) == reference_rows(ref)
        assert rows(simplify(tab).root) == rows(mine.root)
        changed += got != (0, 0)
    assert changed > 200


def test_copies_agree_with_the_reference(tableaux):
    rng = random.Random(14)
    for tab in tableaux:
        node = rng.choice(list(tab.nodes()))
        copy = node.copy_subtree()
        assert copy.parent is None and copy is not node
        assert rows(copy) == rows(reference_copy_subtree(node)[0])
        assert [(n.literal, n.side, len(n.children)) for n in copy.pre_order()] == [
            (n.literal, n.side, len(n.children)) for n in node.pre_order()
        ]
        assert not set(copy.pre_order()) & set(node.pre_order())
        for n in copy.pre_order():
            assert all(c.parent is n for c in n.children)


def test_documents_agree_with_the_reference_and_leave_targets_alone(tableaux):
    clashes = 0
    for tab in tableaux:
        before = rows(tab.root)
        doc = format_tableau(tab)
        assert rows(tab.root) == before
        assert doc == reference_format_tableau(reference_copy(tab))
        sig = Signature()
        try:
            # the document has a line per node, in pre-order, below its header
            for line, n in enumerate(tab.non_root_nodes(), start=2):
                reference_extend_signature(sig, (n.literal,), line=line)
        except InputError as clash:
            # a predicate of two arities is rejected, as in a clause file;
            # the tree with each predicate named with its arity reads back
            clashes += 1
            with pytest.raises(InputError) as e:
                parse_tableau(doc)
            assert str(e.value) == str(clash)
            tab = tab.copy()
            for n in tab.non_root_nodes():
                l = n.literal
                n.literal = Literal(l.positive, f"{l.predicate}{len(l.args)}", l.args)
            doc = format_tableau(tab)
        assert reference_tableau_equal(parse_tableau(doc), tab)
    assert 0 < clashes < len(tableaux)


def test_a_moved_subtree_reads_the_depths_and_targets_of_its_new_position():
    # hyper_convert lifts the children of n to nprime with set_children:
    # ~p and r move up a level, ~q loses its target q, ~r follows r
    tab = parse_tableau(
        "tableau\n  p\n    q\n      ~p -> 1\n      r\n        ~q -> 2\n        ~r -> 3\n"
    )
    nprime = tab.root.children[0]
    nprime.set_children(nprime.children[0].children)
    assert all(c.parent is nprime for c in nprime.children)
    assert format_tableau(tab) == "tableau\n  p\n    ~p -> 1\n    r\n      ~q\n      ~r -> 2\n"
    assert [(str(n.literal), d) for n, d, _ in branch_walk(tab.root)] == [
        ("None", 0), ("p", 1), ("~p", 2), ("r", 2), ("~q", 3), ("~r", 3)
    ]
    assert rows(tab.root) == reference_rows(tab)


# the clause at the root has a sibling of ~a that also lies on the branch
# above the graft point a (b), or whose complement does (~c): the copy
# grafted below a is spliced there, or truncated
GRAFTS_AGAINST_THE_BRANCH = [
    (
        "tableau\n  ~a\n    b\n      a -> 1\n      ~b -> 2\n  b\n    ~b -> 1\n",
        "tableau\n  b\n    a\n      ~b -> 1\n    ~b -> 1\n",
        (1, 0),
    ),
    (
        "tableau\n  ~a\n    c\n      a -> 1\n      ~c -> 2\n  ~c\n    c -> 1\n",
        "tableau\n  c\n    a\n      ~a -> 2\n      ~c -> 1\n    ~c -> 1\n",
        (0, 1),
    ),
]


@pytest.mark.parametrize("text, converted, counts", GRAFTS_AGAINST_THE_BRANCH)
def test_graft_simplifies_against_the_branch_above_it(text, converted, counts):
    out, trace = hyper_convert(parse_tableau(text))
    ref, ref_trace = reference_hyper_convert(parse_tableau(text))
    assert format_tableau(out) == reference_format_tableau(ref) == converted
    assert (trace.regular_splices, trace.leaf_truncations) == counts
    assert (ref_trace.regular_splices, ref_trace.leaf_truncations) == counts


def outcome(fn, tab):
    """Interpolant values in pre-order, or the error raised."""
    try:
        values = fn(tab)
    except StructureError as e:
        return str(e)
    return [values[n] for n in tab.nodes()]


def test_interpolant_values_agree_with_the_reference(tableaux):
    rng = random.Random(16)
    two_sided = []
    while len(two_sided) < 60:
        clauses = random_ground_clauses(rng, max_atoms=6, max_clauses=9)
        if tt_satisfiable(clauses):
            continue
        cut = rng.randint(0, len(clauses))
        tab = prove(clauses, max_depth=12).tableau
        two_sided.append(assign_sides(tab, clauses[:cut], clauses[cut:]))
        two_sided.append(assign_sides(hyper_convert(tab)[0], clauses[:cut], clauses[cut:]))
    extracted = 0
    for tab in two_sided + tableaux[:400]:
        got = outcome(ipol_map, tab)
        assert got == outcome(reference_ipol_map, reference_copy(tab))
        extracted += isinstance(got, list)
    assert extracted > 250


# ---------------------------------------------------------------------------
# A 5,000-deep branch

DEPTH = 5000


def p(i: int, positive: bool = True) -> Literal:
    return Literal(positive, f"p{i}")


def deep_chain() -> Tableau:
    """p1, ..., p4999 down one branch, closed by ~p1 at depth 5000."""
    root = n = Node()
    for lit in [p(i) for i in range(1, DEPTH)] + [p(1, False)]:
        n.add(Node(lit, "F"))
        n = n.children[0]
    return Tableau(root)


def deep_refutation() -> Tableau:
    """Clause ~a, a at the root; ~a leads down p1, ..., p4998, each closed
    by a leaf ~pi, to a leaf a; a is closed by ~a.  Not hyper: ~a is an
    inner node, and one round lifts the chain to the root."""
    root = Node()
    neg_a, pos_a = Node(p(0, False), "F"), Node(p(0), "F")
    root.add(neg_a)
    root.add(pos_a)
    pos_a.add(Node(p(0, False), "F"))
    n = neg_a
    n.add(Node(p(1), "F"))
    n = n.children[0]
    for i in range(1, DEPTH - 2):
        n.add(Node(p(i, False), "F"))
        n.add(Node(p(i + 1), "F"))
        n = n.children[1]
    n.add(Node(p(DEPTH - 2, False), "F"))
    n.add(Node(p(0), "F"))
    return Tableau(root)


@pytest.fixture
def low_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_walkers_on_a_5000_deep_branch(low_recursion_limit):
    tab = deep_chain()
    leaf = list(tab.nodes())[-1]
    walk = list(branch_walk(tab.root))
    assert len(walk) == DEPTH + 1
    assert walk[0] == (tab.root, 0, None)  # the root first, with no target
    assert walk[-1] == (leaf, DEPTH, tab.root.children[0])
    assert is_closed(tab) and is_regular(tab) and is_leaf_closing(tab) and is_leaf_closed(tab)
    copy = tab.root.copy_subtree()
    assert [d for _, d, _ in branch_walk(copy)] == list(range(DEPTH + 1))
    doc = format_tableau(tab)
    assert doc.count("\n") == DEPTH + 1
    assert doc.endswith("  " * DEPTH + "~p1 [F] -> 1\n")
    assert format_tableau(parse_tableau(doc)) == doc
    assert ipol_map(tab)[tab.root] == ipol_map(Tableau(copy))[copy]
    # p3 at depth 1,000 repeats p3, ~p1 at depth 2,500 closes an inner node
    irregular = deep_chain()
    nodes = list(irregular.nodes())
    nodes[1000].literal = p(3)
    nodes[DEPTH // 2].literal = p(1, False)
    assert not is_regular(irregular) and not is_leaf_closing(irregular)
    assert simplify_in_place(irregular.root) == (1, 1)
    assert tableau_size(irregular) == DEPTH // 2 and is_leaf_closed(irregular)


def test_hyper_conversion_of_a_5000_deep_branch(low_recursion_limit):
    tab = deep_refutation()
    assert is_leaf_closed(tab) and is_regular(tab) and not is_hyper(tab)
    out, trace = hyper_convert(tab)
    assert trace.total_rounds == 1 and trace.regular_splices == 1
    assert is_hyper(out) and is_regular(out) and is_leaf_closed(out)
    # the chain now starts at the root and ends in a, closed by ~a
    nodes = list(out.nodes())
    assert nodes[1].literal == p(1)
    assert [n.literal for n in nodes[-2:]] == [p(0), p(0, False)]
    assert list(branch_walk(out.root))[-1][:2] == (nodes[-1], DEPTH)
    assert trace.output_size == out.inner_size() == DEPTH
    assert ipol_map(out)[out.root] == ipol_map(tab)[tab.root]
