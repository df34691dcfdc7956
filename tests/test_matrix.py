"""Matrix application, normal form, Szilard automaton, theta, conversions."""

from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from workbench.foundation import comm_equivalent, enumerate_language, word
from workbench import etol
from workbench import matrix as mx
from workbench.fixtures import copy_language, copy_language_matrix


def test_apply_matrix_copy_fixture():
    g = copy_language_matrix()
    assert mx.apply_matrix(g, word("A#B"), 1) == [word("aA#aB")]
    # blocked matrix: no S occurrence
    assert mx.apply_matrix(g, word("A#B"), 0) == []


def test_apply_matrix_two_occurrences():
    g = mx.MatrixGrammar(("S", "A"), ("a", "b"), "S", [
        (("S", word("AA")),),
        (("A", ("a",)),),
        (("A", ("b",)),),
    ])
    assert mx.apply_matrix(g, word("AA"), 1) == [word("Aa"), word("aA")]


def test_enumerate_copy_language():
    g = copy_language_matrix()
    got = enumerate_language(g, 3).require_complete().words
    assert got == [word("a#a"), word("b#b")]
    deeper = enumerate_language(g, 9).require_complete().as_set()
    assert deeper == copy_language(9)


def test_count_derivations_copy_language_unambiguous():
    g = copy_language_matrix()
    for w in sorted(copy_language(7)):
        dc = mx.count_derivations(g, w)
        assert dc.exact and dc.value == 1, w


def two_ambiguous_grammar():
    # S -> A or B (two matrices), both finish on "a": every word has 2 derivations
    return mx.MatrixGrammar(
        ("S", "A", "B"),
        ("a",),
        "S",
        [
            (("S", ("A",)),),
            (("S", ("B",)),),
            (("A", ("a",)),),
            (("B", ("a",)),),
        ],
    )


def test_count_derivations_two_path_fixture():
    dc = mx.count_derivations(two_ambiguous_grammar(), ("a",))
    assert dc.exact and dc.value == 2


def test_normal_form_identity_on_copy_fixture():
    g = copy_language_matrix()
    out, cert = mx.normal_form(g, 2)
    assert out is g and cert.already_normal
    # every reachable profile has pairwise distinct nonterminal occurrences
    for prof in cert.profiles:
        assert len(set(prof)) == len(prof)


def test_normal_form_register_construction_on_duplicates():
    g = mx.MatrixGrammar(
        ("S", "A"),
        ("a",),
        "S",
        [
            (("S", word("AA")),),
            (("A", ("a",)), ("A", ("a",))),
        ],
    )
    out, cert = mx.normal_form(g, 2)
    assert not cert.already_normal
    assert any("[A|1" in nt for nt in out.nonterminals)
    assert any("[A|2" in nt for nt in out.nonterminals)
    assert enumerate_language(out, 4).require_complete().words == [word("aa")]
    # (A->a, A->a) hits both occurrences in one step: the two firing orders
    # give the same per-origin tuple, hence one derivation on both sides
    before = mx.count_derivations(g, word("aa"))
    after = mx.count_derivations(out, word("aa"))
    assert before.exact and after.exact
    assert before.value == after.value == 1


def test_normal_form_preserves_occurrence_ambiguity():
    # one-production matrix [A -> a] applied to AA across two steps: the
    # occurrence orders are distinct derivations and must survive the
    # register construction
    g = mx.MatrixGrammar(
        ("S", "A"),
        ("a",),
        "S",
        [
            (("S", word("AA")),),
            (("A", ("a",)),),
        ],
    )
    before = mx.count_derivations(g, word("aa"))
    assert before.exact and before.value == 2
    out, cert = mx.normal_form(g, 2)
    assert not cert.already_normal
    after = mx.count_derivations(out, word("aa"))
    assert after.exact and after.value == 2
    assert enumerate_language(out, 4).require_complete().words == [word("aa")]


def test_normal_form_index_exceeded():
    g = mx.MatrixGrammar(
        ("S",),
        ("a",),
        "S",
        [(("S", word("SS")),), (("S", ("a",)),)],
    )
    with pytest.raises(mx.IndexExceeded):
        mx.normal_form(g, 2)


def test_normal_form_marker_avoids_nonterminal_names():
    # a nonterminal named like the end marker must not share registers
    # with it, or a narrow row's matrix applies to a wider row
    g = mx.MatrixGrammar(("S", "#"), ("a",), "S", [
        (("S", ("#", "#")),),
        (("#", ("a", "#")),),
        (("#", ()),),
    ])
    out, cert = mx.normal_form(g, 2)
    assert not cert.already_normal
    before = mx.count_derivations(g, word("aa"))
    after = mx.count_derivations(out, word("aa"), max_depth=30)
    assert before.exact and after.exact
    assert before.value == after.value == 14


def test_theta_copy_fixture():
    g = copy_language_matrix()
    th = mx.theta(g)
    assert th[0] == ("#",)
    assert th[1] == word("aa")
    assert th[2] == word("bb")
    assert th[3] == word("aa")
    assert th[4] == word("bb")
    all_nt = mx.MatrixGrammar(("S", "A"), ("a",), "S", [(("S", ("A", "A")),), (("A", ()),), (("A", ("a",)),)])
    assert mx.theta(all_nt)[0] == ()


def hand_built_copy_szilard():
    # m1 (m2|m3)* (m4|m5)
    return mx.SzilardDFA(
        states=("start", "mid", "done"),
        initial=0,
        accepting=frozenset([2]),
        transitions={
            (0, 0): 1,
            (1, 1): 1,
            (1, 2): 1,
            (1, 3): 2,
            (1, 4): 2,
        },
        n_letters=5,
    )


def test_szilard_dfa_copy_fixture():
    g = copy_language_matrix()
    dfa = mx.szilard_dfa(g, 2)
    assert mx.dfa_equivalent(dfa, hand_built_copy_szilard())
    # replay test: accepted strings derive words, rejected prefixes block or
    # end with nonterminals
    for alpha in dfa.accepted_strings(5):
        forms = mx.replay(g, alpha)
        assert forms is not None and g.is_word(forms[-1])
    assert not dfa.accepts((0, 0))
    assert mx.replay(g, (0, 0)) is None
    forms = mx.replay(g, (0, 1))
    assert forms is not None and not g.is_word(forms[-1])


def test_szilard_single_lambda_matrix():
    g = mx.MatrixGrammar(("S",), ("a",), "S", [(("S", ()),)])
    dfa = mx.szilard_dfa(g, 1)
    assert dfa.accepts((0,))
    assert not dfa.accepts(())
    assert len(dfa.states) == 2


def test_szilard_acceptance_iff_replay_terminal():
    g = copy_language_matrix()
    dfa = mx.szilard_dfa(g, 2)

    def walk(alpha, depth):
        forms = mx.replay(g, alpha)
        ok = forms is not None and g.is_word(forms[-1])
        assert dfa.accepts(alpha) == ok, alpha
        if depth == 0:
            return
        for ml in range(5):
            walk(alpha + (ml,), depth - 1)

    walk((), 6)


def test_lemma_phi_commutative_match():
    g = copy_language_matrix()
    th = mx.theta(g)
    dfa = mx.szilard_dfa(g, 2)
    for alpha in dfa.accepted_strings(8):
        forms = mx.replay(g, alpha)
        v = forms[-1]
        image = sum((th[mi] for mi in alpha), ())
        assert comm_equivalent(v, image), alpha


def test_matrix_to_reduced_etol_copy_fixture():
    g = copy_language_matrix()
    sysr = mx.matrix_to_reduced_etol(g, 2)
    assert sysr.reduced
    got = enumerate_language(sysr, 7).require_complete().as_set()
    assert got == copy_language(7)
    for w in sorted(copy_language(7)):
        tc = etol.count_trees(sysr, w)
        dc = mx.count_derivations(g, w)
        assert tc.exact and dc.exact
        assert tc.value == dc.value == 1, w


def test_matrix_to_reduced_etol_single_shot():
    g = mx.MatrixGrammar(("S",), ("a", "b"), "S", [(("S", word("ab")),)])
    sysr = mx.matrix_to_reduced_etol(g, 1)
    assert enumerate_language(sysr, 4).require_complete().words == [word("ab")]


def test_matrix_to_reduced_etol_preserves_two_derivations():
    g = two_ambiguous_grammar()
    sysr = mx.matrix_to_reduced_etol(g, 1)
    tc = etol.count_trees(sysr, ("a",))
    assert tc.exact and tc.value == 2


def test_reduced_etol_to_edtol_copy_fixture():
    from workbench.fixtures import copy_language_reduced_etol

    g = copy_language_reduced_etol()
    det = mx.reduced_etol_to_edtol(g, 2)
    assert det.reduced
    assert all(det.table_deterministic(i) for i in range(len(det.tables)))
    got = enumerate_language(det, 7).require_complete().as_set()
    expect = enumerate_language(g, 7).require_complete().as_set()
    assert got == expect
    for w in sorted(expect):
        a = etol.count_trees(g, w)
        b = etol.count_trees(det, w)
        assert a.exact and b.exact and a.value == b.value == 1


def test_reduced_etol_to_edtol_preserves_ambiguity():
    g = etol.EtolSystem(
        v=("S", "A", "B"),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [("A",), ("B",)]}, {"A": [("a",)], "B": [("a",)]}],
        reduced=True,
    )
    assert etol.count_trees(g, ("a",)).value == 2
    det = mx.reduced_etol_to_edtol(g, 1)
    tc = etol.count_trees(det, ("a",))
    assert tc.exact and tc.value == 2


def test_reduced_etol_to_matrix_roundtrip_copy():
    g = copy_language_matrix()
    sysr = mx.matrix_to_reduced_etol(g, 2)
    back = mx.reduced_etol_to_matrix(sysr, 2)
    got = enumerate_language(back, 7).require_complete().as_set()
    assert got == copy_language(7)
    for w in sorted(copy_language(7)):
        dc = mx.count_derivations(back, w, max_depth=4 * len(w) + 16)
        assert dc.exact and dc.value == 1, w


def test_reduced_etol_to_matrix_empty_system():
    g = etol.EtolSystem(
        v=("S",), sigma=("a",), axiom="S", tables=[{"S": [("S",)]}], reduced=True
    )
    back = mx.reduced_etol_to_matrix(g, 1)
    assert enumerate_language(back, 5).require_complete().words == []


def test_reduced_etol_to_matrix_marker_avoids_nonterminal_names():
    g = etol.EtolSystem(
        v=("S", "#row"),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [("#row", "#row")], "#row": [(), ("#row", "a")]}],
        reduced=True,
    )
    back = mx.reduced_etol_to_matrix(g, 2)
    tc = etol.count_trees(g, word("aa"))
    dc = mx.count_derivations(back, word("aa"), max_depth=30)
    assert tc.exact and dc.exact
    assert tc.value == dc.value == 3


def test_conversion_chain_preserves_counts_on_ambiguous_fixture():
    g = etol.EtolSystem(
        v=("S", "A", "B"),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [("A",), ("B",)]}, {"A": [("a",)], "B": [("a",)]}],
        reduced=True,
    )
    back = mx.reduced_etol_to_matrix(g, 1)
    dc = mx.count_derivations(back, ("a",), max_depth=12)
    assert dc.exact and dc.value == 2


@pytest.mark.parametrize("terminal", ["X@1a", "X@1"])
def test_conversions_avoid_terminals_named_like_registers(terminal):
    # X's generated names are X@1a/X@1b (to matrix) and X@1 (to EDTOL);
    # a terminal spelled the same way must not be taken for one of them
    g = etol.EtolSystem(
        v=("X",),
        sigma=(terminal,),
        axiom="X",
        tables=[{"X": [(terminal, "X"), ()]}, {"X": [(terminal, "X")]}],
        reduced=True,
    )
    want = enumerate_language(g, 4).require_complete().words
    for out, count in (
        (mx.reduced_etol_to_matrix(g, 1), mx.count_derivations),
        (mx.reduced_etol_to_edtol(g, 1), etol.count_trees),
    ):
        assert enumerate_language(out, 4).require_complete().words == want
        for w in want:
            a, b = etol.count_trees(g, w), count(out, w)
            assert a.exact and b.exact
            assert a.value == b.value == 2 ** len(w)


# Small random systems for the conversion round trips: nonterminals S, A,
# B with S the start, at most 3 rules.  S never reappears and only S
# branches into two nonterminals, so every profile has length <= 2 (the
# index).  Every other right-hand side is empty or emits a terminal, so
# each step shortens the profile or lengthens the word: derivations of a
# word are finite and their counts exact.
@st.composite
def _rhs(draw, others, from_start):
    nts = []
    if others:
        nts = draw(st.lists(st.sampled_from(others), max_size=2 if from_start else 1))
    min_ts = 1 if nts and not from_start else 0
    ts = draw(st.lists(st.sampled_from("ab"), min_size=min_ts, max_size=2))
    return tuple(draw(st.permutations(nts + ts)))


@st.composite
def small_systems(draw, kind):
    nts = ("S", "A", "B")[: draw(st.integers(1, 3))]
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhss = draw(st.lists(st.sampled_from(nts), min_size=1, max_size=2,
                             unique=kind == "etol"))
        rules.append([(x, draw(_rhs(nts[1:], x == "S"))) for x in lhss])
    if kind == "matrix":
        return mx.MatrixGrammar(nts, "ab", "S", rules)
    tables = []
    for rule in rules:
        table = {x: [rhs] for x, rhs in rule}
        for x in table:
            table[x] += draw(st.lists(_rhs(nts[1:], x == "S"), max_size=1))
        tables.append(table)
    return etol.EtolSystem(nts, "ab", "S", tables, reduced=True)


@settings(max_examples=60, deadline=None)
@given(small_systems("etol"))
def test_etol_conversions_on_small_systems(g):
    words = enumerate_language(g, 6).require_complete().words
    det = mx.reduced_etol_to_edtol(g, 2)
    assert "EDTOL" in etol.classify(det)
    assert enumerate_language(det, 6).require_complete().words == words
    back = mx.reduced_etol_to_matrix(g, 2)
    mx.szilard_dfa(back, 3)    # raises unless the output is in normal form
    assert enumerate_language(back, 6).require_complete().words == words
    for w in words:
        tc = etol.count_trees(g, w)
        dc = mx.count_derivations(back, w, max_depth=4 * len(w) + 16)
        assert tc.exact and dc.exact and tc.value == dc.value, w


@settings(max_examples=60, deadline=None)
@given(small_systems("matrix"))
def test_matrix_to_reduced_etol_on_small_grammars(g):
    words = enumerate_language(g, 6).require_complete().words
    sysr = mx.matrix_to_reduced_etol(g, 2)
    assert enumerate_language(sysr, 6).require_complete().words == words
    for w in words:
        dc = mx.count_derivations(g, w)
        tc = etol.count_trees(sysr, w)
        assert dc.exact and tc.exact and dc.value == tc.value, w


def _fresh_copy(g):
    """The same grammar as a new object, with an empty successor table."""
    if isinstance(g, mx.MatrixGrammar):
        return mx.MatrixGrammar(g.nonterminals, g.terminals, g.start, g.matrices)
    return etol.EtolSystem(g.v, g.sigma, g.axiom, g.tables, g.reduced)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("etol", "matrix")).flatmap(small_systems), st.randoms())
def test_shared_successor_table_counts_match_fresh_grammars(g, rnd):
    # one grammar object serves an enumeration and then every count, in
    # any order and under any budget, as a fresh object per count would
    count = mx.count_derivations if isinstance(g, mx.MatrixGrammar) else etol.count_trees
    words = enumerate_language(g, 6).require_complete().words
    queries = [(w, cap, depth) for w in words for cap in (2, 4096) for depth in (None, 2)]
    rnd.shuffle(queries)
    for w, cap, depth in queries:
        shared = count(g, w, max_depth=depth, cap=cap)
        assert shared == count(_fresh_copy(g), w, max_depth=depth, cap=cap), (w, cap, depth)


@st.composite
def _copied_rules(draw, kind):
    """A small system with rules listed again at drawn places and, maybe,
    a dead symbol D (D -> D only) offered beside a live right-hand side."""
    g = draw(small_systems(kind))
    etol_kind = kind == "etol"
    rules = list(g.tables if etol_kind else g.matrices)
    symbols = tuple(g.v if etol_kind else g.nonterminals)
    if draw(st.booleans()):
        symbols += ("D",)
        i = draw(st.integers(0, len(rules) - 1))
        if etol_kind:
            x = draw(st.sampled_from(sorted(rules[i])))
            rules[i] = dict(rules[i], D=(("D",),))
            rules[i][x] += (rules[i][x][0] + ("D",),)
        else:
            (x, rhs), *rest = rules[i]
            rules.insert(i + 1, ((x, rhs + ("D",)),) + tuple(rest))
            rules.append((("D", ("D",)),))
    for _ in range(draw(st.integers(0, 3))):
        copy = rules[draw(st.integers(0, len(rules) - 1))]
        rules.insert(draw(st.integers(0, len(rules))), copy)
    if etol_kind:
        return etol.EtolSystem(symbols, "ab", "S", rules, reduced=True)
    return mx.MatrixGrammar(symbols, "ab", "S", rules)


def _reference_successors(g, s, yields):
    """Per rule, in rule order, its successors of finite least yield with
    their multiplicities, through the public one-rule functions."""
    if isinstance(g, mx.MatrixGrammar):
        per_rule = [Counter(succ for succ, _, _ in mx.matrix_applications(g, s, mi))
                    for mi in range(len(g.matrices))]
    else:
        per_rule = [etol.step_with_multiplicity(g, s, ti) for ti in range(len(g.tables))]
    return [{u: n for u, n in succs.items() if sum(yields[x] for x in u) < etol.INF}
            for succs in per_rule]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("etol", "matrix")).flatmap(_copied_rules))
def test_successor_table_matches_every_rule_expanded(g):
    # the table expands equal rules once and folds only live productions;
    # a reference that expands every rule and drops the dead successors
    # must see the same discovery order, edges and counts
    if isinstance(g, mx.MatrixGrammar):
        yields = etol._least_yields(g.nonterminals, g.terminals,
                                    [p for m in g.matrices for p in m])
        start, count = (g.start,), mx.count_derivations
    else:
        yields, start, count = etol.min_yield_map(g), (g.axiom,), etol.count_trees
    table = g._successors

    def least(u):
        return sum(yields[x] for x in u)

    def by_len(u):
        return (len(u), u)

    memo = {}

    def reference(s):
        if s not in memo:
            memo[s] = _reference_successors(g, s, yields)
        return memo[s]

    forms, queue = {start}, [start]
    while queue and len(forms) < 60:
        s = queue.pop(0)
        per_rule = reference(s)
        order = dict.fromkeys(u for succs in per_rule for u in sorted(succs, key=by_len))
        live = [u for u in dict.fromkeys(table.ordered(s)) if least(u) < etol.INF]
        assert live == list(order), s
        edges = Counter()
        for succs in per_rule:
            edges.update(succs)
        got = {u: n for u, n, lo, _ in table.edges(s) if lo < etol.INF}
        assert got == edges, s
        assert all(lo == least(u) for u, _, lo, _ in table.edges(s))
        for u in order:
            if u not in forms and least(u) <= 6 and not g.is_word(u):
                forms.add(u)
                queue.append(u)

    @cache
    def paths(s, w):
        if g.is_word(s):
            return int(s == w)
        return sum(n * paths(u, w) for succs in reference(s) for u, n in succs.items()
                   if least(u) <= len(w))

    for w in enumerate_language(g, 6).require_complete().words:
        want = paths(start, w)
        assert count(g, w) == etol.TreeCount(min(want, 4096), want < 4096), w
