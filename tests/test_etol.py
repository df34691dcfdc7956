"""Parallel rewriting, tree counting, audits, conversions, constructions."""

from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from workbench.foundation import Budget, PreconditionError, enumerate_language, word
from workbench.semilinear import linear, member, parikh, phi, semilinear
from workbench import etol, fixtures
from workbench.foundation import Alphabet

# the reduced {w#w} system: four partial tables over nonterminals {S, X}
def wsw_reduced():
    return etol.EtolSystem(
        v=("S", "X"),
        sigma=("a", "b", "#"),
        axiom="S",
        tables=[
            {"S": [word("X#X")]},
            {"X": [word("aX")]},
            {"X": [word("bX")]},
            {"X": [()]},
        ],
        reduced=True,
    )


def wsw_plain(with_dead_table=False):
    """Plain {w#w} system; separate tables keep the two X's in lockstep."""
    idents = {"a": [("a",)], "b": [("b",)], "#": [("#",)]}
    tables = [
        {"S": [word("X#X")], "X": [("X",)], **idents},
        {"S": [("S",)], "X": [word("aX")], **idents},
        {"S": [("S",)], "X": [word("bX")], **idents},
        {"S": [("S",)], "X": [()], **idents},
    ]
    v = ("S", "X", "a", "b", "#")
    if with_dead_table:
        tables.append(
            {
                "S": [("Z",)],
                "X": [("Z",)],
                "a": [("Z",)],
                "b": [("b",)],
                "#": [("#",)],
                "Z": [("Z",)],
            }
        )
        for t in tables[:-1]:
            t["Z"] = [("Z",)]
        v = v + ("Z",)
    return etol.EtolSystem(v, ("a", "b", "#"), "S", tables, reduced=False)


def wsw_language(max_len):
    out = set()
    for n in range((max_len - 1) // 2 + 1):
        for bits in range(2 ** n):
            w = tuple("ab"[(bits >> i) & 1] for i in range(n))
            if 2 * n + 1 <= max_len:
                out.add(w + ("#",) + w)
    return out


def test_step_examples():
    g = wsw_reduced()
    assert etol.step(g, word("X#X"), 1) == [word("aX#aX")]
    assert etol.step(g, word("ab#ab"), 2) == [word("ab#ab")]
    # deterministic table: singleton successor set
    assert len(etol.step(g, word("X#X"), 3)) == 1


def test_step_blocked_partial_table():
    g = wsw_reduced()
    # table 1 has no S production: the step blocks
    assert etol.step(g, ("S",), 1) == []


def test_enumerate_wsw():
    g = wsw_reduced()
    got = enumerate_language(g, 7).require_complete().as_set()
    assert got == wsw_language(7)


def _product_reference(g, form, ti):
    """Successor multiplicities from the full product of choice vectors."""
    t = g.tables[ti]
    opts = [((s,),) if g.reduced and s in g.sigma else t.get(s) for s in form]
    if None in opts:
        return {}
    return Counter(tuple(x for part in choice for x in part) for choice in product(*opts))


@st.composite
def _forms_and_tables(draw):
    """A reduced one-table system over A, B (a nonterminal may lack
    productions) and a form of up to 7 symbols."""
    rhs = st.lists(st.sampled_from("ABab"), max_size=3).map(tuple)
    table = {x: draw(st.lists(rhs, max_size=3)) for x in "AB"}
    g = etol.EtolSystem("AB", "ab", "A", [table], reduced=True)
    return g, tuple(draw(st.lists(st.sampled_from("ABab"), max_size=7)))


@settings(max_examples=200, deadline=None)
@given(_forms_and_tables())
def test_step_multiplicities_match_the_product(case):
    g, form = case
    want = _product_reference(g, form, 0)
    assert etol.step_with_multiplicity(g, form, 0) == want
    assert etol.step(g, form, 0) == sorted(want, key=lambda w: (len(w), w))


def test_step_multiplicities_on_2_to_the_40_choice_vectors():
    g = etol.EtolSystem(("A",), ("a",), "A", [{"A": [("A", "A"), ()]}], reduced=True)
    got = etol.step_with_multiplicity(g, ("A",) * 40, 0)
    assert got == {("A",) * (2 * i): comb(40, i) for i in range(41)}


def test_exponential_branching_stays_cheap():
    # S -> A a, A -> A A | λ: the form A^n a has 2^n choice vectors but only
    # n + 1 successors, so the budget, not the product, bounds the work
    g = etol.EtolSystem(("S", "A"), ("a",), "S",
                        [{"S": [("A", "a")], "A": [("A", "A"), ()]}], reduced=True)
    e = enumerate_language(g, 1, Budget(max_steps=14))
    assert (e.words, e.complete, e.explored) == ([("a",)], False, 15)
    tc = etol.count_trees(g, ("a",), max_depth=8)
    assert (tc.value, tc.exact) == (4096, False)


def test_count_trees_unambiguous_wsw():
    g = wsw_reduced()
    for w in (word("ab#ab"), word("#"), word("ba#ba")):
        tc = etol.count_trees(g, w)
        assert tc.exact and tc.value == 1


def test_count_trees_two_tables_same_word():
    g = etol.EtolSystem(
        v=("S", "A", "B"),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [("A",)]}, {"S": [("B",)]}, {"A": [("a",)], "B": [("a",)]}],
        reduced=True,
    )
    tc = etol.count_trees(g, ("a",))
    assert tc.exact and tc.value == 2


def test_count_trees_active_normal_form_blows_up():
    g = wsw_plain()  # already in active normal form: A_G = {S, X} = V - Σ
    assert etol.active_normal_form(g) is g
    tc = etol.count_trees(g, word("a#a"), cap=64)
    assert not tc.exact and tc.value >= 64


def test_index_audit_linear_system():
    g = etol.EtolSystem(
        v=("S",),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [word("aS"), ("a",)]}],
        reduced=True,
    )
    audit = etol.index_audit(g, 6)
    assert audit.complete
    assert audit.grammar_index == 1


def test_index_audit_doubling_dol_grows():
    g = etol.EtolSystem(
        v=("a",), sigma=("a",), axiom="a", tables=[{"a": [word("aa")]}], reduced=False
    )
    audit = etol.index_audit(g, 8)
    assert audit.per_word[("a",) * 4] == 4
    assert audit.per_word[("a",) * 8] == 8
    assert not audit.bounded_by(7)


def test_classify_flags():
    assert etol.classify(wsw_reduced()) == frozenset()
    ed0l = etol.EtolSystem(
        v=("a", "b"),
        sigma=("a", "b"),
        axiom="a",
        tables=[{"a": [word("ab")], "b": [("b",)]}],
        reduced=False,
    )
    assert etol.classify(ed0l) == {"EDTOL", "E0L", "ED0L"}
    got = enumerate_language(ed0l, 5).require_complete().words
    assert got == [word("a"), word("ab"), word("abb"), word("abbb"), word("abbbb")]
    two_table_det = etol.EtolSystem(
        v=("S",),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [word("aS")]}, {"S": [("a",)]}],
        reduced=True,
    )
    assert etol.classify(two_table_det) == {"EDTOL"}


def test_active_normal_form_constructs_primes_and_preserves_language():
    g = wsw_plain(with_dead_table=True)
    # 'a' is active through the poison table; Z is an inactive nonterminal
    assert "a" in g.active_symbols()
    anf = etol.active_normal_form(g)
    nonterms = set(anf.v) - set(anf.sigma)
    assert anf.active_symbols() == nonterms
    assert any(x.startswith("a'") for x in nonterms)
    before = enumerate_language(g, 8).require_complete().as_set()
    after = enumerate_language(anf, 8).require_complete().as_set()
    assert before == after == wsw_language(8)


def test_active_normal_form_keeps_the_doubling_lengths():
    # a primed symbol that could re-emit its terminal at any step let
    # a' -> a'a' | a reach every length
    g = fixtures.doubling_edol()
    anf = etol.active_normal_form(g)
    assert anf.active_symbols() == set(anf.v) - set(anf.sigma)
    for h in (g, anf):
        words = enumerate_language(h, 17).require_complete().words
        assert {len(w) for w in words} == {1, 2, 4, 8, 16}


def test_active_normal_form_identity_on_constant_system():
    g = etol.EtolSystem(
        v=("S", "a"),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [("a",)], "a": [("a",)]}],
        reduced=False,
    )
    assert etol.active_normal_form(g) is g


def test_to_reduced_wsw():
    g = wsw_plain()
    r = etol.to_reduced(g)
    assert r.reduced
    got = enumerate_language(r, 8).require_complete().as_set()
    assert got == wsw_language(8)
    # tree counts never increase (the plain side is infinitely ambiguous,
    # reported as a capped lower bound, so any reduced count qualifies)
    for w in sorted(wsw_language(5)):
        pc = etol.count_trees(g, w, cap=32)
        rc = etol.count_trees(r, w, cap=32)
        assert rc.value <= pc.value or not pc.exact


def test_to_reduced_exact_counts_on_finite_count_plain_system():
    # from_reduced output is a plain system with finitely many trees per
    # word (terminals poison instead of looping); reducing it again must
    # keep every count at exactly 1
    plain = etol.from_reduced(wsw_reduced())
    r = etol.to_reduced(plain)
    got = enumerate_language(r, 7).require_complete().as_set()
    assert got == wsw_language(7)
    for w in sorted(wsw_language(5)):
        rc = etol.count_trees(r, w, max_depth=4 * len(w) + 16)
        assert rc.exact and rc.value == 1, w


def test_to_reduced_identity_on_reduced():
    g = wsw_reduced()
    assert etol.to_reduced(g) is g


def test_from_reduced_wsw_language_and_counts():
    g = wsw_reduced()
    back = etol.from_reduced(g)
    assert not back.reduced
    got = enumerate_language(back, 7).require_complete().as_set()
    assert got == wsw_language(7)
    for w in sorted(wsw_language(7)):
        direct = etol.count_trees(g, w)
        lifted = etol.count_trees(back, w, max_depth=4 * len(w) + 16)
        assert direct.exact and lifted.exact, w
        assert direct.value == lifted.value == 1, w


def test_from_reduced_empty_language():
    g = etol.EtolSystem(
        v=("S",), sigma=("a",), axiom="S", tables=[{"S": [("S",)]}], reduced=True
    )
    back = etol.from_reduced(g)
    assert enumerate_language(back, 5).require_complete().words == []


def test_from_reduced_preserves_two_tree_ambiguity():
    g = etol.EtolSystem(
        v=("S", "A", "B"),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [("A",)]}, {"S": [("B",)]}, {"A": [("a",)], "B": [("a",)]}],
        reduced=True,
    )
    back = etol.from_reduced(g)
    tc = etol.count_trees(back, ("a",), max_depth=12)
    assert tc.exact and tc.value == 2


def test_roundtrip_reduced_plain_reduced():
    g = wsw_plain()
    round1 = etol.to_reduced(g)
    round2 = etol.from_reduced(round1)
    a = enumerate_language(g, 7).require_complete().as_set()
    b = enumerate_language(round2, 7).require_complete().as_set()
    assert a == b


DIAG = semilinear(linear((0, 0), (1, 1)))


def bounded_letter_language(q, letters, max_len):
    out = set()
    k = len(letters)

    def rec(prefix, j, remaining):
        if j == k:
            if member(q, prefix):
                out.add(phi(tuple((l,) for l in letters), prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), j + 1, remaining - e)

    rec((), 0, max_len)
    return out


def test_semilinear_to_etol_diag():
    g = etol.semilinear_to_etol(DIAG, ("a", "b"))
    got = enumerate_language(g, 12).require_complete().as_set()
    assert got == bounded_letter_language(DIAG, ("a", "b"), 12)
    audit = etol.index_audit(g, 10)
    assert audit.grammar_index <= 2


def test_semilinear_to_etol_single_point():
    q = semilinear(linear((1, 2, 3)))
    g = etol.semilinear_to_etol(q, ("a", "b", "c"))
    got = enumerate_language(g, 8).require_complete().words
    assert got == [word("abbccc")]


def test_semilinear_to_etol_chain_index():
    chain = semilinear(linear((1, 2, 3), (1, 1, 1), (0, 1, 1), (0, 0, 1)))
    g = etol.semilinear_to_etol(chain, ("a", "b", "c"))
    got = enumerate_language(g, 10).require_complete().as_set()
    assert got == bounded_letter_language(chain, ("a", "b", "c"), 10)
    audit = etol.index_audit(g, 10)
    assert audit.grammar_index is not None and audit.grammar_index <= 3


def test_unambiguous_bounded_etol_two_blocks():
    q = semilinear(linear((1, 1), (1, 0), (0, 1)))
    words = (word("ab"), word("b"))
    g = etol.unambiguous_bounded_etol(words, q)
    assert g.reduced
    expect = set()
    for x in range(6):
        for y in range(12):
            w = phi(words, (1 + x, 1 + y))
            if len(w) <= 10:
                expect.add(w)
    got = enumerate_language(g, 10).require_complete().as_set()
    assert got == expect
    for w in sorted(got):
        tc = etol.count_trees(g, w)
        assert tc.exact and tc.value == 1, w


def test_unambiguous_bounded_etol_diag_positive():
    q = semilinear(linear((1, 1), (1, 1)))
    g = etol.unambiguous_bounded_etol((word("a"), word("b")), q)
    got = enumerate_language(g, 10).require_complete().words
    assert got == [word("ab"), word("aabb"), word("aaabbb"), word("aaaabbbb"), word("aaaaabbbbb")]
    for w in got:
        tc = etol.count_trees(g, w)
        assert tc.exact and tc.value == 1


def test_unambiguous_bounded_etol_rejects_dependent_periods():
    q = semilinear(linear((0, 0), (1, 1), (2, 2)))
    with pytest.raises(PreconditionError, match="component 0 has dependent periods"):
        etol.unambiguous_bounded_etol((word("a"), word("b")), q)


MEETING_OUTSIDE_BOX = semilinear(linear((5, 5), (2, 2), (0, 1)), linear((2, 5), (1, 3)))


def test_unambiguous_bounded_etol_rejects_components_meeting_outside_the_box():
    # both components are simple and disjoint on [0, 8]^2, but they meet
    # at (5, 14), so a^5 b^14 would have two derivation trees
    assert member(semilinear(MEETING_OUTSIDE_BOX.components[0]), (5, 14))
    assert member(semilinear(MEETING_OUTSIDE_BOX.components[1]), (5, 14))
    with pytest.raises(PreconditionError, match=r"components 0 and 1 meet at \(5, 14\)"):
        etol.unambiguous_bounded_etol((word("a"), word("b")), MEETING_OUTSIDE_BOX)


def test_reduced_terminals_preserved_each_step():
    g = wsw_reduced()
    s = word("aX#aX")
    for ti in range(4):
        for succ in etol.step(g, s, ti):
            kept = tuple(x for x in succ if x in ("a", "b", "#"))
            # original terminals appear verbatim, in order, within the successor
            it = iter(kept)
            assert all(c in it for c in ("a", "#", "a"))
