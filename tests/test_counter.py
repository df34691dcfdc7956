"""Counter machine semantics, the semilinear construction, and the DCM path."""

import random
from itertools import product

import pytest

from workbench.foundation import (
    Alphabet,
    Budget,
    BudgetExhausted,
    PreconditionError,
    enumerate_language,
    parikh,
    word,
)
from workbench.semilinear import BoundedSpec, linear, member, phi, semilinear
from workbench import counter as cm


AB = Alphabet("ab")
DIAG = semilinear(linear((0, 0), (1, 1)))


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in product(alphabet.symbols, repeat=n):
            yield tup


def test_lemma_machine_diag_examples():
    m = cm.from_semilinear(DIAG, AB)
    assert cm.accepts(m, word("ab"))
    assert not cm.accepts(m, word("aab"))
    assert cm.accepts(m, ())


def test_lemma_machine_shifted_line():
    q = semilinear(linear((1, 1), (1, 0)))
    m = cm.from_semilinear(q, AB)
    for w in map(word, ("ab", "aab", "ba")):
        assert cm.accepts(m, w)
    for w in map(word, ("b", "abb")):
        assert not cm.accepts(m, w)


def test_lemma_machine_single_point():
    m = cm.from_semilinear(semilinear(linear((0, 0))), AB)
    got = enumerate_language(m, 4).require_complete().words
    assert got == [()]


def test_lemma_machine_matches_parikh_membership():
    fixtures = [
        DIAG,
        semilinear(linear((1, 1), (1, 0))),
        semilinear(linear((0, 0), (2, 2)), linear((1, 1), (2, 2))),
        semilinear(linear((2, 1), (1, 1), (1, 0))),
    ]
    for q in fixtures:
        m = cm.from_semilinear(q, AB)
        sim = cm.Simulator(m, max_len=7)
        for w in all_words(AB, 7):
            assert sim.accepts(w) == member(q, parikh(w, AB)), (q, w)


def test_lemma_machine_three_letters():
    abc = Alphabet("abc")
    q = semilinear(linear((1, 0, 1), (1, 1, 0), (0, 0, 2)))
    m = cm.from_semilinear(q, abc)
    sim = cm.Simulator(m, max_len=5)
    for w in all_words(abc, 5):
        assert sim.accepts(w) == member(q, parikh(w, abc)), w


def test_accepted_words_is_enumerator():
    m = cm.from_semilinear(DIAG, AB)
    got = enumerate_language(m, 6).require_complete().as_set()
    expect = {w for w in all_words(AB, 6) if member(DIAG, parikh(w, AB))}
    assert got == expect


def test_is_deterministic_flags():
    # a one-transition-per-key machine is deterministic
    tiny = cm.CounterMachine(
        1,
        ["q0", "qa"],
        "q0",
        {"qa"},
        AB,
        {
            ("q0", "a", (0,)): (("q0", (1,)),),
            ("q0", cm.END, (1,)): (("qa", (0,)),),
        },
    )
    assert cm.is_deterministic(tiny)
    # λ-move next to an input move on the same pattern is nondeterministic
    clash = cm.CounterMachine(
        1,
        ["q0", "qa"],
        "q0",
        {"qa"},
        AB,
        {
            ("q0", "a", (0,)): (("q0", (0,)),),
            ("q0", None, (0,)): (("qa", (0,)),),
        },
    )
    assert not cm.is_deterministic(clash)
    # the lemma construction guesses period repetitions
    assert not cm.is_deterministic(cm.from_semilinear(DIAG, AB))


def test_run_legality_counters_and_reversals():
    # counters never go negative: a decrement on zero pattern is rejected
    with pytest.raises(ValueError):
        cm.CounterMachine(
            1, ["q"], "q", set(), AB, {("q", "a", (0,)): (("q", (-1,)),)}
        )
    # reversal bound prunes the second alternation: up, down, up again
    m = cm.CounterMachine(
        1,
        ["u", "d", "u2", "f"],
        "u",
        {"f"},
        AB,
        {
            ("u", "a", (0,)): (("d", (1,)),),
            ("u", "a", (1,)): (("d", (1,)),),
            ("d", "b", (1,)): (("u2", (-1,)),),
            ("u2", "a", (0,)): (("u2", (1,)),),
            ("u2", "a", (1,)): (("u2", (1,)),),
            ("u2", cm.END, (1,)): (("f", (0,)),),
        },
        reversal_bound=1,
    )
    # needs +1,-1,+1 on one counter: one reversal at the -1, a second at the
    # final +1, so the bound of 1 kills it
    assert not cm.accepts(m, word("aba"))
    relaxed = cm.CounterMachine(
        1, m.states, m.initial, m.accepting, AB, m.transitions, reversal_bound=2
    )
    assert cm.accepts(relaxed, word("aba"))


DIAG_SPEC = BoundedSpec((word("a"), word("b")), "ginsburg", q1=DIAG)


def test_dcm_for_diag_spec():
    m = cm.dcm_for_bounded(DIAG_SPEC)
    assert cm.is_deterministic(m)
    assert cm.accepts(m, word("aabb"))
    assert not cm.accepts(m, word("aab"))
    assert not cm.accepts(m, word("ba"))
    sim = cm.Simulator(m, max_len=8)
    for w in all_words(AB, 8):
        expect = bool(
            set(w) <= {"a", "b"}
            and w == tuple(sorted(w))
            and member(DIAG, (w.count("a"), w.count("b")))
        )
        assert sim.accepts(w) == expect, w


def test_dcm_even_block():
    spec = BoundedSpec((word("a"),), "ginsburg", q1=semilinear(linear((0,), (2,))))
    m = cm.dcm_for_bounded(spec)
    assert cm.is_deterministic(m)
    for n in range(10):
        assert cm.accepts(m, ("a",) * n) == (n % 2 == 0)


def test_dcm_multi_component_union():
    q = semilinear(linear((1, 0), (1, 0)), linear((0, 1), (0, 1)))  # a+ or b+
    spec = BoundedSpec((word("a"), word("b")), "ginsburg", q1=q)
    m = cm.dcm_for_bounded(spec)
    assert cm.is_deterministic(m)
    sim = cm.Simulator(m, max_len=6)
    expect_lang = enumerate_language(spec, 6).require_complete().as_set()
    got = {w for w in all_words(AB, 6) if sim.accepts(w)}
    assert got == expect_lang


def test_dcm_requires_echelon_certificate():
    # periods (1,1) and (1,2): both positive on coordinate 0 and 1
    q = semilinear(linear((0, 0), (1, 1), (1, 2)))
    spec = BoundedSpec((word("a"), word("b")), "ginsburg", q1=q)
    with pytest.raises(PreconditionError):
        cm.dcm_for_bounded(spec)


def test_dcm_requires_distinct_letters():
    spec = BoundedSpec((word("ab"), word("b")), "ginsburg", q1=DIAG)
    with pytest.raises(PreconditionError):
        cm.dcm_for_bounded(spec)


def _spec_language(spec, max_len=30):
    return enumerate_language(spec, max_len).require_complete().as_set()


def test_decide_bounded_examples():
    diag_pos = BoundedSpec(
        (word("a"), word("b")), "ginsburg", q1=semilinear(linear((1, 1), (1, 1)))
    )
    half = BoundedSpec(
        (word("a"), word("b")),
        "ginsburg",
        q1=semilinear(linear((1, 1), (1, 1), (0, 1))),
    )
    assert cm.decide_bounded(diag_pos, half, "subset").holds
    assert _spec_language(diag_pos) <= _spec_language(half)

    assert cm.decide_bounded(DIAG_SPEC, DIAG_SPEC, "equal").holds

    shifted = BoundedSpec(
        (word("a"), word("b")), "ginsburg", q1=semilinear(linear((0, 1), (1, 1)))
    )
    v = cm.decide_bounded(diag_pos, shifted, "disjoint")
    assert v.holds and v.witness is None


def test_decide_bounded_witness_words():
    quad = BoundedSpec(
        (word("a"), word("b")),
        "ginsburg",
        q1=semilinear(linear((0, 0), (1, 0), (0, 1))),
    )
    v = cm.decide_bounded(quad, DIAG_SPEC, "subset")
    assert not v.holds
    assert v.witness is not None
    from workbench.semilinear import induced_member

    assert induced_member(quad, v.witness)
    assert not induced_member(DIAG_SPEC, v.witness)


def test_decide_bounded_word_tuple_injectivity():
    spec_ab = BoundedSpec((word("ab"), word("ba")), "ginsburg", q1=DIAG)
    # phi is injective on (ab, ba) at short lengths, so this passes validation
    assert cm.decide_bounded(spec_ab, spec_ab, "equal").holds
    # (a, a) is blatantly non-injective
    bad = BoundedSpec((word("a"), word("a")), "ginsburg", q1=DIAG)
    with pytest.raises(PreconditionError):
        cm.decide_bounded(bad, bad, "equal")


A5_A7 = (word("aaaaa"), word("aaaaaaa"))


@pytest.mark.parametrize("rel", ["equal", "subset"])
def test_decide_bounded_rejects_a_witness_in_both_languages(rel):
    # phi(7, 0) = phi(0, 5) = a^35 lies beyond the injectivity check
    # length; the two languages are both {a^35}, so "unequal" with
    # witness a^35 would be false
    s1 = BoundedSpec(A5_A7, "ginsburg", q1=semilinear(linear((7, 0))))
    s2 = BoundedSpec(A5_A7, "ginsburg", q1=semilinear(linear((0, 5))))
    with pytest.raises(PreconditionError, match=r"decompositions \(7, 0\) in Q1 and \(0, 5\) in Q2"):
        cm.decide_bounded(s1, s2, rel)


def test_decide_bounded_keeps_a_witness_in_one_language():
    # non-distinct words whose witness has one decomposition, in Q1 only
    s1 = BoundedSpec(A5_A7, "ginsburg", q1=semilinear(linear((1, 0))))
    s2 = BoundedSpec(A5_A7, "ginsburg", q1=semilinear(linear((0, 1))))
    v = cm.decide_bounded(s1, s2, "equal")
    assert not v.holds and v.witness == word("aaaaa")


def test_decide_bounded_randomized_against_oracle():
    rng = random.Random(13)
    letters = (word("a"), word("b"))
    for _ in range(10):
        comps = []
        for _ in range(rng.randrange(1, 3)):
            const = (rng.randrange(3), rng.randrange(3))
            periods = []
            for _ in range(rng.randrange(0, 3)):
                p = (rng.randrange(3), rng.randrange(3))
                if any(p):
                    periods.append(p)
            comps.append(linear(const, *periods))
        q_a = semilinear(*comps)
        q_b = semilinear(comps[0])
        s1 = BoundedSpec(letters, "ginsburg", q1=q_a)
        s2 = BoundedSpec(letters, "ginsburg", q1=q_b)
        l1, l2 = _spec_language(s1, 24), _spec_language(s2, 24)
        assert cm.decide_bounded(s1, s2, "subset").holds == (l1 <= l2) or l1 - l2 == set()
        eq = cm.decide_bounded(s1, s2, "equal").holds
        if eq:
            assert l1 == l2
        dis = cm.decide_bounded(s1, s2, "disjoint").holds
        if dis:
            assert not (l1 & l2)


def lambda_countdown_machine():
    """One counter pumped up on λ-moves, then counted down along a
    100-state λ-chain: L = {λ}, accepted only with the counter at 100."""
    trans = {
        ("up", None, (0,)): (("up", (1,)),),
        ("up", None, (1,)): (("up", (1,)), ("d0", (0,))),
        ("d100", cm.END, (0,)): (("acc", (0,)),),
    }
    for i in range(100):
        trans[("d%d" % i, None, (1,))] = (("d%d" % (i + 1), (-1,)),)
    states = ["up"] + ["d%d" % i for i in range(101)] + ["acc"]
    return cm.CounterMachine(1, states, "up", {"acc"}, Alphabet("a"), trans)


def test_counter_cap_prune_marks_enumeration_incomplete():
    # at max_len 0 the counter cap is 64 < 100: the accepting run is cut
    m = lambda_countdown_machine()
    e = enumerate_language(m, 0)
    assert not e.complete
    assert cm.accepts(m, ())          # cap 128 at |w| <= 1


def test_counter_cap_prune_is_not_a_rejection():
    # with the cap at 32 * 2 = 64 the accepting run is cut: "not accepted"
    # would be wrong, so the search reports that it ran out
    m = lambda_countdown_machine()
    with pytest.raises(BudgetExhausted):
        cm.accepts(m, (), Budget(step_factor=32))
