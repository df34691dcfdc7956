"""Counter machine semantics, the semilinear construction, and the DCM path."""

import os
import random
import subprocess
import sys
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


def test_decide_bounded_disjoint_needs_a_code():
    # Q1 and Q2 are disjoint, yet phi(7, 0) = phi(0, 5) = a^35 lies in both
    # languages: a true "disjoint" needs phi injective, which a code certifies
    s1 = BoundedSpec(A5_A7, "ginsburg", q1=semilinear(linear((7, 0))))
    s2 = BoundedSpec(A5_A7, "ginsburg", q1=semilinear(linear((0, 5))))
    with pytest.raises(PreconditionError, match="phi-injectivity unknown"):
        cm.decide_bounded(s1, s2, "disjoint")
    # the code (ab, ac) keeps a true verdict, and a false one needs no code
    code = (word("ab"), word("ac"))
    assert cm.decide_bounded(BoundedSpec(code, "ginsburg", q1=semilinear(linear((7, 0)))),
                             BoundedSpec(code, "ginsburg", q1=semilinear(linear((0, 5)))),
                             "disjoint").holds
    # being a code is sufficient, not necessary: phi on (a, ba, b) is
    # injective (the leading a's and trailing b's fix t1 and t3), yet
    # b.a = ba, so the verdict is refused all the same
    aba = (word("a"), word("ba"), word("b"))
    with pytest.raises(PreconditionError, match="phi-injectivity unknown"):
        cm.decide_bounded(BoundedSpec(aba, "ginsburg", q1=semilinear(linear((1, 0, 0)))),
                          BoundedSpec(aba, "ginsburg", q1=semilinear(linear((0, 0, 1)))),
                          "disjoint")
    same = BoundedSpec(A5_A7, "ginsburg", q1=semilinear(linear((7, 0))))
    v = cm.decide_bounded(same, same, "disjoint")
    assert not v.holds and v.witness == ("a",) * 35


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


def pump_machine(n):
    """One counter pumped to exactly n along a λ-chain, then counted down
    to zero on a λ-loop: L = {λ}, accepted only with a counter at n."""
    trans = {("u0", None, (0,)): (("u1", (1,)),)}
    for i in range(1, n):
        trans[("u%d" % i, None, (1,))] = (("u%d" % (i + 1), (1,)),)
    trans[("u%d" % n, None, (1,))] = (("down", (-1,)),)
    trans[("down", None, (1,))] = (("down", (-1,)),)
    trans[("down", cm.END, (0,))] = (("acc", (0,)),)
    states = ["u%d" % i for i in range(n + 1)] + ["down", "acc"]
    return cm.CounterMachine(1, states, "u0", {"acc"}, Alphabet("a"), trans)


def test_counter_cap_boundary_admits_a_counter_at_the_cap():
    # the cap is step_factor * (n + 1): 6 at max_len 0, 12 for accepts(())
    budget = Budget(step_factor=6)
    at_cap = cm.accepted_words(pump_machine(6), 0, budget)
    assert (at_cap.words, at_cap.complete) == ([()], True)
    past_cap = cm.accepted_words(pump_machine(7), 0, budget)
    assert (past_cap.words, past_cap.complete) == ([], False)
    assert cm.accepts(pump_machine(12), (), budget)
    with pytest.raises(BudgetExhausted):
        cm.accepts(pump_machine(13), (), budget)


def test_accepted_words_past_the_recursion_limit():
    # one state reading a*: the prefix walk is 1,500 letters deep
    trans = {("q", "a", (0,)): (("q", (0,)),), ("q", cm.END, (0,)): (("q", (0,)),)}
    m = cm.CounterMachine(1, ["q"], "q", {"q"}, Alphabet("a"), trans)
    e = cm.accepted_words(m, 1500)
    assert e.complete
    assert e.words == [("a",) * n for n in range(1501)]


def brute_accepted(m, max_len, cap):
    """(accepted words, whether the cap cut a run) by a separate run
    search for every word of length <= max_len, read off the transition
    table alone: a run moves on (state, symbol or λ, zero-pattern), turns
    a counter's direction at most ``reversal_bound`` times, and is cut
    when a counter would pass ``cap``."""
    cut = False

    def steps(cfg, sym):
        nonlocal cut
        q, cs, phases, revs = cfg
        pat = tuple(int(c > 0) for c in cs)
        for p, moves in m.transitions.get((q, sym, pat), ()):
            turns = [rv + (d != 0 and ph != 0 and d != ph) for ph, rv, d in zip(phases, revs, moves)]
            if max(turns) > m.reversal_bound:
                continue
            nxt = tuple(c + d for c, d in zip(cs, moves))
            if max(nxt) > cap:
                cut = True
                continue
            yield p, nxt, tuple(d or ph for ph, d in zip(phases, moves)), tuple(turns)

    def closure(cfgs):
        seen, stack = set(cfgs), list(cfgs)
        while stack:
            for nxt in steps(stack.pop(), None):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    zero = (0,) * m.k
    words = set()
    for w in all_words(m.alphabet, max_len):
        cur = closure({(m.initial, zero, zero, zero)})
        for sym in w + (cm.END,):
            cur = closure({nxt for cfg in cur for nxt in steps(cfg, sym)})
        if any(cfg[0] in m.accepting for cfg in cur):
            words.add(w)
    return words, cut


def random_machine(rng):
    """At most 4 states and 2 counters; λ-moves between random states
    make λ-cycles, some of which pump a counter into the cap."""
    k = rng.randint(1, 2)
    states = ["q%d" % i for i in range(rng.randint(2, 4))]
    trans = {}
    for q in states:
        for sym in ("a", "b", None, cm.END):
            for pat in product((0, 1), repeat=k):
                if rng.random() < 0.3:
                    trans[(q, sym, pat)] = [
                        (rng.choice(states), tuple(rng.choice((-1, 0, 1) if b else (0, 1)) for b in pat))
                        for _ in range(rng.randint(1, 2))
                    ]
    accepting = rng.sample(states, rng.randint(1, 2))
    return cm.CounterMachine(k, states, states[0], accepting, AB, trans,
                             reversal_bound=rng.randint(1, 2))


def test_accepted_words_agree_with_a_brute_force_run_search():
    cuts = []
    for seed in range(60):
        rng = random.Random(seed)
        m = random_machine(rng)
        n = rng.randint(2, 4)
        budget = Budget(step_factor=rng.randint(1, 2))
        words, cut = brute_accepted(m, n, budget.scaled_steps(n))
        e = cm.accepted_words(m, n, budget)
        assert set(e.words) == words, seed
        if not cut:
            assert e.complete, seed
        cuts.append(cut)
        if e.explored >= 4:
            part = cm.accepted_words(m, n, Budget(max_steps=e.explored // 2,
                                                  step_factor=budget.step_factor))
            assert not part.complete
            assert part.explored == e.explored // 2 + 1
            assert set(part.words) <= words
    assert any(cuts) and not all(cuts)


def _explored_sweep():
    """``explored``, ``complete`` and the word count of 400 random machines
    under two budgets, one line each."""
    lines = []
    for seed in range(400):
        rng = random.Random(seed)
        m = random_machine(rng)
        n = rng.randint(2, 6)
        for budget in (Budget(step_factor=2), Budget(max_steps=60, step_factor=2)):
            e = cm.accepted_words(m, n, budget)
            lines.append("%d %d %s %d" % (seed, e.explored, e.complete, len(e.words)))
    return "\n".join(lines)


def test_accepted_words_explored_is_independent_of_the_hash_seed():
    # states are strings, so a set of configurations iterates in an order
    # that PYTHONHASHSEED picks; the count must not depend on it
    path = [os.path.dirname(os.path.dirname(cm.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "from test_counter import _explored_sweep; print(_explored_sweep())"
    outs = [
        subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONHASHSEED=seed),
                       capture_output=True, text=True, check=True).stdout
        for seed in ("0", "1")
    ]
    assert outs[0].count("\n") == 800
    assert outs[0] == outs[1]
