"""Weighted Szilard counting vs brute enumeration; recurrence fitting."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_matrix import small_systems

from workbench.foundation import Alphabet, PreconditionError, enumerate_language, parikh, word
from workbench.semilinear import linear, semilinear
from workbench import counter as cm
from workbench import matrix as mx
from workbench import series
from workbench.fixtures import copy_language_matrix


def test_counting_coefficients_copy_fixture():
    g = copy_language_matrix()
    table = series.counting_coefficients(g, 17, k=2)
    # f(2n+1) = 2^n for n >= 1, everything else zero
    for n in range(18):
        if n >= 3 and n % 2 == 1:
            assert table[n] == 2 ** ((n - 1) // 2), n
        else:
            assert table[n] == 0, n


def test_counting_matches_brute_counts():
    g = copy_language_matrix()
    table = series.counting_coefficients(g, 12, k=2)
    brute = series.brute_counting(g, 12)
    assert table.lengths() == brute.lengths()


def test_counting_lambda_grammar():
    g = mx.MatrixGrammar(("S",), ("a",), "S", [(("S", ()),)])
    table = series.counting_coefficients(g, 5, k=1)
    assert table[0] == 1
    assert all(table[n] == 0 for n in range(1, 6))


def test_counting_ambiguous_grammar_counts_derivations():
    # two derivations of "a": the table counts matrix strings, which
    # exceeds the brute word count
    g = mx.MatrixGrammar(
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
    table = series.counting_coefficients(g, 4, k=1)
    brute = series.brute_counting(g, 4)
    assert table[1] == 2 and brute[1] == 1


def test_counting_infinite_coefficient_detected():
    # a zero-weight loop on the way to acceptance pumps the coefficient
    g = mx.MatrixGrammar(
        ("S", "A"),
        ("a",),
        "S",
        [
            (("S", ("A",)),),        # theta = λ
            (("A", ("A",)),),        # theta = λ, zero-weight cycle
            (("A", ("a",)),),
        ],
    )
    table = series.counting_coefficients(g, 3, k=1)
    assert table[1] == series.INFINITE


def layered_path_counts(dfa, weights, width, bound, layers):
    """Accepted paths of at most ``layers`` steps per weight of total
    <= bound, counted one path length at a time."""
    layer = Counter({(dfa.initial, (0,) * width): 1})
    totals = Counter()
    for _ in range(layers + 1):
        nxt = Counter()
        for (q, w), c in layer.items():
            if q in dfa.accepting:
                totals[w] += c
            for m, ew in enumerate(weights):
                t = dfa.step(q, m)
                v = tuple(x + y for x, y in zip(w, ew))
                if t is not None and sum(v) <= bound:
                    nxt[(t, v)] += c
        layer = nxt
    return totals


@st.composite
def grammars_with_loops(draw):
    g = draw(small_systems("matrix"))
    loops = draw(st.lists(st.sampled_from(g.nonterminals), max_size=1))
    # a zero-weight self-loop makes the coefficients it can reach infinite
    loops = tuple(((x, (x,)),) for x in loops)
    return mx.MatrixGrammar(g.nonterminals, g.terminals, g.start, g.matrices + loops)


@settings(max_examples=60, deadline=None)
@given(grammars_with_loops())
def test_path_counts_match_layered_counts(g):
    # a finite coefficient of total <= bound only has paths shorter than
    # L1 = (bound+1)*|states|; a zero-weight cycle of at most |states|
    # steps on an accepted path adds a longer one before L2 = L1+|states|
    bound, k = 6, 2
    nf, _ = mx.normal_form(g, k)
    dfa = mx.szilard_dfa(nf, k + 2)
    l1 = (bound + 1) * len(dfa.states)
    l2 = l1 + len(dfa.states)
    images = mx.theta(nf)
    alphabet = Alphabet(nf.terminals)
    length = series.counting_coefficients(nf, bound, k=k + 2)
    modes = [
        ([(len(t),) for t in images], 1, {(n,): c for n, c in length.entries.items()}),
        ([parikh(t, alphabet) for t in images], len(alphabet),
         series.parikh_multiplicities(nf, bound, k=k + 2).entries),
    ]
    for weights, width, table in modes:
        short = layered_path_counts(dfa, weights, width, bound, l1)
        long = layered_path_counts(dfa, weights, width, bound, l2)
        assert table == {w: c if short[w] == c else series.INFINITE for w, c in long.items()}


def test_parikh_multiplicities_copy_fixture():
    g = copy_language_matrix()
    table = series.parikh_multiplicities(g, 7, k=2)  # coordinates (a, b, #)
    assert table[(2, 0, 1)] == 1      # a#a
    assert table[(1, 1, 1)] == 0      # no word has one a, one b, one #
    assert table[(0, 0, 0)] == 0      # λ not in the language
    assert table[(2, 2, 1)] == 2      # ab#ab and ba#ba
    marg = table.marginal_by_total()
    direct = series.counting_coefficients(g, 7, k=2)
    assert marg.lengths() == direct.lengths()


def test_brute_counting_anbn():
    from workbench.semilinear import BoundedSpec

    spec = BoundedSpec((word("a"), word("b")), "ginsburg", q1=semilinear(linear((0, 0), (1, 1))))
    table = series.brute_counting(spec, 10)
    assert table.lengths() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_brute_counting_l2_central_binomials():
    # L2 = words with equally many a's and b's, fed through the counter
    # machine realization of the diagonal Parikh set
    diag = semilinear(linear((0, 0), (1, 1)))
    m = cm.from_semilinear(diag, Alphabet("ab"))
    table = series.brute_counting(m, 14)
    expect = [math.comb(n, n // 2) if n % 2 == 0 else 0 for n in range(15)]
    got = table.lengths()
    assert got == expect


def test_fit_recurrence_powers_of_two():
    fit = series.fit_recurrence([1, 2, 4, 8, 16, 32, 64, 128], 2)
    assert fit is not None
    assert fit.order == 1 and fit.coefficients == (Fraction(2),)


def test_fit_recurrence_zeros():
    fit = series.fit_recurrence([0] * 10, 3)
    assert fit is not None and fit.order == 1 and fit.coefficients == (Fraction(0),)


def test_fit_recurrence_fibonacci():
    seq = [1, 1]
    while len(seq) < 20:
        seq.append(seq[-1] + seq[-2])
    fit = series.fit_recurrence(seq, 4)
    assert fit.order == 2 and fit.coefficients == (Fraction(1), Fraction(1))


def test_fit_recurrence_central_binomials_fails():
    seq = [math.comb(2 * n, n) for n in range(40)]
    assert series.fit_recurrence(seq, 8) is None


def test_fit_recurrence_insufficient_terms():
    with pytest.raises(PreconditionError):
        series.fit_recurrence([1, 2, 3], 4)


def test_weighted_counts_state_order_independent():
    # same language through a different pipeline: identical tables
    g = copy_language_matrix()
    t1 = series.counting_coefficients(g, 11, k=2)
    sysr = mx.matrix_to_reduced_etol(g, 2)
    back = mx.reduced_etol_to_matrix(sysr, 2)
    t2 = series.counting_coefficients(back, 11, k=4)
    assert t1.lengths() == t2.lengths()