"""Digit automata vs. the independent semilinear membership search."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from workbench.foundation import PreconditionError
from workbench.semilinear import linear, member, semilinear
from workbench import vecautomata as va


def test_from_equations_difference():
    # x1 - x2 = 0
    eq = va.EquationSystem([(1, -1)], (0,))
    m = va.from_equations(eq)
    assert m.accepts_vector((5, 5))
    assert not m.accepts_vector((5, 4))
    for a, b in product(range(9), repeat=2):
        assert m.accepts_vector((a, b)) == (a == b)


def test_from_equations_zero_only():
    m = va.from_equations(va.EquationSystem([(1,)], (0,)))
    assert m.accepts_vector((0,))
    for x in range(1, 12):
        assert not m.accepts_vector((x,))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_from_equations_no_equations_is_universe(n):
    # with no rows the existential flags give the variable count, and
    # every digit tuple solves the empty system
    eq = va.EquationSystem([], [], (False,) * n)
    assert eq.n_vars == n
    assert va.equivalent(va.from_equations(eq), va.universe(n))


def test_from_equations_double():
    # x1 - 2*x2 = 0
    m = va.from_equations(va.EquationSystem([(1, -2)], (0,)))
    assert m.accepts_vector((6, 3))
    assert not m.accepts_vector((6, 4))
    for a, b in product(range(17), repeat=2):
        assert m.accepts_vector((a, b)) == (a == 2 * b)


def test_padding_never_changes_acceptance():
    m = va.from_linear(linear((1, 2), (1, 1), (0, 1)))
    for v in product(range(6), repeat=2):
        base = va.encode_vector(v, width=4)
        for extra in range(3):
            padded = base + [(0, 0)] * extra
            assert m.accepts_digits(padded) == m.accepts_digits(base)


def test_project_equal_onto_single_track():
    eq = va.EquationSystem([(1, -1)], (0,), (False, True))
    m = va.project(va.from_equations(eq), {1})
    for x in range(20):
        assert m.accepts_vector((x,))


def test_project_double_onto_evens():
    eq = va.EquationSystem([(1, -2)], (0,), (False, True))
    m = va.project(va.from_equations(eq), {1})
    for x in range(33):
        assert m.accepts_vector((x,)) == (x % 2 == 0)


def test_project_padding_closure():
    # y = x + 4: the dropped track is wider than x, so the kept encoding of
    # x accepts only after the zero-digit closure
    eq = va.EquationSystem([(1, -1)], (-4,), (False, True))
    m = va.project(va.from_equations(eq), {1})
    for x in range(20):
        assert m.accepts_vector((x,))


def test_project_everything_keeps_emptiness():
    nonempty = va.from_linear(linear((1, 1), (1, 1)))
    m0 = va.project(nonempty, {0, 1})
    assert not va.is_empty(m0)
    empty2 = va.combine(nonempty, nonempty, "difference")
    assert va.is_empty(va.project(empty2, {0, 1}))


DIAG = semilinear(linear((0, 0), (1, 1)))
CHAIN = semilinear(linear((1, 2, 3), (1, 1, 1), (0, 1, 1), (0, 0, 1)))

FIXTURES = [
    DIAG,
    CHAIN,
    semilinear(linear((1, 1), (1, 0))),
    semilinear(linear((0, 0), (2, 2)), linear((1, 1), (2, 2))),
    semilinear(linear((2, 1), (1, 1), (1, 0))),
    semilinear(linear((0,), (3,)), linear((1,), (3,))),
    semilinear(linear((1, 2), (1, 1), (0, 1))),
]


def test_from_linear_examples():
    m = va.from_linear(linear((0, 0), (1, 1)))
    assert m.accepts_vector((3, 3))
    assert not m.accepts_vector((3, 2))

    m3 = va.from_semilinear_set(CHAIN)
    assert m3.accepts_vector((1, 2, 3))
    assert m3.accepts_vector((2, 3, 4))
    assert not m3.accepts_vector((2, 2, 3))

    point = va.from_linear(linear((0,)))
    for x in range(8):
        assert point.accepts_vector((x,)) == (x == 0)


def test_membership_matches_semilinear_member_on_box():
    for q in FIXTURES:
        m = va.from_semilinear_set(q)
        side = 32 if q.dim <= 2 else 12
        for v in product(range(side), repeat=q.dim):
            assert m.accepts_vector(v) == member(q, v), (q, v)


def test_combine_examples():
    m_diag = va.from_linear(linear((0, 0), (1, 1)))
    m_double = va.from_linear(linear((0, 0), (1, 2)))
    inter = va.combine(m_diag, m_double, "intersection")
    for v in product(range(12), repeat=2):
        assert inter.accepts_vector(v) == (v == (0, 0))

    nothing = va.empty(2)
    assert va.equivalent(va.combine(m_diag, nothing, "union"), m_diag)
    assert va.is_empty(va.combine(m_diag, m_diag, "difference"))


def test_combine_track_mismatch():
    with pytest.raises(PreconditionError):
        va.combine(va.universe(1), va.universe(2), "union")


def _random_set(rng, dim):
    comps = []
    for _ in range(rng.randrange(1, 3)):
        const = tuple(rng.randrange(3) for _ in range(dim))
        periods = []
        for _ in range(rng.randrange(0, 3)):
            p = tuple(rng.randrange(3) for _ in range(dim))
            if any(p):
                periods.append(p)
        comps.append(linear(const, *periods))
    return semilinear(*comps)


def test_boolean_algebra_laws_on_random_pairs():
    rng = random.Random(5)
    for _ in range(12):
        dim = rng.randrange(1, 3)
        a = va.from_semilinear_set(_random_set(rng, dim))
        b = va.from_semilinear_set(_random_set(rng, dim))
        # De Morgan: ~(A ∪ B) = ~A ∩ ~B
        lhs = va.complement(va.combine(a, b, "union"))
        rhs = va.combine(va.complement(a), va.complement(b), "intersection")
        assert va.equivalent(lhs, rhs)
        # idempotence and absorption
        assert va.equivalent(va.combine(a, a, "union"), a)
        assert va.equivalent(va.combine(a, a, "intersection"), a)
        assert va.equivalent(va.combine(a, va.combine(a, b, "intersection"), "union"), a)


def test_minimization_is_canonical_across_pipelines():
    # same diagonal set built two ways yields structurally equal minimal DFAs
    direct = va.from_linear(linear((0, 0), (1, 1)))
    split = va.from_semilinear_set(
        semilinear(linear((0, 0), (2, 2)), linear((1, 1), (2, 2)))
    )
    a, b = va.minimize(direct), va.minimize(split)
    assert a.transitions == b.transitions and a.accepting == b.accepting


def test_compare_examples():
    diag_pos = semilinear(linear((1, 1), (1, 1)))
    halfplane = semilinear(linear((0, 0), (1, 1), (0, 1)))
    ok, _ = va.compare(diag_pos, halfplane, "subset")
    assert ok
    # brute-force agreement on a box
    for v in product(range(10), repeat=2):
        if member(diag_pos, v):
            assert member(halfplane, v)

    diag = semilinear(linear((0, 0), (1, 1)))
    even_odd = semilinear(linear((0, 0), (2, 2)), linear((1, 1), (2, 2)))
    ok, _ = va.compare(diag, even_odd, "equal")
    assert ok

    shifted = semilinear(linear((0, 1), (1, 1)))
    ok, wit = va.compare(diag_pos, shifted, "disjoint")
    assert ok and wit is None


def test_compare_witnesses():
    diag = semilinear(linear((0, 0), (1, 1)))
    quad = semilinear(linear((0, 0), (1, 0), (0, 1)))
    ok, wit = va.compare(quad, diag, "subset")
    assert not ok
    assert member(quad, wit) and not member(diag, wit)
    ok, wit = va.compare(diag, quad, "equal")
    assert not ok and wit is not None
    ok, wit = va.compare(diag, quad, "disjoint")
    assert not ok
    assert member(diag, wit) and member(quad, wit)


def test_compare_equal_is_equivalence_on_fixtures():
    ms = FIXTURES[:5]
    same = [[va.compare(a, b, "equal")[0] if a.dim == b.dim else None for b in ms] for a in ms]
    for i, a in enumerate(ms):
        assert same[i][i] is True
        for j, b in enumerate(ms):
            if same[i][j] is None:
                continue
            assert same[i][j] == same[j][i]
            for l in range(len(ms)):
                if same[i][j] and same[j][l]:
                    assert same[i][l]


def test_zero_track_projection_nonempty_iff_original():
    m = va.from_linear(linear((2,), (3,)))
    zerod = va.project(m, {0})
    assert not va.is_empty(zerod)


def test_dump_tsv_roundtrips_basic_fields():
    m = va.minimize(va.from_linear(linear((0, 0), (1, 1))))
    text = va.dump_tsv(m)
    assert text.startswith("tracks\t2\n")
    assert "initial\t0" in text


def _reference_from_equations(eq):
    """Per-digit construction: reject a digit when r_i - (A·d)_i is odd."""
    start = tuple(eq.rhs)
    index = {start: 0}
    transitions = {}
    frontier = [start]
    while frontier:
        carry = frontier.pop()
        for d in product((0, 1), repeat=eq.n_vars):
            diffs = [
                r - sum(a * bit for a, bit in zip(row, d))
                for r, row in zip(carry, eq.matrix)
            ]
            if any(x % 2 for x in diffs):
                continue
            nxt = tuple(x // 2 for x in diffs)
            if nxt not in index:
                index[nxt] = len(index)
                frontier.append(nxt)
            transitions[(index[carry], d)] = index[nxt]
    return index, transitions


def _seeded_systems(rng, count):
    """from_linear-shaped systems x - sum(l_j p_j) = c, then general ones."""
    for _ in range(count):
        k = rng.randrange(1, 4)
        r = rng.randrange(0, 7 - k)
        rows = []
        for i in range(k):
            row = [0] * (k + r)
            row[i] = 1
            for j in range(r):
                row[k + j] = -rng.randrange(3)
            rows.append(row)
        yield va.EquationSystem(rows, [rng.randrange(4) for _ in range(k)])
        n_vars = rng.randrange(1, 7)
        matrix = [[rng.randrange(-3, 4) for _ in range(n_vars)] for _ in range(rng.randrange(1, 4))]
        yield va.EquationSystem(matrix, [rng.randrange(-5, 6) for _ in matrix])


def test_from_equations_matches_per_digit_reference():
    for eq in _seeded_systems(random.Random(11), 25):
        m = va.from_equations(eq)
        index, transitions = _reference_from_equations(eq)
        assert m.n_states == len(index)
        assert list(m.transitions.items()) == list(transitions.items())
        zero = (0,) * len(eq.rhs)
        assert m.accepting == ({index[zero]} if zero in index else set())


# Partial automata with no explicit sink.  PARTIAL (one track): 0 loops on
# 0 and moves to the accepting 1 on 1; 1 returns to 0 on 1 and reaches the
# dead end 2 on 0; 3 and 4 are unreachable.  Minimal: 0, 1 and one dead state.
PARTIAL = va.VectorDFA(
    1, 5, 0,
    {
        (0, (0,)): 0, (0, (1,)): 1,
        (1, (1,)): 0, (1, (0,)): 2,
        (3, (0,)): 4, (3, (1,)): 1, (4, (1,)): 4,
    },
    frozenset([1, 3, 4]),
)
# Two tracks, x == y read digit by digit, plus an unreachable accepting state.
PARTIAL_DIAG = va.VectorDFA(
    2, 2, 0,
    {(0, (0, 0)): 0, (0, (1, 1)): 0, (1, (0, 1)): 1},
    frozenset([0, 1]),
)


def _digit_words(tracks, max_len):
    alphabet = list(product((0, 1), repeat=tracks))
    for n in range(max_len + 1):
        yield from product(alphabet, repeat=n)


OPS = {
    "union": lambda a, b: a or b,
    "intersection": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
}


@pytest.mark.parametrize("m, minimal_states", [(PARTIAL, 3), (PARTIAL_DIAG, 2)])
def test_partial_automata_read_missing_entries_as_dead(m, minimal_states):
    mini = va.minimize(m)
    assert va.minimize(mini) == mini
    # unreachable states dropped; dead ends and missing entries share one state
    assert mini.n_states == minimal_states
    assert len(mini.transitions) == mini.n_states * 2 ** m.tracks
    other = va.from_linear(linear((1,) * m.tracks, (1,) * m.tracks))
    for a, b in ((m, other), (other, m), (m, m)):
        for op, fn in OPS.items():
            c = va.combine(a, b, op)
            assert va.minimize(c) == c
            for w in _digit_words(m.tracks, 6 if m.tracks == 1 else 3):
                assert c.accepts_digits(w) == fn(a.accepts_digits(w), b.accepts_digits(w)), (op, w)
    for w in _digit_words(m.tracks, 6 if m.tracks == 1 else 3):
        assert mini.accepts_digits(w) == m.accepts_digits(w)


_small_vector = st.tuples(st.integers(0, 2), st.integers(0, 2))
_small_linear = st.builds(
    lambda const, periods: linear(const, *[p for p in periods if any(p)]),
    _small_vector,
    st.lists(_small_vector, max_size=2),
)
_small_sets = st.lists(_small_linear, min_size=1, max_size=2).map(lambda cs: semilinear(*cs))


@settings(max_examples=30, deadline=None, database=None)
@given(_small_sets, _small_sets, st.sampled_from(["equal", "subset", "disjoint"]))
def test_compare_agrees_with_box_membership(q1, q2, rel):
    holds, wit = va.compare(q1, q2, rel)
    box = [(member(q1, v), member(q2, v)) for v in product(range(8), repeat=2)]
    if rel == "subset":
        bad = lambda a, b: a and not b
    elif rel == "equal":
        bad = lambda a, b: a != b
    else:
        bad = lambda a, b: a and b
    if holds:
        assert wit is None
        assert not any(bad(a, b) for a, b in box)
    else:
        assert bad(member(q1, wit), member(q2, wit))
