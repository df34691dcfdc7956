"""Digit automata vs. the independent semilinear membership search."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from workbench.foundation import PreconditionError
from workbench.semilinear import linear, member, semilinear
from workbench import vecautomata as va


def _universe(tracks):
    """The minimal automaton of all of N^tracks."""
    return va.VectorDFA(tracks, 1, 0, {(0, d): 0 for d in va.digit_tuples(tracks)},
                        frozenset([0]))


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
    assert va.from_equations(eq) == _universe(n)


def test_from_equations_double():
    # x1 - 2*x2 = 0
    m = va.from_equations(va.EquationSystem([(1, -2)], (0,)))
    assert m.accepts_vector((6, 3))
    assert not m.accepts_vector((6, 4))
    for a, b in product(range(17), repeat=2):
        assert m.accepts_vector((a, b)) == (a == 2 * b)


def test_encode_vector_refuses_a_width_too_small():
    assert va.encode_vector((5, 1), width=3) == [(1, 1), (0, 0), (1, 0)]
    assert va.encode_vector((5, 1), width=4)[3] == (0, 0)
    with pytest.raises(PreconditionError):
        va.encode_vector((5, 1), width=2)
    with pytest.raises(PreconditionError):
        va.encode_vector((0, 1), width=0)
    assert va.encode_vector((0, 0), width=0) == []


def test_padding_never_changes_acceptance():
    m = va.from_semilinear_set(semilinear(linear((1, 2), (1, 1), (0, 1))))
    for v in product(range(6), repeat=2):
        base = va.encode_vector(v, width=4)
        for extra in range(3):
            padded = base + [(0, 0)] * extra
            assert m.accepts_digits(padded) == m.accepts_digits(base)


def test_project_equal_onto_single_track():
    # the existential track is erased as the system is compiled
    eq = va.EquationSystem([(1, -1)], (0,), (False, True))
    m = va.from_equations(eq)
    assert m.tracks == 1
    for x in range(20):
        assert m.accepts_vector((x,))


def test_project_double_onto_evens():
    eq = va.EquationSystem([(1, -2)], (0,), (False, True))
    m = va.from_equations(eq)
    for x in range(33):
        assert m.accepts_vector((x,)) == (x % 2 == 0)


def test_project_padding_closure():
    # y = x + 4: the dropped track is wider than x, so the kept encoding of
    # x accepts only after the zero-digit closure
    eq = va.EquationSystem([(1, -1)], (-4,), (False, True))
    m = va.from_equations(eq)
    for x in range(20):
        assert m.accepts_vector((x,))


# x - l·(1, 1) = (1, 1), and x - y = 0 with x - y = 1, every track erased
ALL_ERASED = va.EquationSystem([(1, 0, -1), (0, 1, -1)], (1, 1), (True,) * 3)
NO_SOLUTION = va.EquationSystem([(1, -1), (1, -1)], (0, 1), (True, True))


def test_project_everything_keeps_emptiness():
    m0 = va.from_equations(ALL_ERASED)
    assert m0.tracks == 0 and va.shortest_accepted(m0) == ()
    assert va.shortest_accepted(va.from_equations(NO_SOLUTION)) is None


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
    m = va.from_semilinear_set(DIAG)
    assert m.accepts_vector((3, 3))
    assert not m.accepts_vector((3, 2))

    m3 = va.from_semilinear_set(CHAIN)
    assert m3.accepts_vector((1, 2, 3))
    assert m3.accepts_vector((2, 3, 4))
    assert not m3.accepts_vector((2, 2, 3))

    point = va.from_semilinear_set(semilinear(linear((0,))))
    for x in range(8):
        assert point.accepts_vector((x,)) == (x == 0)


def test_membership_matches_semilinear_member_on_box():
    for q in FIXTURES:
        m = va.from_semilinear_set(q)
        side = 32 if q.dim <= 2 else 12
        for v in product(range(side), repeat=q.dim):
            assert m.accepts_vector(v) == member(q, v), (q, v)


def test_combine_examples():
    m_diag = va.from_semilinear_set(DIAG)
    m_double = va.from_semilinear_set(semilinear(linear((0, 0), (1, 2))))
    inter = va.combine(m_diag, m_double, "intersection")
    for v in product(range(12), repeat=2):
        assert inter.accepts_vector(v) == (v == (0, 0))

    nothing = va.combine(_universe(2), _universe(2), "difference")
    assert va.combine(m_diag, nothing, "union") == m_diag
    assert va.shortest_accepted(va.combine(m_diag, m_diag, "difference")) is None


def test_combine_track_mismatch():
    with pytest.raises(PreconditionError):
        va.combine(_universe(1), _universe(2), "union")


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
        # De Morgan: ~(A ∪ B) = ~A ∩ ~B; combine minimizes, so equal
        # languages give equal automata
        u = _universe(dim)
        lhs = va.combine(u, va.combine(a, b, "union"), "difference")
        rhs = va.combine(va.combine(u, a, "difference"), va.combine(u, b, "difference"),
                         "intersection")
        assert lhs == rhs
        # idempotence and absorption
        assert va.combine(a, a, "union") == a
        assert va.combine(a, a, "intersection") == a
        assert va.combine(a, va.combine(a, b, "intersection"), "union") == a


def test_minimization_is_canonical_across_pipelines():
    # the diagonal built three ways, as x = y over both tracks, as one
    # linear set and as a union of two, yields one minimal DFA
    direct = va.from_equations(va.EquationSystem([(1, -1)], (0,)))
    split = va.from_semilinear_set(
        semilinear(linear((0, 0), (2, 2)), linear((1, 1), (2, 2)))
    )
    assert direct == va.from_semilinear_set(DIAG) == split
    assert va.minimize(direct) == direct


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
    # x - 3l = 2 has solutions, 3x - 3l = 2 has none; both tracks erased
    assert va.shortest_accepted(va.from_equations(
        va.EquationSystem([(1, -3)], (2,), (True, True)))) == ()
    assert va.shortest_accepted(va.from_equations(
        va.EquationSystem([(3, -3)], (2,), (True, True)))) is None


def test_dump_tsv_roundtrips_basic_fields():
    text = va.dump_tsv(va.from_semilinear_set(DIAG))
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


def _reference_dfa(eq):
    """The per-digit construction as a DFA over all variables."""
    index, transitions = _reference_from_equations(eq)
    zero = (0,) * len(eq.rhs)
    return va.VectorDFA(eq.n_vars, len(index), 0, transitions,
                        frozenset([index[zero]] if zero in index else []))


def _seeded_systems(rng, count):
    """Linear-set-shaped systems x - sum(l_j p_j) = c, then general ones."""
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
        # the carry compiler builds the reference's edges, in its order
        index, transitions = _reference_from_equations(eq)
        edges, end, zero = va._carry_edges(eq)
        alphabet = va.digit_tuples(eq.n_vars)
        assert end == len(index)
        assert [((q, alphabet[i]), t) for q, i, t in edges] == list(transitions.items())
        assert zero == index.get((0,) * len(eq.rhs))
        assert va.from_equations(eq) == va.minimize(_reference_dfa(eq))


def _tuple_carry_edges(eq, first=0, limit=None):
    """``_carry_edges`` on tuple carries: the same depth-first walk, bucket
    order and numbering, each carry a tuple of Python ints.  None once the
    walk has numbered more than ``limit`` carries."""
    rows = eq.matrix
    ads, keys, n_kept = [(0,) * len(rows)], [0], 1
    for j in reversed(range(eq.n_vars)):
        column = tuple(row[j] for row in rows)
        ads += [tuple(a + c for a, c in zip(ad, column)) for ad in ads]
        if eq.existential[j]:
            keys *= 2
        else:
            keys += [k + n_kept for k in keys]
            n_kept *= 2
    buckets = {}
    for key, ad in zip(keys, ads):
        buckets.setdefault(tuple(x & 1 for x in ad), []).append((key, ad))
    start = tuple(eq.rhs)
    index = {start: first}
    edges = []
    frontier = [start]
    while frontier:
        carry = frontier.pop()
        q = index[carry]
        for key, ad in buckets.get(tuple(x & 1 for x in carry), ()):
            nxt = tuple((r - a) >> 1 for r, a in zip(carry, ad))
            t = index.get(nxt)
            if t is None:
                if limit is not None and len(index) == limit:
                    return None
                t = index[nxt] = first + len(index)
                frontier.append(nxt)
            edges.append((q, key, t))
    return edges, first + len(index), index.get((0,) * len(rows))


def test_carry_edges_match_the_tuple_reference():
    rng = random.Random(19)
    for _ in range(300):
        n_vars = rng.randrange(1, 7)
        matrix = [[rng.randrange(-5, 6) for _ in range(n_vars)] for _ in range(rng.randrange(5))]
        existential = [rng.random() < 0.4 for _ in range(n_vars)]
        eq = va.EquationSystem(matrix, [rng.randrange(-20, 21) for _ in matrix], existential)
        for first in (0, 7):
            assert va._carry_edges(eq, first) == _tuple_carry_edges(eq, first), eq


def _large_systems(rng):
    """Systems with rhs up to 10^9 and coefficients up to 1000 in size,
    some columns existential.  Arbitrary ones mostly die within a few
    carries.  So they alternate with square ones that are invertible mod 2
    (odd on a permutation, even elsewhere) and solved by a y below 2^17:
    every carry has exactly one successor, and the walk goes from b through
    the carries A·(y >> t) down to the zero carry."""
    while True:
        n_vars = rng.randrange(1, 5)
        matrix = [[rng.randrange(-1000, 1001) for _ in range(n_vars)]
                  for _ in range(rng.randrange(1, 5))]
        rhs = [rng.randrange(-10 ** 9, 10 ** 9 + 1) for _ in matrix]
        yield va.EquationSystem(matrix, rhs, [rng.random() < 0.4 for _ in range(n_vars)])
        n_vars = rng.randrange(1, 5)
        perm = rng.sample(range(n_vars), n_vars)
        matrix = [[2 * rng.randrange(-500, 500) + (j == perm[i]) for j in range(n_vars)]
                  for i in range(n_vars)]
        y = [rng.randrange(2 ** 17) for _ in range(n_vars)]
        rhs = [sum(a * x for a, x in zip(row, y)) for row in matrix]
        yield va.EquationSystem(matrix, rhs, [rng.random() < 0.4 for _ in range(n_vars)])


def test_packed_carries_keep_large_values_apart():
    # each row's field must hold its part of carry + (bias - A·d) without
    # a carry into the next row's field; draws whose reference walk
    # numbers more than 2,000 carries are skipped
    checked = deep = 0
    for eq in _large_systems(random.Random(23)):
        reference = _tuple_carry_edges(eq, limit=2000)
        if reference is None:
            continue
        assert va._carry_edges(eq) == reference, eq
        checked += 1
        deep += len(eq.rhs) > 1 and reference[1] > 10
        if checked == 300:
            break
    assert deep >= 100


def test_from_equations_is_the_union_of_its_systems():
    systems = list(_seeded_systems(random.Random(13), 10))
    pairs = [(a, b) for a, b in zip(systems, systems[1:]) if a.n_vars == b.n_vars]
    assert len(pairs) >= 3
    for a, b in pairs:
        union = va.combine(va.from_equations(a), va.from_equations(b), "union")
        assert va.from_equations(a, b) == union
    with pytest.raises(PreconditionError):
        va.from_equations(va.EquationSystem([(1, -1)], (0,)), va.EquationSystem([(1,)], (0,)))
    with pytest.raises(PreconditionError):
        va.from_equations()


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
    other = va.from_semilinear_set(semilinear(linear((1,) * m.tracks, (1,) * m.tracks)))
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


def _reference_project(dfa, drop):
    """Projection as a full subset construction over frozensets, then the
    post-hoc padding repair: a subset accepts when some accepting subset
    is reachable from it along all-zero kept digits.  Minimized."""
    keep = [t for t in range(dfa.tracks) if t not in drop]
    erased = {}
    for (q, d), t in dfa.transitions.items():
        erased.setdefault(q, {}).setdefault(tuple(d[i] for i in keep), set()).add(t)
    start = frozenset([dfa.initial])
    index, order, transitions = {start: 0}, [start], {}
    for s, subset in enumerate(order):
        succ = {}
        for q in subset:
            for kd, ts in erased.get(q, {}).items():
                succ.setdefault(kd, set()).update(ts)
        for kd, ts in sorted(succ.items()):
            nxt = frozenset(ts)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            transitions[(s, kd)] = index[nxt]
    zero = (0,) * len(keep)
    accepting = {s for s, subset in enumerate(order) if subset & dfa.accepting}
    grown = True
    while grown:
        grown = False
        for s in range(len(order)):
            if s not in accepting and transitions.get((s, zero)) in accepting:
                accepting.add(s)
                grown = True
    return va.minimize(va.VectorDFA(len(keep), len(order), 0, transitions, frozenset(accepting)))


def _erasure_cases():
    # the padding-closure cases above: x = y, x = 2y, y = x + 4, then
    # systems with every track erased, and seeded systems with
    # arbitrary existential columns
    for row, rhs in (((1, -1), 0), ((1, -2), 0), ((1, -1), -4)):
        yield va.EquationSystem([row], (rhs,), (False, True))
    yield ALL_ERASED
    yield NO_SOLUTION
    yield va.EquationSystem([(1, -3)], (2,), (True, True))
    rng = random.Random(17)
    for eq in _seeded_systems(rng, 15):
        yield va.EquationSystem(eq.matrix, eq.rhs, [rng.random() < 0.5 for _ in range(eq.n_vars)])


def test_project_zset_acceptance_matches_the_padding_repair():
    # erasing while compiling equals projecting the full carry DFA
    for eq in _erasure_cases():
        drop = {t for t, erased in enumerate(eq.existential) if erased}
        assert va.from_equations(eq) == _reference_project(_reference_dfa(eq), drop), eq


def _ladder_pair(rng, k, r, rel, true):
    """Two semilinear sets of one linear component each, drawn like the
    benchmark's decide pairs: constants in [0, 3], periods in [0, 2]^k;
    when ``true`` the relation holds by construction."""
    def draw(even_first=False, parity=None):
        const = [rng.randrange(4) for _ in range(k)]
        if parity is not None:
            const[0] = rng.choice((0, 2)) + parity
        periods = []
        while len(periods) < r:
            p = [rng.randrange(3) for _ in range(k)]
            if even_first:
                p[0] = rng.choice((0, 2))
            if any(p):
                periods.append(tuple(p))
        return linear(const, *periods)

    if rel == "disjoint" and true:
        return semilinear(draw(True, 0)), semilinear(draw(True, 1))
    a = draw()
    if not true:
        return semilinear(a), semilinear(draw())
    shifted = linear([c + x for c, x in zip(a.constant, a.periods[0])], *a.periods)
    if rel == "subset":
        return semilinear(shifted), semilinear(a)
    perm = list(a.periods)
    rng.shuffle(perm)
    return semilinear(a), semilinear(linear(a.constant, *perm), shifted)


def _full_dfa_compare(q1, q2, rel):
    m1, m2 = va.from_semilinear_set(q1), va.from_semilinear_set(q2)
    products = {
        "subset": [(m1, m2, "difference")],
        "equal": [(m1, m2, "difference"), (m2, m1, "difference")],
        "disjoint": [(m1, m2, "intersection")],
    }[rel]
    for a, b, op in products:
        witness = va.shortest_accepted(va.combine(a, b, op))
        if witness is not None:
            return False, witness
    return True, None


# the benchmark's decide ladder (dimension k, periods r) up to k + r = 6
LADDER = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3))


@pytest.mark.parametrize("rel", ["equal", "subset", "disjoint"])
def test_compare_matches_the_full_dfa_chain(rel):
    rng = random.Random("compare:" + rel)
    false_verdicts = 0
    for k, r in LADDER:
        for n in range(6):
            q1, q2 = _ladder_pair(rng, k, r, rel, n % 2 == 0)
            got = va.compare(q1, q2, rel)
            assert got == _full_dfa_compare(q1, q2, rel), (k, r, q1, q2)
            false_verdicts += not got[0]
        # unions of components, so subsets mix several carry automata
        q1, q2 = _random_set(rng, k), _random_set(rng, k)
        assert va.compare(q1, q2, rel) == _full_dfa_compare(q1, q2, rel), (q1, q2)
    assert false_verdicts >= 5
