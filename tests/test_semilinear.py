"""Linear/semilinear membership, phi, boundedness notions, semi-simplicity."""

import random
from itertools import combinations, permutations, product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from workbench.foundation import (
    Alphabet,
    Budget,
    PreconditionError,
    enumerate_language,
    parikh,
    word,
)
from workbench.semilinear import (
    BoundedSpec,
    LinearSet,
    SemilinearSet,
    _members_within,
    _tuples_within_length,
    induced_member,
    is_simple,
    linear,
    member,
    morphic_lift,
    phi,
    semilinear,
    validate_semi_simple,
)


def brute_member(q, v):
    """Independent oracle: enumerate all multiplier tuples with sum <= sum(v).

    Every period is nonzero and nonnegative, so its coordinate sum is at
    least 1 and no representation of v uses more multipliers in all."""
    mult_cap = sum(v)
    for comp in q.components:
        r = len(comp.periods)

        def rec(j, rem, used):
            if all(x == 0 for x in rem):
                return True
            if j == r or used == mult_cap:
                return False
            p = comp.periods[j]
            m = 0
            cur = rem
            while all(x >= 0 for x in cur) and used + m <= mult_cap:
                if rec(j + 1, cur, used + m):
                    return True
                cur = tuple(a - b for a, b in zip(cur, p))
                m += 1
            return False

        rem0 = tuple(a - b for a, b in zip(v, comp.constant))
        if all(x >= 0 for x in rem0) and rec(0, rem0, 0):
            return True
    return False


# Q for { (i,j,k) : 0 < i < j < k } as one linear set
STRICT_CHAIN = semilinear(linear((1, 2, 3), (1, 1, 1), (0, 1, 1), (0, 0, 1)))
DIAGONAL = semilinear(linear((0, 0), (1, 1)))


def test_member_strict_chain_examples():
    assert member(STRICT_CHAIN, (1, 2, 3))
    assert not member(STRICT_CHAIN, (2, 2, 3))


def test_member_diagonal_off_point():
    assert not member(DIAGONAL, (4, 5))
    assert brute_member(DIAGONAL, (4, 5)) is False


def test_brute_member_needs_no_fixed_multiplier_cap():
    # 48 multipliers in all: a fixed cap of 40 rejected this member
    units = semilinear(linear((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                              (0, 0, 0, 1)))
    assert member(units, (12, 12, 12, 12))
    assert brute_member(units, (12, 12, 12, 12)) is True


FIXTURE_SETS = [
    DIAGONAL,
    STRICT_CHAIN,
    semilinear(linear((1, 1), (1, 0))),
    semilinear(linear((0, 0), (2, 2)), linear((1, 1), (2, 2))),
    semilinear(linear((2, 1), (1, 1), (1, 0))),
    semilinear(linear((0,), (3,)), linear((1,), (3,))),
]


def test_member_agrees_with_brute_oracle_on_box():
    for q in FIXTURE_SETS:
        for v in product(range(16), repeat=q.dim):
            assert member(q, v) == brute_member(q, v), (q, v)


@st.composite
def _linear_sets(draw):
    """Dimension 1-4, 0-5 periods with entries 0-3: rank-deficient sets
    are common."""
    k = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    return linear(draw(vec), *draw(st.lists(vec.filter(any), max_size=5)))


@settings(max_examples=300, deadline=None)
@given(_linear_sets(), st.data())
def test_member_agrees_with_brute_oracle_on_random_sets(ls, data):
    q = semilinear(ls)
    box = st.lists(st.integers(0, 12), min_size=ls.dim, max_size=ls.dim)
    vectors = data.draw(st.lists(box, min_size=1, max_size=6))
    mults = data.draw(st.lists(st.integers(0, 3), min_size=len(ls.periods),
                               max_size=len(ls.periods)))
    hit = [c + sum(m * p[i] for m, p in zip(mults, ls.periods))
           for i, c in enumerate(ls.constant)]
    # the hit and its neighbours one step off in each coordinate
    for i, d in product(range(ls.dim), (0, -1, 1)):
        v = list(hit)
        v[i] += d
        if 0 <= min(v) and max(v) <= 12:
            vectors.append(v)
    for v in vectors:
        assert member(q, v) == brute_member(q, v), v


def test_member_probe_searches_only_the_dependent_period():
    # four periods of rank 3: one multiplier is searched, the other three
    # are solved for; a search over all four is O(n^4) on the miss
    q = semilinear(linear((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)))
    n = 400
    assert not member(q, (n, n - 1, n + 1))
    assert member(q, (n, n, n))


def _det(m):
    """Leibniz determinant of a small integer matrix."""
    total = 0
    for perm in permutations(range(len(m))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        term = sign
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _rank(vectors, dim):
    """The largest r with a nonzero r x r minor."""
    for r in range(min(len(vectors), dim), 0, -1):
        for rows in combinations(vectors, r):
            for cols in combinations(range(dim), r):
                if _det([[v[c] for c in cols] for v in rows]):
                    return r
    return 0


@settings(max_examples=300, deadline=None)
@given(_linear_sets())
def test_is_simple_agrees_with_minor_rank(ls):
    assert is_simple(ls) == (_rank(ls.periods, ls.dim) == len(ls.periods))


def test_member_dimension_mismatch():
    with pytest.raises(PreconditionError):
        member(DIAGONAL, (1, 2, 3))


def test_phi_examples():
    assert phi((word("abb"), word("bab"), word("abb")), (1, 2, 3)) == word(
        "abbbabbababbabbabb"
    )
    assert phi((word("a"), word("b")), (0, 0)) == ()
    assert phi((word("ab"), word("b")), (2, 1)) == word("ababb")


L3 = BoundedSpec(
    (word("abbb"), word("aab")),
    "ginsburg-parikh",
    q1=semilinear(linear((1, 2), (1, 1), (0, 1))),          # 0 < r < s
    q2=semilinear(linear((2, 1), (1, 1), (1, 0))),          # 0 < s < r  (a-count, b-count)
    alphabet=Alphabet("ab"),
)


def test_induced_member_l3_paper_verdicts():
    w_out = phi(L3.words, (2, 3))
    assert parikh(w_out, L3.alphabet) == (8, 9)
    assert not induced_member(L3, w_out)
    w_in = phi(L3.words, (2, 5))
    assert parikh(w_in, L3.alphabet) == (12, 11)
    assert induced_member(L3, w_in)


def test_induced_member_parikh_kind():
    l2 = BoundedSpec(
        (word("abb"), word("aba")),
        "parikh",
        q2=semilinear(linear((1, 1), (1, 1))),
        alphabet=Alphabet("ab"),
    )
    assert parikh(word("abbaba"), l2.alphabet) == (3, 3)
    assert induced_member(l2, word("abbaba"))
    assert not induced_member(l2, word("abb"))


def test_bounded_parikh_equals_ginsburg_on_tuple_filtered_set():
    # a Parikh spec's language equals the Ginsburg language of
    # { t : psi(phi(t)) in Q2 }, realized here by enumeration cross-check
    words = (word("ab"), word("b"))
    q2 = semilinear(linear((1, 2), (1, 2)))
    spec = BoundedSpec(words, "parikh", q2=q2, alphabet=Alphabet("ab"))
    got = enumerate_language(spec, 10).require_complete().words
    expect = set()
    for i in range(6):
        for j in range(11):
            w = phi(words, (i, j))
            if len(w) <= 10 and member(q2, parikh(w, spec.alphabet)):
                expect.add(w)
    assert set(got) == expect


def test_bounded_relationship_witness_pair():
    # words (a,b,a): Ginsburg diag Q1 gives a^i b^i a^i, the Parikh spec with
    # Q2 = {(2i,i): i>0} gives a^i b^k a^j with i+j=2k>0; they differ by length 4
    words = (word("a"), word("b"), word("a"))
    gins = BoundedSpec(
        words, "ginsburg", q1=semilinear(linear((1, 1, 1), (1, 1, 1)))
    )
    par = BoundedSpec(
        words, "parikh", q2=semilinear(linear((2, 1), (2, 1))), alphabet=Alphabet("ab")
    )
    lg = enumerate_language(gins, 4).require_complete().as_set()
    lp = enumerate_language(par, 4).require_complete().as_set()
    assert lg == {word("aba")}
    assert lp == {word("aab"), word("aba"), word("baa")}
    assert lg != lp


def test_enumerate_bounded_diag_prefix():
    spec = BoundedSpec((word("a"), word("b")), "ginsburg", q1=DIAGONAL)
    assert enumerate_language(spec, 4).words == [(), word("ab"), word("aabb")]


def test_phi_image_equals_wordwise_filtering():
    # tuple-generation enumeration vs induced_member filtering of all words
    spec = BoundedSpec((word("ab"), word("a")), "ginsburg", q1=semilinear(linear((0, 1), (1, 1))))
    via_tuples = enumerate_language(spec, 10).require_complete().as_set()
    via_filter = set()
    for n in range(11):
        for bits in range(2 ** n):
            w = tuple("ab"[(bits >> i) & 1] for i in range(n))
            if induced_member(spec, w):
                via_filter.add(w)
    assert via_tuples == via_filter


def test_spec_enumeration_stays_lazy_under_the_budget():
    # six one-letter words and the six unit periods: every tuple within
    # 10^6 letters is a member, far too many to list before the budget
    units = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    spec = BoundedSpec([word(x) for x in "abcdef"], "ginsburg",
                       q1=semilinear(linear((0,) * 6, *units)))
    e = enumerate_language(spec, 10 ** 6, Budget(max_steps=1000))
    assert not e.complete
    assert e.explored == 1001


def _random_linear(rng, dim):
    periods = []
    for _ in range(rng.randint(0, 3)):
        p = tuple(rng.randint(0, 2) for _ in range(dim))
        if any(p):
            periods.append(p)
    return LinearSet([rng.randint(0, 2) for _ in range(dim)], periods)


@pytest.mark.parametrize("seed", range(40))
def test_forward_members_equal_the_member_scan(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    words = [tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))) for _ in range(dim)]
    lens = [len(w) for w in words]
    n = rng.randint(0, 14)
    q = SemilinearSet([_random_linear(rng, dim) for _ in range(rng.randint(1, 3))])
    want = {t for t in _tuples_within_length(words, n) if member(q, t)}
    got = set()
    for c in q.components:
        drawn = list(_members_within(c, lambda t: sum(map(mul, t, lens)) <= n))
        assert len(drawn) == len(set(drawn))
        got.update(drawn)
    assert got == want
    e = enumerate_language(BoundedSpec(words, "ginsburg", q1=q), n)
    assert e.complete
    assert e.explored == len(want)
    assert set(e.words) == {phi(words, t) for t in want}


def test_spec_enumeration_draws_each_member_once():
    # dependent periods reach a vector by many multiplier tuples, and
    # overlapping components reach it again; each is one node all the same
    a = [word("a")]
    e = enumerate_language(BoundedSpec(a, "ginsburg", q1=semilinear(linear((0,), (1,), (2,)))), 1000)
    assert e.complete and e.explored == 1001
    six = linear((0,), *[(1,)] * 6)
    e = enumerate_language(BoundedSpec(a, "ginsburg", q1=semilinear(six, six, linear((0,), (3,)))), 40)
    assert e.complete and e.explored == 41 and len(e.words) == 41


def box_scan(q, box):
    """The semi-simplicity report by a member test on every point of the box."""
    collisions = []
    for v in product(range(box + 1), repeat=q.dim):
        hits = [i for i, c in enumerate(q.components) if member(SemilinearSet([c]), v)]
        collisions += [(a, b, v) for a, b in combinations(hits, 2)]
        if len(collisions) >= 10:
            break
    flags = tuple(is_simple(c) for c in q.components)
    return flags, tuple(collisions), all(flags) and not collisions


@pytest.mark.parametrize("seed", range(40))
def test_validate_semi_simple_equals_the_box_scan(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    q = SemilinearSet([_random_linear(rng, dim) for _ in range(rng.randint(1, 4))])
    box = rng.randint(1, 8)
    rep = validate_semi_simple(q, box)
    assert (rep.simple_flags, rep.collisions, rep.validated) == box_scan(q, box)


def test_is_simple_examples():
    assert is_simple(linear((0, 0), (1, 0), (0, 1)))
    assert not is_simple(linear((0, 0), (1, 1), (2, 2)))
    assert is_simple(linear((0, 0), (1, 2), (2, 1)))


def test_validate_semi_simple_single_component():
    rep = validate_semi_simple(semilinear(linear((1, 1), (1, 0), (0, 1))), 10)
    assert rep.validated


def test_validate_semi_simple_collision():
    q = semilinear(linear((0, 0), (1, 1)), linear((0, 0), (1, 0)))
    rep = validate_semi_simple(q, 5)
    assert not rep.validated
    assert rep.collisions and rep.collisions[0][2] == (0, 0)


def test_validate_semi_simple_dependent_periods():
    # six copies of one period reach x in C(x + 5, 5) ways; each point of
    # the box is generated once, and the collisions stop after ten
    q = semilinear(linear((0,), *[(1,)] * 6), linear((0,), (3,)))
    rep = validate_semi_simple(q, 1000)
    assert rep.simple_flags == (False, True)
    assert rep.collisions == tuple((0, 1, (3 * i,)) for i in range(10))
    assert not rep.validated


def test_validate_semi_simple_parity_disjoint():
    q = semilinear(linear((0, 0), (2, 0)), linear((1, 0), (2, 0)))
    rep = validate_semi_simple(q, 20)
    assert rep.validated


def test_morphic_lift_definition_and_enumeration():
    base = BoundedSpec((word("a"), word("b")), "ginsburg", q1=DIAGONAL)
    lifted = morphic_lift(base, {"a": word("ab"), "b": word("ba")})
    assert lifted.words == (word("ab"), word("ba"))
    assert lifted.q1 is base.q1

    def h_image(w):
        return sum((word("ab") if s == "a" else word("ba") for s in w), ())

    base_words = enumerate_language(base, 4).require_complete().words
    expect = {h_image(w) for w in base_words if len(h_image(w)) <= 8}
    got = enumerate_language(lifted, 8).require_complete().as_set()
    assert got == expect


def test_morphic_lift_rejects_erasing_map():
    base = BoundedSpec((word("a"),), "ginsburg", q1=semilinear(linear((0,), (2,))))
    with pytest.raises(PreconditionError):
        morphic_lift(base, {"a": ()})
    lifted = morphic_lift(base, {"a": word("aa")})
    assert lifted.words == (word("aa"),)
