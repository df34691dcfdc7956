"""Words, Parikh images, decompositions, and the enumeration front door."""

import random

import pytest

from workbench import fixtures
from workbench.commutative import RegularWitness
from workbench.foundation import (
    Alphabet,
    Budget,
    FiniteLanguage,
    PreconditionError,
    RegexLanguage,
    comm_equivalent,
    decompositions,
    enumerate_language,
    parikh,
    sort_words,
    word,
)

AB = Alphabet("ab")


def brute_tally(w, alphabet):
    # independent oracle: literal per-symbol tally
    return tuple(sum(1 for s in w if s == a) for a in alphabet)


def test_parikh_direct_counts():
    assert parikh(word("abb"), AB) == (1, 2)
    assert parikh((), AB) == (0, 0)


def test_parikh_of_phi_123_blocks():
    # phi((abb,bab,abb),(1,2,3)): each of the six blocks holds exactly one a
    w = word("abb") + word("bab") * 2 + word("abb") * 3
    assert "".join(w) == "abbbabbababbabbabb"
    expect = brute_tally(w, AB)
    assert expect == (6, 12)
    assert parikh(w, AB) == expect


def test_parikh_rejects_foreign_symbol():
    with pytest.raises(PreconditionError):
        parikh(word("abc"), AB)


def test_parikh_additive_under_concatenation():
    rng = random.Random(7)
    for _ in range(100):
        u = tuple(rng.choice("ab") for _ in range(rng.randrange(8)))
        v = tuple(rng.choice("ab") for _ in range(rng.randrange(8)))
        pu, pv, puv = parikh(u, AB), parikh(v, AB), parikh(u + v, AB)
        assert puv == tuple(x + y for x, y in zip(pu, pv))


def test_comm_equivalent_examples():
    assert comm_equivalent(word("ab"), word("ba"))
    assert not comm_equivalent(word("ab"), word("abb"))
    assert parikh(word("abbbab"), AB) == parikh(word("bbabab"), AB) == (2, 4)
    assert comm_equivalent(word("abbbab"), word("bbabab"))


def test_comm_equivalent_is_equivalence_relation():
    rng = random.Random(11)
    sample = [tuple(rng.choice("ab") for _ in range(rng.randrange(6))) for _ in range(40)]
    for u in sample:
        assert comm_equivalent(u, u)
        for v in sample:
            assert comm_equivalent(u, v) == comm_equivalent(v, u)
            for w in sample:
                if comm_equivalent(u, v) and comm_equivalent(v, w):
                    assert comm_equivalent(u, w)


def test_decompositions_examples():
    assert decompositions(word("aabb"), (word("a"), word("b"))) == {(2, 2)}
    assert decompositions(word("aa"), (word("a"), word("a"))) == {(0, 2), (1, 1), (2, 0)}
    assert decompositions(word("ab"), (word("b"), word("a"))) == frozenset()


def test_decompositions_reconstruct_exhaustively():
    # every returned tuple rebuilds the word exactly, for all |w| <= 12
    blocks = (word("ab"), word("b"), word("a"))
    for n in range(13):
        for bits in range(2 ** n):
            w = tuple("ab"[(bits >> i) & 1] for i in range(n))
            for t in decompositions(w, blocks):
                rebuilt = sum((blocks[i] * e for i, e in enumerate(t)), ())
                assert rebuilt == w
        if n >= 9:  # keep the exhaustive sweep cheap at larger n
            break
    # spot-check longer words on a seeded sample
    rng = random.Random(3)
    for _ in range(200):
        w = tuple(rng.choice("ab") for _ in range(rng.randrange(10, 13)))
        for t in decompositions(w, blocks):
            rebuilt = sum((blocks[i] * e for i, e in enumerate(t)), ())
            assert rebuilt == w


def test_enumerate_finite_language():
    lang = FiniteLanguage([word("ab"), word("b")])
    assert enumerate_language(lang, 1).words == [word("b")]
    assert enumerate_language(lang, 2).words == [word("b"), word("ab")]


def test_enumerate_monotone_in_max_len():
    lang = FiniteLanguage([word(s) for s in ("a", "ba", "bab", "aaaa", "b")])
    prev = []
    for n in range(6):
        cur = enumerate_language(lang, n).words
        assert cur[: len(prev)] == prev
        prev = cur


def test_sort_words_is_length_then_lex():
    ws = [word("ba"), word("ab"), word("b"), (), word("aa")]
    assert sort_words(ws) == [(), word("b"), word("aa"), word("ab"), word("ba")]


def test_enumerate_regex():
    e = enumerate_language(RegexLanguage("(ab)*", AB), 5)
    assert e.complete
    assert e.words == [(), word("ab"), word("abab")]
    assert e.explored == 63      # every word of {a,b}^{<=5}


def test_regex_rejects_multi_character_symbols():
    with pytest.raises(PreconditionError):
        RegexLanguage("a(bc)*", Alphabet(["a", "bc"]))


# One fixture per budgeted enumerator, with the number of nodes its
# frontier draws: sentential forms (ETOL, matrix), (state, word) pairs
# (witness), Σ^{<=n} (regex), exponent tuples (bounded spec).
FRONTIER_PINS = [
    ("etol", fixtures.copy_language_reduced_etol, 7, 31, 15),
    ("matrix", fixtures.copy_language_matrix, 7, 22, 14),
    ("witness", lambda: RegularWitness(
        states=(0, 1, 2), initial=0, accepting=frozenset([2]),
        edges=((0, ("a",), 1), (1, ("b",), 1), (1, ("b", "a"), 2), (2, ("a",), 0)),
    ), 7, 24, 6),
    ("regex", lambda: RegexLanguage("(ab)*", AB), 4, 31, 3),
    ("bounded", lambda: fixtures.L3_SPEC, 16, 17, 2),
]


@pytest.mark.parametrize("name, make, n, explored, count", FRONTIER_PINS,
                         ids=[p[0] for p in FRONTIER_PINS])
def test_frontier_explored_count(name, make, n, explored, count):
    e = enumerate_language(make(), n)
    assert e.complete
    assert e.explored == explored
    assert len(e.words) == count


@pytest.mark.parametrize("name, make, n, explored, count", FRONTIER_PINS,
                         ids=[p[0] for p in FRONTIER_PINS])
def test_frontier_budget_cut_is_incomplete(name, make, n, explored, count):
    spec = make()
    full = enumerate_language(spec, n)
    cut = enumerate_language(spec, n, Budget(max_steps=explored - 1))
    assert not cut.complete
    assert cut.explored == explored
    assert set(cut.words) <= set(full.words)
