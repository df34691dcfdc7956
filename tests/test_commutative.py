"""Prefix codes, matrix/ETOL regularization, the single-table pipeline."""

import random
import time

import pytest

from workbench.foundation import (
    FiniteLanguage,
    PreconditionError,
    comm_equivalent,
    enumerate_language,
    word,
)
from workbench import commutative as cr
from workbench import etol
from workbench import matrix as mx
from workbench.fixtures import abn_edol, doubling_edol


def test_is_prefix_code_examples():
    assert cr.is_prefix_code([word("aa"), word("ab")])
    assert not cr.is_prefix_code([word("a"), word("ab")])
    assert cr.is_prefix_code([word("ab"), word("ba"), word("bb")])


def test_build_prefix_code_pinned_example():
    assert cr.build_prefix_code([word("ab"), word("ab")]) == [word("ab"), word("ba")]


def test_build_prefix_code_already_free():
    assert cr.build_prefix_code([word("aa"), word("ab")]) == [word("aa"), word("ab")]


def test_build_prefix_code_preconditions():
    with pytest.raises(PreconditionError):
        cr.build_prefix_code([word("ba"), word("ab"), word("aab")])  # |ba| < 3
    with pytest.raises(PreconditionError):
        cr.build_prefix_code([word("aa"), word("aaa")])  # two powers of a


def test_build_prefix_code_randomized():
    rng = random.Random(23)
    alphabet = "abc"
    done = 0
    while done < 100:
        m = rng.randrange(1, 6)
        vs = []
        power_letters = set()
        ok = True
        for _ in range(m):
            n = rng.randrange(m, 9)
            v = tuple(rng.choice(alphabet) for _ in range(n))
            if len(set(v)) == 1:
                if v[0] in power_letters:
                    ok = False
                    break
                power_letters.add(v[0])
            vs.append(v)
        if not ok:
            continue
        code = cr.build_prefix_code(vs)
        assert cr.is_prefix_code(code)
        assert all(comm_equivalent(w, v) for w, v in zip(code, vs))
        done += 1


def test_is_code_bounded():
    assert cr.is_code_bounded([word("ab"), word("ba")])
    assert not cr.is_code_bounded([word("a"), word("ab"), word("b")])  # a.b = ab
    assert cr.is_code_bounded([word("aa"), word("ab")])
    assert not cr.is_code_bounded([word("ab"), word("abb"), word("bab")])  # abb.ab = ab.bab
    assert cr.is_code_bounded([word("a"), word("ab"), word("bb")])  # a suffix code
    assert not cr.is_code_bounded([word("a"), word("a")])
    assert not cr.is_code_bounded([word("a"), ()])


def test_is_code_bounded_is_polynomial():
    # the concatenation walk kept every product up to length 32 and ran
    # out of 1 GiB on this set
    words = [word(w) for w in ("b", "aaaaabbb", "aaa", "abbb", "bbaabb")]
    start = time.perf_counter()
    assert cr.is_code_bounded(words)
    assert time.perf_counter() - start < 0.01


def aSb_grammar():
    return mx.MatrixGrammar(
        ("S",),
        ("a", "b"),
        "S",
        [(("S", word("aSb")),), (("S", word("ab")),)],
    )


def test_regularize_matrix_rejects_unpadded_outputs():
    lam = mx.MatrixGrammar(("S", "A"), ("a",), "S", [
        (("S", ("A",)),),          # theta = λ: fewer than |M| terminals
        (("A", ("a", "a")),),
    ])
    with pytest.raises(PreconditionError, match="^word '' shorter than the list length 2$"):
        cr.regularize_matrix(lam, 2)
    two_powers = mx.MatrixGrammar(("S", "A"), ("a", "b"), "S", [
        (("S", ("a", "a", "A")),),
        (("A", ("a", "a")),),
    ])
    with pytest.raises(PreconditionError, match="^two words are powers of the letter 'a'$"):
        cr.regularize_matrix(two_powers, 2)


def test_regularize_matrix_automatic_code():
    g = aSb_grammar()
    wit = cr.regularize_matrix(g, 1, verify_len=12)
    words = enumerate_language(wit, 8).require_complete().words
    # (ab)^n ba: commutatively the a^(n+1) b^(n+1) family
    assert word("ba") in words and word("abba") in words
    assert wit.provenance["verified_len"] == 12


def test_regularize_matrix_single_word_grammar():
    g = mx.MatrixGrammar(("S",), ("a", "b"), "S", [(("S", word("ab")),)])
    wit = cr.regularize_matrix(g, 1, code_words=[word("ba")], verify_len=6)
    assert enumerate_language(wit, 6).require_complete().words == [word("ba")]


def test_regularize_matrix_rejects_non_code():
    g = mx.MatrixGrammar(
        ("S", "A"),
        ("a", "b"),
        "S",
        [(("S", word("abA")),), (("A", word("ab")),)],
    )
    # both theta images rearranged to overlapping words that break unique
    # factorization: {ab, abab} is a code, {ba, baba}? use a blatant one
    with pytest.raises(PreconditionError):
        cr.regularize_matrix(g, 1, code_words=[word("ab"), word("abab")], verify_len=4)


def test_regularize_matrix_rejects_mismatched_code():
    g = aSb_grammar()
    with pytest.raises(PreconditionError):
        cr.regularize_matrix(g, 1, code_words=[word("aa"), word("bb")])


def anbn_reduced():
    return etol.EtolSystem(
        v=("S",),
        sigma=("a", "b"),
        axiom="S",
        tables=[{"S": [word("aSb")]}, {"S": [word("ab")]}],
        reduced=True,
    )


def test_regularize_etol_automatic():
    g = anbn_reduced()
    wit = cr.regularize_etol(g, 1, verify_len=14)
    assert wit.provenance["witness_prefix_code_on_fragment"]
    words = enumerate_language(wit, 8).require_complete().words
    assert words and all(w for w in words)


def test_regularize_etol_single_word():
    g = etol.EtolSystem(
        v=("S",), sigma=("a", "b"), axiom="S",
        tables=[{"S": [word("ab")]}], reduced=True,
    )
    wit = cr.regularize_etol(g, 1, verify_len=6)
    assert enumerate_language(wit, 6).require_complete().words == [word("ab")]


def test_regularize_etol_rejects_thin_productions():
    g = etol.EtolSystem(
        v=("S",),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [word("aS")]}, {"S": [("a",)]}],
        reduced=True,
    )
    # R_S has two productions but each emits only one terminal
    with pytest.raises(PreconditionError):
        cr.regularize_etol(g, 1)


def test_regularize_etol_rejects_two_letter_powers():
    g = etol.EtolSystem(
        v=("S",), sigma=("a",), axiom="S",
        tables=[{"S": [word("aaS"), word("aa")]}], reduced=True,
    )
    with pytest.raises(PreconditionError, match="^two words are powers of the letter 'a'$"):
        cr.regularize_etol(g, 1)


def test_verify_comm_equivalence_basics():
    l1 = FiniteLanguage([word("ab")])
    l2 = FiniteLanguage([word("ba")])
    both = FiniteLanguage([word("ab"), word("ba")])
    assert cr.verify_comm_equivalence(l1, l1, 5)
    assert cr.verify_comm_equivalence(l1, l2, 5)
    v = cr.verify_comm_equivalence(l1, both, 5)
    assert not v and v.witness_vector == (1, 1)


def test_edol_analyze_constant():
    g = etol.EtolSystem(
        v=("S", "a"),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [("a",)], "a": [("a",)]}],
        reduced=False,
    )
    rep = cr.edol_analyze(g, 10)
    assert rep.kind == "finite"
    assert rep.ambiguous  # gamma_1 = gamma_2 exactly
    assert rep.language == (("a",),)


def test_edol_analyze_continues_to_an_exact_repeat():
    # gamma = S, ab, ba, ab: ab ~ ba at (1, 2), the exact repeat at step 3
    g = etol.EtolSystem(
        v=("S", "a", "b"),
        sigma=("a", "b"),
        axiom="S",
        tables=[{"S": [word("ab")], "a": [("b",)], "b": [("a",)]}],
        reduced=False,
    )
    rep = cr.edol_analyze(g, 10)
    assert rep == cr.EdolReport("finite", False, (1, 2), (word("ab"), word("ba")), 3)


def test_edol_analyze_doubling_no_equivalence():
    rep = cr.edol_analyze(doubling_edol(), 20)
    assert rep.kind == "no-equivalence"


def test_edol_analyze_abn_no_equivalence():
    rep = cr.edol_analyze(abn_edol(), 20)
    assert rep.kind == "no-equivalence"


def test_edol_contrapositive_on_infinite_fixtures():
    # infinite single-table deterministic languages never show a
    # commutative repeat within the walked bound
    for g in (abn_edol(), doubling_edol()):
        rep = cr.edol_analyze(g, 12)
        assert rep.repeat is None


def test_edol_regularize_abn():
    g = abn_edol()
    wit = cr.edol_regularize(g, 1, verify_len=15)
    assert wit.provenance["construction"] == "edol-theta-szilard"
    words = enumerate_language(wit, 6).require_complete().words
    assert word("a") in words  # image of the zero-iteration word


def test_edol_regularize_finite_case():
    g = etol.EtolSystem(
        v=("S", "a"),
        sigma=("a",),
        axiom="S",
        tables=[{"S": [("a",)], "a": [("a",)]}],
        reduced=False,
    )
    wit = cr.edol_regularize(g, 1, verify_len=6)
    assert wit.provenance["construction"] == "edol-finite"
    assert enumerate_language(wit, 6).require_complete().words == [("a",)]


def test_edol_regularize_rejects_doubling():
    with pytest.raises(PreconditionError):
        cr.edol_regularize(doubling_edol(), 3)