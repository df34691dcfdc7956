"""The command-line front end as a public surface: exit codes of every
command, the pinned output of every `convert` target, bad documents,
and the document round trip for every kind."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from workbench import cli
from workbench import counter, etol, fixtures
from workbench import matrix as mx
from workbench.fixtures import copy_language_matrix
from workbench.foundation import Alphabet, FiniteLanguage, RegexLanguage, word
from workbench.semilinear import KINDS, BoundedSpec, LinearSet, SemilinearSet, linear, semilinear


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(cli.dump_document(obj))
    return str(path)


def repeated_copy_matrix(d):
    """{ x#x : x in {a,b}+ } with every letter matrix listed d times, so a
    word with n letters per copy has d^n derivations."""
    mats = [(("S", ("A1", "#", "A2")),)]
    for final in (False, True):
        for c in "ab":
            mats += [tuple((a, (c,) if final else (c, a)) for a in ("A1", "A2"))] * d
    return mx.MatrixGrammar(("S", "A1", "A2"), ("a", "b", "#"), "S", mats)


def test_convert_reduced_etol_count_cap_is_budget_exhausted(tmp_path, capsys):
    # a^4#a^4 has 8^4 = 4096 derivations, the count cap: the comparison
    # ran out of budget, which is exit 3, not a failed conversion
    path = _write(tmp_path, "m228.json", repeated_copy_matrix(8))
    rc = cli.main(["convert", path, "--to", "reduced-etol", "--index", "2",
                   "--check-len", "9"])
    out = capsys.readouterr()
    assert rc == 3
    assert "derivation counts preserved" not in out.out
    assert out.err.startswith("budget exhausted:")


def test_convert_reduced_etol_counts_below_cap(tmp_path, capsys):
    path = _write(tmp_path, "m222.json", repeated_copy_matrix(2))
    rc = cli.main(["convert", path, "--to", "reduced-etol", "--index", "2",
                   "--check-len", "7"])
    assert rc == 0
    assert "derivation counts preserved: PASS" in capsys.readouterr().out


def test_series_too_few_terms_is_precondition_error(tmp_path, capsys):
    # the stride-2 subsequence of 21 coefficients has 9 terms; an order-6
    # fit needs 16, which is a failed precondition, not "no recurrence"
    path = _write(tmp_path, "copy.json", copy_language_matrix())
    rc = cli.main(["series", path, "--count", "20"])
    out = capsys.readouterr()
    assert rc == 2
    assert "need at least 16 terms" in out.err
    assert "no recurrence" not in out.out


def test_series_length_output_is_pinned(tmp_path, capsys):
    # f(2n+1) = 2^n for n >= 1 on {x#x : x in {a,b}+}
    path = _write(tmp_path, "copy.json", copy_language_matrix())
    assert cli.main(["series", path, "--count", "40"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "config: max-len=10 steps=100000 count=40 mode=length",
        "grammar already in normal form",
    ] + ["%d %d" % (n, 2 ** (n // 2) if n >= 3 and n % 2 else 0) for n in range(41)] + [
        "fit: order 1: a[n] = (2)*a[n-1] (validated on 18 terms) (on the stride-2 nonzero subsequence)",
    ]


def test_series_parikh_output_is_pinned(tmp_path, capsys):
    # coordinates (a, b, #): x#x with i a's and j b's in x has C(i+j, i)
    path = _write(tmp_path, "copy.json", copy_language_matrix())
    assert cli.main(["series", path, "--mode", "parikh", "--count", "12"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "config: max-len=10 steps=100000 count=12 mode=parikh",
        "grammar already in normal form",
        "0,2,1 1", "2,0,1 1",
        "0,4,1 1", "2,2,1 2", "4,0,1 1",
        "0,6,1 1", "2,4,1 3", "4,2,1 3", "6,0,1 1",
        "0,8,1 1", "2,6,1 4", "4,4,1 6", "6,2,1 4", "8,0,1 1",
        "0,10,1 1", "2,8,1 5", "4,6,1 10", "6,4,1 10", "8,2,1 5", "10,0,1 1",
    ]


def test_series_parikh_without_matrices_prints_an_empty_table(tmp_path, capsys):
    path = _write(tmp_path, "none.json", mx.MatrixGrammar(("S",), ("a",), "S", []))
    assert cli.main(["series", path, "--mode", "parikh"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "config: max-len=10 steps=100000 count=12 mode=parikh",
        "grammar already in normal form",
    ]


def test_series_parikh_without_terminals_is_precondition_error(tmp_path, capsys):
    g = mx.MatrixGrammar(("S", "A"), (), "S", [(("S", ("A",)),), (("A", ()),)])
    path = _write(tmp_path, "lambda.json", g)
    assert cli.main(["series", path, "--mode", "parikh"]) == 2
    assert capsys.readouterr().err.startswith("error: parikh mode needs at least one terminal")


@pytest.mark.parametrize("mode", ["length", "parikh"])
def test_series_negative_count_is_precondition_error(tmp_path, capsys, mode):
    # length mode failed later in fit_recurrence ("need at least 16
    # terms, got 0"); parikh mode printed no rows and exited 0
    path = _write(tmp_path, "copy.json", copy_language_matrix())
    assert cli.main(["series", path, "--mode", mode, "--count", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --count must be >= 0\n"


@pytest.mark.parametrize("order", ["0", "-1"])
def test_series_max_order_below_one_is_precondition_error(tmp_path, capsys, order):
    # both printed "fit: no recurrence of order <= <order>" and exited 1
    path = _write(tmp_path, "copy.json", copy_language_matrix())
    assert cli.main(["series", path, "--max-order", order]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --max-order must be >= 1\n"


def test_unambiguous_etol_phi_collision_message(tmp_path, capsys):
    # semi-simple, but phi(0, 1) = phi(2, 0) = aa for the words (a, aa)
    spec = BoundedSpec((word("a"), word("aa")), "ginsburg",
                       q1=semilinear(linear((2, 0)), linear((0, 1))))
    path = _write(tmp_path, "spec.json", spec)
    assert cli.main(["convert", path, "--to", "unambiguous-etol"]) == 2
    out, err = capsys.readouterr()
    assert "oracle-equal" not in out
    assert err == "error: phi not injective on Q: ('a', 'a') from (0, 1) and (2, 0)\n"


def test_unambiguous_etol_rejects_components_meeting_outside_the_box(tmp_path, capsys):
    # the box scan passed this Q and the conversion printed PASS
    q = semilinear(linear((5, 5), (2, 2), (0, 1)), linear((2, 5), (1, 3)))
    path = _write(tmp_path, "spec.json", BoundedSpec((word("a"), word("b")), "ginsburg", q1=q))
    assert cli.main(["convert", path, "--to", "unambiguous-etol"]) == 2
    out, err = capsys.readouterr()
    assert "oracle-equal" not in out
    assert err == "error: Q is not semi-simple: components 0 and 1 meet at (5, 14)\n"


def test_decide_witness_in_both_languages_is_precondition_error(tmp_path, capsys):
    # (a^5, a^7) collide only at a^35, beyond the injectivity check length
    words = (word("aaaaa"), word("aaaaaaa"))
    left = _write(tmp_path, "left.json", BoundedSpec(words, "ginsburg", q1=semilinear(linear((7, 0)))))
    right = _write(tmp_path, "right.json", BoundedSpec(words, "ginsburg", q1=semilinear(linear((0, 5)))))
    assert cli.main(["decide", left, right, "--relation", "equal"]) == 2
    out, err = capsys.readouterr()
    assert "verdict" not in out
    assert err == ("error: injectivity assertion failed: witness %s has decompositions "
                   "(7, 0) in Q1 and (0, 5) in Q2\n" % ("a" * 35))


def test_decide_disjoint_needs_words_that_form_a_code(tmp_path, capsys):
    # both languages are {a^35}: "verdict: True" was false
    words = (word("aaaaa"), word("aaaaaaa"))
    left = _write(tmp_path, "left.json", BoundedSpec(words, "ginsburg", q1=semilinear(linear((7, 0)))))
    right = _write(tmp_path, "right.json", BoundedSpec(words, "ginsburg", q1=semilinear(linear((0, 5)))))
    assert cli.main(["decide", left, right, "--relation", "disjoint"]) == 2
    out, err = capsys.readouterr()
    assert "verdict" not in out
    assert err.startswith("error: phi-injectivity unknown")


def test_decide_phi_collision_message(tmp_path, capsys):
    spec = BoundedSpec((word("a"), word("a")), "ginsburg", q1=semilinear(linear((0, 0), (1, 1))))
    path = _write(tmp_path, "spec.json", spec)
    assert cli.main(["decide", path, path, "--relation", "equal"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: injectivity assertion failed: ('a',) has decompositions "
                   "(0, 1) and (1, 0)\n")


def test_regex_document_round_trip(tmp_path, capsys):
    text = cli.dump_document(RegexLanguage("(ab)*", Alphabet("ab")))
    assert cli.dump_document(cli.parse_document(text)) == text
    path = tmp_path / "r.json"
    path.write_text(text)
    assert cli.main(["enumerate", str(path), "--max-len", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["λ", "ab", "abab"]


def test_regex_multi_character_symbol_is_precondition_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    doc = {"kind": "regex", "pattern": "a(bc)*", "alphabet": ["a", "bc"]}
    path.write_text(json.dumps(doc))
    assert cli.main(["enumerate", str(path)]) == 2
    assert "single-character" in capsys.readouterr().err


@pytest.mark.parametrize("terminal", ["X@1a", "X@1"])
@pytest.mark.parametrize("to", ["matrix", "edtol"])
def test_convert_with_terminal_named_like_a_register(tmp_path, capsys, terminal, to):
    g = etol.EtolSystem(("X",), (terminal,), "X",
                        [{"X": [(terminal, "X"), ()]}, {"X": [(terminal, "X")]}],
                        reduced=True)
    path = _write(tmp_path, "x.json", g)
    rc = cli.main(["convert", path, "--to", to, "--index", "1", "--check-len", "5"])
    assert rc == 0
    assert "oracle-equal <= 5: PASS" in capsys.readouterr().out


# ------------------------------------------------------------ the public surface

@pytest.fixture
def docs(tmp_path):
    """Fixture documents by name, written to files."""
    objs = {
        "semi": semilinear(linear((1, 1), (1, 1)), linear((0, 2), (2, 0))),
        "anbn": BoundedSpec((word("a"), word("b")), "ginsburg",
                            q1=semilinear(linear((0, 0), (1, 1)))),
        "aba": fixtures.ABA_GINSBURG,
        "l3": fixtures.L3_SPEC,
        "copy": fixtures.copy_language_matrix(),
        "copy-etol": fixtures.copy_language_reduced_etol(),
        "abn": fixtures.abn_edol(),
    }
    return {name: _write(tmp_path, name + ".json", obj) for name, obj in objs.items()}


def _run(docs, argv, capsys):
    rc = cli.main([docs.get(a, a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


CONFIG = "config: max-len=10 steps=100000 check-len=%d to=%s"

# one fixture per --to target, with its full output: for most targets
# this is the only end-to-end test
CONVERT_PINS = [
    ("semi", "ncm", ["--letters", "a", "b", "--check-len", "6"],
     ["oracle-equal <= 6: PASS"]),
    ("semi", "etol", ["--letters", "a", "b", "--check-len", "6"],
     ["oracle-equal <= 6: PASS", "index audit: <= 2 over explored region"]),
    ("anbn", "dcm", ["--check-len", "8"],
     ["deterministic: True", "oracle-equal <= 8: PASS"]),
    ("aba", "unambiguous-etol", ["--check-len", "6"],
     ["oracle-equal <= 6: PASS", "tree count 1 on 2 words: PASS"]),
    ("copy", "reduced-etol", ["--index", "2", "--check-len", "7"],
     ["oracle-equal <= 7: PASS", "derivation counts preserved: PASS"]),
    ("copy", "normal-form", ["--index", "2", "--check-len", "7"],
     ["already normal: True", "oracle-equal <= 7: PASS"]),
    ("copy-etol", "edtol", ["--index", "2", "--check-len", "7"], ["oracle-equal <= 7: PASS"]),
    ("copy-etol", "matrix", ["--index", "2", "--check-len", "7"], ["oracle-equal <= 7: PASS"]),
    ("abn", "reduced", ["--check-len", "6"], ["oracle-equal <= 6: PASS"]),
    ("copy-etol", "plain", ["--check-len", "7"], ["oracle-equal <= 7: PASS"]),
    ("abn", "active-normal-form", ["--check-len", "6"], ["oracle-equal <= 6: PASS"]),
]


def test_convert_pins_cover_every_target():
    assert [to for _, to, _, _ in CONVERT_PINS] == list(cli._CONVERSIONS)


@pytest.mark.parametrize("name,to,extra,lines", CONVERT_PINS,
                         ids=[to for _, to, _, _ in CONVERT_PINS])
def test_convert_output_is_pinned(docs, capsys, name, to, extra, lines):
    check = int(extra[extra.index("--check-len") + 1])
    rc, out, err = _run(docs, ["convert", name, "--to", to] + extra, capsys)
    assert (rc, err) == (0, "")
    assert out.splitlines() == [CONFIG % (check, to)] + lines


def test_convert_out_writes_the_result_document(docs, capsys, tmp_path):
    path = str(tmp_path / "out.json")
    rc, out, _ = _run(docs, ["convert", "abn", "--to", "reduced", "--check-len", "6",
                             "--out", path], capsys)
    assert rc == 0
    assert out.splitlines()[-1] == "wrote %s" % path
    result = cli.load_object(path)
    assert isinstance(result, etol.EtolSystem) and result.reduced
    assert cli.dump_document(result) == (tmp_path / "out.json").read_text()


def _dump_dir_specs(tmp_path):
    words = (word("a"), word("b"))
    diag = semilinear(linear((0, 0), (1, 1)))
    upper = semilinear(linear((0, 0), (1, 1), (0, 1)))
    return (_write(tmp_path, "diag.json", BoundedSpec(words, "ginsburg", q1=diag)),
            _write(tmp_path, "upper.json", BoundedSpec(words, "ginsburg", q1=upper)))


def test_decide_dump_dir_writes_both_automata(tmp_path, capsys):
    # {a^n b^n} within {a^m b^n : m <= n}; the dumps are the minimal DFAs
    # of x = y and x <= y, least significant digit first
    left, right = _dump_dir_specs(tmp_path)
    rc, out, err = _run({}, ["decide", left, right, "--relation", "subset",
                             "--dump-dir", str(tmp_path)], capsys)
    assert (rc, err) == (0, "")
    paths = [str(tmp_path / ("%s-automaton.tsv" % side)) for side in ("left", "right")]
    assert out.splitlines()[-3:] == ["verdict: True"] + ["wrote %s" % p for p in paths]
    header = "tracks\t2\nstates\t2\ninitial\t0\naccepting\t0\n"
    assert (tmp_path / "left-automaton.tsv").read_text() == header + (
        "0\t00\t0\n0\t01\t1\n0\t10\t1\n0\t11\t0\n1\t00\t1\n1\t01\t1\n1\t10\t1\n1\t11\t1\n")
    assert (tmp_path / "right-automaton.tsv").read_text() == header + (
        "0\t00\t0\n0\t01\t0\n0\t10\t1\n0\t11\t0\n1\t00\t1\n1\t01\t0\n1\t10\t1\n1\t11\t1\n")


def _unwritable(tmp_path):
    return str(tmp_path / "missing" / "out")


def test_convert_out_unwritable_path_exits_2(docs, capsys, tmp_path):
    rc, out, err = _run(docs, ["convert", "abn", "--to", "reduced", "--check-len", "6",
                               "--out", _unwritable(tmp_path)], capsys)
    assert rc == 2
    assert "wrote" not in out
    assert err.startswith("error: cannot write %s: " % _unwritable(tmp_path))


def test_regularize_out_unwritable_path_exits_2(docs, capsys, tmp_path):
    rc, out, err = _run(docs, ["regularize", "abn", "--index", "1",
                               "--out", _unwritable(tmp_path)], capsys)
    assert rc == 2
    assert "wrote" not in out
    assert err.startswith("error: cannot write %s: " % _unwritable(tmp_path))


def test_decide_dump_dir_unwritable_path_exits_2(tmp_path, capsys):
    left, right = _dump_dir_specs(tmp_path)
    rc, out, err = _run({}, ["decide", left, right, "--relation", "subset",
                             "--dump-dir", _unwritable(tmp_path)], capsys)
    assert rc == 2
    assert "wrote" not in out
    assert err.startswith("error: cannot write %s/left-automaton.tsv: " % _unwritable(tmp_path))


def test_convert_rows_call_the_library_at_call_time(docs, capsys, monkeypatch):
    # a wrong construction must read as a failed check (exit 1); patching
    # the module attribute reaches the conversion table, as a tracer's does
    monkeypatch.setattr(etol, "to_reduced", lambda g: fixtures.copy_language_reduced_etol())
    rc, out, _ = _run(docs, ["convert", "abn", "--to", "reduced", "--check-len", "6"], capsys)
    assert rc == 1
    assert out.splitlines()[-1] == "oracle-equal <= 6: FAIL"


def test_commands_are_looked_up_at_call_time(docs, capsys, monkeypatch):
    # main builds its parser once; a wrapper installed on a command's name
    # afterwards, as a tracer's is, must still see the call
    assert _run(docs, ["enumerate", "copy", "--max-len", "3"], capsys)[0] == 0
    monkeypatch.setattr(cli, "cmd_enumerate", lambda args: 7)
    assert _run(docs, ["enumerate", "copy", "--max-len", "3"], capsys)[0] == 7


def test_construction_value_error_is_not_a_malformed_document(docs, monkeypatch):
    def broken(g):
        raise ValueError("bug inside a construction")
    monkeypatch.setattr(etol, "to_reduced", broken)
    with pytest.raises(ValueError, match="bug inside a construction"):
        cli.main(["convert", docs["abn"], "--to", "reduced"])


def test_active_normal_form_conversion_keeps_the_doubling_language(tmp_path, capsys):
    path = _write(tmp_path, "doubling.json", fixtures.doubling_edol())
    rc, out, err = _run({}, ["convert", path, "--to", "active-normal-form",
                             "--check-len", "17"], capsys)
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "oracle-equal <= 17: PASS"


def test_ambiguity_audit_applies_each_matrix_to_each_form_once(docs, tmp_path, capsys,
                                                             monkeypatch):
    # the enumeration and all per-word counts share one successor table,
    # and the d copies of a letter matrix are applied as one: only the
    # first of equal matrices is ever applied
    calls = Counter()
    apply = mx.matrix_applications

    def counted(g, s, mi):
        calls[tuple(s), mi] += 1
        return apply(g, s, mi)

    monkeypatch.setattr(mx, "matrix_applications", counted)
    for d, max_len, line in [
        (1, 9, "max derivation count 1 over 30 words (exact=True)"),
        (8, 7, "max derivation count 512 over 14 words (exact=True)"),
    ]:
        calls.clear()
        path = docs["copy"] if d == 1 else _write(tmp_path, "copy8.json", repeated_copy_matrix(d))
        rc, out, _ = _run(docs, ["audit", path, "--kind", "ambiguity", "--max-len",
                                 str(max_len)], capsys)
        assert rc == 0
        assert out.splitlines()[-1] == line
        assert calls and set(calls.values()) == {1}
        assert {mi for _, mi in calls} == {0, 1, 1 + d, 1 + 2 * d, 1 + 3 * d}


def test_plain_conversion_folds_no_dead_only_expansion(docs, capsys, monkeypatch):
    # from_reduced's plain system sends every stray symbol to a dead one;
    # an expansion that only reaches forms of infinite least yield is
    # work the readers throw away, so the table must never do one
    folds = []
    init = etol._Successors.__init__

    def counted_init(self, expand, *rest):
        def counted(s, r):
            succs = expand(s, r)
            folds.append(bool(succs) and all(self.info(u)[0] == etol.INF for u in succs))
            return succs
        init(self, counted, *rest)

    monkeypatch.setattr(etol._Successors, "__init__", counted_init)
    rc, out, _ = _run(docs, ["convert", "copy-etol", "--to", "plain", "--check-len", "9"],
                      capsys)
    assert rc == 0
    assert out.splitlines()[-1] == "oracle-equal <= 9: PASS"
    assert folds and not any(folds)


def test_convert_help_names_each_target_source_kind(capsys):
    with pytest.raises(SystemExit):
        cli.main(["convert", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for to, kind in [("ncm", "semilinear"), ("dcm", "bounded_spec"),
                     ("reduced-etol", "matrix_grammar"), ("active-normal-form", "etol")]:
        assert "%s (%s)" % (to, kind) in text


EXIT_CODES = [
    # enumerate
    (["enumerate", "copy", "--max-len", "5"], 0),
    (["--steps", "5", "enumerate", "copy", "--max-len", "9"], 3),
    (["--steps", "-1", "enumerate", "copy"], 2),
    # convert (exit 0 and 1: the pins and the call-time test above)
    (["convert", "copy", "--to", "ncm"], 2),
    (["convert", "semi", "--to", "ncm"], 2),
    (["convert", "aba", "--to", "dcm"], 2),
    (["--steps", "5", "convert", "copy", "--to", "normal-form", "--index", "2",
      "--check-len", "9"], 3),
    (["convert", "copy", "--to", "reduced-etol", "--check-len", "-1"], 2),
    # decide
    (["decide", "anbn", "anbn", "--relation", "subset"], 0),
    (["decide", "anbn", "anbn", "--relation", "disjoint"], 1),
    (["decide", "anbn", "copy", "--relation", "equal"], 2),
    (["decide", "anbn", "aba", "--relation", "equal"], 2),
    # series
    (["series", "copy", "--count", "40"], 0),
    (["series", "copy", "--count", "40", "--max-order", "0"], 2),
    (["series", "semi"], 2),
    # audit
    (["audit", "copy-etol", "--kind", "index"], 0),
    (["--steps", "5", "audit", "copy-etol", "--kind", "index"], 3),
    (["audit", "copy", "--kind", "ambiguity", "--max-len", "7"], 0),
    (["audit", "copy", "--kind", "normal-form"], 0),
    (["audit", "semi", "--kind", "semi-simple"], 1),
    (["audit", "copy", "--kind", "index"], 2),
    (["audit", "copy", "--kind", "semi-simple"], 2),
    (["--steps", "5", "audit", "copy", "--kind", "ambiguity", "--max-len", "9"], 3),
    # regularize
    (["regularize", "abn", "--index", "1"], 0),
    (["regularize", "abn", "--index", "1", "--verify-len", "-1"], 2),
    (["regularize", "copy"], 2),
    (["regularize", "semi"], 2),
]


@pytest.mark.parametrize("argv,code", EXIT_CODES, ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code(docs, capsys, argv, code):
    rc, _, err = _run(docs, argv, capsys)
    assert rc == code
    if code == 2:
        assert err.startswith("error: ")
    elif code == 3:
        assert "budget exhausted" in err


@pytest.mark.parametrize("text,reason", [
    ("not json", "malformed document"),
    ("[1, 2]", "malformed document"),
    ('{"kind": "word_list"}', "malformed word_list document"),
    ('{"kind": "etol", "v": ["S"], "sigma": ["a"], "axiom": "X", "tables": []}',
     "malformed etol document"),
    ('{"kind": "regex", "pattern": "(ab", "alphabet": ["a", "b"]}', "invalid regex"),
    ('{"kind": "grammar"}', "unknown object kind"),
])
def test_bad_document_is_precondition_error(tmp_path, capsys, text, reason):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["enumerate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


def test_missing_document_is_precondition_error(tmp_path, capsys):
    assert cli.main(["enumerate", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read document")


@pytest.mark.parametrize("name", ["aba", "l3"])
def test_ambiguity_audit_rejects_bounded_specs(docs, capsys, name):
    # ABA_GINSBURG crashed in the tree counter; L3_SPEC, with no word of
    # length <= 6, reported "max tree count 0" as if it were a grammar
    rc, out, err = _run(docs, ["audit", name, "--kind", "ambiguity", "--max-len", "6"], capsys)
    assert rc == 2
    assert "tree count" not in out
    assert err.startswith("error: ambiguity audit expects")


def test_enumerate_without_enumerator_is_precondition_error(docs, capsys):
    rc, _, err = _run(docs, ["enumerate", "semi"], capsys)
    assert rc == 2
    assert "no enumerator registered for 'SemilinearSet'" in err


@pytest.mark.parametrize("spec", [fixtures.ABA_PARIKH, fixtures.L3_SPEC],
                         ids=["parikh", "ginsburg-parikh"])
def test_unambiguous_etol_rejects_non_ginsburg_specs(tmp_path, capsys, spec):
    # the construction reads Q1 only: a parikh spec, with no Q1, died with
    # an AttributeError; a ginsburg-parikh spec lost its Q2 and read as
    # "oracle-equal: FAIL"
    path = _write(tmp_path, "spec.json", spec)
    assert cli.main(["convert", path, "--to", "unambiguous-etol"]) == 2
    out, err = capsys.readouterr()
    assert "oracle-equal" not in out
    assert err == "error: unambiguous-etol expects a ginsburg spec, got %s\n" % spec.kind


# ------------------------------------------------------------ round trip

LETTERS = "abc"
_words = st.lists(st.sampled_from(LETTERS), max_size=4).map(tuple)
_nonempty_words = st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3).map(tuple)


def _semilinear_sets(dim):
    vec = st.lists(st.integers(0, 5), min_size=dim, max_size=dim)
    lin = st.builds(LinearSet, vec, st.lists(vec.filter(any), max_size=3))
    return st.lists(lin, min_size=1, max_size=3).map(SemilinearSet)


@st.composite
def _bounded_specs(draw):
    words = draw(st.lists(_nonempty_words, min_size=1, max_size=3))
    kind = draw(st.sampled_from(KINDS))
    symbols = sorted({s for w in words for s in w} | draw(st.sets(st.sampled_from(LETTERS))))
    q1 = draw(_semilinear_sets(len(words))) if kind != "parikh" else None
    q2 = draw(_semilinear_sets(len(symbols))) if kind != "ginsburg" else None
    return BoundedSpec(words, kind, q1=q1, q2=q2, alphabet=Alphabet(symbols))


@st.composite
def _counter_machines(draw):
    k = draw(st.integers(1, 2))
    states = ["q%d" % i for i in range(draw(st.integers(1, 3)))]
    state = st.sampled_from(states)
    transitions = {}
    for _ in range(draw(st.integers(0, 5))):
        pat = tuple(draw(st.integers(0, 1)) for _ in range(k))
        key = (draw(state), draw(st.sampled_from([None, "a", "b", counter.END])), pat)
        moves = tuple(draw(st.integers(-z, 1)) for z in pat)
        transitions.setdefault(key, []).append((draw(state), moves))
    return counter.CounterMachine(k, states, draw(state), draw(st.sets(state)),
                                  Alphabet("ab"), transitions, draw(st.integers(0, 3)))


@st.composite
def _etol_systems(draw):
    reduced = draw(st.booleans())
    sigma = ["a", "b"]
    v = ["S", "X"] if reduced else ["S", "X", "a", "b"]
    rhs = st.lists(st.sampled_from(sorted(set(v + sigma))), max_size=3)
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(st.sets(st.sampled_from(v))) if reduced else v
        tables.append({x: draw(st.lists(rhs, min_size=1, max_size=2)) for x in lhs})
    return etol.EtolSystem(v, sigma, "S", tables, reduced=reduced)


@st.composite
def _matrix_grammars(draw):
    n, t = ["S", "A", "B"], ["a", "b"]
    prod = st.tuples(st.sampled_from(n), st.lists(st.sampled_from(n + t), max_size=3))
    mats = draw(st.lists(st.lists(prod, min_size=1, max_size=2), min_size=1, max_size=4))
    return mx.MatrixGrammar(n, t, "S", mats)


_patterns = st.recursive(
    st.sampled_from(LETTERS),
    lambda r: st.one_of(
        st.tuples(r, r).map("".join),
        st.tuples(r, r).map("(%s|%s)".__mod__),
        r.map("(%s)*".__mod__),
    ),
    max_leaves=6,
)

DOCUMENTS = {
    "semilinear": st.integers(1, 3).flatmap(_semilinear_sets),
    "bounded_spec": _bounded_specs(),
    "counter_machine": _counter_machines(),
    "etol": _etol_systems(),
    "matrix_grammar": _matrix_grammars(),
    "word_list": st.lists(_words, max_size=5).map(FiniteLanguage),
    "regex": st.builds(RegexLanguage, _patterns, st.just(Alphabet(LETTERS))),
}


@pytest.mark.parametrize("kind", list(DOCUMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_document_round_trip(kind, data):
    text = cli.dump_document(data.draw(DOCUMENTS[kind]))
    assert json.loads(text)["kind"] == kind
    assert cli.dump_document(cli.parse_document(text)) == text
