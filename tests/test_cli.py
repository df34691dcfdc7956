"""The command-line front end: exit codes of `convert`, `series` and
`enumerate`, and the document round trip."""

import json

import pytest

from workbench import cli
from workbench import etol
from workbench import matrix as mx
from workbench.fixtures import copy_language_matrix
from workbench.foundation import Alphabet, RegexLanguage


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
