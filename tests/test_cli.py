"""The command-line front end: exit codes of `convert` and `series`."""

from workbench import cli
from workbench import matrix as mx
from workbench.fixtures import copy_language_matrix


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
