"""Command-line front end and the JSON object-description format.

Every object lives in one JSON document with a top-level "kind":

* ``semilinear``       components as {"constant": [...], "periods": [[...], ...]}
* ``bounded_spec``     words, bound_kind, q1/q2 sub-documents, alphabet
* ``counter_machine``  transitions as 5-field records
                       [state, symbol, zero_pattern, target, moves]
                       with "" for λ-moves and "<end>" for the end-marker
* ``etol``             v, sigma, axiom, reduced, tables as {symbol: [rhs...]}
* ``matrix_grammar``   matrices as arrays of {"lhs": ..., "rhs": [...]}
* ``word_list``        plain finite language
* ``regex``            pattern plus alphabet

Words serialize as lists of symbol strings; plain strings are accepted
on input and split into single-character symbols.  `dump_document`
produces the canonical byte form (sorted keys, two-space indent), so
parse-then-serialize is the identity on canonical files.

Exit codes: 0 success / verdict true, 1 verdict false, 2 precondition
error (a malformed or unreadable document included), 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .foundation import (
    Alphabet,
    Budget,
    BudgetExhausted,
    FiniteLanguage,
    PreconditionError,
    RegexLanguage,
    enumerate_language,
    parikh,
    show_word,
    _words_up_to,
)
from .semilinear import (
    BoundedSpec,
    LinearSet,
    SemilinearSet,
    member,
    validate_semi_simple,
)
from . import commutative, counter, etol, matrix as mx, series, vecautomata


# ---------------------------------------------------------------- formats

def _semilinear_to_doc(q):
    return {
        "components": [
            {"constant": list(c.constant), "periods": [list(p) for p in c.periods]}
            for c in q.components
        ],
    }


def _semilinear_from_doc(doc):
    return SemilinearSet(
        [LinearSet(c["constant"], c.get("periods", ())) for c in doc["components"]]
    )


def _bounded_spec_to_doc(s):
    return {
        "words": [list(w) for w in s.words],
        "bound_kind": s.kind,
        "q1": object_to_doc(s.q1) if s.q1 else None,
        "q2": object_to_doc(s.q2) if s.q2 else None,
        "alphabet": list(s.alphabet.symbols),
    }


def _bounded_spec_from_doc(doc):
    return BoundedSpec(
        [tuple(w) for w in doc["words"]],
        doc["bound_kind"],
        q1=_semilinear_from_doc(doc["q1"]) if doc.get("q1") else None,
        q2=_semilinear_from_doc(doc["q2"]) if doc.get("q2") else None,
        alphabet=Alphabet(doc["alphabet"]) if doc.get("alphabet") else None,
    )


def _machine_to_doc(m):
    records = []
    names = {q: str(q) for q in m.states}
    for (q, sym, pat), targets in sorted(m.transitions.items(), key=repr):
        for (p, moves) in targets:
            records.append(
                [
                    names[q],
                    "" if sym is None else ("<end>" if sym == counter.END else sym),
                    "".join(map(str, pat)),
                    names[p],
                    list(moves),
                ]
            )
    return {
        "counters": m.k,
        "states": sorted(names.values()),
        "initial": names[m.initial],
        "accepting": sorted(names[q] for q in m.accepting),
        "alphabet": list(m.alphabet.symbols),
        "reversal_bound": m.reversal_bound,
        "transitions": sorted(records),
    }


def _machine_from_doc(doc):
    trans = {}
    for q, sym, pat, p, moves in doc["transitions"]:
        key = (
            q,
            None if sym == "" else (counter.END if sym == "<end>" else sym),
            tuple(int(c) for c in pat),
        )
        trans.setdefault(key, []).append((p, tuple(moves)))
    trans = {k: tuple(v) for k, v in trans.items()}
    return counter.CounterMachine(
        doc["counters"],
        doc["states"],
        doc["initial"],
        set(doc["accepting"]),
        Alphabet(doc["alphabet"]),
        trans,
        doc.get("reversal_bound", 1),
    )


def _etol_to_doc(g):
    return {
        "v": list(g.v),
        "sigma": list(g.sigma),
        "axiom": g.axiom,
        "reduced": g.reduced,
        "tables": [
            {x: [list(r) for r in rhss] for x, rhss in sorted(t.items())}
            for t in g.tables
        ],
    }


def _etol_from_doc(doc):
    tables = [
        {x: [tuple(r) for r in rhss] for x, rhss in t.items()}
        for t in doc["tables"]
    ]
    return etol.EtolSystem(
        doc["v"], doc["sigma"], doc["axiom"], tables, reduced=doc.get("reduced", False)
    )


def _matrix_to_doc(g):
    return {
        "nonterminals": list(g.nonterminals),
        "terminals": list(g.terminals),
        "start": g.start,
        "matrices": [
            [{"lhs": lhs, "rhs": list(rhs)} for lhs, rhs in m] for m in g.matrices
        ],
    }


def _matrix_from_doc(doc):
    return mx.MatrixGrammar(
        doc["nonterminals"],
        doc["terminals"],
        doc["start"],
        [[(p["lhs"], tuple(p["rhs"])) for p in m] for m in doc["matrices"]],
    )


class _Codec(NamedTuple):
    cls: type
    to_doc: Callable      # object -> its fields, without "kind"
    from_doc: Callable    # the whole document -> object


_CODECS = {
    "semilinear": _Codec(SemilinearSet, _semilinear_to_doc, _semilinear_from_doc),
    "bounded_spec": _Codec(BoundedSpec, _bounded_spec_to_doc, _bounded_spec_from_doc),
    "counter_machine": _Codec(counter.CounterMachine, _machine_to_doc, _machine_from_doc),
    "etol": _Codec(etol.EtolSystem, _etol_to_doc, _etol_from_doc),
    "matrix_grammar": _Codec(mx.MatrixGrammar, _matrix_to_doc, _matrix_from_doc),
    "word_list": _Codec(FiniteLanguage, lambda lang: {"words": [list(w) for w in lang.words]},
                        lambda doc: FiniteLanguage([tuple(w) for w in doc["words"]])),
    "regex": _Codec(RegexLanguage,
                    lambda r: {"pattern": r.pattern, "alphabet": list(r.alphabet.symbols)},
                    lambda doc: RegexLanguage(doc["pattern"], Alphabet(doc["alphabet"]))),
}
_KIND_OF = {c.cls: kind for kind, c in _CODECS.items()}


def parse_document(text):
    """The object a document describes.  PreconditionError if the text is
    not a JSON object, names no known kind or does not fit its kind."""
    what = "document"
    try:
        doc = json.loads(text)
        kind = doc.get("kind")
        if kind not in _CODECS:
            raise PreconditionError("unknown object kind %r" % (kind,))
        what = "%s document" % kind
        return _CODECS[kind].from_doc(doc)
    except PreconditionError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise PreconditionError("malformed %s: %s: %s" % (what, type(e).__name__, e)) from None


def object_to_doc(obj):
    kind = _KIND_OF.get(type(obj))
    if kind is None:
        raise PreconditionError("cannot serialize %r" % (type(obj).__name__,))
    return {"kind": kind, **_CODECS[kind].to_doc(obj)}


def dump_document(obj):
    return json.dumps(object_to_doc(obj), indent=2, sort_keys=True) + "\n"


def _write_output(path, text):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise PreconditionError("cannot write %s: %s" % (path, e.strerror or e)) from None
    print("wrote %s" % path)


def load_object(path):
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise PreconditionError("cannot read document: %s" % e) from None
    return parse_document(text)


# ---------------------------------------------------------------- commands

def _budget(args):
    return Budget(max_steps=args.steps)


def _config_line(args, extra=()):
    fields = ["max-len=%d" % args.max_len, "steps=%d" % args.steps]
    fields.extend(extra)
    return "config: " + " ".join(fields)


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def cmd_enumerate(args):
    spec = load_object(args.object)
    enum = enumerate_language(spec, args.max_len, _budget(args))
    print(_config_line(args))
    for w in enum.words:
        print(show_word(w))
    if not enum.complete:
        print("warning: enumeration incomplete (budget exhausted)", file=sys.stderr)
        return 3
    return 0


# The derivation counter of each grammar type, and the noun its counts
# go by.  Every table here reaches the library through module attributes
# at call time, so a wrapper installed on a module name sees each call.
_COUNTS = {
    mx.MatrixGrammar: ("derivation", lambda g, w: mx.count_derivations(g, w)),
    etol.EtolSystem: ("tree", lambda g, w: etol.count_trees(g, w)),
}


def _count(g, w):
    return _COUNTS[type(g)][1](g, w)


def _letters(args):
    if not args.letters:
        raise PreconditionError("--letters required for semilinear conversions")
    return args.letters


def _parikh_words(q, args):
    """The words over --letters up to --check-len whose Parikh vector is in q."""
    alph = Alphabet(args.letters)
    words = _words_up_to(alph, args.check_len)
    return FiniteLanguage([w for w in words if member(q, parikh(w, alph))])


def _dcm(s, args):
    m = counter.dcm_for_bounded(s)
    return m, ["deterministic: %s" % counter.is_deterministic(m)]


def _unambiguous_etol(s, args):
    # the construction reads only the words and Q1: a parikh spec has no
    # Q1, and the Q2 of a ginsburg-parikh spec would be dropped
    if s.kind != "ginsburg":
        raise PreconditionError("unambiguous-etol expects a ginsburg spec, got %s" % s.kind)
    return etol.unambiguous_bounded_etol(s.words, s.q1), []


def _normal_form(g, args):
    out, cert = mx.normal_form(g, args.index)
    return out, ["already normal: %s" % cert.already_normal]


def _index_audit(q, g, args, budget):
    audit = etol.index_audit(g, args.check_len, budget)
    return ["index audit: <= %s over explored region" % audit.grammar_index], True


def _one_tree_per_word(s, g, args, budget):
    counts = [_count(g, w) for w in enumerate_language(g, args.check_len, budget).words]
    ok = all(c.exact and c.value == 1 for c in counts)
    return ["tree count 1 on %d words: %s" % (len(counts), _verdict(ok))], ok


def _counts_preserved(g, out, args, budget):
    ok = True
    for w in enumerate_language(g, args.check_len, budget).words:
        a, b = _count(g, w), _count(out, w)
        if not (a.exact and b.exact):
            raise BudgetExhausted("derivation count of %s hit its cap" % show_word(w))
        ok = ok and a.value == b.value
    return ["derivation counts preserved: %s" % _verdict(ok)], ok


class _Conversion(NamedTuple):
    source: type          # the one object type the target reads
    build: Callable       # (obj, args) -> (result, lines printed before the oracle line)
    reference: Callable = lambda obj, args: obj     # what the result must equal
    check: Callable = lambda obj, out, args, budget: ([], True)   # -> (lines, ok)


_CONVERSIONS = {
    "ncm": _Conversion(
        SemilinearSet, lambda q, a: (counter.from_semilinear(q, Alphabet(_letters(a))), []),
        _parikh_words),
    "etol": _Conversion(
        SemilinearSet, lambda q, a: (etol.semilinear_to_etol(q, tuple(_letters(a))), []),
        lambda q, a: BoundedSpec([(l,) for l in a.letters], "ginsburg", q1=q), _index_audit),
    "dcm": _Conversion(BoundedSpec, _dcm),
    "unambiguous-etol": _Conversion(BoundedSpec, _unambiguous_etol, check=_one_tree_per_word),
    "reduced-etol": _Conversion(
        mx.MatrixGrammar, lambda g, a: (mx.matrix_to_reduced_etol(g, a.index), []),
        check=_counts_preserved),
    "normal-form": _Conversion(mx.MatrixGrammar, _normal_form),
    "edtol": _Conversion(
        etol.EtolSystem, lambda g, a: (mx.reduced_etol_to_edtol(g, a.index), [])),
    "matrix": _Conversion(
        etol.EtolSystem, lambda g, a: (mx.reduced_etol_to_matrix(g, a.index), [])),
    "reduced": _Conversion(etol.EtolSystem, lambda g, a: (etol.to_reduced(g), [])),
    "plain": _Conversion(etol.EtolSystem, lambda g, a: (etol.from_reduced(g), [])),
    "active-normal-form": _Conversion(
        etol.EtolSystem, lambda g, a: (etol.active_normal_form(g), [])),
}


def cmd_convert(args):
    obj = load_object(args.object)
    row = _CONVERSIONS[args.to]
    if not isinstance(obj, row.source):
        raise PreconditionError("unsupported conversion: %s -> %s" % (type(obj).__name__, args.to))
    budget, check = _budget(args), args.check_len
    out, report = row.build(obj, args)
    same = (enumerate_language(out, check, budget).require_complete().words
            == enumerate_language(row.reference(obj, args), check, budget).require_complete().words)
    lines, passed = row.check(obj, out, args, budget)
    report += ["oracle-equal <= %d: %s" % (check, _verdict(same))] + lines
    print(_config_line(args, ["check-len=%d" % check, "to=%s" % args.to]))
    print("\n".join(report))
    if args.out:
        _write_output(args.out, dump_document(out))
    return 0 if same and passed else 1


def cmd_decide(args):
    s1 = load_object(args.left)
    s2 = load_object(args.right)
    if not isinstance(s1, BoundedSpec) or not isinstance(s2, BoundedSpec):
        raise PreconditionError("decide expects two bounded_spec objects")
    verdict = counter.decide_bounded(s1, s2, args.relation)
    print(_config_line(args, ["relation=%s" % args.relation]))
    print("verdict: %s" % verdict.holds)
    if verdict.notes:
        print(verdict.notes)
    if verdict.witness is not None:
        print("witness: %s" % show_word(verdict.witness))
    if args.dump_dir:
        for name, spec in (("left", s1), ("right", s2)):
            _write_output(os.path.join(args.dump_dir, "%s-automaton.tsv" % name),
                         vecautomata.dump_tsv(vecautomata.from_semilinear_set(spec.q1)))
    return 0 if verdict.holds else 1


def cmd_series(args):
    obj = load_object(args.object)
    if not isinstance(obj, mx.MatrixGrammar):
        raise PreconditionError("series expects a matrix_grammar object")
    grammar, cert = mx.normal_form(obj, args.index)
    note = ("grammar already in normal form" if cert.already_normal
            else "normal form auto-invoked (already_normal=False)")
    print(_config_line(args, ["count=%d" % args.count, "mode=%s" % args.mode]))
    print(note)
    if args.mode == "length":
        table = series.counting_coefficients(grammar, args.count, k=args.index + 2)
        for n in range(args.count + 1):
            print("%d %s" % (n, table[n]))
        seq = [table[n] for n in range(args.count + 1)]
        nonzero = [i for i, c in enumerate(seq) if c]
        stride = 1
        if len(nonzero) >= 2:
            gaps = {b - a for a, b in zip(nonzero, nonzero[1:])}
            if len(gaps) == 1:
                stride = gaps.pop()
        sub = seq[nonzero[0]::stride] if nonzero else seq
        if series.INFINITE in sub:
            print("fit: skipped (infinite coefficients)")
        else:
            fit = series.fit_recurrence(sub, args.max_order)
            if fit is None:
                print("fit: no recurrence of order <= %d" % args.max_order)
                return 1
            print("fit: %s (on the stride-%d nonzero subsequence)" % (fit, stride))
    else:
        table = series.parikh_multiplicities(grammar, args.count, k=args.index + 2)
        for v in sorted(table.entries, key=lambda v: (sum(v), v)):
            print("%s %s" % (",".join(map(str, v)), table.entries[v]))
    return 0


def cmd_audit(args):
    obj = load_object(args.object)
    print(_config_line(args, ["kind=%s" % args.kind]))
    if args.kind == "index":
        if not isinstance(obj, etol.EtolSystem):
            raise PreconditionError("index audit expects an etol object")
        audit = etol.index_audit(obj, args.max_len, _budget(args))
        print(
            "index <= %s over explored region (complete=%s, %d words)"
            % (audit.grammar_index, audit.complete, len(audit.per_word))
        )
        return 0
    if args.kind == "ambiguity":
        if type(obj) not in _COUNTS:
            raise PreconditionError("ambiguity audit expects a matrix_grammar or etol object")
        enum = enumerate_language(obj, args.max_len, _budget(args)).require_complete()
        counts = [_count(obj, w) for w in enum.words]
        print(
            "max %s count %d over %d words (exact=%s)"
            % (_COUNTS[type(obj)][0], max((c.value for c in counts), default=0),
               len(counts), all(c.exact for c in counts))
        )
        return 0
    if args.kind == "normal-form":
        if not isinstance(obj, mx.MatrixGrammar):
            raise PreconditionError("normal-form audit expects a matrix_grammar")
        try:
            mx.szilard_dfa(obj, args.index)
            print("normal form holds over the explored profiles")
            return 0
        except PreconditionError as e:
            print("violation: %s" % e)
            return 1
    if args.kind == "semi-simple":
        if not isinstance(obj, SemilinearSet):
            raise PreconditionError("semi-simple audit expects a semilinear set")
        rep = validate_semi_simple(obj, args.box)
        print(rep)
        return 0 if rep.validated else 1
    raise PreconditionError("unknown audit kind %r" % (args.kind,))


def cmd_regularize(args):
    obj = load_object(args.object)
    if isinstance(obj, mx.MatrixGrammar):
        wit = commutative.regularize_matrix(
            obj, args.index, audit_len=args.audit_len, verify_len=args.verify_len
        )
    elif isinstance(obj, etol.EtolSystem) and obj.reduced:
        wit = commutative.regularize_etol(
            obj, args.index, audit_len=args.audit_len, verify_len=args.verify_len
        )
    elif isinstance(obj, etol.EtolSystem):
        wit = commutative.edol_regularize(
            obj, args.index, audit_len=args.audit_len, verify_len=args.verify_len
        )
    else:
        raise PreconditionError("regularize expects a grammar or system object")
    print(_config_line(args, ["verify-len=%d" % args.verify_len]))
    print("construction: %s" % wit.provenance["construction"])
    print("verified Parikh multisets to length %d" % wit.provenance["verified_len"])
    if args.out:
        _write_output(args.out, wit.dump_tsv())
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="workbench",
        description="formal-language workbench: convert, decide, enumerate, series, audit, regularize",
    )
    p.add_argument("--steps", type=int, default=100_000, help="search budget")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, max_len=10):
        sp.add_argument("--max-len", type=int, default=max_len)

    sp = sub.add_parser("enumerate", help="list L(obj) up to a length bound")
    sp.add_argument("object")
    common(sp)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("convert", help="run a construction and cross-check it")
    sp.add_argument("object")
    sp.add_argument(
        "--to",
        required=True,
        choices=list(_CONVERSIONS),
        help="the construction; each reads one document kind: "
        + ", ".join("%s (%s)" % (to, _KIND_OF[row.source]) for to, row in _CONVERSIONS.items()),
    )
    sp.add_argument("--out")
    sp.add_argument("--check-len", type=int, default=10)
    sp.add_argument("--index", type=int, default=4)
    sp.add_argument("--letters", nargs="*", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_convert)

    sp = sub.add_parser("decide", help="equal/subset/disjoint on bounded specs")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--relation", required=True, choices=["equal", "subset", "disjoint"])
    sp.add_argument("--dump-dir", default=None, help="write vector-automata TSV dumps")
    common(sp, max_len=30)
    sp.set_defaults(fn=cmd_decide)

    sp = sub.add_parser("series", help="counting table plus recurrence fit")
    sp.add_argument("object")
    sp.add_argument("--count", type=int, default=12)
    sp.add_argument("--mode", choices=["length", "parikh"], default="length")
    sp.add_argument("--max-order", type=int, default=6)
    sp.add_argument("--index", type=int, default=4)
    common(sp)
    sp.set_defaults(fn=cmd_series)

    sp = sub.add_parser("audit", help="bounded-evidence reports")
    sp.add_argument("object")
    sp.add_argument(
        "--kind", required=True, choices=["index", "ambiguity", "normal-form", "semi-simple"]
    )
    sp.add_argument("--index", type=int, default=4)
    sp.add_argument("--box", type=int, default=8)
    common(sp, max_len=8)
    sp.set_defaults(fn=cmd_audit)

    sp = sub.add_parser("regularize", help="commutative-regularity witness")
    sp.add_argument("object")
    sp.add_argument("--index", type=int, default=2)
    sp.add_argument("--audit-len", type=int, default=8)
    sp.add_argument("--verify-len", type=int, default=12)
    sp.add_argument("--out")
    common(sp)
    sp.set_defaults(fn=cmd_regularize)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for name in ("max_len", "check_len", "count", "audit_len", "verify_len"):
            if getattr(args, name, 0) < 0:
                raise PreconditionError("--%s must be >= 0" % name.replace("_", "-"))
        if getattr(args, "max_order", 1) < 1:
            raise PreconditionError("--max-order must be >= 1")
        return args.fn(args)
    except PreconditionError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except BudgetExhausted as e:
        print("budget exhausted: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
