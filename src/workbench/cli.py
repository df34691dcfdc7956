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
error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    sort_words,
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

def _word_out(w):
    return list(w)


def semilinear_to_doc(q):
    return {
        "kind": "semilinear",
        "components": [
            {"constant": list(c.constant), "periods": [list(p) for p in c.periods]}
            for c in q.components
        ],
    }


def semilinear_from_doc(doc):
    return SemilinearSet(
        [LinearSet(c["constant"], c.get("periods", ())) for c in doc["components"]]
    )


def bounded_spec_to_doc(s):
    return {
        "kind": "bounded_spec",
        "words": [_word_out(w) for w in s.words],
        "bound_kind": s.kind,
        "q1": semilinear_to_doc(s.q1) if s.q1 else None,
        "q2": semilinear_to_doc(s.q2) if s.q2 else None,
        "alphabet": list(s.alphabet.symbols),
    }


def bounded_spec_from_doc(doc):
    return BoundedSpec(
        [tuple(w) for w in doc["words"]],
        doc["bound_kind"],
        q1=semilinear_from_doc(doc["q1"]) if doc.get("q1") else None,
        q2=semilinear_from_doc(doc["q2"]) if doc.get("q2") else None,
        alphabet=Alphabet(doc["alphabet"]) if doc.get("alphabet") else None,
    )


def machine_to_doc(m):
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
        "kind": "counter_machine",
        "counters": m.k,
        "states": sorted(names.values()),
        "initial": names[m.initial],
        "accepting": sorted(names[q] for q in m.accepting),
        "alphabet": list(m.alphabet.symbols),
        "reversal_bound": m.reversal_bound,
        "transitions": sorted(records),
    }


def machine_from_doc(doc):
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


def etol_to_doc(g):
    return {
        "kind": "etol",
        "v": list(g.v),
        "sigma": list(g.sigma),
        "axiom": g.axiom,
        "reduced": g.reduced,
        "tables": [
            {x: [_word_out(r) for r in rhss] for x, rhss in sorted(t.items())}
            for t in g.tables
        ],
    }


def etol_from_doc(doc):
    tables = [
        {x: [tuple(r) for r in rhss] for x, rhss in t.items()}
        for t in doc["tables"]
    ]
    return etol.EtolSystem(
        doc["v"], doc["sigma"], doc["axiom"], tables, reduced=doc.get("reduced", False)
    )


def matrix_to_doc(g):
    return {
        "kind": "matrix_grammar",
        "nonterminals": list(g.nonterminals),
        "terminals": list(g.terminals),
        "start": g.start,
        "matrices": [
            [{"lhs": lhs, "rhs": _word_out(rhs)} for lhs, rhs in m] for m in g.matrices
        ],
    }


def matrix_from_doc(doc):
    return mx.MatrixGrammar(
        doc["nonterminals"],
        doc["terminals"],
        doc["start"],
        [[(p["lhs"], tuple(p["rhs"])) for p in m] for m in doc["matrices"]],
    )


def word_list_from_doc(doc):
    return FiniteLanguage([tuple(w) for w in doc["words"]])


def word_list_to_doc(lang):
    return {"kind": "word_list", "words": [_word_out(w) for w in lang.words]}


def regex_from_doc(doc):
    return RegexLanguage(doc["pattern"], Alphabet(doc["alphabet"]))


def regex_to_doc(r):
    return {"kind": "regex", "pattern": r.pattern, "alphabet": list(r.alphabet.symbols)}


_FROM_DOC = {
    "semilinear": semilinear_from_doc,
    "bounded_spec": bounded_spec_from_doc,
    "counter_machine": machine_from_doc,
    "etol": etol_from_doc,
    "matrix_grammar": matrix_from_doc,
    "word_list": word_list_from_doc,
    "regex": regex_from_doc,
}


def parse_document(text):
    doc = json.loads(text)
    kind = doc.get("kind")
    if kind not in _FROM_DOC:
        raise PreconditionError("unknown object kind %r" % (kind,))
    return _FROM_DOC[kind](doc)


def object_to_doc(obj):
    if isinstance(obj, SemilinearSet):
        return semilinear_to_doc(obj)
    if isinstance(obj, BoundedSpec):
        return bounded_spec_to_doc(obj)
    if isinstance(obj, counter.CounterMachine):
        return machine_to_doc(obj)
    if isinstance(obj, etol.EtolSystem):
        return etol_to_doc(obj)
    if isinstance(obj, mx.MatrixGrammar):
        return matrix_to_doc(obj)
    if isinstance(obj, FiniteLanguage):
        return word_list_to_doc(obj)
    if isinstance(obj, RegexLanguage):
        return regex_to_doc(obj)
    raise PreconditionError("cannot serialize %r" % (type(obj).__name__,))


def dump_document(obj):
    return json.dumps(object_to_doc(obj), indent=2, sort_keys=True) + "\n"


def load_object(path):
    with open(path) as f:
        return parse_document(f.read())


# ---------------------------------------------------------------- commands

def _budget(args):
    return Budget(max_steps=args.steps)


def _config_line(args, extra=()):
    fields = ["max-len=%d" % args.max_len, "steps=%d" % args.steps]
    fields.extend(extra)
    return "config: " + " ".join(fields)


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


def _write_artifact(obj, path):
    with open(path, "w") as f:
        f.write(dump_document(obj))
    print("wrote %s" % path)


def _oracle_equal(a, b, max_len, budget):
    ea = enumerate_language(a, max_len, budget).require_complete()
    eb = enumerate_language(b, max_len, budget).require_complete()
    return ea.words == eb.words


def cmd_convert(args):
    obj = load_object(args.object)
    budget = _budget(args)
    check = args.check_len
    report = []

    if isinstance(obj, SemilinearSet) and args.to == "ncm":
        if not args.letters:
            raise PreconditionError("--letters required for semilinear conversions")
        alph = Alphabet(args.letters)
        out = counter.from_semilinear(obj, alph)
        got = enumerate_language(out, check, budget).require_complete().as_set()
        expect = set()
        frontier = [()]
        for _ in range(check + 1):
            nxt = []
            for w in frontier:
                if member(obj, parikh(w, alph)):
                    expect.add(w)
                if len(w) < check:
                    nxt.extend(w + (a,) for a in alph)
            frontier = nxt
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if got == expect else "FAIL"))
        ok = got == expect
    elif isinstance(obj, SemilinearSet) and args.to == "etol":
        if not args.letters:
            raise PreconditionError("--letters required for semilinear conversions")
        out = etol.semilinear_to_etol(obj, tuple(args.letters))
        spec = BoundedSpec(
            tuple((l,) for l in args.letters), "ginsburg", q1=obj
        )
        ok = _oracle_equal(out, spec, check, budget)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
        audit = etol.index_audit(out, check, budget)
        report.append("index audit: <= %s over explored region" % audit.grammar_index)
    elif isinstance(obj, BoundedSpec) and args.to == "dcm":
        out = counter.dcm_for_bounded(obj)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("deterministic: %s" % counter.is_deterministic(out))
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
    elif isinstance(obj, BoundedSpec) and args.to == "unambiguous-etol":
        out = etol.unambiguous_bounded_etol(obj.words, obj.q1)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
        counts = [
            etol.count_trees(out, w)
            for w in enumerate_language(out, check, budget).words
        ]
        all_one = all(c.exact and c.value == 1 for c in counts)
        report.append("tree count 1 on %d words: %s" % (len(counts), "PASS" if all_one else "FAIL"))
        ok = ok and all_one
    elif isinstance(obj, mx.MatrixGrammar) and args.to == "reduced-etol":
        out = mx.matrix_to_reduced_etol(obj, args.index)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
        same = True
        for w in enumerate_language(obj, check, budget).words:
            a = mx.count_derivations(obj, w)
            b = etol.count_trees(out, w)
            if not (a.exact and b.exact):
                raise BudgetExhausted("derivation count of %s hit its cap" % show_word(w))
            same = same and a.value == b.value
        report.append("derivation counts preserved: %s" % ("PASS" if same else "FAIL"))
        ok = ok and same
    elif isinstance(obj, mx.MatrixGrammar) and args.to == "normal-form":
        out, cert = mx.normal_form(obj, args.index)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("already normal: %s" % cert.already_normal)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
    elif isinstance(obj, etol.EtolSystem) and args.to == "edtol":
        out = mx.reduced_etol_to_edtol(obj, args.index)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
    elif isinstance(obj, etol.EtolSystem) and args.to == "matrix":
        out = mx.reduced_etol_to_matrix(obj, args.index)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
    elif isinstance(obj, etol.EtolSystem) and args.to == "reduced":
        out = etol.to_reduced(obj)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
    elif isinstance(obj, etol.EtolSystem) and args.to == "plain":
        out = etol.from_reduced(obj)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
    elif isinstance(obj, etol.EtolSystem) and args.to == "active-normal-form":
        out = etol.active_normal_form(obj)
        ok = _oracle_equal(out, obj, check, budget)
        report.append("oracle-equal <= %d: %s" % (check, "PASS" if ok else "FAIL"))
    else:
        raise PreconditionError(
            "unsupported conversion: %s -> %s" % (type(obj).__name__, args.to)
        )

    print(_config_line(args, ["check-len=%d" % check, "to=%s" % args.to]))
    for line in report:
        print(line)
    if args.out:
        _write_artifact(out, args.out)
    return 0 if ok else 1


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
        import os

        for name, spec in (("left", s1), ("right", s2)):
            dfa = vecautomata.from_semilinear_set(spec.q1)
            path = os.path.join(args.dump_dir, "%s-automaton.tsv" % name)
            with open(path, "w") as f:
                f.write(vecautomata.dump_tsv(dfa))
            print("wrote %s" % path)
    return 0 if verdict.holds else 1


def cmd_series(args):
    obj = load_object(args.object)
    if not isinstance(obj, mx.MatrixGrammar):
        raise PreconditionError("series expects a matrix_grammar object")
    try:
        mx.szilard_dfa(obj, args.index)
        grammar = obj
        note = "grammar already in normal form"
    except PreconditionError:
        grammar, cert = mx.normal_form(obj, args.index)
        note = "normal form auto-invoked (already_normal=%s)" % cert.already_normal
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
        enum = enumerate_language(obj, args.max_len, _budget(args)).require_complete()
        worst = 0
        exact = True
        for w in enum.words:
            if isinstance(obj, mx.MatrixGrammar):
                c = mx.count_derivations(obj, w)
            else:
                c = etol.count_trees(obj, w)
            worst = max(worst, c.value)
            exact = exact and c.exact
        print(
            "max %s count %d over %d words (exact=%s)"
            % ("derivation" if isinstance(obj, mx.MatrixGrammar) else "tree",
               worst, len(enum.words), exact)
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
        with open(args.out, "w") as f:
            f.write(wit.dump_tsv())
        print("wrote %s" % args.out)
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
        choices=[
            "ncm", "etol", "dcm", "unambiguous-etol", "reduced-etol",
            "normal-form", "edtol", "matrix", "reduced", "plain",
            "active-normal-form",
        ],
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
        return args.fn(args)
    except PreconditionError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except BudgetExhausted as e:
        print("budget exhausted: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
