"""Job lists for the three workloads, and the code that runs one job.

A workload is a corpus of jobs: a fixed number of blocks, each a fixed
mix of job kinds and ladder rungs.  The instances are drawn once, from
a generator keyed by the workload name; the seed then relabels them
(it permutes coordinates, which renames the letters of the word tuples,
and renames grammar letters) and shuffles the job order.
So every seed gives different inputs of the same difficulty: on this
kind of exact search one random draw can cost 5x another at the same
size, and a spread that large would hide any change worth measuring.

Every job carries the inputs the reference checker needs (the semilinear
sets it was drawn from, the grammar family it was built from), so the
answer can be checked without the code path being timed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import traceback
from dataclasses import dataclass, field

import reference

WORKLOADS = ("decide", "oracle", "grammar")


@dataclass
class Job:
    """One unit of closed-loop work.

    ``kind`` picks the code that runs it, ``rung`` is its place on the size
    ladder, ``label`` names it in reports, ``args`` are the library inputs
    and ``info`` whatever the reference checker needs.  ``defect`` names
    a known defect this job exposes, or is None."""

    kind: str
    rung: str
    label: str
    args: tuple
    info: dict = field(default_factory=dict)
    defect: str | None = None


@dataclass
class Outcome:
    """What a job did: ``status`` is ok / precondition / inexact / raised;
    ``value`` is the raw result; ``text`` is the canonical output that the
    traced and untraced runs must reproduce byte for byte."""

    status: str
    value: object
    text: str


class Workbench:
    """The imported ``workbench`` modules, so a fresh import can replace
    them all at once."""

    def __init__(self):
        import workbench  # noqa: F401
        from workbench import (
            cli, commutative, counter, etol, fixtures, foundation, matrix,
            semilinear, series, vecautomata,
        )

        self.cli = cli
        self.commutative = commutative
        self.counter = counter
        self.etol = etol
        self.fixtures = fixtures
        self.foundation = foundation
        self.matrix = matrix
        self.semilinear = semilinear
        self.series = series
        self.vecautomata = vecautomata


# ---------------------------------------------------------------- decide

# (dimension k, periods r); the track count of one linear set is k + r.
# 5+3 sits just before the wall: 3+5 already takes 10-26 s per job.
DECIDE_LADDER = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (5, 3))
CORPUS_BLOCKS = {"decide": 3, "oracle": 6, "grammar": 1}
RELATIONS = ("equal", "subset", "disjoint")


def _period(rng, k, even_first=False):
    while True:
        p = [rng.randint(0, 2) for _ in range(k)]
        if even_first:
            p[0] = rng.choice((0, 2))
        if any(p):
            return tuple(p)


def _linear(wb, rng, k, r, even_first=False, parity=None):
    const = [rng.randint(0, 3) for _ in range(k)]
    if parity is not None:
        const[0] = rng.choice((0, 2)) + parity
    periods = [_period(rng, k, even_first=even_first) for _ in range(r)]
    return wb.semilinear.LinearSet(const, periods)


def _decide_pair(wb, rng, k, r, rel, true):
    """Two semilinear sets; when ``true`` the relation holds by construction."""
    sl = wb.semilinear
    if rel == "disjoint" and true:
        # every period is even in coordinate 0, the constants differ in parity
        a = _linear(wb, rng, k, r, even_first=True, parity=0)
        b = _linear(wb, rng, k, r, even_first=True, parity=1)
        return sl.SemilinearSet([a]), sl.SemilinearSet([b])
    a = _linear(wb, rng, k, r)
    if not true:
        return sl.SemilinearSet([a]), sl.SemilinearSet([_linear(wb, rng, k, r)])
    shifted = sl.LinearSet(
        [c + x for c, x in zip(a.constant, a.periods[0])], a.periods
    )
    if rel == "subset":
        # c + p0 + N(P) lies inside c + N(P)
        return sl.SemilinearSet([shifted]), sl.SemilinearSet([a])
    perm = list(a.periods)
    rng.shuffle(perm)
    return (
        sl.SemilinearSet([a]),
        sl.SemilinearSet([sl.LinearSet(a.constant, perm), shifted]),
    )


def permuted(wb, q, perm, rng=None):
    """q with coordinate i moved to perm[i]; with ``rng`` also the period
    order of every component shuffled."""
    sl = wb.semilinear
    comps = []
    for c in q.components:
        periods = [_moved(p, perm) for p in c.periods]
        if rng is not None:
            rng.shuffle(periods)
        comps.append(sl.LinearSet(_moved(c.constant, perm), periods))
    return sl.SemilinearSet(comps)


def _moved(v, perm):
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[perm[i]] = x
    return tuple(out)


def _perm(rng, k):
    p = list(range(k))
    rng.shuffle(p)
    return p


def _decide_job(wb, q1, q2, words, rel, rung, label, true=False, defect=None):
    sl = wb.semilinear
    s1 = sl.BoundedSpec(words, "ginsburg", q1=q1)
    s2 = sl.BoundedSpec(words, "ginsburg", q1=q2)
    return Job("decide", rung, label, (s1, s2, rel),
               {"q1": q1, "q2": q2, "words": words, "rel": rel, "true": true}, defect)


def decide_block(wb, rng, relabel, b):
    jobs = []
    for k, r in DECIDE_LADDER:
        words = tuple((chr(ord("a") + i),) for i in range(k))
        for rel in RELATIONS:
            for true in (True, False):
                q1, q2 = _decide_pair(wb, rng, k, r, rel, true)
                perm = _perm(relabel, k)
                q1, q2 = permuted(wb, q1, perm, relabel), permuted(wb, q2, perm, relabel)
                jobs.append(_decide_job(
                    wb, q1, q2, words, rel, "k+r=%d" % (k + r),
                    "b%d/k+r=%d/%s/%s" % (b, k + r, rel, "built" if true else "drawn"), true,
                ))
    # non-distinct word tuples: a prefix code (injective, the injectivity
    # loop runs to length 12), a tuple that collides inside the check
    # length (a precondition failure), and one that collides only at
    # length 35, beyond it
    k, r = 3, 2
    words = tuple(("a", chr(ord("b") + i)) for i in range(k))
    rel = RELATIONS[b % 3]
    q1, q2 = _decide_pair(wb, rng, k, r, rel, b % 2 == 0)
    perm = _perm(relabel, k)
    q1, q2 = permuted(wb, q1, perm, relabel), permuted(wb, q2, perm, relabel)
    jobs.append(_decide_job(wb, q1, q2, words, rel, "k+r=5", "b%d/prefix-code/%s" % (b, rel),
                            b % 2 == 0))
    sl = wb.semilinear
    q1, q2 = _decide_pair(wb, rng, 2, 1, "subset", False)
    jobs.append(_decide_job(wb, q1, q2, (("a",), ("a", "a")), "subset", "k+r=3",
                            "b%d/collides-at-2" % b))
    five, seven = ("a",) * 5, ("a",) * 7
    jobs.append(_decide_job(
        wb, sl.semilinear(sl.linear((7, 0))), sl.semilinear(sl.linear((0, 5))),
        (five, seven), "equal", "k+r=2", "injectivity-beyond-check-length",
        defect="decide_bounded validates phi-injectivity only to length 12; "
               "(a^5, a^7) collide at a^35, so two equal languages are reported "
               "unequal with witness a^35, a word in both",
    ))
    return jobs


def run_decide(wb, job):
    s1, s2, rel = job.args
    return wb.counter.decide_bounded(s1, s2, rel)


def show_decide(wb, v):
    w = None if v.witness is None else wb.foundation.show_word(v.witness)
    return "holds=%s witness=%s notes=%s" % (v.holds, w, v.notes)


# ---------------------------------------------------------------- oracle

# (coordinate scale, periods) for membership queries in dimension 3
MEMBER_LADDER = ((12, 4), (25, 4), (50, 3), (100, 3))
NCM_LADDER = (("ab", 10), ("ab", 12), ("abc", 6), ("abc", 8))
DCM_LADDER = (8, 12)
SPEC_LADDER = (12, 20)
ACCEPT_LADDER = (("ncm", 24), ("ncm", 48), ("dcm", 48), ("dcm", 96))
BOX_LADDER = (4, 6, 8)


def _even_period(rng, k):
    while True:
        p = tuple(rng.randint(0, 2) for _ in range(k))
        if any(p) and sum(p) % 2 == 0:
            return p


def _parity_set(wb, rng, k, r):
    """Linear set whose members all have an even coordinate sum, so a query
    with an odd sum is a miss by certificate."""
    const = [rng.randint(0, 2) for _ in range(k)]
    const[0] += sum(const) % 2
    return wb.semilinear.LinearSet(const, [_even_period(rng, k) for _ in range(r)])


def _walk(rng, ls, target):
    """A member near ``target`` in every coordinate, by adding periods."""
    v = list(ls.constant)
    while max(v) < target:
        v = [a + b for a, b in zip(v, rng.choice(ls.periods))]
    return tuple(v)


def _echelon_set(wb, rng, k, comps):
    """Semilinear set over k coordinates whose components carry echelon
    certificates (so ``dcm_for_bounded`` accepts them)."""
    out = []
    while len(out) < comps:
        r = rng.randint(1, k - 1)
        pivots = sorted(rng.sample(range(k), r))
        periods = []
        for j, piv in enumerate(pivots):
            p = [0] * k
            p[piv] = rng.randint(1, 2)
            for i in range(piv + 1, k):
                if i not in pivots[j + 1:]:
                    p[i] = rng.randint(0, 1)
            periods.append(tuple(p))
        ls = wb.semilinear.LinearSet([rng.randint(0, 2) for _ in range(k)], periods)
        if wb.counter.echelon_order(ls) is not None:
            out.append(ls)
    return wb.semilinear.SemilinearSet(out)


def _letters(rng):
    """The one-letter word tuple over a, b, c in seeded order."""
    return tuple((x,) for x in rng.sample("abc", 3))


def _general_set(wb, rng, k, comps):
    return wb.semilinear.SemilinearSet([
        wb.semilinear.LinearSet(
            [rng.randint(0, 2) for _ in range(k)],
            [_period(rng, k) for _ in range(rng.randint(1, 3))],
        )
        for _ in range(comps)
    ])


def cap_probe_machine(wb):
    """One-counter machine whose only accepted word is λ, reached by
    pumping the counter to 100 on λ-moves and counting it down along a
    100-state λ-chain (ROADMAP item 3a)."""
    c = wb.counter
    states = ["up"] + ["d%d" % i for i in range(101)] + ["acc"]
    trans = {
        ("up", None, (0,)): (("up", (1,)),),
        ("up", None, (1,)): (("up", (1,)), ("d0", (0,))),
        ("d100", c.END, (0,)): (("acc", (0,)),),
    }
    for i in range(100):
        trans[("d%d" % i, None, (1,))] = (("d%d" % (i + 1), (-1,)),)
    return c.CounterMachine(1, states, "up", {"acc"}, wb.foundation.Alphabet("a"), trans)


def oracle_block(wb, rng, relabel, b):
    sl, fd = wb.semilinear, wb.foundation
    jobs = []
    for scale, r in MEMBER_LADDER:
        ls = _parity_set(wb, rng, 3, r)
        hit = _walk(rng, ls, scale)
        miss = list(_walk(rng, ls, scale))
        miss[rng.randrange(3)] += 1
        perm = _perm(relabel, 3)
        q = permuted(wb, sl.SemilinearSet([ls]), perm)
        hit, miss = _moved(hit, perm), list(_moved(miss, perm))
        rung = "coord=%d" % scale
        jobs.append(Job("member", rung, "b%d/member-hit/%s" % (b, rung), (q, hit),
                        {"answer": True}))
        jobs.append(Job("member", rung, "b%d/member-miss/%s" % (b, rung), (q, tuple(miss)),
                        {"answer": False}))
    perm = _perm(relabel, 3)
    q = permuted(wb, _general_set(wb, rng, 3, 2), perm)
    v = _moved([rng.randint(0, 12) for _ in range(3)], perm)
    jobs.append(Job("member", "coord=12", "b%d/member-drawn" % b, (q, v)))

    for letters, n in NCM_LADDER:
        q = _general_set(wb, rng, len(letters), rng.randint(1, 2))
        q = permuted(wb, q, _perm(relabel, len(letters)))
        jobs.append(Job("ncm-enum", "n=%d" % n, "b%d/ncm/%s/n=%d" % (b, letters, n),
                        (q, fd.Alphabet(letters), n), {"q": q}))
    for n in DCM_LADDER:
        # echelon certificates depend on the coordinate order, so the seed
        # renames the letters instead
        q = _echelon_set(wb, rng, 3, 2)
        spec = sl.BoundedSpec(_letters(relabel), "ginsburg", q1=q)
        jobs.append(Job("dcm-enum", "n=%d" % n, "b%d/dcm/n=%d" % (b, n), (spec, n),
                        {"q1": q}))
    for n in SPEC_LADDER:
        perm = _perm(relabel, 3)
        q1 = permuted(wb, _general_set(wb, rng, 3, 2), perm)
        q2 = permuted(wb, _general_set(wb, rng, 3, 2), perm)
        words = (("a",), ("b",), ("c",))
        abc = fd.Alphabet("abc")
        for spec, info in (
            (sl.BoundedSpec(words, "ginsburg", q1=q1), {"q1": q1}),
            (sl.BoundedSpec(words, "parikh", q2=q2, alphabet=abc), {"q2": q2}),
            (sl.BoundedSpec(words, "ginsburg-parikh", q1=q1, q2=q2, alphabet=abc),
             {"q1": q1, "q2": q2}),
        ):
            jobs.append(Job("spec-enum", "n=%d" % n,
                            "b%d/spec/%s/n=%d" % (b, spec.kind, n), (spec, n), info))

    for machine, length in ACCEPT_LADDER:
        rung = "len=%d" % length
        if machine == "ncm":
            ls = _general_set(wb, rng, 3, 1).components[0]
            v = _walk(rng, ls, length // 3)
            perm = _perm(relabel, 3)
            q, v = permuted(wb, sl.SemilinearSet([ls]), perm), _moved(v, perm)
            letters = "abc"
            m = wb.counter.from_semilinear(q, fd.Alphabet(letters))
            w = [s for s, e in zip(letters, v) for _ in range(e)]
            rng.shuffle(w)
        else:
            q = _echelon_set(wb, rng, 3, 1)
            words = _letters(relabel)
            letters = "".join(x for (x,) in words)
            m = wb.counter.dcm_for_bounded(sl.BoundedSpec(words, "ginsburg", q1=q))
            v = _walk(rng, q.components[0], length // 3)
            w = [s for s, e in zip(letters, v) for _ in range(e)]
        if b % 2:
            w.insert(rng.randrange(len(w) + 1), rng.choice(letters))
        jobs.append(Job("accepts", rung, "b%d/accepts/%s/%s" % (b, machine, rung),
                        (m, tuple(w)),
                        {"q": q, "letters": letters, "shape": machine == "dcm"}))

    for box in BOX_LADDER:
        q = permuted(wb, _general_set(wb, rng, 3, 2 if b % 2 else 3), _perm(relabel, 3))
        jobs.append(Job("validate", "box=%d" % box, "b%d/validate/box=%d" % (b, box),
                        (q, box), {"q": q}))

    jobs.append(Job(
        "cap-probe", "n=0", "counter-cap-prunes-silently", (cap_probe_machine(wb), 0), {},
        defect="Simulator drops runs whose counter passes 64*(max_len+1) without "
               "marking the enumeration incomplete (ROADMAP 3a): L = {λ} but "
               "enumerate_language(m, 0) returns [] with complete=True",
    ))
    return jobs


def run_member(wb, job):
    return wb.semilinear.member(*job.args)


def run_ncm_enum(wb, job):
    q, alphabet, n = job.args
    return wb.foundation.enumerate_language(wb.counter.from_semilinear(q, alphabet), n)


def run_dcm_enum(wb, job):
    spec, n = job.args
    return wb.foundation.enumerate_language(wb.counter.dcm_for_bounded(spec), n)


def run_enum(wb, job):
    return wb.foundation.enumerate_language(*job.args)


def run_accepts(wb, job):
    return wb.counter.accepts(*job.args)


def run_validate(wb, job):
    return wb.semilinear.validate_semi_simple(*job.args)


def show_enum(wb, e):
    return "complete=%s explored=%d words=%s" % (
        e.complete, e.explored, " ".join(wb.foundation.show_word(w) for w in e.words)
    )


def show_report(wb, rep):
    return "%s flags=%s collisions=%s" % (rep, rep.simple_flags, rep.collisions)


# ---------------------------------------------------------------- grammar

# grammar families: m letters, k copies (the index), d duplicates of every
# letter matrix/table (d > 1 makes the grammar ambiguous: d^n derivations
# of a word with n letters per copy, so d = 8 meets the 4096 cap at n = 4)
GRAMMAR_FAMILIES = ((3, 2, 1), (2, 3, 1), (2, 2, 2), (2, 2, 8), (3, 3, 2))
LENGTH_LADDER = (7, 9, 11)    # three-letter families stop at 9: 11 takes ~1 s
SERIES_COUNTS = (40, 52)


def copy_matrix(wb, letters, k, d):
    """Index-k matrix grammar for { x(#x)^(k-1) : x in letters+ }."""
    copies = ["A%d" % i for i in range(1, k + 1)]
    first = []
    for i, a in enumerate(copies):
        first += ["#", a] if i else [a]
    mats = []
    for final in (False, True):
        for c in letters:
            mats += [tuple((a, (c,) if final else (c, a)) for a in copies)] * d
    mats.insert(0, (("S", tuple(first)),))
    return wb.matrix.MatrixGrammar(["S"] + copies, tuple(letters) + ("#",), "S", mats)


def copy_etol(wb, letters, k, d):
    """Reduced index-k ETOL system for { x(#x)^(k-1) : x in letters* }."""
    first = []
    for i in range(k):
        first += ["#", "X"] if i else ["X"]
    tables = [{"X": [(c, "X")]} for c in letters for _ in range(d)]
    tables.append({"X": [()]})
    tables.insert(0, {"S": [tuple(first)]})
    return wb.etol.EtolSystem(("S", "X"), tuple(letters) + ("#",), "S", tables, reduced=True)


def an_bn_matrix(wb, p, q):
    """{ a^(pn) b^(qn) : n >= 1 } as a two-matrix grammar (regularizable)."""
    head, tail = ("a",) * p, ("b",) * q
    return wb.matrix.MatrixGrammar(
        ("S",), ("a", "b"), "S", [(("S", head + ("S",) + tail),), (("S", head + tail),)]
    )


def an_bn_etol(wb, p, q):
    head, tail = ("a",) * p, ("b",) * q
    return wb.etol.EtolSystem(
        ("S",), ("a", "b"), "S",
        [{"S": [head + ("S",) + tail]}, {"S": [head + tail]}], reduced=True,
    )


def grammar_documents(wb, rng, relabel):
    """(name, object, family info) for every document the workload writes."""
    fx = wb.fixtures
    docs = [
        ("copy", fx.copy_language_matrix(),
         {"family": "matrix", "letters": "ab", "k": 2, "d": 1, "fixture": True}),
        ("copy-etol", fx.copy_language_reduced_etol(),
         {"family": "etol", "letters": "ab", "k": 2, "d": 1, "fixture": True}),
        ("abn-edol", fx.abn_edol(), {"family": "edol"}),
    ]
    for m, k, d in GRAMMAR_FAMILIES:
        # the seed picks the letters; it leaves the matrix and table order
        # alone, because the capped counts stop at a point that depends on it
        letters = "".join(sorted(relabel.sample("abcdefgh", m)))
        for fam, make in (("matrix", copy_matrix), ("etol", copy_etol)):
            docs.append(("%s%d%d%d" % (fam[0], m, k, d), make(wb, letters, k, d),
                         {"family": fam, "letters": letters, "k": k, "d": d}))
    p, q = rng.randint(1, 2), rng.randint(1, 2)
    docs.append(("anbn-matrix", an_bn_matrix(wb, p, q), {"family": "anbn", "p": p, "q": q}))
    docs.append(("anbn-etol", an_bn_etol(wb, p, q), {"family": "anbn", "p": p, "q": q}))
    return docs


def write_documents(wb, docs, directory):
    paths = {}
    for name, obj, _ in docs:
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as f:
            f.write(wb.cli.dump_document(obj))
        paths[name] = path
    return paths


def grammar_commands(docs):
    """Per document, the (argv tail, rung) commands that apply to it."""
    out = []
    for name, _, info in docs:
        fam = info["family"]
        if fam in ("matrix", "etol"):
            k = str(info["k"])
            for n in LENGTH_LADDER:
                if n > 9 and len(info["letters"]) > 2:
                    continue
                L = str(n)
                out.append((name, ["enumerate", "--max-len", L], n))
                out.append((name, ["audit", "--kind", "ambiguity", "--max-len", L], n))
                if fam == "matrix":
                    out.append((name, ["convert", "--to", "reduced-etol", "--index", k,
                                       "--check-len", L], n))
                    out.append((name, ["convert", "--to", "normal-form", "--index", k,
                                       "--check-len", L], n))
                else:
                    for to in ("matrix", "edtol", "plain"):
                        out.append((name, ["convert", "--to", to, "--index", k,
                                           "--check-len", L], n))
                    out.append((name, ["audit", "--kind", "index", "--max-len", L], n))
            if fam == "matrix":
                count = SERIES_COUNTS[0] if info["k"] == 2 else SERIES_COUNTS[1]
                out.append((name, ["series", "--index", k, "--count", str(count)], count))
                out.append((name, ["series", "--index", k, "--mode", "parikh",
                                   "--count", "12"], 12))
            if info.get("fixture") and fam == "matrix":
                # ROADMAP 3b: too few terms for the order-6 fit at --count 20
                out.append((name, ["series", "--count", "20"], 20))
                out.append((name, ["regularize", "--index", k], 12))
        elif fam == "anbn":
            out.append((name, ["regularize", "--index", "1"], 12))
            out.append((name, ["enumerate", "--max-len", "12"], 12))
        elif fam == "edol":
            out.append((name, ["regularize", "--index", "1", "--verify-len", "15"], 15))
            out.append((name, ["enumerate", "--max-len", "12"], 12))
    return out


COUNT_DEFECT = (
    "cmd_convert reports 'derivation counts preserved: FAIL' and exits 1 when "
    "both counts hit the 4096 cap, so a search that ran out of budget reads as "
    "a wrong conversion (it should exit 3)"
)
SERIES_DEFECT = (
    "cmd_series swallows fit_recurrence's 'need >= 16 terms' precondition and "
    "exits 1 with 'no recurrence', though a[n] = 2*a[n-1] holds (ROADMAP 3b)"
)


def grammar_block(wb, docs, paths):
    jobs = []
    info = {name: i for name, _, i in docs}
    for name, argv, size in grammar_commands(docs):
        full = [argv[0], paths[name]] + argv[1:]
        label = "%s %s.json %s" % (argv[0], name, " ".join(argv[1:]))
        extra = {}
        if argv[0] == "convert":
            # writing the result is part of the command (cli.dump_document)
            extra["out"] = "%s.%s.%d.out.json" % (paths[name][:-5], argv[2], size)
            full += ["--out", extra["out"]]
        defect = None
        if argv == ["series", "--count", "20"]:
            defect = SERIES_DEFECT
        elif (argv[:3] == ["convert", "--to", "reduced-etol"]
              and reference.most_derivations(info[name], size) >= reference.COUNT_CAP):
            defect = COUNT_DEFECT
        jobs.append(Job("cli", "size=%d" % size, label, (full,),
                        dict(info[name], argv=argv, doc=name, **extra), defect))
    return jobs


def run_cli(wb, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = wb.cli.main(list(job.args[0]))
    return rc, out.getvalue(), err.getvalue()


def show_cli(wb, res):
    rc, out, err = res
    return "rc=%d\n%s--stderr--\n%s" % (rc, out, err)


# ---------------------------------------------------------------- running

RUNNERS = {
    "decide": (run_decide, show_decide),
    "member": (run_member, lambda wb, v: str(v)),
    "ncm-enum": (run_ncm_enum, show_enum),
    "dcm-enum": (run_dcm_enum, show_enum),
    "spec-enum": (run_enum, show_enum),
    "accepts": (run_accepts, lambda wb, v: str(v)),
    "validate": (run_validate, show_report),
    "cap-probe": (run_enum, show_enum),
    "cli": (run_cli, show_cli),
}


def call(wb, job):
    """Run one job (the timed part).  Returns the result or the exception."""
    try:
        return RUNNERS[job.kind][0](wb, job)
    except Exception as e:  # noqa: BLE001 -- classified by ``describe``
        return e


def describe(wb, job, result):
    """Classify a result and render its canonical text (untimed)."""
    fd = wb.foundation
    if isinstance(result, fd.PreconditionError):
        return Outcome("precondition", result, "precondition: %s" % result)
    if isinstance(result, fd.BudgetExhausted):
        return Outcome("inexact", result, "budget exhausted: %s" % result)
    if isinstance(result, Exception):
        tb = "".join(traceback.format_exception_only(type(result), result))
        return Outcome("raised", result, "raised: " + tb)
    text = RUNNERS[job.kind][1](wb, result)
    status = "ok"
    if job.kind == "cli":
        rc, out, _ = result
        if rc == 2:
            status = "precondition"
        elif rc == 3 or "exact=False" in out:
            status = "inexact"
    elif isinstance(result, fd.Enumeration) and not result.complete:
        status = "inexact"
    return Outcome(status, result, text)


def build_jobs(wb, workload, seed, workdir):
    """The seeded corpus: the workload's fixed instances, relabelled and
    reordered by the seed.  Grammar documents are written to ``workdir``."""
    rng = random.Random(workload)
    relabel = random.Random("%s:%d" % (workload, seed))
    if workload == "grammar":
        docs = grammar_documents(wb, rng, relabel)
        jobs = grammar_block(wb, docs, write_documents(wb, docs, workdir))
    else:
        make = {"decide": decide_block, "oracle": oracle_block}[workload]
        jobs = [j for b in range(CORPUS_BLOCKS[workload]) for j in make(wb, rng, relabel, b)]
    relabel.shuffle(jobs)
    return jobs
