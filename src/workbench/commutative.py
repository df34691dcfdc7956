"""Commutative regularization: prefix-code construction, matrix and ETOL
regularizers, the single-table deterministic pipeline, and the
Parikh-multiset verifier used to check every witness.

`build_prefix_code` owns the padded-output conditions: both regularizers
call it for their automatic codes and pass its precondition errors on.
The matrix and EDOL witnesses are one Szilard automaton relabelled edge
by edge (`_szilard_witness`), with code words or theta images.

The regularizers do not decide unambiguity; they audit it to a bounded
length and record the audit in the witness provenance.  Their witnesses
are word-labeled finite automata whose languages are commutatively
equivalent to the source language, verified per Parikh class up to the
configured length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .foundation import (
    Alphabet,
    PreconditionError,
    _breadth_first,
    _budgeted,
    comm_equivalent,
    enumerate_language,
    parikh,
    register_enumerator,
    sort_words,
)
from . import etol as etol_mod
from . import matrix as mx


def is_prefix_code(words):
    """True iff no word is a proper prefix of another (empty word forbidden
    as a code element)."""
    ws = sorted(set(map(tuple, words)), key=len)
    if any(not w for w in ws):
        return False
    for i, u in enumerate(ws):
        for v in ws[i + 1:]:
            if len(u) < len(v) and v[: len(u)] == u:
                return False
    return True


def build_prefix_code(vs):
    """Prefix code (w1,..,wm) with wi a rearrangement of vi.

    The padded-output conditions are checked here, each raising
    PreconditionError: no vi is shorter than the list (|vi| >= m), and
    no two vi are powers of the same letter.

    Follows the inductive argument: handle the longest word last; letter
    powers pass through unchanged; otherwise rearrange a length-m factor
    with two distinct letters so the result differs from every length-m
    prefix already in the code, choosing the lexicographically smallest
    such rearrangement.
    """
    vs = [tuple(v) for v in vs]
    m = len(vs)
    if m == 0:
        return []
    for v in vs:
        if len(v) < m:
            raise PreconditionError(
                "word %r shorter than the list length %d" % ("".join(v), m)
            )
    powers = set()
    for v in vs:
        if len(set(v)) == 1:
            if v[0] in powers:
                raise PreconditionError("two words are powers of the letter %r" % v[0])
            powers.add(v[0])

    def construct(items):
        if len(items) == 1:
            return [items[0]]
        idx = max(range(len(items)), key=lambda i: (len(items[i]), i))
        rest = items[:idx] + items[idx + 1:]
        code_rest = construct(rest)
        v_m = items[idx]
        mm = len(items)
        if len(set(v_m)) == 1:
            y = v_m
        else:
            pos = next(
                p for p in range(len(v_m) - mm + 1) if len(set(v_m[p:p + mm])) > 1
            )
            u = v_m[pos:pos + mm]
            s = v_m[:pos] + v_m[pos + mm:]
            forbidden = {w[:mm] for w in code_rest}
            choice = next(
                cand
                for cand in sorted(set(permutations(u)))
                if cand not in forbidden
            )
            y = choice + s
        return code_rest[:idx] + [y] + code_rest[idx:]

    out = construct(vs)
    assert is_prefix_code(out) and all(
        comm_equivalent(w, v) for w, v in zip(out, vs)
    )
    return out


def is_code_bounded(words):
    """True iff every concatenation of the words factors uniquely.

    The Sardinas-Patterson test: a dangling suffix is what is left over
    when one factorization runs past another (s with u s = c, or with
    c s = u, for a code word c).  The words form a code iff no dangling
    suffix reachable from two distinct code words is itself a code word.
    Every dangling suffix is a suffix of a code word, so the walk is
    polynomial in the total length.
    """
    ws = [tuple(w) for w in words]
    code = set(ws)
    if any(not w for w in ws) or len(code) != len(ws):
        return False

    def dangling(u):
        for c in code:
            if c != u and c[:len(u)] == u:
                yield c[len(u):]
            elif len(u) > len(c) and u[:len(c)] == c:
                yield u[len(c):]

    seen = {s for u in code for s in dangling(u)}
    work = list(seen)
    while work:
        s = work.pop()
        if s in code:
            return False
        for t in dangling(s):
            if t not in seen:
                seen.add(t)
                work.append(t)
    return True


@dataclass
class RegularWitness:
    """Word-labeled finite automaton over the terminal alphabet, plus
    provenance describing which construction produced it and what was
    audited along the way."""

    states: tuple
    initial: int
    accepting: frozenset
    edges: tuple                       # (src, word, dst)
    provenance: dict = field(default_factory=dict)

    def dump_tsv(self):
        lines = [
            "states\t%d" % len(self.states),
            "initial\t%d" % self.initial,
            "accepting\t%s" % ",".join(str(q) for q in sorted(self.accepting)),
        ]
        for src, w, dst in sorted(self.edges):
            lines.append("%d\t%s\t%d" % (src, "".join(w) or "-", dst))
        return "\n".join(lines) + "\n"


def _enumerate_witness(wit, max_len, budget):
    adj = {}
    for src, w, dst in wit.edges:
        adj.setdefault(src, []).append((tuple(w), dst))

    def successors(node):
        q, w = node
        for label, dst in adj.get(q, ()):
            if len(w) + len(label) <= max_len:
                yield dst, w + label

    return _budgeted(
        _breadth_first((wit.initial, ()), successors),
        lambda node: node[1] if node[0] in wit.accepting else None,
        budget,
    )


register_enumerator(RegularWitness, _enumerate_witness)


@dataclass(frozen=True)
class CommEquivalenceVerdict:
    equal: bool
    witness_vector: tuple | None
    max_len: int

    def __bool__(self):
        return self.equal


def verify_comm_equivalence(s1, s2, max_len, budget=None):
    """Per Parikh class, compare word counts of the two languages up to
    the length bound -- the multiset criterion for a Parikh-preserving
    bijection on the truncation."""
    e1 = enumerate_language(s1, max_len, budget).require_complete()
    e2 = enumerate_language(s2, max_len, budget).require_complete()
    symbols = sorted({s for w in e1.words for s in w} | {s for w in e2.words for s in w})
    if not symbols:
        return CommEquivalenceVerdict(e1.words == e2.words, None, max_len)
    alph = Alphabet(symbols)

    def classes(words):
        out = {}
        for w in words:
            v = parikh(w, alph)
            out[v] = out.get(v, 0) + 1
        return out

    c1, c2 = classes(e1.words), classes(e2.words)
    if c1 == c2:
        return CommEquivalenceVerdict(True, None, max_len)
    diff = sorted(set(c1) | set(c2), key=lambda v: (sum(v), v))
    bad = next(v for v in diff if c1.get(v, 0) != c2.get(v, 0))
    return CommEquivalenceVerdict(False, bad, max_len)


def _audit_unambiguous(g, audit_len, count, what):
    """Number of words of L(g) up to audit_len, after checking that
    ``count`` gives each exactly one derivation (``what`` names them)."""
    words = enumerate_language(g, audit_len).require_complete().words
    for w in words:
        c = count(g, w)
        if not (c.exact and c.value == 1):
            raise PreconditionError(
                "unambiguity audit failed at %r: %s %s" % (w, c, what)
            )
    return len(words)


def _verified(wit, g, verify_len):
    """The witness, once its Parikh multisets match L(g) up to verify_len."""
    check = verify_comm_equivalence(wit, g, verify_len)
    if not check:
        raise PreconditionError(
            "witness failed Parikh-multiset verification at %r" % (check.witness_vector,)
        )
    wit.provenance["verified_len"] = verify_len
    return wit


def _szilard_witness(dfa, labels, provenance):
    """The Szilard automaton as a witness, each edge relabelled from its
    matrix index mi to the word labels[mi]."""
    return RegularWitness(
        states=tuple(range(len(dfa.states))),
        initial=dfa.initial,
        accepting=dfa.accepting,
        edges=tuple((q, tuple(labels[mi]), t) for (q, mi), t in dfa.transitions.items()),
        provenance=provenance,
    )


def regularize_matrix(g, k, code_words=None, audit_len=8, verify_len=12):
    """Witness for Prop-style matrix regularization: relabel the Szilard
    automaton edges by a code commutatively matching theta.

    ``code_words`` maps matrix index to its code word; omitted, a prefix
    code is built from the theta images (`build_prefix_code`, which
    checks the padded-output conditions)."""
    dfa = mx.szilard_dfa(g, k)  # raises unless the grammar is normal-form
    th = mx.theta(g)
    audited = _audit_unambiguous(g, audit_len, mx.count_derivations, "derivations")
    if code_words is None:
        code_words = build_prefix_code(th)
    else:
        code_words = [tuple(w) for w in code_words]
        if len(code_words) != len(g.matrices):
            raise PreconditionError("one code word per matrix required")
    for i, (cw, t) in enumerate(zip(code_words, th)):
        if not comm_equivalent(cw, t):
            raise PreconditionError(
                "code word %d is not commutatively equivalent to its theta image" % i
            )
    if not is_code_bounded(code_words):
        raise PreconditionError("assigned words do not form a code")
    wit = _szilard_witness(dfa, code_words, {
        "construction": "matrix-szilard-code",
        "audit_len": audit_len,
        "audited_words": audited,
        "prefix_code": is_prefix_code(code_words),
    })
    return _verified(wit, g, verify_len)


def right_hand_sides(g):
    """Per nonterminal, the distinct right-hand sides across all tables,
    in first-appearance order."""
    out = {}
    for x in g.v:
        seen = []
        for t in g.tables:
            for rhs in t.get(x, ()):
                if rhs not in seen:
                    seen.append(rhs)
        out[x] = tuple(seen)
    return out


def _terminal_projection(g, rhs):
    return tuple(s for s in rhs if s in set(g.sigma))


def regularize_etol(g, k, codes=None, audit_len=8, verify_len=12):
    """Right-linear witness for a reduced unambiguous finite-index system
    with per-nonterminal prefix codes matching the terminal projections.

    Omitting ``codes`` builds each Y_X from the terminal projections of
    R_X with `build_prefix_code`, which checks the padded-production
    conditions."""
    if not g.reduced:
        raise PreconditionError("regularize_etol expects a reduced system")
    profiles = mx._etol_profiles(g, k)  # raises IndexExceeded past k
    audited = _audit_unambiguous(g, audit_len, etol_mod.count_trees, "trees")
    rhs_map = right_hand_sides(g)
    if codes is None:
        codes = {
            x: tuple(build_prefix_code([_terminal_projection(g, r) for r in rhss]))
            for x, rhss in rhs_map.items() if rhss
        }
    for x, rhss in rhs_map.items():
        if not rhss:
            continue
        yx = codes.get(x)
        if yx is None or len(yx) != len(rhss):
            raise PreconditionError("code assignment must cover R_%s" % (x,))
        for cw, rhs in zip(yx, rhss):
            if not comm_equivalent(cw, _terminal_projection(g, rhs)):
                raise PreconditionError(
                    "code word %r does not match the terminal projection of %r"
                    % (cw, rhs)
                )
        if not is_prefix_code(yx):
            raise PreconditionError("Y_%s is not a prefix code" % (x,))

    order = sorted(profiles)
    index = {x: i for i, x in enumerate(order)}
    edges = {}   # an insertion-ordered set
    for x in order:
        combos = profiles[x]
        for ti in sorted(combos):
            for choice, newprof, _ in combos[ti]:
                u = []
                for i, rhs in enumerate(choice):
                    pos = rhs_map[x[i]].index(rhs)
                    u.extend(codes[x[i]][pos])
                edges[index[x], tuple(u), index[newprof]] = None
    wit = RegularWitness(
        states=tuple(range(len(order))),
        initial=index[(g.axiom,)],
        accepting=frozenset([index[()]]) if () in index else frozenset(),
        edges=tuple(edges),
        provenance={
            "construction": "etol-prefix-codes",
            "audit_len": audit_len,
            "audited_words": audited,
        },
    )
    _verified(wit, g, verify_len)
    frag = enumerate_language(wit, verify_len).require_complete().words
    wit.provenance["witness_prefix_code_on_fragment"] = is_prefix_code(
        [w for w in frag if w]
    ) if frag else True
    return wit


@dataclass(frozen=True)
class EdolReport:
    """Outcome of walking the unique derivation sequence of a single-table
    deterministic system."""

    kind: str                 # "finite" | "no-equivalence"
    ambiguous: bool
    repeat: tuple | None      # (j, i) with gamma_j ~ gamma_i, j < i
    language: tuple | None    # explicit L(G) in the finite case
    steps: int


def _unique_successor(g, s):
    succ = etol_mod.step(g, s, 0)
    if len(succ) != 1:
        raise PreconditionError("system is not deterministic at %r" % (s,))
    return succ[0]


def edol_analyze(g, bound, hard_cap=20000, max_form_len=4096):
    """Walk gamma_0 => gamma_1 => ... and look for commutatively
    equivalent (finiteness) or identical (ambiguity) entries.

    On a finiteness hit the sequence is continued to an exact repeat
    (guaranteed: the commutation classes cycle and each class is finite)
    and the full language is produced explicitly.  Forms beyond the
    length guard end the walk early; the bound reported is then the
    number of steps actually taken."""
    if len(g.tables) != 1 or not g.table_deterministic(0):
        raise PreconditionError("edol_analyze needs a single-table deterministic system")
    if g.reduced:
        raise PreconditionError("the sequence view uses plain systems")
    gamma = [(g.axiom,)]
    first = {tuple(sorted(gamma[0])): 0}   # Parikh multiset -> first index
    repeat = None
    while repeat is None and len(gamma) <= bound and len(gamma[-1]) <= max_form_len:
        gamma.append(_unique_successor(g, gamma[-1]))
        i = len(gamma) - 1
        j = first.setdefault(tuple(sorted(gamma[i])), i)
        if j < i:
            repeat = (j, i)
    if repeat is None:
        return EdolReport("no-equivalence", False, None, None, len(gamma) - 1)
    j, i = repeat
    ambiguous = gamma[j] == gamma[i]
    # gamma[:i] has no commutative repeat, so its forms are distinct; the
    # first exact repeat is at some s >= i, and s past hard_cap raises
    seen = set(gamma[:-1])
    while gamma[-1] not in seen and len(gamma) <= hard_cap + 1:
        seen.add(gamma[-1])
        gamma.append(_unique_successor(g, gamma[-1]))
    if len(gamma) > hard_cap + 1:
        raise PreconditionError("no exact repeat within the hard cap")
    lang = {w for w in gamma[:-1] if g.is_word(w)}
    return EdolReport("finite", ambiguous, repeat, tuple(sort_words(lang)), len(gamma) - 1)


def edol_regularize(g, k, analyze_bound=24, audit_len=10, verify_len=15):
    """Commutative-regularity witness for a finite-index single-table
    deterministic system.

    Finite languages (detected by a commutative repeat) give a literal
    witness.  Otherwise the pipeline runs reduction, conversion to a
    matrix grammar, and the theta-image of its Szilard automaton; the
    injectivity of u -> theta(alpha) is exactly what the no-repeat
    analysis guarantees."""
    report = edol_analyze(g, analyze_bound)
    if report.kind == "finite":
        states = [0]
        edges = []
        accepting = set()
        for w in report.language:
            q = len(states)
            states.append(q)
            edges.append((0, tuple(w), q))
            accepting.add(q)
        wit = RegularWitness(
            tuple(states),
            0,
            frozenset(accepting),
            tuple(edges),
            {"construction": "edol-finite", "language_size": len(report.language)},
        )
        return _verified(wit, g, verify_len)

    audit = etol_mod.index_audit(g, audit_len)
    if not audit.complete or not audit.bounded_by(k):
        raise PreconditionError(
            "index audit failed: system is not finite-index within %d" % k
        )
    reduced = etol_mod.to_reduced(g)
    grammar = mx.reduced_etol_to_matrix(reduced, max(k, 1) + 1)
    dfa = mx.szilard_dfa(grammar, max(k, 1) + 2)
    wit = _szilard_witness(dfa, mx.theta(grammar), {
        "construction": "edol-theta-szilard",
        "index_audit_len": audit_len,
        "analyze_bound": analyze_bound,
    })
    return _verified(wit, g, verify_len)
