"""Commutative regularization: prefix-code construction, matrix and ETOL
regularizers, the single-table deterministic pipeline, and the
Parikh-multiset verifier used to check every witness.

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
    DEFAULT_BUDGET,
    Enumeration,
    PreconditionError,
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

    Preconditions: every |vi| >= m, and per letter at most one vi is a
    power of that letter.  Follows the inductive argument: handle the
    longest word last; letter powers pass through unchanged; otherwise
    rearrange a length-m factor with two distinct letters so the result
    differs from every length-m prefix already in the code, choosing the
    lexicographically smallest such rearrangement.
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
    powers = {}
    for v in vs:
        letters = set(v)
        if len(letters) == 1:
            a = v[0]
            powers[a] = powers.get(a, 0) + 1
    if any(c > 1 for c in powers.values()):
        raise PreconditionError("two words are powers of the same letter")

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


def is_code_bounded(words, factor=4):
    """Unique-factorization check on all concatenations up to a length
    bound; exact for prefix sets, bounded evidence otherwise."""
    ws = [tuple(w) for w in words]
    if any(not w for w in ws) or len(set(ws)) != len(ws):
        return False
    if is_prefix_code(ws):
        return True
    bound = factor * max(len(w) for w in ws)
    counts = {(): 1}
    frontier = {(): 1}
    while frontier:
        nxt = {}
        for s, c in frontier.items():
            for w in ws:
                t = s + w
                if len(t) > bound:
                    continue
                nxt[t] = nxt.get(t, 0) + c
        for t, c in nxt.items():
            counts[t] = counts.get(t, 0) + c
            if counts[t] > 1:
                return False
        frontier = nxt
    return True


@dataclass(frozen=True)
class Cor2Verdict:
    """Syntactic check: every matrix emits at least |M| terminals, and per
    letter at most one matrix's terminal projection is a power of it."""

    condition1: bool
    condition2: bool
    details: str = ""

    def __bool__(self):
        return self.condition1 and self.condition2


def check_cor2_conditions(g):
    th = mx.theta(g)
    n = len(g.matrices)
    bad1 = [i for i, t in enumerate(th) if len(t) < n]
    per_letter = {}
    for i, t in enumerate(th):
        if len(set(t)) <= 1:  # includes the empty projection
            key = t[0] if t else ""
            per_letter.setdefault(key, []).append(i)
    bad2 = {a: ms for a, ms in per_letter.items() if len(ms) > 1}
    details = []
    if bad1:
        details.append("matrices %r emit fewer than %d terminals" % (bad1, n))
    if bad2:
        details.append("single-letter projections collide: %r" % (bad2,))
    return Cor2Verdict(not bad1, not bad2, "; ".join(details))


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
    out = set()
    seen = {(wit.initial, ())}
    frontier = [(wit.initial, ())]
    explored = 0
    while frontier:
        nxt = []
        for q, w in frontier:
            explored += 1
            if explored > budget.max_steps:
                return Enumeration(sort_words(out), False, explored)
            if q in wit.accepting:
                out.add(w)
            for label, dst in adj.get(q, ()):
                t = (dst, w + label)
                if len(t[1]) <= max_len and t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return Enumeration(sort_words(out), True, explored)


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


def _audit_matrix_unambiguous(g, audit_len):
    words = enumerate_language(g, audit_len).require_complete().words
    for w in words:
        dc = mx.count_derivations(g, w)
        if not (dc.exact and dc.value == 1):
            raise PreconditionError(
                "unambiguity audit failed at %r: %s derivations" % (w, dc)
            )
    return len(words)


def regularize_matrix(g, k, code_words=None, audit_len=8, verify_len=12):
    """Witness for Prop-style matrix regularization: relabel the Szilard
    automaton edges by a code commutatively matching theta.

    ``code_words`` maps matrix index to its code word; omitted, the
    cor2-style conditions are checked and a prefix code is built from
    the theta images."""
    dfa = mx.szilard_dfa(g, k)  # raises unless the grammar is normal-form
    th = mx.theta(g)
    audited = _audit_matrix_unambiguous(g, audit_len)
    if code_words is None:
        verdict = check_cor2_conditions(g)
        if not verdict:
            raise PreconditionError(
                "automatic code assignment needs the padded-output conditions: %s"
                % verdict.details
            )
        code_words = build_prefix_code(th)
        prefix = True
    else:
        code_words = [tuple(w) for w in code_words]
        if len(code_words) != len(g.matrices):
            raise PreconditionError("one code word per matrix required")
        prefix = is_prefix_code(code_words)
    for i, (cw, t) in enumerate(zip(code_words, th)):
        if not comm_equivalent(cw, t):
            raise PreconditionError(
                "code word %d is not commutatively equivalent to its theta image" % i
            )
    if not is_code_bounded(code_words):
        raise PreconditionError("assigned words do not form a code")

    edges = tuple(
        (q, tuple(code_words[mi]), t) for (q, mi), t in dfa.transitions.items()
    )
    wit = RegularWitness(
        states=tuple(range(len(dfa.states))),
        initial=dfa.initial,
        accepting=dfa.accepting,
        edges=edges,
        provenance={
            "construction": "matrix-szilard-code",
            "audit_len": audit_len,
            "audited_words": audited,
            "prefix_code": prefix,
        },
    )
    check = verify_comm_equivalence(wit, g, verify_len)
    if not check:
        raise PreconditionError(
            "witness failed Parikh-multiset verification at %r" % (check.witness_vector,)
        )
    wit.provenance["verified_len"] = verify_len
    return wit


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


def _audit_etol_unambiguous(g, audit_len):
    words = enumerate_language(g, audit_len).require_complete().words
    for w in words:
        tc = etol_mod.count_trees(g, w)
        if not (tc.exact and tc.value == 1):
            raise PreconditionError(
                "unambiguity audit failed at %r: %s trees" % (w, tc)
            )
    return len(words)


def regularize_etol(g, k, codes=None, audit_len=8, verify_len=12):
    """Right-linear witness for a reduced unambiguous finite-index system
    with per-nonterminal prefix codes matching the terminal projections.

    Omitting ``codes`` checks the padded-production conditions (each rhs
    emits at least |R_X| terminals; per letter at most one single-letter
    projection) and builds the codes automatically."""
    if not g.reduced:
        raise PreconditionError("regularize_etol expects a reduced system")
    profiles = mx._etol_profiles(g, k)  # raises IndexExceeded past k
    audited = _audit_etol_unambiguous(g, audit_len)
    rhs_map = right_hand_sides(g)
    if codes is None:
        codes = {}
        for x, rhss in rhs_map.items():
            if not rhss:
                continue
            projections = [_terminal_projection(g, r) for r in rhss]
            if any(len(p) < len(rhss) for p in projections):
                raise PreconditionError(
                    "automatic codes need every %r-production to emit >= %d terminals"
                    % (x, len(rhss))
                )
            singles = {}
            for p in projections:
                if len(set(p)) <= 1:
                    key = p[0] if p else ""
                    singles[key] = singles.get(key, 0) + 1
            if any(c > 1 for c in singles.values()):
                raise PreconditionError(
                    "automatic codes need distinct single-letter projections for %r" % (x,)
                )
            codes[x] = tuple(build_prefix_code(projections))
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
    edges = []
    for x in order:
        combos = profiles[x]
        for ti in sorted(combos):
            for choice, newprof, _ in combos[ti]:
                u = []
                for i, rhs in enumerate(choice):
                    pos = rhs_map[x[i]].index(rhs)
                    u.extend(codes[x[i]][pos])
                edge = (index[x], tuple(u), index.get(newprof))
                if edge[2] is not None and edge not in edges:
                    edges.append(edge)
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
    check = verify_comm_equivalence(wit, g, verify_len)
    if not check:
        raise PreconditionError(
            "witness failed Parikh-multiset verification at %r" % (check.witness_vector,)
        )
    wit.provenance["verified_len"] = verify_len
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
    for _ in range(bound):
        if len(gamma[-1]) > max_form_len:
            break
        gamma.append(_unique_successor(g, gamma[-1]))
    repeat = None
    ambiguous = False
    for i in range(1, len(gamma)):
        for j in range(i):
            if comm_equivalent(gamma[j], gamma[i]):
                repeat = (j, i)
                ambiguous = gamma[j] == gamma[i]
                break
        if repeat:
            break
    if repeat is None:
        return EdolReport("no-equivalence", False, None, None, len(gamma) - 1)
    seen = {gamma[0]: 0}
    cur = gamma[0]
    lang = set()
    steps = 0
    while True:
        if g.is_word(cur):
            lang.add(cur)
        nxt = _unique_successor(g, cur)
        steps += 1
        if steps > hard_cap:
            raise PreconditionError("no exact repeat within the hard cap")
        if nxt in seen:
            break
        seen[nxt] = steps
        cur = nxt
    return EdolReport("finite", ambiguous, repeat, tuple(sort_words(lang)), steps)


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
        check = verify_comm_equivalence(wit, g, verify_len)
        if not check:
            raise PreconditionError("finite witness mismatch")
        wit.provenance["verified_len"] = verify_len
        return wit

    audit = etol_mod.index_audit(g, audit_len)
    if not audit.complete or not audit.bounded_by(k):
        raise PreconditionError(
            "index audit failed: system is not finite-index within %d" % k
        )
    reduced = etol_mod.to_reduced(g)
    grammar = mx.reduced_etol_to_matrix(reduced, max(k, 1) + 1)
    dfa = mx.szilard_dfa(grammar, max(k, 1) + 2)
    th = mx.theta(grammar)
    edges = tuple((q, th[mi], t) for (q, mi), t in dfa.transitions.items())
    wit = RegularWitness(
        states=tuple(range(len(dfa.states))),
        initial=dfa.initial,
        accepting=dfa.accepting,
        edges=edges,
        provenance={
            "construction": "edol-theta-szilard",
            "index_audit_len": audit_len,
            "analyze_bound": analyze_bound,
        },
    )
    check = verify_comm_equivalence(wit, g, verify_len)
    if not check:
        raise PreconditionError(
            "witness failed Parikh-multiset verification at %r" % (check.witness_vector,)
        )
    wit.provenance["verified_len"] = verify_len
    return wit
