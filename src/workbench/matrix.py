"""Context-free matrix grammars: sequential matrix application with
origin tracking, finite-index normal form, the Szilard automaton, the
per-matrix terminal morphism, and conversions to and from reduced ETOL.

A matrix applies its productions in order, each rewriting one occurrence
of its left-hand symbol; all occurrence choices are explored.  Each
complete application yields, per position of the source form, the word
that position derived (productions fired inside the same matrix funnel
into the origin they rewrote).  Derivations are counted at exactly this
granularity: a step is a (matrix, per-origin tuple) pair.  For grammars
in normal form every granularity collapses to the matrix string itself,
which is what makes the Szilard automaton deterministic.

The four conversions (normal form, matrix to reduced ETOL, reduced ETOL
to EDTOL and to matrix) read one profile table.  A profile is the
nonterminal sequence of a sentential form; the table maps every profile
reachable within the index bound to its rows, one per application of a
rule (a matrix, or an ETOL table with one rewrite choice per position),
each row giving the word every position rewrites to and the successor
profile.  Two compilers turn rows into output rules:

* the row-matrix compiler (normal form, ETOL to matrix) renames a row's
  nonterminals to (symbol, register) pairs, registers packed 1..n left
  to right, with one end-marker symbol carrying the row width;
* the row-table renamer (matrix to ETOL, ETOL to EDTOL) names each
  profile position and sends everything outside the row to a dead
  symbol.

Either way every output rule rewrites an entire row (plus the marker),
so it applies from exactly one profile; that exactness is what preserves
derivation counts (plain register pairs would admit prefix-profile
applications that inflate ambiguity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .foundation import (
    DEFAULT_BUDGET,
    PreconditionError,
    _breadth_first,
    _budgeted,
    register_enumerator,
)
from .etol import EtolSystem, _count_paths, _least_yields, _options


class IndexExceeded(PreconditionError):
    """A reachable sentential form needs more registers than the index bound."""


class NormalFormViolation(PreconditionError):
    """A reachable profile breaks distinct-occurrence or unique-application."""


class MatrixGrammar:
    """Matrix rules over context-free productions (lhs in N, rhs over V*)."""

    def __init__(self, nonterminals, terminals, start, matrices):
        self.nonterminals = tuple(nonterminals)
        self.terminals = tuple(terminals)
        self.start = start
        nset, tset = set(self.nonterminals), set(self.terminals)
        if nset & tset:
            raise ValueError("nonterminals and terminals must be disjoint")
        if start not in nset:
            raise ValueError("start symbol must be a nonterminal")
        norm = []
        for m in matrices:
            prods = []
            for lhs, rhs in m:
                if lhs not in nset:
                    raise ValueError("production lhs %r is not a nonterminal" % (lhs,))
                rhs = tuple(rhs)
                for s in rhs:
                    if s not in nset and s not in tset:
                        raise ValueError("unknown symbol %r in rhs" % (s,))
                prods.append((lhs, rhs))
            if not prods:
                raise ValueError("empty matrix")
            norm.append(tuple(prods))
        self.matrices = tuple(norm)
        self._nset = nset
        self._tset = tset

    def is_word(self, sentential):
        return self._tset.issuperset(sentential)

    def profile(self, sentential):
        return tuple(s for s in sentential if s in self._nset)

    def __repr__(self):
        return "MatrixGrammar(%d matrices, start=%r)" % (len(self.matrices), self.start)


def matrix_applications(g, sentential, m_idx):
    """All complete applications of one matrix, with origin tracking.

    Returns distinct (successor, per_origin, used_fresh) triples where
    per_origin[i] is the word derived by position i of the input and
    used_fresh flags patterns that rewrote a symbol created earlier in
    the same matrix.
    """
    sentential = tuple(sentential)
    start = tuple((i, s, True) for i, s in enumerate(sentential))  # (origin, sym, original?)
    results = {}

    def run(form, p, used_fresh):
        if p == len(g.matrices[m_idx]):
            per_origin = tuple(
                tuple(s for (o, s, _) in form if o == i) for i in range(len(sentential))
            )
            succ = tuple(s for (_, s, _) in form)
            prev = results.get(per_origin)
            results[per_origin] = (succ, used_fresh or (prev[1] if prev else False))
            return
        lhs, rhs = g.matrices[m_idx][p]
        for pos, (origin, sym, original) in enumerate(form):
            if sym != lhs:
                continue
            new = form[:pos] + tuple((origin, s, False) for s in rhs) + form[pos + 1:]
            run(new, p + 1, used_fresh or not original)

    run(start, 0, False)
    out = []
    for per_origin, (succ, used_fresh) in sorted(results.items()):
        out.append((succ, per_origin, used_fresh))
    return out


def apply_matrix(g, sentential, m_idx):
    """All successor sentential forms; empty when the matrix blocks."""
    return sorted(
        {succ for succ, _, _ in matrix_applications(g, sentential, m_idx)},
        key=lambda w: (len(w), w),
    )


def _min_yield_map(g):
    return _least_yields(g.nonterminals, g.terminals, [p for m in g.matrices for p in m])


def enumerate_matrix(g, max_len, budget=None):
    m = _min_yield_map(g)

    def successors(s):
        if not g.is_word(s):
            for mi in range(len(g.matrices)):
                yield from apply_matrix(g, s, mi)

    return _budgeted(
        _breadth_first((g.start,), successors, lambda s: sum(m[x] for x in s) <= max_len),
        lambda s: s if g.is_word(s) and len(s) <= max_len else None,
        budget or DEFAULT_BUDGET,
    )


register_enumerator(MatrixGrammar, enumerate_matrix)


def count_derivations(g, w, max_depth=None, cap=4096):
    """Distinct derivations of w, a derivation being a sequence of
    (matrix, per-origin tuple) steps; exact unless the budget is hit."""

    def successors(s):
        for mi in range(len(g.matrices)):
            for succ, _, _ in matrix_applications(g, s, mi):
                yield succ, 1

    return _count_paths(
        (g.start,), w, successors, g.is_word, True, g._tset,
        _min_yield_map(g), max_depth, cap,
    )


def _explore(start, k, rows):
    """The profile table: each profile reachable from ``start`` mapped to
    ``rows(profile)``, a dict {rule: [(parts, successor profile,
    used_fresh), ...]} where parts[i] is the word position i rewrites to.
    The empty profile has nothing left to rewrite and gets no rows.

    Raises IndexExceeded when a reachable profile is longer than k."""
    table = {}
    frontier = [start]
    seen = {start}
    while frontier:
        x = frontier.pop()
        if len(x) > k:
            raise IndexExceeded("profile %r exceeds index bound %d" % (x, k))
        table[x] = rows(x) if x else {}
        for hits in table[x].values():
            for _, nxt, _ in hits:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return table


def _matrix_profiles(g, k):
    """Profile table of a matrix grammar; rules are matrix indexes and a
    row is one complete application."""

    def rows(x):
        apps = {}
        for mi in range(len(g.matrices)):
            hits = matrix_applications(g, x, mi)
            if hits:
                apps[mi] = [(parts, g.profile(succ), fresh) for succ, parts, fresh in hits]
        return apps

    return _explore((g.start,), k, rows)


def _etol_profiles(g, k):
    """Profile table of a reduced ETOL system; rules are table indexes and
    a row is one rewrite combination."""
    if not g.reduced:
        raise PreconditionError("conversion expects a reduced ETOL system")

    def rows(x):
        combos = {}
        for ti in range(len(g.tables)):
            opts = _options(g, x, ti)
            if opts is None:
                continue
            combos[ti] = []
            for parts in product(*opts):
                succ = tuple(s for part in parts for s in part if g.is_nonterminal(s))
                combos[ti].append((parts, succ, False))
        return combos

    return _explore((g.axiom,), k, rows)


def _renamed(parts, terminals, name):
    """``parts`` with the row's nonterminals renamed name(symbol, c), c
    counting them 1, 2, ... left to right across the row."""
    c = 0
    out = []
    for part in parts:
        rhs = []
        for s in part:
            if s not in terminals:
                c += 1
                s = name(s, c)
            rhs.append(s)
        out.append(tuple(rhs))
    return out


def _separator(sep, taken, names):
    """``sep``, grown by its first character until ``names(sep)`` avoids
    every symbol in ``taken``."""
    while not taken.isdisjoint(names(sep)):
        sep += sep[0]
    return sep


def _row_matrices(table, k, start, terminals, name, sep, marker, used):
    """Matrix grammar with one matrix per (parity, profile, rule, row).

    A row's nonterminals become registers name(symbol, i, parity, sep),
    packed 1..n left to right, followed by the end marker name(marker,
    n + 1, parity, sep) carrying the row width.  Each matrix rewrites its
    entire row plus the marker, so it applies from exactly one profile
    and derivation counts survive.  Registers alternate between two
    namespaces by step parity so the fresh names a matrix introduces can
    never collide with the names a later production of the same matrix
    still has to rewrite.  The separator grows until no register is an
    input terminal.  ``used`` holds every input symbol: the marker must
    not share its registers with a nonterminal's."""
    tset = set(terminals)
    symbols = {s for x in table for s in x}
    sep = _separator(sep, tset, lambda sep: {
        name(s, i, p, sep) for s in symbols for i in range(1, k + 1) for p in (0, 1)
    })
    name = partial(name, sep=sep)
    while marker in used or any(
        name(marker, i, p) in used for i in range(k + 2) for p in (0, 1)
    ):
        marker += "'"
    start0 = "S0"
    while start0 in used:
        start0 += "'"
    matrices = [((start0, (name(start, 1, 0), name(marker, 2, 0))),)]
    for parity in (0, 1):
        flip = 1 - parity
        for x in sorted(table):
            for rule in sorted(table[x]):
                for parts, succ, _ in table[x][rule]:
                    rhss = _renamed(parts, tset, lambda s, c: name(s, c, flip))
                    prods = [
                        (name(s, i, parity), rhs) for i, (s, rhs) in enumerate(zip(x, rhss), 1)
                    ]
                    new_mark = (name(marker, len(succ) + 1, flip),) if succ else ()
                    prods.append((name(marker, len(x) + 1, parity), new_mark))
                    matrices.append(tuple(prods))
    nts = {lhs for m in matrices for lhs, _ in m}
    nts.update(s for m in matrices for _, rhs in m for s in rhs if s not in tset)
    return MatrixGrammar(sorted(nts), terminals, start0, matrices)


def _row_etol(table, start, terminals, name, sep):
    """Reduced ETOL with one deterministic table per (profile, rule, row).

    Position i of profile x is the nonterminal name(x, i, sep), the
    separator grown until no such name is an input terminal.  A table
    sends its row to the successor row's names and every other
    nonterminal to the dead symbol, so it applies from exactly one
    profile and derivation counts survive."""
    tset = set(terminals)
    sep = _separator(sep, tset, lambda sep: {
        name(x, i, sep) for x in table for i in range(1, len(x) + 1)
    })
    name = partial(name, sep=sep)
    dead = "F"
    while dead in tset:
        dead += "'"
    nts = {dead}
    nts.update(name(x, i) for x in table for i in range(1, len(x) + 1))
    tables = []
    for x in sorted(table):
        for rule in sorted(table[x]):
            for parts, succ, _ in table[x][rule]:
                t = dict.fromkeys(nts, ((dead,),))
                rhss = _renamed(parts, tset, lambda s, c: name(succ, c))
                t.update((name(x, i), (rhs,)) for i, rhs in enumerate(rhss, 1))
                tables.append(t)
    if not tables:
        tables.append(dict.fromkeys(nts, ((dead,),)))
    return EtolSystem(sorted(nts), terminals, name(start, 1), tables, reduced=True)


@dataclass(frozen=True)
class NormalFormCert:
    """Evidence from exhaustive profile exploration (the profile space is
    finite, so the certificate covers every reachable sentential form)."""

    index: int
    profiles: tuple
    already_normal: bool


def _check_normal(profile_table):
    for x, apps in profile_table.items():
        if len(set(x)) != len(x):
            return False
        for mi, hits in apps.items():
            if len(hits) > 1:
                return False
            if any(used_fresh for _, _, used_fresh in hits):
                return False
    return True


def normal_form(g, k):
    """Equivalent index-k grammar whose sentential forms carry pairwise
    distinct nonterminals and whose matrices apply fully, plus the
    certificate.  Derivation counts per word are preserved exactly.
    Grammars already satisfying the conditions are returned unchanged."""
    table = _matrix_profiles(g, k)
    if _check_normal(table):
        return g, NormalFormCert(k, tuple(sorted(table)), True)
    out = _row_matrices(
        table, k, g.start, g.terminals,
        lambda s, i, p, sep: "[%s%s%d%s]" % (s, sep, i, "ab"[p]), "|",
        "#", set(g.terminals) | set(g.nonterminals),
    )
    cert_table = _matrix_profiles(out, k + 2)
    if not _check_normal(cert_table):
        raise NormalFormViolation("register construction left a violation")
    return out, NormalFormCert(k, tuple(sorted(cert_table)), False)


def theta(g):
    """Per matrix, the concatenated terminal parts of its right-hand sides."""
    out = []
    for matrix in g.matrices:
        img = []
        for _, rhs in matrix:
            img.extend(s for s in rhs if s in g._tset)
        out.append(tuple(img))
    return tuple(out)


@dataclass(frozen=True)
class SzilardDFA:
    """States are nonterminal profiles, transitions are matrix indexes,
    the empty profile accepts; deterministic for normal-form grammars."""

    states: tuple
    initial: int
    accepting: frozenset
    transitions: dict
    n_letters: int

    def step(self, state, letter):
        return self.transitions.get((state, letter))

    def accepts(self, seq):
        q = self.initial
        for a in seq:
            q = self.transitions.get((q, a))
            if q is None:
                return False
        return q in self.accepting

    def accepted_strings(self, max_len):
        def successors(node):
            q, seq = node
            if len(seq) < max_len:
                for a in range(self.n_letters):
                    t = self.transitions.get((q, a))
                    if t is not None:
                        yield t, seq + (a,)

        return [
            seq for q, seq in _breadth_first((self.initial, ()), successors)
            if q in self.accepting
        ]


def szilard_dfa(g, k):
    """DFA over matrix indexes accepting exactly the Szilard language.

    Requires the normal-form conditions; transitions follow the unique
    profile successor, the empty profile is the one accepting state."""
    table = _matrix_profiles(g, k)
    if not _check_normal(table):
        raise NormalFormViolation(
            "grammar is not in normal form; run normal_form first"
        )
    profiles = sorted(table)
    index = {x: i for i, x in enumerate(profiles)}
    transitions = {}
    for x, apps in table.items():
        for mi, hits in apps.items():
            transitions[(index[x], mi)] = index[hits[0][1]]
    accepting = frozenset([index[()]]) if () in index else frozenset()
    return SzilardDFA(
        tuple(profiles), index[(g.start,)], accepting, transitions, len(g.matrices)
    )


def dfa_equivalent(d1, d2):
    """Language equality of two Szilard-style DFAs over one alphabet,
    by synchronized search with implicit dead states."""
    if d1.n_letters != d2.n_letters:
        return False
    DEAD = -1

    def successors(pair):
        q1, q2 = pair
        for a in range(d1.n_letters):
            t = (d1.transitions.get((q1, a), DEAD), d2.transitions.get((q2, a), DEAD))
            if t != (DEAD, DEAD):
                yield t

    return all(
        (q1 in d1.accepting) == (q2 in d2.accepting)
        for q1, q2 in _breadth_first((d1.initial, d2.initial), successors)
    )


def replay(g, alpha):
    """Replay a matrix string from the start symbol; the sentential form
    sequence, or None where the derivation blocks (normal form only)."""
    forms = [(g.start,)]
    cur = (g.start,)
    for mi in alpha:
        succ = apply_matrix(g, cur, mi)
        if not succ:
            return None
        if len(succ) > 1:
            raise NormalFormViolation("ambiguous application during replay")
        cur = succ[0]
        forms.append(cur)
    return forms


def matrix_to_reduced_etol(g, k):
    """Reduced ETOL with the same language and derivation counts.

    Nonterminals are (profile, position) pairs; one table per (profile,
    matrix, application); everything foreign falls to the dead symbol."""
    return _row_etol(
        _matrix_profiles(g, k), (g.start,), g.terminals,
        lambda x, i, sep: "[%s%s%d]" % (".".join(x), sep, i), "|",
    )


def reduced_etol_to_edtol(g, k):
    """Deterministic reduced system: nonterminals get packed position
    subscripts; one table per (profile, table, rewrite combination)."""
    return _row_etol(
        _etol_profiles(g, k), (g.axiom,), g.sigma,
        lambda x, i, sep: "%s%s%d" % (x[i - 1], sep, i), "@",
    )


def reduced_etol_to_matrix(g, k):
    """Matrix grammar simulating one parallel step per matrix.

    Position-subscripted nonterminals plus a row-width end marker make
    each matrix applicable from exactly one profile, so derivations map
    bijectively and counts survive the trip."""
    return _row_matrices(
        _etol_profiles(g, k), k, g.axiom, g.sigma,
        lambda s, i, p, sep: "%s%s%d%s" % (s, sep, i, "ab"[p]), "@",
        "#row", set(g.sigma) | set(g.v),
    )
