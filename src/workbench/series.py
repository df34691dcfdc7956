"""Counting and characteristic series at desk scale.

The counting side counts the accepted paths of the Szilard automaton of
a normal-form matrix grammar, each matrix weighted by its theta-image:
the length |theta(m)| as a 1-vector, or the Parikh vector psi(theta(m)),
which needs at least one terminal.  A breadth-first walk visits the
(state, weight so far) nodes reachable within the bound, and one pass in
Kahn's topological order sums exact path counts over them.  The nodes
that order never reaches lie on or after a zero-weight cycle; their
accepting weights have infinitely many paths and read INFINITE.

The brute side counts words straight out of the enumeration oracle, and
the recurrence fitter searches for the smallest-order exact-rational
linear recurrence, solving on a prefix and validating on every held-out
term so short-sequence coincidences don't pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .foundation import (
    Alphabet,
    PreconditionError,
    _breadth_first,
    enumerate_language,
    parikh,
)
from .matrix import szilard_dfa, theta
from .semilinear import _row_reduce

INFINITE = float("inf")


@dataclass(frozen=True)
class CoefficientTable:
    """Counts per length (mode 'length') or per Parikh vector ('parikh').

    Missing keys inside the bound mean zero; a value of INFINITE marks a
    coefficient pumped by a zero-weight cycle."""

    entries: dict
    bound: int
    mode: str

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def lengths(self):
        return [self[n] for n in range(self.bound + 1)]

    def marginal_by_total(self):
        """Collapse Parikh-mode entries to per-total-size counts."""
        if self.mode != "parikh":
            raise PreconditionError("marginalization applies to parikh mode")
        out = {}
        for v, c in self.entries.items():
            n = sum(v)
            out[n] = out.get(n, 0) + c
        return CoefficientTable(out, self.bound, "length")


def path_counts(dfa, weights, width, bound):
    """Accepted paths of ``dfa`` per weight, for weights of total <= ``bound``.

    ``weights[m]`` is the weight of transition letter m, a vector of
    ``width`` non-negative integers.  A breadth-first walk visits every
    (state, weight so far) node reachable within the bound, and one pass
    in Kahn's topological order over those nodes sums the paths into
    each.  A node that the order never reaches lies on or after a cycle
    of zero-weight edges, so it has infinitely many paths: an accepting
    node of that kind makes its weight INFINITE."""
    out = {}
    for (q, m), t in dfa.transitions.items():
        out.setdefault(q, []).append((t, weights[m]))
    edges = {}

    def successors(node):
        q, w = node
        nxt = [(t, tuple(map(add, w, ew))) for t, ew in out.get(q, ())]
        edges[node] = [n for n in nxt if sum(n[1]) <= bound]
        return edges[node]

    start = (dfa.initial, (0,) * width)
    nodes = list(_breadth_first(start, successors))
    indegree = Counter(n for nxt in edges.values() for n in nxt)
    paths = {start: 1}
    ready = [] if indegree[start] else [start]
    while ready:
        node = ready.pop()
        for n in edges[node]:
            paths[n] = paths.get(n, 0) + paths[node]
            indegree[n] -= 1
            if not indegree[n]:
                ready.append(n)
    table = {}
    for node in nodes:
        q, w = node
        if q in dfa.accepting:
            table[w] = INFINITE if indegree[node] else table.get(w, 0) + paths[node]
    return table


def counting_coefficients(g, n_max, k=8):
    """Accepted matrix strings per theta-image length, n <= n_max.

    For an unambiguous normal-form grammar this is the counting function
    of L(G)."""
    weights = [(len(t),) for t in theta(g)]
    table = path_counts(szilard_dfa(g, k), weights, 1, n_max)
    return CoefficientTable({n: c for (n,), c in table.items()}, n_max, "length")


def parikh_multiplicities(g, norm_bound, k=8, alphabet=None):
    """Accepted matrix strings per theta-image Parikh vector, |v| <= bound.

    Parikh vectors need at least one terminal (or an explicit alphabet).
    For an unambiguous normal-form grammar these are the coefficients of
    the characteristic series of L(G) in commutative variables."""
    dfa = szilard_dfa(g, k)
    if alphabet is None and not g.terminals:
        raise PreconditionError("parikh mode needs at least one terminal")
    alphabet = alphabet or Alphabet(g.terminals)
    weights = [parikh(t, alphabet) for t in theta(g)]
    table = path_counts(dfa, weights, len(alphabet), norm_bound)
    return CoefficientTable(table, norm_bound, "parikh")


def brute_counting(spec, n_max, budget=None):
    """|L(spec) ∩ Σ^n| per n <= n_max, straight from the oracle."""
    enum = enumerate_language(spec, n_max, budget).require_complete()
    out = {}
    for w in enum.words:
        out[len(w)] = out.get(len(w), 0) + 1
    return CoefficientTable(out, n_max, "length")


@dataclass(frozen=True)
class RecurrenceFit:
    """a_n = sum c_i * a_{n-i}, verified on every supplied term past the
    initial segment."""

    order: int
    coefficients: tuple
    checked_terms: int

    def __str__(self):
        cs = ", ".join(str(c) for c in self.coefficients)
        return "order %d: a[n] = %s (validated on %d terms)" % (
            self.order,
            " + ".join(
                "(%s)*a[n-%d]" % (c, i + 1) for i, c in enumerate(self.coefficients)
            ),
            self.checked_terms,
        ) if cs else "order 0"


def _solve_exact(rows, rhs):
    """Particular rational solution of rows·c = rhs, free vars at 0."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = _row_reduce(m, ncols)
    if any(row[-1] != 0 for row in m[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = m[i][-1]
    return sol


def fit_recurrence(seq, max_order, slack=4):
    """Smallest order d <= max_order whose recurrence, solved from the
    first 2d terms, validates on all remaining terms; None if no order
    does."""
    seq = [Fraction(x) for x in seq]
    if len(seq) < 2 * max_order + slack:
        raise PreconditionError(
            "need at least %d terms, got %d" % (2 * max_order + slack, len(seq))
        )
    for d in range(1, max_order + 1):
        rows = []
        rhs = []
        for j in range(d):
            rows.append([seq[d + j - i] for i in range(1, d + 1)])
            rhs.append(seq[d + j])
        sol = _solve_exact(rows, rhs)
        if sol is None:
            continue
        ok = all(
            seq[n] == sum(sol[i] * seq[n - i - 1] for i in range(d))
            for n in range(d, len(seq))
        )
        if ok:
            return RecurrenceFit(d, tuple(sol), len(seq) - d)
    return None
