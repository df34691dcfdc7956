"""Counting and characteristic series at desk scale.

The counting side walks the theta-weighted Szilard automaton of a
normal-form matrix grammar: the number of accepted matrix strings whose
theta-image has length n (or Parikh vector v) is computed by dynamic
programming with exact integers.  Zero-weight cycles that an accepted
path can traverse make a coefficient infinite; those are detected first
and reported as a distinguished value instead of looping.

The brute side counts words straight out of the enumeration oracle, and
the recurrence fitter searches for the smallest-order exact-rational
linear recurrence, solving on a prefix and validating on every held-out
term so short-sequence coincidences don't pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .foundation import PreconditionError, enumerate_language, parikh, Alphabet
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


@dataclass(frozen=True)
class WeightedSzilard:
    """Szilard DFA with one weight per matrix: |theta(m)| in length mode,
    psi(theta(m)) in Parikh mode."""

    dfa: object
    weights: tuple
    mode: str


def weighted_szilard(g, k, mode="length", alphabet=None):
    dfa = szilard_dfa(g, k)
    th = theta(g)
    if mode == "length":
        weights = tuple(len(t) for t in th)
    elif mode == "parikh":
        alphabet = alphabet or Alphabet(g.terminals)
        weights = tuple(parikh(t, alphabet) for t in th)
    else:
        raise ValueError("mode must be length or parikh")
    return WeightedSzilard(dfa, weights, mode)


def _edges(ws):
    out = []
    for (q, mi), t in ws.dfa.transitions.items():
        out.append((q, ws.weights[mi], t))
    return out


def _zero(ws):
    return 0 if ws.mode == "length" else tuple([0] * len(ws.weights[0]))


def _wadd(a, b):
    if isinstance(a, int):
        return a + b
    return tuple(x + y for x, y in zip(a, b))


def _wtotal(w):
    return w if isinstance(w, int) else sum(w)


def _pump_states(ws):
    """States on a zero-weight cycle that some accepted path can visit."""
    zero = _zero(ws)
    zero_adj = {}
    for q, w, t in _edges(ws):
        if w == zero:
            zero_adj.setdefault(q, set()).add(t)

    def zero_cycle(q):
        stack = list(zero_adj.get(q, ()))
        seen = set(stack)
        while stack:
            t = stack.pop()
            if t == q:
                return True
            for u in zero_adj.get(t, ()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return False

    adj = {}
    radj = {}
    for q, _, t in _edges(ws):
        adj.setdefault(q, set()).add(t)
        radj.setdefault(t, set()).add(q)

    def reach(starts, graph):
        seen = set(starts)
        stack = list(starts)
        while stack:
            q = stack.pop()
            for t in graph.get(q, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    fwd = reach([ws.dfa.initial], adj)
    bwd = reach(list(ws.dfa.accepting), radj)
    useful = fwd & bwd
    return {q for q in useful if zero_cycle(q)}, useful


def path_counts(ws, bound):
    """Accepted-path counts per weight, with INFINITE where a zero-weight
    cycle is on some accepted path of that weight."""
    zero = _zero(ws)
    pump, useful = _pump_states(ws)
    edges = [e for e in _edges(ws) if e[0] in useful and e[2] in useful]

    # which weights admit an accepted path through a pump state: a
    # breadth-first search over (state, weight, passed a pump state yet)
    frontier = [(ws.dfa.initial, zero, ws.dfa.initial in pump)]
    seenr = {frontier[0]}
    infinite_weights = set()
    while frontier:
        nxt = []
        for q, w, t in frontier:
            if t and q in ws.dfa.accepting:
                infinite_weights.add(w)
            for (src, ew, dst) in edges:
                if src != q:
                    continue
                nw = _wadd(w, ew)
                if _wtotal(nw) > bound:
                    continue
                item = (dst, nw, t or dst in pump)
                if item not in seenr:
                    seenr.add(item)
                    nxt.append(item)
        frontier = nxt

    # exact counts on the pump-free useful subgraph
    adj = {}
    for q, w, t in edges:
        if q in pump or t in pump:
            continue
        adj.setdefault(q, []).append((w, t))

    zero_adj = {q: [t for (w, t) in lst if w == zero] for q, lst in adj.items()}
    order = []
    seen = {}

    def topo(q):
        seen[q] = 1
        for t in zero_adj.get(q, ()):
            if seen.get(t) == 1:
                raise PreconditionError("zero-weight cycle outside pump set")
            if t not in seen:
                topo(t)
        seen[q] = 2
        order.append(q)

    states = set()
    for q, w, t in edges:
        states.add(q)
        states.add(t)
    states.add(ws.dfa.initial)
    for q in states:
        if q not in seen and q not in pump:
            topo(q)
    topo_order = list(reversed(order))

    start = ws.dfa.initial
    counts = {}
    if start not in pump:
        counts[(start, zero)] = 1

    # enumerate weight values in increasing total order
    all_weights = {zero}
    frontier_w = {zero}
    while frontier_w:
        nw = set()
        for w in frontier_w:
            for _, ew, _ in edges:
                cand = _wadd(w, ew)
                if _wtotal(cand) <= bound and cand not in all_weights:
                    all_weights.add(cand)
                    nw.add(cand)
        frontier_w = nw
    weight_order = sorted(all_weights, key=lambda w: (_wtotal(w), repr(w)))

    for w in weight_order:
        # zero-edge propagation in topological order at this weight level
        for q in topo_order:
            c = counts.get((q, w), 0)
            if not c:
                continue
            for t in zero_adj.get(q, ()):
                counts[(t, w)] = counts.get((t, w), 0) + c
        for q in topo_order:
            c = counts.get((q, w), 0)
            if not c:
                continue
            for ew, t in adj.get(q, ()):
                if ew == zero:
                    continue
                cand = _wadd(w, ew)
                if _wtotal(cand) <= bound:
                    counts[(t, cand)] = counts.get((t, cand), 0) + c

    table = {}
    for w in weight_order:
        total = sum(counts.get((q, w), 0) for q in ws.dfa.accepting)
        key = w if ws.mode == "parikh" else _wtotal(w)
        if w in infinite_weights:
            table[key] = INFINITE
        elif total:
            table[key] = table.get(key, 0) + total
    return table


def counting_coefficients(g, n_max, k=8):
    """Accepted matrix strings per theta-image length, n <= n_max.

    For an unambiguous normal-form grammar this is the counting function
    of L(G)."""
    ws = weighted_szilard(g, k, "length")
    return CoefficientTable(path_counts(ws, n_max), n_max, "length")


def parikh_multiplicities(g, norm_bound, k=8, alphabet=None):
    """Accepted matrix strings per theta-image Parikh vector, |v| <= bound.

    For an unambiguous normal-form grammar these are the coefficients of
    the characteristic series of L(G) in commutative variables."""
    ws = weighted_szilard(g, k, "parikh", alphabet=alphabet)
    return CoefficientTable(path_counts(ws, norm_bound), norm_bound, "parikh")


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
