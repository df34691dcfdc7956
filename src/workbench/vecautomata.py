"""Decision backend for semilinear sets: synchronous multi-track base-2
automata over N^k, built by one carry compiler.

Vectors are encoded least-significant-digit first, one bit per track per
step, all tracks in lockstep.  Every language here is *padding-closed*:
appending all-zero digit tuples never changes acceptance, so the
encoding length is never ambiguous.

The compiler is the classic digit-by-digit construction for integer
linear equations A·y = b (``EquationSystem``): states are carry vectors,
reading digit tuple d from carry r requires (r_i - (A·d)_i) even on every
row and moves to (r - A·d)/2, and the zero carry accepts.  A·d is
computed once per digit and the digits are bucketed by the parity vector
of A·d, so carry r visits only the bucket keyed by r mod 2.  Each digit
tuple is filed under its kept digits: the existential columns are erased
as the system compiles, so the automaton is nondeterministic.  A linear
set c + N{p_1..p_r} is x - Σ l_j·p_j = c with the multipliers l
existential, and systems that keep the same tracks compile to one NFA
(``_ErasedNFA``), the disjoint union of their carry automata.  A subset
of its states accepts when it meets the *Z-set*, the states that reach
an accepting carry along kept-zero digits: a kept-track vector may need
zero padding before the wider erased tracks are done.

``compare`` walks pairs (S1, S2) of subsets of two such NFAs breadth
first, computing subset successors lazily and caching them per side,
and stops at the first pair that refutes the relation.  Discovery in
``digit_tuples`` order reaches each pair first along its length-lex
least digit string, so the witness is a function of the languages alone.
The DFA side (``from_equations``) is the subset automaton of the same
NFA, minimized; ``minimize`` is canonical, so equal languages give equal
automata.  It serves ``decide --dump-dir``, and ``shortest_accepted`` of
its ``combine`` products is the test oracle for ``compare``.

Transition maps may be partial: ``n_states`` is the implicit dead state
of every missing (state, digits) entry.  ``minimize`` and ``combine``
read a missing entry as that state; ``minimize`` returns a total map.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from operator import add, or_, sub

from .foundation import PreconditionError


def digit_tuples(tracks):
    return list(product((0, 1), repeat=tracks))


@dataclass(frozen=True)
class VectorDFA:
    """Deterministic synchronous automaton over {0,1}^tracks digit tuples.

    ``transitions`` maps (state, digits) -> state and may be partial;
    a missing entry goes to the implicit dead state ``n_states``.
    """

    tracks: int
    n_states: int
    initial: int
    transitions: dict
    accepting: frozenset

    def accepts_digits(self, digit_seq):
        q = self.initial
        for d in digit_seq:
            q = self.transitions.get((q, d))
            if q is None:
                return False
        return q in self.accepting

    def accepts_vector(self, v):
        if len(v) != self.tracks:
            raise PreconditionError(
                "vector has %d coordinates, automaton has %d tracks" % (len(v), self.tracks)
            )
        return self.accepts_digits(encode_vector(v))


def encode_vector(v, width=None):
    """LSD-first binary digit tuples for a nonnegative vector."""
    if any(x < 0 for x in v):
        raise PreconditionError("only nonnegative vectors are encodable")
    if width is None:
        width = max((int(x).bit_length() for x in v), default=0)
    return [tuple((x >> t) & 1 for x in v) for t in range(width)]


def decode_digits(digit_seq, tracks):
    v = [0] * tracks
    for t, d in enumerate(digit_seq):
        for i in range(tracks):
            v[i] += d[i] << t
    return tuple(v)


@dataclass(frozen=True)
class EquationSystem:
    """Integer equations A·y = b; the existential columns are erased when
    the system is compiled."""

    matrix: tuple          # rows of integer coefficients
    rhs: tuple
    existential: tuple     # per-column flag

    def __init__(self, matrix, rhs, existential=None):
        matrix = tuple(tuple(int(a) for a in row) for row in matrix)
        rhs = tuple(int(x) for x in rhs)
        if len(matrix) != len(rhs):
            raise ValueError("one rhs entry per equation row required")
        cols = {len(row) for row in matrix}
        if len(cols) > 1:
            raise ValueError("ragged coefficient matrix")
        ncols = cols.pop() if cols else None
        if existential is None:
            existential = (False,) * (ncols or 0)
        existential = tuple(bool(x) for x in existential)
        # with no equations the flags alone fix the number of variables
        if ncols is not None and len(existential) != ncols:
            raise ValueError("one existential flag per column required")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "existential", existential)

    @property
    def n_vars(self):
        return len(self.existential)


def _carry_edges(eq, first=0):
    """Compile the carry automaton of A·y = b, depth first from the carry b.

    Each digit tuple over all variables is filed under the index of its
    kept digits (the columns that are not existential) in
    ``digit_tuples`` order.  States are numbered from ``first``.  Returns
    (edges, end, zero): the edges (q, kept index, t) in the order they
    are built, one past the last state number, and the state of the zero
    carry (the accepting one), or None when no reachable carry is zero.
    """
    rows = eq.matrix
    odd, halve = (1).__and__, (1).__rrshift__
    # A·d and the kept index of every digit tuple in digit_tuples order,
    # last column first: column j's digit 1 is the upper half of the list
    ads, keys, width = [(0,) * len(rows)], [0], 1
    for j in reversed(range(eq.n_vars)):
        column = tuple(row[j] for row in rows)
        ads += [tuple(map(add, ad, column)) for ad in ads]
        if eq.existential[j]:
            keys *= 2
        else:
            keys += [k + width for k in keys]
            width *= 2
    buckets = {}
    for key, ad in zip(keys, ads):
        buckets.setdefault(tuple(map(odd, ad)), []).append((key, tuple(map(halve, ad))))
    start = tuple(eq.rhs)
    index = {start: first}
    edges = []
    frontier = [start]
    while frontier:
        carry = frontier.pop()
        q = index[carry]
        half = tuple(map(halve, carry))
        for key, ad_half in buckets.get(tuple(map(odd, carry)), ()):
            nxt = tuple(map(sub, half, ad_half))
            t = index.get(nxt)
            if t is None:
                t = index[nxt] = first + len(index)
                frontier.append(nxt)
            edges.append((q, key, t))
    return edges, first + len(index), index.get((0,) * len(rows))


def _closure(targets, preds):
    """Bitmask of the states that reach ``targets`` along ``preds`` edges."""
    seen = set(targets)
    work = list(seen)
    while work:
        for q in preds[work.pop()]:
            if q not in seen:
                seen.add(q)
                work.append(q)
    return sum(1 << q for q in seen)


class _ErasedNFA:
    """Nondeterministic automaton over kept digit tuples, determinized on
    demand.

    Built from edges (q, i, t) over ``tracks`` kept tracks, i the index of
    the kept digit tuple in ``digit_tuples`` order.  States that cannot
    reach an accepting state are dropped.  The Z-set holds the states that
    reach an accepting state along kept-zero digits (index 0).  A subset
    of states, kept as the bitmask of its members, is numbered when first
    seen: ``masks`` lists them, the empty (dead) subset is 0, and
    ``accepts[s]`` says whether subset s meets the Z-set.
    ``successors(s)`` is the row of successor subsets, one per kept digit
    tuple, computed once.
    """

    def __init__(self, n_states, tracks, edges, initial, accepting):
        self.tracks = tracks
        width = 2 ** tracks
        preds = [[] for _ in range(n_states)]
        zero_preds = [[] for _ in range(n_states)]
        for q, i, t in edges:
            preds[t].append(q)
            if i == 0:
                zero_preds[t].append(q)
        live = _closure(accepting, preds)
        self._zset = _closure(accepting, zero_preds)
        self._rows = rows = [[0] * width for _ in range(n_states)]
        for q, i, t in edges:
            if live >> t & 1:
                rows[q][i] |= 1 << t
        self.masks, self.accepts, self._table = [0], [False], [[0] * width]
        self._index = {0: 0}
        self.initial = self._number(live & sum(1 << q for q in initial))

    def _number(self, mask):
        s = self._index.get(mask)
        if s is None:
            s = self._index[mask] = len(self.masks)
            self.masks.append(mask)
            self.accepts.append(bool(mask & self._zset))
            self._table.append(None)
        return s

    def successors(self, s):
        row = self._table[s]
        if row is None:
            masks = [0] * len(self._table[0])
            rest = self.masks[s]
            while rest:
                low = rest & -rest
                masks = list(map(or_, masks, self._rows[low.bit_length() - 1]))
                rest ^= low
            row = self._table[s] = list(map(self._number, masks))
        return row


def _erased_nfa(systems):
    """The disjoint union of the systems' carry automata, each with its
    existential tracks erased: one NFA over their common kept tracks."""
    systems = tuple(systems)
    tracks = {eq.existential.count(False) for eq in systems}
    if len(tracks) != 1:
        raise PreconditionError("the systems must keep one common number of tracks")
    edges, initial, accepting = [], [], []
    n = 0
    for eq in systems:
        initial.append(n)
        part, n, zero = _carry_edges(eq, n)
        edges += part
        if zero is not None:
            accepting.append(zero)
    return _ErasedNFA(n, tracks.pop(), edges, initial, accepting)


def from_equations(*systems):
    """Minimal DFA over the kept tracks of the systems, accepting the
    vectors that extend to a solution of at least one of them: the subset
    automaton of their erased NFA."""
    nfa = _erased_nfa(systems)
    alphabet = digit_tuples(nfa.tracks)
    transitions = {}
    s = nfa.initial
    while s < len(nfa.masks):       # each row numbers the subsets it meets
        transitions.update(((s, d), t) for d, t in zip(alphabet, nfa.successors(s)))
        s += 1
    accepting = frozenset(s for s, hit in enumerate(nfa.accepts) if hit)
    return minimize(VectorDFA(nfa.tracks, len(nfa.masks), nfa.initial, transitions, accepting))


def minimize(dfa):
    """Canonical minimal DFA: refine the reachable part, renumber in BFS order.

    A missing transition goes to the implicit dead state ``n_states``.
    """
    alphabet = digit_tuples(dfa.tracks)
    sink = dfa.n_states
    get = dfa.transitions.get
    succ = {}
    stack = [dfa.initial]
    while stack:
        q = stack.pop()
        if q not in succ:
            succ[q] = row = [get((q, d), sink) for d in alphabet]
            stack.extend(row)
    reach = sorted(succ)

    # Moore refinement
    block = [False] * (sink + 1)
    for q in reach:
        block[q] = q in dfa.accepting
    n_blocks = len(set(block[q] for q in reach))
    while True:
        ids = {}
        new_block = [0] * (sink + 1)
        for q in reach:
            sig = (block[q], *map(block.__getitem__, succ[q]))
            new_block[q] = ids.setdefault(sig, len(ids))
        block = new_block
        if len(ids) == n_blocks:
            break
        n_blocks = len(ids)

    # canonical BFS renumbering of blocks
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    numbering = {block[dfa.initial]: 0}
    order = [block[dfa.initial]]
    for b in order:
        for t in succ[rep[b]]:
            if block[t] not in numbering:
                numbering[block[t]] = len(order)
                order.append(block[t])
    transitions = {}
    for b, num in numbering.items():
        for d, t in zip(alphabet, succ[rep[b]]):
            transitions[(num, d)] = numbering[block[t]]
    accepting = frozenset(
        numbering[block[q]] for q in reach if q in dfa.accepting
    )
    return VectorDFA(dfa.tracks, len(order), 0, transitions, accepting)


def combine(m1, m2, op):
    """Product construction with boolean acceptance; minimized."""
    if m1.tracks != m2.tracks:
        raise PreconditionError("track count mismatch")
    if op not in ("union", "intersection", "difference"):
        raise ValueError("op must be union/intersection/difference")
    sink_a, sink_b = m1.n_states, m2.n_states
    get_a, get_b = m1.transitions.get, m2.transitions.get
    alphabet = digit_tuples(m1.tracks)
    start = (m1.initial, m2.initial)
    index = {start: 0}
    order = [start]
    transitions = {}
    for i, (qa, qb) in enumerate(order):
        for d in alphabet:
            nxt = (get_a((qa, d), sink_a), get_b((qb, d), sink_b))
            t = index.get(nxt)
            if t is None:
                t = index[nxt] = len(order)
                order.append(nxt)
            transitions[(i, d)] = t
    accepting = set()
    for (qa, qb), num in index.items():
        ina, inb = qa in m1.accepting, qb in m2.accepting
        hit = (
            (ina or inb)
            if op == "union"
            else (ina and inb) if op == "intersection" else (ina and not inb)
        )
        if hit:
            accepting.add(num)
    return minimize(VectorDFA(m1.tracks, len(order), 0, transitions, frozenset(accepting)))


def shortest_accepted(m):
    """Shortest accepted digit string, decoded to a vector; None if empty."""
    if m.initial in m.accepting:
        return tuple([0] * m.tracks)
    seen = {m.initial}
    queue = deque([(m.initial, [])])
    alphabet = digit_tuples(m.tracks)
    while queue:
        q, path = queue.popleft()
        for d in alphabet:
            t = m.transitions.get((q, d))
            if t is None or t in seen:
                continue
            if t in m.accepting:
                return decode_digits(path + [d], m.tracks)
            seen.add(t)
            queue.append((t, path + [d]))
    return None


def _linear_equations(ls):
    """x - sum(l_j * v_j) = v0 over variables (x, l), the multipliers l
    existential."""
    k = ls.dim
    r = len(ls.periods)
    rows = []
    for i in range(k):
        row = [0] * (k + r)
        row[i] = 1
        for j, p in enumerate(ls.periods):
            row[k + j] = -p[i]
        rows.append(tuple(row))
    return EquationSystem(rows, ls.constant, (False,) * k + (True,) * r)


def from_semilinear_set(q):
    return from_equations(*map(_linear_equations, q.components))


def _pairs(a, b, parent, live):
    """Pairs (S1, S2) of the subset product of ``a`` and ``b``, yielded in
    breadth-first discovery order: each pair is first reached along its
    length-lex least digit string, recorded in ``parent`` as (previous
    pair, digit index).  Successors that fail ``live`` are skipped."""
    start = (a.initial, b.initial)
    parent[start] = None
    yield start
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        for i, nxt in enumerate(zip(a.successors(pair[0]), b.successors(pair[1]))):
            if nxt not in parent and live(nxt):
                parent[nxt] = (pair, i)
                yield nxt
                queue.append(nxt)


def compare(q1, q2, rel):
    """Decide equal/subset/disjoint on semilinear sets, with witness.

    One walk over the subset product of the two erased NFAs stops at the
    first pair that refutes the relation: S1 accepts and S2 does not
    (subset), or both accept (disjoint).  ``equal`` returns the first
    L1 - L2 pair, or else the first L2 - L1 pair of the same walk.  The
    witness is the vector of that pair's digit string; None when the
    relation holds.
    """
    if rel not in ("equal", "subset", "disjoint"):
        raise ValueError("rel must be equal/subset/disjoint")
    if q1.dim != q2.dim:
        raise PreconditionError("dimension mismatch")
    a, b = (_erased_nfa(map(_linear_equations, q.components)) for q in (q1, q2))
    later = None        # the first L2 - L1 pair, for equal

    def live(pair):
        # the pair or a descendant can still refute
        s1, s2 = pair
        if rel == "subset":
            return s1
        if rel == "disjoint":
            return s1 and s2
        return s1 or (s2 and later is None)

    def witness(pair):
        alphabet = digit_tuples(q1.dim)
        digits = []
        while parent[pair] is not None:
            pair, i = parent[pair]
            digits.append(alphabet[i])
        return decode_digits(digits[::-1], q1.dim)

    parent = {}
    for pair in _pairs(a, b, parent, live):
        in1, in2 = a.accepts[pair[0]], b.accepts[pair[1]]
        if in1 and (in2 if rel == "disjoint" else not in2):
            return False, witness(pair)
        if in2 and not in1 and rel == "equal" and later is None:
            later = pair
    return (True, None) if later is None else (False, witness(later))


def dump_tsv(m):
    """Plain-text transition table: header, then one row per transition."""
    lines = [
        "tracks\t%d" % m.tracks,
        "states\t%d" % m.n_states,
        "initial\t%d" % m.initial,
        "accepting\t%s" % ",".join(str(q) for q in sorted(m.accepting)),
    ]
    for (q, d), t in sorted(m.transitions.items()):
        lines.append("%d\t%s\t%d" % (q, "".join(map(str, d)), t))
    return "\n".join(lines) + "\n"
