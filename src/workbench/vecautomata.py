"""Decision backend for semilinear sets: synchronous multi-track base-2
automata over N^k with boolean closure and comparison.

Vectors are encoded least-significant-digit first, one bit per track per
step, all tracks in lockstep.  Every automaton built here is kept
*padding-closed*: appending all-zero digit tuples never changes
acceptance, so the encoding length is never ambiguous.  Projection is
the only step that can break this, and it repairs the property with a
zero-digit closure pass before minimizing.

The solver core is the classic digit-by-digit construction for integer
linear equations A·y = b: states are carry vectors, reading digit tuple
d from carry r requires (r_i - (A·d)_i) even on every row and moves to
(r - A·d)/2, and the zero carry accepts.  A·d is computed once per digit
and the digits are bucketed by the parity vector of A·d, so carry r
visits only the bucket keyed by r mod 2.  Inequalities are handled
upstream by slack variables plus projection.

Transition maps may be partial: ``n_states`` is the implicit dead state
of every missing (state, digits) entry.  ``minimize`` and ``combine``
read a missing entry as that state; ``minimize`` returns a total map.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from operator import add, sub

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

    def step(self, state, digits):
        return self.transitions.get((state, digits))

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
    """Integer equations A·y = b; existential columns get projected away."""

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


def from_equations(eq):
    """DFA over all variables accepting encodings of solutions of A·y = b."""
    rows = eq.matrix
    # A·d for every digit tuple, one column at a time, in digit_tuples order
    ads = [(0,) * len(rows)]
    for column in [tuple(row[j] for row in rows) for j in range(eq.n_vars)]:
        ads = [v for ad in ads for v in (ad, tuple(map(add, ad, column)))]
    buckets = {}
    for d, ad in zip(digit_tuples(eq.n_vars), ads):
        parity = tuple(x & 1 for x in ad)
        buckets.setdefault(parity, []).append((d, tuple(x >> 1 for x in ad)))
    start = tuple(eq.rhs)
    index = {start: 0}
    transitions = {}
    frontier = [start]
    while frontier:
        carry = frontier.pop()
        q = index[carry]
        half = tuple(c >> 1 for c in carry)
        for d, ad_half in buckets.get(tuple(c & 1 for c in carry), ()):
            nxt = tuple(map(sub, half, ad_half))
            t = index.get(nxt)
            if t is None:
                t = index[nxt] = len(index)
                frontier.append(nxt)
            transitions[(q, d)] = t
    zero = (0,) * len(rows)
    accepting = frozenset([index[zero]]) if zero in index else frozenset()
    return VectorDFA(eq.n_vars, len(index), 0, transitions, accepting)


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


def equivalent(m1, m2):
    """Language equality via canonical minimal forms."""
    if m1.tracks != m2.tracks:
        raise PreconditionError("track count mismatch")
    a, b = minimize(m1), minimize(m2)
    return (
        a.n_states == b.n_states
        and a.accepting == b.accepting
        and a.transitions == b.transitions
    )


def project(dfa, drop):
    """Existentially project away the given tracks.

    Subset construction over the digit-erased nondeterministic automaton,
    then the padding-closure repair: a state becomes accepting when some
    accepting state is reachable from it along all-zero digit tuples
    (shorter encodings of a kept-track vector may need zero padding to
    reach the acceptance the dropped tracks required).  Minimized.
    """
    drop = frozenset(drop)
    if not drop <= set(range(dfa.tracks)):
        raise PreconditionError("dropped tracks outside automaton")
    keep = [t for t in range(dfa.tracks) if t not in drop]
    # erased-track successor sets: state -> kept digit -> targets
    kept = {d: tuple(d[i] for i in keep) for d in digit_tuples(dfa.tracks)}
    erased = [{} for _ in range(dfa.n_states)]
    for (q, d), t in dfa.transitions.items():
        erased[q].setdefault(kept[d], set()).add(t)

    start = frozenset([dfa.initial])
    index = {start: 0}
    order = [start]
    transitions = {}
    for s, subset in enumerate(order):
        succ = {}
        for q in subset:
            for kd, ts in erased[q].items():
                succ.setdefault(kd, set()).update(ts)
        for kd in sorted(succ):
            nxt = frozenset(succ[kd])
            t = index.get(nxt)
            if t is None:
                t = index[nxt] = len(order)
                order.append(nxt)
            transitions[(s, kd)] = t

    # zero-digit backward closure, as a worklist over reverse zero edges
    zero = (0,) * len(keep)
    zero_preds = {}
    for s in range(len(order)):
        t = transitions.get((s, zero))
        if t is not None:
            zero_preds.setdefault(t, []).append(s)
    accepting = {s for s, subset in enumerate(order) if subset & dfa.accepting}
    work = list(accepting)
    while work:
        for s in zero_preds.get(work.pop(), ()):
            if s not in accepting:
                accepting.add(s)
                work.append(s)
    out = VectorDFA(len(keep), len(order), 0, transitions, frozenset(accepting))
    return minimize(out)


def universe(tracks):
    trans = {(0, d): 0 for d in digit_tuples(tracks)}
    return VectorDFA(tracks, 1, 0, trans, frozenset([0]))


def empty(tracks):
    trans = {(0, d): 0 for d in digit_tuples(tracks)}
    return VectorDFA(tracks, 1, 0, trans, frozenset())


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


def complement(m):
    return combine(universe(m.tracks), m, "difference")


def is_empty(m):
    alphabet = digit_tuples(m.tracks)
    reach = {m.initial}
    stack = [m.initial]
    while stack:
        q = stack.pop()
        if q in m.accepting:
            return False
        for d in alphabet:
            t = m.transitions.get((q, d))
            if t is not None and t not in reach:
                reach.add(t)
                stack.append(t)
    return True


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


def from_linear(ls):
    """DFA over k tracks accepting exactly the members of a linear set.

    Solves x - sum(l_j * v_j) = v0 over variables (x, l) and projects
    the multiplier tracks away.
    """
    k = ls.dim
    r = len(ls.periods)
    rows = []
    for i in range(k):
        row = [0] * (k + r)
        row[i] = 1
        for j, p in enumerate(ls.periods):
            row[k + j] = -p[i]
        rows.append(tuple(row))
    eq = EquationSystem(rows, ls.constant, (False,) * k + (True,) * r)
    dfa = from_equations(eq)
    if r == 0:
        return minimize(dfa)
    return project(dfa, set(range(k, k + r)))


def from_semilinear_set(q):
    out = None
    for comp in q.components:
        m = from_linear(comp)
        out = m if out is None else combine(out, m, "union")
    return out


def compare(q1, q2, rel):
    """Decide equal/subset/disjoint on semilinear sets, with witness.

    The relation holds when its one or two products (two differences
    for equal) are empty.  On a False verdict the witness is the vector
    with the shortest accepted encoding in the first nonempty product.
    """
    if rel not in ("equal", "subset", "disjoint"):
        raise ValueError("rel must be equal/subset/disjoint")
    if q1.dim != q2.dim:
        raise PreconditionError("dimension mismatch")
    m1, m2 = from_semilinear_set(q1), from_semilinear_set(q2)
    products = {
        "subset": [(m1, m2, "difference")],
        "equal": [(m1, m2, "difference"), (m2, m1, "difference")],
        "disjoint": [(m1, m2, "intersection")],
    }[rel]
    for a, b, op in products:
        witness = shortest_accepted(combine(a, b, op))
        if witness is not None:
            return False, witness
    return True, None


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
