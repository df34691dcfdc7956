"""One-way reversal-bounded multicounter machines (NCM/DCM).

A machine has k counters, an input alphabet with a right end-marker,
and a transition relation keyed on (state, input symbol or λ or the
end-marker, counter zero-pattern).  Moves adjust each counter by -1, 0
or +1 and may never decrement a zero counter.  A word is accepted when
some run consumes the word and then the end-marker and reaches an
accepting state; λ-moves are allowed before and after the end-marker.

Reversal counting: a counter reversal is a switch from a strictly
increasing phase to a strictly decreasing one or vice versa; zero moves
(plateaus) do not end a phase.  Runs whose reversal count exceeds the
machine's bound are inadmissible and pruned during simulation.

Simulation memoizes configurations and shares frontier sets across a
whole prefix tree, so checking every word up to a length bound against
a machine is cheap enough for the oracle-style test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .foundation import (
    Alphabet,
    BudgetExhausted,
    DEFAULT_BUDGET,
    Enumeration,
    PreconditionError,
    register_enumerator,
    sort_words,
)
from .semilinear import _tuples_within_length, phi
from . import vecautomata

END = "<end>"   # right end-marker pseudo-symbol; never part of an input alphabet


@dataclass(frozen=True)
class CounterMachine:
    """k-counter machine with reversal bound; NCM in general, DCM if
    :func:`is_deterministic` holds."""

    k: int
    states: tuple
    initial: object
    accepting: frozenset
    alphabet: Alphabet
    transitions: dict     # (state, symbol|None|END, pattern) -> tuple of (state, moves)
    reversal_bound: int

    def __init__(self, k, states, initial, accepting, alphabet, transitions, reversal_bound=1):
        states = tuple(states)
        state_set = set(states)
        if initial not in state_set:
            raise ValueError("initial state unknown")
        if not set(accepting) <= state_set:
            raise ValueError("accepting states unknown")
        if END in alphabet:
            raise ValueError("end-marker cannot be an input symbol")
        norm = {}
        for (q, sym, pat), targets in transitions.items():
            if q not in state_set:
                raise ValueError("transition from unknown state %r" % (q,))
            if sym is not None and sym != END and sym not in alphabet:
                raise ValueError("transition on unknown symbol %r" % (sym,))
            pat = tuple(pat)
            if len(pat) != k or any(b not in (0, 1) for b in pat):
                raise ValueError("bad zero-pattern %r" % (pat,))
            seen = []
            for (p, moves) in targets:
                moves = tuple(moves)
                if p not in state_set:
                    raise ValueError("transition to unknown state %r" % (p,))
                if len(moves) != k or any(m not in (-1, 0, 1) for m in moves):
                    raise ValueError("bad move vector %r" % (moves,))
                for i in range(k):
                    if pat[i] == 0 and moves[i] < 0:
                        raise ValueError("decrement on zero counter %d" % i)
                seen.append((p, moves))
            norm[(q, sym, pat)] = tuple(sorted(set(seen), key=repr))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", frozenset(accepting))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", norm)
        object.__setattr__(self, "reversal_bound", reversal_bound)

    def moves_from(self, state, sym, counters):
        pat = tuple(1 if c > 0 else 0 for c in counters)
        return self.transitions.get((state, sym, pat), ())


def is_deterministic(m):
    """|δ(q,a,·) ∪ δ(q,λ,·)| ≤ 1 for every state, symbol and zero-pattern."""
    keys = list(m.alphabet) + [END]
    for q in m.states:
        for pat in product((0, 1), repeat=m.k):
            lam = set(m.transitions.get((q, None, pat), ()))
            for a in keys:
                both = lam | set(m.transitions.get((q, a, pat), ()))
                if len(both) > 1:
                    return False
    return True


def _bump_phase(phase, rev, move):
    if move == 0:
        return phase, rev
    if phase == 0:
        return move, rev
    if move == -phase:
        return move, rev + 1
    return phase, rev


class Simulator:
    """Frontier-set simulator with memoized λ-closures shared across words.

    Configurations are (state, counters, phases, reversals); counters are
    capped at the scaled step budget, which also cuts λ-move cycles.  A
    run the cap cuts off is counted in ``cap_prunes``, so a search that
    lost one can say that it is incomplete.
    """

    def __init__(self, machine, budget=None, max_len=64):
        self.m = machine
        self.budget = budget or DEFAULT_BUDGET
        self.cap = self.budget.scaled_steps(max_len)
        self._sets = {}        # frozenset -> id
        self._by_id = []
        self._closure = {}     # id -> id
        self._extend = {}      # (id, symbol) -> id
        self._probe = {}       # id -> bool
        self.expansions = 0
        self.cap_prunes = 0
        start = (machine.initial, (0,) * machine.k, (0,) * machine.k, (0,) * machine.k)
        self.start_id = self._intern(frozenset([start]))

    def _intern(self, configs):
        if configs not in self._sets:
            self._sets[configs] = len(self._by_id)
            self._by_id.append(configs)
        return self._sets[configs]

    def _charge(self, n=1):
        self.expansions += n
        if self.expansions > self.budget.max_steps:
            raise BudgetExhausted("simulation budget exhausted")

    def _apply(self, config, sym):
        state, counters, phases, revs = config
        cap, bound = self.cap, self.m.reversal_bound
        out = []
        for (p, moves) in self.m.moves_from(state, sym, counters):
            cs, phs, rvs = [], [], []
            capped = False
            for c, ph, rv, mv in zip(counters, phases, revs, moves):
                c2 = c + mv
                if c2 > cap:
                    capped = True
                ph2, rv2 = _bump_phase(ph, rv, mv)
                if c2 < 0 or rv2 > bound:
                    break
                cs.append(c2)
                phs.append(ph2)
                rvs.append(rv2)
            else:
                if capped:
                    self.cap_prunes += 1
                else:
                    out.append((p, tuple(cs), tuple(phs), tuple(rvs)))
        return out

    def closure_id(self, set_id):
        """λ-closure of a config set, interned."""
        if set_id in self._closure:
            return self._closure[set_id]
        seen = set(self._by_id[set_id])
        stack = list(seen)
        while stack:
            cfg = stack.pop()
            self._charge()
            for nxt in self._apply(cfg, None):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out = self._intern(frozenset(seen))
        self._closure[set_id] = out
        return out

    def extend_id(self, set_id, sym):
        key = (set_id, sym)
        if key in self._extend:
            return self._extend[key]
        closed = self._by_id[self.closure_id(set_id)]
        nxt = set()
        for cfg in closed:
            self._charge()
            nxt.update(self._apply(cfg, sym))
        out = self._intern(frozenset(nxt))
        self._extend[key] = out
        return out

    def probe_id(self, set_id):
        """Can the run consume the end-marker and reach acceptance?"""
        if set_id in self._probe:
            return self._probe[set_id]
        closed = self._by_id[self.closure_id(set_id)]
        after_end = set()
        for cfg in closed:
            self._charge()
            after_end.update(self._apply(cfg, END))
        seen = set(after_end)
        stack = list(after_end)
        hit = any(cfg[0] in self.m.accepting for cfg in seen)
        while stack and not hit:
            cfg = stack.pop()
            self._charge()
            for nxt in self._apply(cfg, None):
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt[0] in self.m.accepting:
                        hit = True
                        break
                    stack.append(nxt)
        self._probe[set_id] = hit
        return hit

    def accepts(self, w):
        sid = self.start_id
        for sym in w:
            sid = self.extend_id(sid, sym)
            if not self._by_id[sid]:
                return False
        return self.probe_id(sid)


def accepts(m, w, budget=None):
    """True iff some admissible run accepts w; BudgetExhausted on cutoff,
    and in place of False when the counter cap cut off a run."""
    sim = Simulator(m, budget, max_len=max(len(w), 1))
    if sim.accepts(tuple(w)):
        return True
    if sim.cap_prunes:
        raise BudgetExhausted(
            "counter cap %d cut off a run (%d prunes)" % (sim.cap, sim.cap_prunes)
        )
    return False


def accepted_words(m, max_len, budget=None):
    """All accepted words of length <= max_len, prefix-tree order shared;
    incomplete when the budget or the counter cap cut the search."""
    budget = budget or DEFAULT_BUDGET
    sim = Simulator(m, budget, max_len=max_len)
    out = []
    complete = True

    def walk(w, sid):
        nonlocal complete
        try:
            if sim.probe_id(sid):
                out.append(w)
            if len(w) < max_len:
                for a in m.alphabet:
                    nid = sim.extend_id(sid, a)
                    if sim._by_id[nid]:
                        walk(w + (a,), nid)
        except BudgetExhausted:
            complete = False

    walk((), sim.start_id)
    complete = complete and not sim.cap_prunes
    return Enumeration(sort_words(out), complete, sim.expansions)


def _enumerate_machine(m, max_len, budget):
    return accepted_words(m, max_len, budget)


register_enumerator(CounterMachine, _enumerate_machine)


def from_semilinear(q, alphabet):
    """NCM over the given alphabet accepting { w : ψ(w) ∈ Q }.

    One submachine per linear component, entered by an initial λ-branch:
    (1) read w, counting each letter in its own counter; (2) strip the
    constant on λ-moves; (3) per period, repeat a simultaneous decrement
    a guessed number of times; (4) accept at the end-marker with every
    counter zero.
    """
    n = len(alphabet)
    if q.dim != n:
        raise PreconditionError("set dimension must match alphabet size")
    states = [("start",), ("acc",)]
    trans = {}
    all_pats = list(product((0, 1), repeat=n))
    zero_pat = (0,) * n

    def add(q_from, key, pat, q_to, moves):
        trans.setdefault((q_from, key, pat), []).append((q_to, moves))

    def sub_chain(prefix, vec, q_entry, q_exit):
        """λ-chain subtracting a vector one unit-step at a time."""
        height = max(vec) if vec else 0
        if height == 0:
            return q_entry if q_entry == q_exit else _link(q_entry, q_exit)
        cur = q_entry
        for t in range(1, height + 1):
            nxt = q_exit if t == height else prefix + (t,)
            if nxt != q_exit:
                states.append(nxt)
            moves = tuple(-1 if vec[i] >= t else 0 for i in range(n))
            for pat in all_pats:
                if all(pat[i] == 1 or moves[i] == 0 for i in range(n)):
                    add(cur, None, pat, nxt, moves)
            cur = nxt
        return q_exit

    def _link(q_from, q_to):
        for pat in all_pats:
            add(q_from, None, pat, q_to, (0,) * n)
        return q_to

    for c, comp in enumerate(q.components):
        read = ("read", c)
        states.append(read)
        add(("start",), None, zero_pat, read, (0,) * n)
        for i, a in enumerate(alphabet):
            mv = tuple(1 if j == i else 0 for j in range(n))
            for pat in all_pats:
                add(read, a, pat, read, mv)

        fin = ("fin", c)
        states.append(fin)
        periods = comp.periods
        if periods:
            loops = []
            for j in range(len(periods)):
                loop = ("per", c, j)
                states.append(loop)
                loops.append(loop)
            after_const = loops[0]
        else:
            after_const = fin
        sub_chain(("const", c), comp.constant, read, after_const)
        for j, p in enumerate(periods):
            loop = loops[j]
            nxt = loops[j + 1] if j + 1 < len(periods) else fin
            _link(loop, nxt)
            sub_chain(("rep", c, j), p, loop, loop)
        add(fin, END, zero_pat, ("acc",), (0,) * n)

    trans = {k: tuple(v) for k, v in trans.items()}
    return CounterMachine(n, states, ("start",), {("acc",)}, alphabet, trans)


def echelon_order(ls):
    """Order periods so each has a pivot coordinate that is positive for
    it and zero for all later periods, pivots non-decreasing; None if no
    such ordering exists."""
    remaining = list(range(len(ls.periods)))
    order = []
    pivots = []
    prev = 0
    while remaining:
        found = None
        for coord in range(prev, ls.dim):
            cands = [j for j in remaining if ls.periods[j][coord] > 0]
            if len(cands) == 1:
                rest = [j for j in remaining if j != cands[0]]
                if all(ls.periods[j][coord] == 0 for j in rest):
                    found = (cands[0], coord)
                    break
        if found is None:
            return None
        j, coord = found
        order.append(j)
        pivots.append(coord)
        remaining.remove(j)
        prev = coord
    return tuple(order), tuple(pivots)


def dcm_for_bounded(spec, budget=None):
    """Deterministic machine for a distinct-letter Ginsburg spec whose
    components all carry echelon certificates.

    The machine loads the block counts of a1*..ak* into per-component
    counter banks (input shape checked in finite control), then verifies
    the banks one component at a time by greedy pivot-order subtraction;
    a failing bank diverts deterministically to the next component.
    """
    if spec.kind != "ginsburg" or not spec.is_distinct_letter():
        raise PreconditionError("dcm_for_bounded needs a distinct-letter Ginsburg spec")
    comps = spec.q1.components
    certs = []
    for comp in comps:
        cert = echelon_order(comp)
        if cert is None:
            raise PreconditionError(
                "no echelon certificate for component %r; fall back to from_semilinear"
                % (comp,)
            )
        certs.append(cert)

    k = len(spec.words)
    C = len(comps)
    n = k * C
    if 2 ** n > 1 << 14:
        raise PreconditionError("counter bank too wide for pattern table")
    letters = tuple(w[0] for w in spec.words)
    alphabet = Alphabet(letters)
    all_pats = list(product((0, 1), repeat=n))

    def bank(c, i):
        return c * k + i

    states = [("acc",), ("dead",)]
    trans = {}

    def add(q_from, key, pat, q_to, moves):
        trans[(q_from, key, pat)] = ((q_to, moves),)

    for i in range(k):
        states.append(("load", i))
    for i in range(k):
        src = ("load", i)
        for j in range(i, k):
            mv = [0] * n
            for c in range(C):
                mv[bank(c, j)] = 1
            for pat in all_pats:
                add(src, letters[j], pat, ("load", j), tuple(mv))

    def verify_entry(c):
        return ("ver", c) if c < C else ("dead",)

    for c in range(C):
        states.append(("ver", c))
    bail = [verify_entry(c + 1) for c in range(C)]

    for c, comp in enumerate(comps):
        order, pivots = certs[c]
        entry = ("ver", c)

        def chain(prefix, vec, q_entry, q_exit, c=c, bail_to=None):
            """Deterministic λ-chain subtracting vec from bank c; diverts
            to bail_to on underflow."""
            height = max(vec) if vec else 0
            cur = q_entry
            if height == 0:
                for pat in all_pats:
                    add(cur, None, pat, q_exit, (0,) * n)
                return
            for t in range(1, height + 1):
                nxt = q_exit if t == height else prefix + (t,)
                if nxt != q_exit and nxt not in states:
                    states.append(nxt)
                mv = [0] * n
                for i in range(k):
                    if vec[i] >= t:
                        mv[bank(c, i)] = -1
                mv = tuple(mv)
                for pat in all_pats:
                    if all(pat[bank(c, i)] == 1 for i in range(k) if mv[bank(c, i)] < 0):
                        add(cur, None, pat, nxt, mv)
                    else:
                        add(cur, None, pat, bail_to, (0,) * n)
                cur = nxt

        loop_states = []
        for idx in range(len(order)):
            s = ("vp", c, idx)
            states.append(s)
            loop_states.append(s)
        vfin = ("vfin", c)
        states.append(vfin)

        first = loop_states[0] if loop_states else vfin
        chain(("vc", c), comp.constant, entry, first, bail_to=bail[c])

        for idx, j in enumerate(order):
            loop = loop_states[idx]
            nxt = loop_states[idx + 1] if idx + 1 < len(loop_states) else vfin
            piv = pivots[idx]
            rep_entry = ("vr", c, idx)
            states.append(rep_entry)
            for pat in all_pats:
                if pat[bank(c, piv)] == 0:
                    add(loop, None, pat, nxt, (0,) * n)
                else:
                    add(loop, None, pat, rep_entry, (0,) * n)
            chain(("vrc", c, idx), comps[c].periods[j], rep_entry, loop, bail_to=bail[c])

        # the load states consumed END already, so acceptance is a λ-step
        for pat in all_pats:
            if all(pat[bank(c, i)] == 0 for i in range(k)):
                add(vfin, None, pat, ("acc",), (0,) * n)
            else:
                add(vfin, None, pat, bail[c], (0,) * n)

    # end-marker from load states starts verification of component 0
    for i in range(k):
        for pat in all_pats:
            add(("load", i), END, pat, verify_entry(0), (0,) * n)

    return CounterMachine(n, states, ("load", 0), {("acc",)}, alphabet, trans)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded-language decision with optional witness word."""

    relation: str
    holds: bool
    witness: tuple | None
    notes: str = ""

    def __bool__(self):
        return self.holds


def decide_bounded(s1, s2, rel, injectivity_check_len=12):
    """Decide equal/subset/disjoint for two bounded Ginsburg specs.

    Both specs must share one word tuple.  With distinct letters the
    block map is injective outright; otherwise injectivity is validated
    up to the check length by searching for two exponent tuples with the
    same image.  The decision reduces to the vector-automata comparison
    of the two semilinear sets; a vector witness maps through phi to a
    witness word.
    """
    if s1.kind != "ginsburg" or s2.kind != "ginsburg":
        raise PreconditionError("decide_bounded works on Ginsburg specs")
    if s1.words != s2.words:
        raise PreconditionError("specs must share the same word tuple")
    notes = ""
    if not s1.is_distinct_letter():
        seen = {}
        for t in _tuples_within_length(s1.words, injectivity_check_len):
            w = phi(s1.words, t)
            if w in seen and seen[w] != t:
                raise PreconditionError(
                    "injectivity assertion failed: %r has decompositions %r and %r"
                    % (w, seen[w], t)
                )
            seen[w] = t
        notes = "phi-injectivity validated to length %d" % injectivity_check_len
    holds, vec = vecautomata.compare(s1.q1, s2.q1, rel)
    witness = phi(s1.words, vec) if vec is not None else None
    return Verdict(rel, holds, witness, notes)
