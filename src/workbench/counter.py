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

Each machine compiles its transitions once, on first use, into a step
table cached on the machine: symbol -> state -> {zero-pattern: ((target,
sparse moves), ...)}, the sparse moves being the (counter, ±1) pairs of
a move vector.  A step touches only the counters it changes, and only
the states that have a move on the symbol are stepped at all.

Simulation memoizes configuration sets and shares them across a whole
prefix tree, so checking every word up to a length bound against a
machine is cheap enough for the oracle-style test suite.  One lazy walk,
:meth:`Simulator._lambda_reach`, yields the λ-successors of a set as it
finds them: the λ-closure of a set is all of it, and the acceptance
probe stops at the first accepting configuration after the end-marker.
:func:`accepted_words` walks the prefix tree once and remembers, per
(set, letters left), whether an accepted word lies within reach, so it
enters a dead prefix's subtree only the first time it meets that pair.

Both bounded-language constructions, the NCM of :func:`from_semilinear`
and the DCM of :func:`dcm_for_bounded`, verify a counter vector by
λ-chains that subtract a constant or a period one unit step at a time;
:func:`_chain` compiles every such chain for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .foundation import (
    Alphabet,
    BudgetExhausted,
    DEFAULT_BUDGET,
    Enumeration,
    PreconditionError,
    decompositions,
    register_enumerator,
    show_word,
    sort_words,
)
from .commutative import is_code_bounded
from .semilinear import _phi_collision, _tuples_within_length, member, phi
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
        # each distinct symbol, zero-pattern and move vector is checked
        # once; a move vector maps to its decremented counters
        syms, pats, decs = {None, END}, set(), {}
        norm = {}
        for (q, sym, pat), targets in transitions.items():
            if q not in state_set:
                raise ValueError("transition from unknown state %r" % (q,))
            if sym not in syms:
                if sym not in alphabet:
                    raise ValueError("transition on unknown symbol %r" % (sym,))
                syms.add(sym)
            pat = tuple(pat)
            if pat not in pats:
                if len(pat) != k or any(b not in (0, 1) for b in pat):
                    raise ValueError("bad zero-pattern %r" % (pat,))
                pats.add(pat)
            seen = set()
            for (p, moves) in targets:
                moves = tuple(moves)
                if p not in state_set:
                    raise ValueError("transition to unknown state %r" % (p,))
                if moves not in decs:
                    if len(moves) != k or any(m not in (-1, 0, 1) for m in moves):
                        raise ValueError("bad move vector %r" % (moves,))
                    decs[moves] = [i for i, m in enumerate(moves) if m < 0]
                for i in decs[moves]:
                    if pat[i] == 0:
                        raise ValueError("decrement on zero counter %d" % i)
                seen.add((p, moves))
            # most rows have one target; a repr key on each of those doubles
            # the time to build a dcm_for_bounded machine
            norm[(q, sym, pat)] = tuple(sorted(seen, key=repr)) if len(seen) > 1 else tuple(seen)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", frozenset(accepting))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", norm)
        object.__setattr__(self, "reversal_bound", reversal_bound)

    @cached_property
    def _steps(self):
        """The step table (see the module docstring), compiled on first use."""
        sparse = {}    # compiled once per distinct target tuple
        steps = {}
        for (q, sym, pat), targets in self.transitions.items():
            if targets not in sparse:
                sparse[targets] = tuple(
                    (p, tuple((i, m) for i, m in enumerate(moves) if m)) for p, moves in targets
                )
            steps.setdefault(sym, {}).setdefault(q, {})[pat] = sparse[targets]
        return steps


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
        self._steps = machine._steps
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

    def _charge(self, n):
        """Pay for n expansions; past the budget, ``expansions`` reads
        ``max_steps + 1`` however large the last charge was."""
        self.expansions += n
        if self.expansions > self.budget.max_steps:
            self.expansions = self.budget.max_steps + 1
            raise BudgetExhausted("simulation budget exhausted")

    def _apply(self, config, by_pattern):
        """The successors of a configuration by the moves of its state on
        one symbol, ``by_pattern`` being that row of the step table."""
        _, counters, phases, revs = config
        targets = by_pattern.get(tuple(map(bool, counters)))
        if targets is None:
            return ()
        cap, bound = self.cap, self.m.reversal_bound
        out = []
        for (p, moves) in targets:
            if not moves:
                out.append((p, counters, phases, revs))
                continue
            cs, phs, rvs = list(counters), list(phases), list(revs)
            capped = False
            for i, mv in moves:
                c = cs[i] = cs[i] + mv
                if c > cap:
                    capped = True
                ph = phs[i]
                if ph != mv:
                    phs[i] = mv
                    if ph:          # a switch of direction: one more reversal
                        rvs[i] += 1
                        if rvs[i] > bound:
                            break
            else:
                if capped:
                    self.cap_prunes += 1
                else:
                    out.append((p, tuple(cs), tuple(phs), tuple(rvs)))
        return out

    def _lambda_reach(self, configs):
        """The given configs, then each new λ-successor as it is found;
        each config expanded costs one step."""
        seen = set(configs)
        yield from seen
        rows = self._steps.get(None, {})
        stack = list(configs)
        while stack:
            cfg = stack.pop()
            self._charge(1)
            row = rows.get(cfg[0])
            if row is None:
                continue
            for nxt in self._apply(cfg, row):
                if nxt not in seen:
                    seen.add(nxt)
                    yield nxt
                    stack.append(nxt)

    def closure_id(self, set_id):
        """λ-closure of a config set, interned."""
        if set_id not in self._closure:
            reach = self._lambda_reach(self._by_id[set_id])
            self._closure[set_id] = self._intern(frozenset(reach))
        return self._closure[set_id]

    def extend_id(self, set_id, sym):
        """The configurations after reading sym from the λ-closure of a
        set, interned; every closed configuration costs one step."""
        key = (set_id, sym)
        if key in self._extend:
            return self._extend[key]
        closed = self._by_id[self.closure_id(set_id)]
        self._charge(len(closed))
        rows = self._steps.get(sym, {})
        nxt = set()
        for cfg in closed:
            row = rows.get(cfg[0])
            if row is not None:
                nxt.update(self._apply(cfg, row))
        out = self._intern(frozenset(nxt))
        self._extend[key] = out
        return out

    def probe_id(self, set_id):
        """Can the run consume the end-marker and reach acceptance?

        The λ-walk stops at the first accepting configuration, so the
        steps it charges depend on its order: when it has to expand a
        start set of several configurations, it takes them sorted by
        ``repr``, not in hash order."""
        if set_id not in self._probe:
            after_end = self._by_id[self.extend_id(set_id, END)]
            accepting = self.m.accepting
            if len(after_end) > 1 and not any(cfg[0] in accepting for cfg in after_end):
                after_end = sorted(after_end, key=repr)
            self._probe[set_id] = any(
                cfg[0] in accepting for cfg in self._lambda_reach(after_end)
            )
        return self._probe[set_id]

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
    incomplete when the budget or the counter cap cut the search.

    ``live`` maps (set id, letters left) to whether an accepted word lies
    within reach.  A pair is walked in full when first met, so the
    simulator computes the memo entries, and charges the ``explored``
    steps, of the whole prefix tree; a prefix whose pair is dead is not
    entered again.  A budget cut ends the walk.  The walk keeps its own
    stack, so no recursion limit bounds ``max_len``.
    """
    budget = budget or DEFAULT_BUDGET
    sim = Simulator(m, budget, max_len=max_len)
    out = []
    live = {}
    letters, by_id = m.alphabet.symbols, sim._by_id
    probe, extend = sim.probe_id, sim.extend_id
    try:
        found = [probe(sim.start_id)]   # per frame: an accepted word lies below
        if found[0]:
            out.append(())
        # frames: prefix, set id, letters left, the letters still to try
        stack = [((), sim.start_id, max_len, iter(letters if max_len else ()))]
        while stack:
            w, sid, left, todo = stack[-1]
            for a in todo:
                nid = extend(sid, a)
                if by_id[nid] and live.get((nid, left - 1), True):
                    v = w + (a,)
                    f = probe(nid)
                    if f:
                        out.append(v)
                    found.append(f)
                    stack.append((v, nid, left - 1, iter(letters if left > 1 else ())))
                    break
            else:
                stack.pop()
                f = live[(sid, left)] = found.pop()
                if f and found:
                    found[-1] = True
        complete = not sim.cap_prunes
    except BudgetExhausted:
        complete = False
    return Enumeration(sort_words(out), complete, sim.expansions)


# the bench tracer wraps accepted_words through this registered entry
def _enumerate_machine(m, max_len, budget):
    return accepted_words(m, max_len, budget)


register_enumerator(CounterMachine, _enumerate_machine)


def _add(trans, q_from, key, pat, q_to, moves):
    trans.setdefault((q_from, key, pat), []).append((q_to, moves))


def _chain(trans, states, pats, base, prefix, vec, q_entry, q_exit, bail=None):
    """λ-chain from q_entry to q_exit subtracting vec one unit step at a time.

    Step t takes one off counter ``base + i`` for every i with
    ``vec[i] >= t``; its intermediate state ``prefix + (t,)`` joins
    ``states``.  Under a zero-pattern in which a counter that the step
    decrements is zero, the step goes to ``bail`` with no counter move,
    or has no move when ``bail`` is None.  A zero vector is one plain
    λ-link.
    """
    zero = (0,) * len(pats[0])
    height = max(vec)
    if not height:
        for pat in pats:
            _add(trans, q_entry, None, pat, q_exit, zero)
        return
    cur = q_entry
    for t in range(1, height + 1):
        nxt = q_exit if t == height else prefix + (t,)
        if t < height:
            states.append(nxt)
        down = [base + i for i, e in enumerate(vec) if e >= t]
        moves = tuple(-1 if j in down else 0 for j in range(len(zero)))
        for pat in pats:
            if all(pat[j] for j in down):
                _add(trans, cur, None, pat, nxt, moves)
            elif bail is not None:
                _add(trans, cur, None, pat, bail, zero)
        cur = nxt


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
    pats = list(product((0, 1), repeat=n))
    zero = (0,) * n

    for c, comp in enumerate(q.components):
        read = ("read", c)
        states.append(read)
        _add(trans, ("start",), None, zero, read, zero)
        for i, a in enumerate(alphabet):
            mv = tuple(1 if j == i else 0 for j in range(n))
            for pat in pats:
                _add(trans, read, a, pat, read, mv)

        fin = ("fin", c)
        loops = [("per", c, j) for j in range(len(comp.periods))]
        states += [fin] + loops
        after = loops + [fin]    # the constant leads to after[0], loop j exits to after[j + 1]
        _chain(trans, states, pats, 0, ("const", c), comp.constant, read, after[0])
        for j, p in enumerate(comp.periods):
            for pat in pats:
                _add(trans, loops[j], None, pat, after[j + 1], zero)
            _chain(trans, states, pats, 0, ("rep", c, j), p, loops[j], loops[j])
        _add(trans, fin, END, zero, ("acc",), zero)

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


def dcm_for_bounded(spec):
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
    pats = list(product((0, 1), repeat=n))
    zero = (0,) * n

    states = [("acc",), ("dead",)] + [("load", i) for i in range(k)]
    trans = {}
    for i in range(k):
        for j in range(i, k):
            mv = tuple(1 if x % k == j else 0 for x in range(n))
            for pat in pats:
                _add(trans, ("load", i), letters[j], pat, ("load", j), mv)

    # bank c is verified from verify[c]; a failing bank bails to verify[c + 1]
    verify = [("ver", c) for c in range(C)] + [("dead",)]
    states.extend(verify[:C])

    for c, comp in enumerate(comps):
        order, pivots = certs[c]
        bank = range(c * k, (c + 1) * k)
        loops = [("vp", c, idx) for idx in range(len(order))]
        vfin = ("vfin", c)
        after = loops + [vfin]
        states += after
        _chain(trans, states, pats, c * k, ("vc", c), comp.constant, verify[c], after[0],
               bail=verify[c + 1])

        for idx, j in enumerate(order):
            rep_entry = ("vr", c, idx)
            states.append(rep_entry)
            for pat in pats:
                nxt = rep_entry if pat[c * k + pivots[idx]] else after[idx + 1]
                _add(trans, loops[idx], None, pat, nxt, zero)
            _chain(trans, states, pats, c * k, ("vrc", c, idx), comp.periods[j], rep_entry,
                   loops[idx], bail=verify[c + 1])

        # the load states consumed END already, so acceptance is a λ-step
        for pat in pats:
            done = not any(pat[x] for x in bank)
            _add(trans, vfin, None, pat, ("acc",) if done else verify[c + 1], zero)

    # end-marker from load states starts verification of component 0
    for i in range(k):
        for pat in pats:
            _add(trans, ("load", i), END, pat, verify[0], zero)

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
    same image, and an equal/subset witness word is checked over all its
    decompositions: one that lies in both languages proves phi is not
    injective.  A true ``disjoint`` verdict has no witness to check, so
    it needs words that form a code (Sardinas-Patterson), on which phi
    is injective outright.  That is sufficient, not necessary: phi on
    (a, ba, b) is injective, yet those words are no code, so a true
    ``disjoint`` on them is refused too.  The decision reduces to the
    vector-automata comparison of the two semilinear sets; a vector
    witness maps through phi to a witness word.
    """
    if s1.kind != "ginsburg" or s2.kind != "ginsburg":
        raise PreconditionError("decide_bounded works on Ginsburg specs")
    if s1.words != s2.words:
        raise PreconditionError("specs must share the same word tuple")
    notes = ""
    if not s1.is_distinct_letter():
        hit = _phi_collision(s1.words, _tuples_within_length(s1.words, injectivity_check_len))
        if hit:
            raise PreconditionError(
                "injectivity assertion failed: %r has decompositions %r and %r" % hit
            )
        notes = "phi-injectivity validated to length %d" % injectivity_check_len
    holds, vec = vecautomata.compare(s1.q1, s2.q1, rel)
    if holds and rel == "disjoint" and not s1.is_distinct_letter():
        if not is_code_bounded(s1.words):
            raise PreconditionError(
                "phi-injectivity unknown: the words are not a code, so disjoint exponent "
                "sets do not make the languages disjoint"
            )
    witness = phi(s1.words, vec) if vec is not None else None
    if witness is not None and rel != "disjoint" and not s1.is_distinct_letter():
        decs = sorted(decompositions(witness, s1.words))
        t1 = next((t for t in decs if member(s1.q1, t)), None)
        t2 = next((t for t in decs if member(s2.q1, t)), None)
        if t1 is not None and t2 is not None:
            raise PreconditionError(
                "injectivity assertion failed: witness %s has decompositions %r in Q1 "
                "and %r in Q2" % (show_word(witness), t1, t2)
            )
    return Verdict(rel, holds, witness, notes)
