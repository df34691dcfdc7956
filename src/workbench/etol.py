"""ETOL machinery: parallel table rewriting, derivation-tree counting,
index audits, reduced/plain conversions, and the constructions that turn
semilinear sets into (unambiguous) finite-index systems.

Two table conventions coexist:

* plain systems rewrite *every* symbol at every step, so each table must
  offer at least one production for every symbol of the total alphabet;
* reduced systems rewrite only nonterminals and copy terminals verbatim.
  Reduced tables carry productions for nonterminals only and may be
  partial; a nonterminal with no production under the chosen table
  simply blocks that step.

Derivation trees are compared structurally *including the table used at
each level*: two trees that apply identical productions but name
different tables are distinct.

Each grammar (an :class:`EtolSystem` here, a ``matrix.MatrixGrammar``
there) holds one successor table, :class:`_Successors`, filled the first
time a form is expanded and kept as long as the grammar object lives;
grammars are never mutated after construction, so an entry never goes
stale.  Per form it keeps the rules' successors in (len, w) order for
the enumerators and the edges (successor, multiplicity summed over the
rules) for the derivation counters; per distinct successor it keeps the
least yield and the persistent-symbol projection the counters prune
with.  An enumeration, an index audit and every per-word count on the
same grammar therefore expand each form once.  Equal rules form one
group, expanded once per form and counted once per rule.  Every reader
drops a successor of infinite least yield, so an ETOL table folds only
its live right-hand sides (those of finite least yield) and stops at the
first position that has none; two tables with the same live productions
are equal rules.

One counter serves every derivation count in the workbench:
:func:`_count_paths` counts the weighted paths from a start form to a
word over a grammar's successor table, memoized on (sentential form,
depth), so unit cycles surface as a budget-marked ">= n" lower bound
instead of nontermination.  :func:`count_trees` runs it over ETOL steps
(weighted by the choice vectors reaching a successor),
``matrix.count_derivations`` over matrix applications (one per
per-origin row).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .foundation import (
    DEFAULT_BUDGET,
    PreconditionError,
    _breadth_first,
    _budgeted,
    register_enumerator,
)
from .semilinear import (
    SemilinearSet, _phi_collision, _tuples_within_length, is_simple, member, phi,
)
from . import vecautomata

INF = float("inf")


class EtolSystem:
    """Tables of productions with an axiom and terminal alphabet.

    ``v`` is the rewritable alphabet: the total alphabet for plain
    systems (terminals included), the nonterminal alphabet for reduced
    ones.  ``tables`` is a list of {symbol: tuple of right-hand words}.
    """

    def __init__(self, v, sigma, axiom, tables, reduced=False):
        self.v = tuple(v)
        self.sigma = tuple(sigma)
        self.axiom = axiom
        self.reduced = bool(reduced)
        vset, sset = set(self.v), set(self.sigma)
        if len(vset) != len(self.v) or len(sset) != len(self.sigma):
            raise ValueError("duplicate symbols in alphabets")
        if self.reduced:
            if vset & sset:
                raise ValueError("reduced system needs disjoint nonterminals/terminals")
        else:
            if not sset <= vset:
                raise ValueError("plain system needs terminals inside the total alphabet")
        if axiom not in vset:
            raise ValueError("axiom must be a rewritable symbol")
        allowed = vset | sset
        norm = []
        for table in tables:
            t = {}
            for x, rhss in table.items():
                if x not in vset:
                    raise ValueError("production from non-rewritable symbol %r" % (x,))
                rhss = tuple(dict.fromkeys(tuple(r) for r in rhss))
                for r in rhss:
                    for s in r:
                        if s not in allowed:
                            raise ValueError("unknown symbol %r in production" % (s,))
                if rhss:
                    t[x] = rhss
            norm.append(t)
            if not self.reduced:
                missing = vset - set(t)
                if missing:
                    raise ValueError(
                        "plain table misses productions for %r" % (sorted(missing),)
                    )
        self.tables = tuple(norm)
        self._vset = vset
        self._sset = sset

    def is_nonterminal(self, s):
        return s in self._vset if self.reduced else s not in self._sset

    def is_word(self, sentential):
        return self._sset.issuperset(sentential)

    def table_deterministic(self, i):
        """Exactly one image for every rewritable symbol."""
        t = self.tables[i]
        return set(t) == self._vset and all(len(r) == 1 for r in t.values())

    def active_symbols(self):
        """Symbols with a non-identity production in some table (plain view)."""
        act = set()
        for t in self.tables:
            for x, rhss in t.items():
                if any(r != (x,) for r in rhss):
                    act.add(x)
        return act

    @cached_property
    def _successors(self):
        """The successor table, filled on first use (see ``_Successors``).

        A table's rule is its live productions: per symbol, the right-hand
        sides of finite least yield (a reduced system's terminals copy
        themselves), so tables with equal live productions form one group.
        Terminal words are final in reduced systems, so their terminals
        persist; plain systems rewrite everything but inactive symbols."""
        yields = min_yield_map(self)
        copies = {a: ((a,),) for a in self.sigma} if self.reduced else {}
        live = []
        for t in self.tables:
            rule = dict(copies)
            for x, rhss in t.items():
                rhss = tuple(r for r in rhss if sum(yields[s] for s in r) < INF)
                if rhss:
                    rule[x] = rhss
            live.append(rule)
        if self.reduced:
            persistent = self._sset
        else:
            persistent = (self._vset | self._sset) - self.active_symbols()
        return _Successors(
            lambda s, ti: _fold(live[ti].get(x, ()) for x in s),
            [frozenset(rule.items()) for rule in live], yields, persistent,
        )

    def __repr__(self):
        return "EtolSystem(%d tables, axiom=%r, reduced=%r)" % (
            len(self.tables),
            self.axiom,
            self.reduced,
        )


def _by_len(w):
    return (len(w), w)


class _Successors:
    """One grammar's successor table, filled as forms are first expanded.

    ``rules`` holds one hashable key per rule, and rules with equal keys
    form one group.  ``expand(form, index)`` gives the {successor:
    multiplicity} dict of the rule at ``index``, and may leave out the
    successors of infinite least yield, which every reader drops.  Per
    form the table expands each group once, through its first rule.  It
    keeps the successors group after group, each group's in (len, w)
    order where its first rule stands (``ordered``, for the enumerators:
    a later copy would only repeat nodes a breadth-first search has
    already seen), and the edges (successor, multiplicity summed over the
    rules, a group counting once per rule, least yield, persistent
    projection) for the derivation counters.  ``info`` keeps the last two
    per distinct successor: the sum of ``yields`` over its symbols and
    the subsequence of its ``persistent`` symbols.
    """

    def __init__(self, expand, rules, yields, persistent):
        self.expand = expand
        groups = {}
        for i, key in enumerate(rules):
            groups.setdefault(key, [i, 0])[1] += 1
        self.groups = list(groups.values())
        self.yields = yields
        self.persistent = persistent
        self.forms = {}
        self.infos = {}

    def info(self, s):
        i = self.infos.get(s)
        if i is None:
            i = self.infos[s] = (
                sum(self.yields[x] for x in s), tuple(x for x in s if x in self.persistent)
            )
        return i

    def entry(self, s):
        e = self.forms.get(s)
        if e is None:
            ordered, merged = [], {}
            for r, size in self.groups:
                succs = self.expand(s, r)
                ordered += sorted(succs, key=_by_len)
                for succ, n in succs.items():
                    merged[succ] = merged.get(succ, 0) + n * size
            e = self.forms[s] = (
                ordered, [(succ, n) + self.info(succ) for succ, n in merged.items()]
            )
        return e

    def ordered(self, s):
        return self.entry(s)[0]

    def edges(self, s):
        return self.entry(s)[1]


def classify(g):
    """Subfamily flags: EDTOL (all tables functional-total), E0L (one
    table), ED0L (both)."""
    flags = set()
    if all(g.table_deterministic(i) for i in range(len(g.tables))):
        flags.add("EDTOL")
    if len(g.tables) == 1:
        flags.add("E0L")
    if flags >= {"EDTOL", "E0L"}:
        flags.add("ED0L")
    return frozenset(flags)


def _options(g, sentential, table):
    """Per-position rewrite options; None when the table blocks."""
    t = g.tables[table]
    opts = []
    for s in sentential:
        if g.reduced and s in g._sset:
            opts.append(((s,),))
        else:
            rhss = t.get(s)
            if rhss is None:
                if not g.reduced:
                    raise PreconditionError(
                        "symbol %r has no production in table %d" % (s, table)
                    )
                return None
            opts.append(rhss)
    return opts


def step(g, sentential, table):
    """All successors of one parallel rewriting step under the table, in
    (len, w) order: the keys of :func:`step_with_multiplicity`."""
    return sorted(step_with_multiplicity(g, sentential, table), key=_by_len)


def step_with_multiplicity(g, sentential, table):
    """Successors keyed to the number of distinct choice vectors reaching
    them; the multiplicity is what tree counting needs."""
    opts = _options(g, tuple(sentential), table)
    return {} if opts is None else _fold(opts)


def _fold(opts):
    """The words that pick one option per position, keyed to the number of
    picks that spell them; empty from the first position with no option.

    The positions are folded left to right into a dict of partial words
    with summed multiplicities, so the work grows with the distinct
    partial words, not with the choice vectors; a run of positions with a
    single option joins the partial words as one segment."""
    words, segment = {(): 1}, ()
    for rhss in opts:
        if len(rhss) == 1:
            segment += rhss[0]
            continue
        if not rhss:
            return {}
        folded = {}
        for u, n in words.items():
            u += segment
            for r in rhss:
                v = u + r
                folded[v] = folded.get(v, 0) + n
        words, segment = folded, ()
    if segment:
        words = {u + segment: n for u, n in words.items()}
    return words


def _least_yields(rewritable, terminals, productions):
    """Per-symbol length of the shortest terminal word derivable with the
    (lhs, rhs) ``productions``, INF where none is; the least fixpoint."""
    m = dict.fromkeys(rewritable, INF)
    m.update(dict.fromkeys(terminals, 1))
    changed = True
    while changed:
        changed = False
        for x, r in productions:
            cand = sum(m[s] for s in r)
            if cand < m[x]:
                m[x] = cand
                changed = True
    return m


def min_yield_map(g):
    """Per-symbol lower bound on the length of a derivable terminal word,
    ignoring table synchronization (safe for pruning)."""
    return _least_yields(
        g.v, g.sigma, [(x, r) for t in g.tables for x, rhss in t.items() for r in rhss]
    )


def enumerate_etol(g, max_len, budget=None):
    """L(G) ∩ Σ^{≤max_len} by breadth-first search over sentential forms,
    read off the successor table."""
    table = g._successors
    return _budgeted(
        _breadth_first((g.axiom,), table.ordered, lambda s: table.info(s)[0] <= max_len),
        lambda s: s if g.is_word(s) and len(s) <= max_len else None,
        budget or DEFAULT_BUDGET,
    )


register_enumerator(EtolSystem, enumerate_etol)


@dataclass(frozen=True)
class TreeCount:
    """Exact derivation-tree count, or a budget-marked lower bound."""

    value: int
    exact: bool

    def __str__(self):
        return str(self.value) if self.exact else ">= %d" % self.value


def _is_subsequence(small, big):
    it = iter(big)
    return all(s in it for s in small)


def _count_paths(g, start, w, final, max_depth=None, cap=4096):
    """Weighted number of rewriting paths from ``start`` to the word w
    over the edges of g's successor table.

    A path's weight is the product of its edge multiplicities.  A word
    ends a path when ``final`` holds (it is never rewritten) and is
    counted on the way otherwise.  Successors whose least yield exceeds
    |w|, or whose persistent projection is no subsequence of w's, are
    pruned.  The count is exact unless the search hits the depth or count
    cap; it is then a lower bound.  Edges are summed in any order: a
    capped node is (cap, False) whichever edge crossed the cap.
    """
    w = tuple(w)
    if max_depth is None:
        max_depth = 4 * len(w) + 12
    table = g._successors
    w_persist = tuple(s for s in w if s in table.persistent)
    memo = {}

    def count(s, depth):
        base = 0
        if g.is_word(s):
            base = 1 if s == w else 0
            if final:
                return (base, True)
        if depth == 0:
            return (base, False)
        key = (s, depth)
        if key in memo:
            return memo[key]
        total, exact = base, True
        for succ, mult, least, persist in table.edges(s):
            if least > len(w) or not _is_subsequence(persist, w_persist):
                continue
            sub, sub_exact = count(succ, depth - 1)
            total += mult * sub
            exact = exact and sub_exact
            if total >= cap:
                memo[key] = (cap, False)
                return memo[key]
        memo[key] = (total, exact)
        return memo[key]

    return TreeCount(*count(start, max_depth))


def count_trees(g, w, max_depth=None, cap=4096):
    """Number of distinct derivation trees of w, within depth/count budget.

    A tree is the full record of one derivation: the table chosen at
    each level plus the production applied at every node.  Counts are
    exact for reduced systems without unit cycles; when the search hits
    the depth or count cap the result is a lower bound.  Plain systems
    rewrite terminals too, so their words are not final.

    The search reads g's successor table, so counts of many words (and an
    enumeration before them) expand each sentential form once.
    """
    return _count_paths(g, (g.axiom,), w, g.reduced, max_depth, cap)


@dataclass
class IndexAudit:
    """Bounded evidence about derivation indexes.

    ``per_word`` maps each found word to its minimal derivation index
    (the bottleneck number of active symbols over the best derivation);
    exact for fully explored words."""

    per_word: dict
    grammar_index: int | None
    complete: bool

    def bounded_by(self, k):
        return all(v <= k for v in self.per_word.values())


def index_audit(g, max_len, budget=None):
    """Minimal bottleneck active-symbol count per word, via a cheapest-
    bottleneck search over sentential forms."""
    budget = budget or DEFAULT_BUDGET
    edges = g._successors.edges
    active = set(g.v) if g.reduced else g.active_symbols()

    def weight(s):
        return sum(1 for x in s if x in active)

    start = (g.axiom,)
    best = {start: weight(start)}
    heap = [(best[start], start)]
    per_word = {}
    explored = 0
    complete = True
    while heap:
        cost, s = heapq.heappop(heap)
        if cost > best.get(s, INF):
            continue
        explored += 1
        if explored > budget.max_steps:
            complete = False
            break
        if g.is_word(s) and len(s) <= max_len:
            per_word.setdefault(s, cost)
            if g.reduced:
                continue
        for succ, _, least, _ in edges(s):
            if succ == s or least > max_len:
                continue
            nc = max(cost, weight(succ))
            if nc < best.get(succ, INF):
                best[succ] = nc
                heapq.heappush(heap, (nc, succ))
    gi = max(per_word.values()) if per_word else None
    return IndexAudit(per_word, gi, complete)


def _fresh(base, used):
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def active_normal_form(g):
    """Equivalent plain system whose active symbols are exactly V - Σ.

    Active terminals move their productions to a primed nonterminal, and
    terminals map to themselves; a finalization table turns each primed
    symbol into its terminal and every other nonterminal into a dead
    two-symbol cycle, as :func:`to_reduced` does.  Inactive nonterminals
    join the dead cycle at once, which preserves the language (forms
    containing them never terminated anyway).
    """
    if g.reduced:
        raise PreconditionError("active normal form applies to plain systems")
    act = g.active_symbols()
    nonterminals = set(g.v) - set(g.sigma)
    if act == nonterminals:
        return g
    used = set(g.v) | set(g.sigma)
    active_terms = sorted(act & set(g.sigma))
    prime = {a: _fresh(a + "'", used) for a in active_terms}
    inactive_nts = sorted(nonterminals - act)
    dead = (_fresh("D1", used), _fresh("D2", used))
    cycle = {dead[0]: ((dead[1],),), dead[1]: ((dead[0],),)}

    def h(rhs):
        return tuple(prime.get(s, s) for s in rhs)

    new_tables = []
    for t in g.tables:
        nt = {}
        for x in g.v:
            rhss = tuple(h(r) for r in t[x])
            if x in prime:
                nt[prime[x]] = rhss
            if x in g._sset:
                nt[x] = ((x,),)
            elif x in inactive_nts:
                nt[x] = ((dead[0],),)
            else:
                nt[x] = rhss
        nt.update(cycle)
        new_tables.append(nt)
    finalize = {x: ((x,),) if x in g._sset else ((dead[0],),) for x in g.v}
    finalize.update((prime[a], ((a,),)) for a in active_terms)
    finalize.update(cycle)
    new_tables.append(finalize)
    new_v = tuple(g.v) + tuple(prime[a] for a in active_terms) + dead
    axiom = prime.get(g.axiom, g.axiom)
    if axiom in inactive_nts:
        axiom = dead[0]  # language was empty apart from never-terminating forms
    if g.axiom in g._sset and g.axiom not in act:
        axiom = g.axiom  # inactive terminal axiom: L = {axiom}, keep as-is
    return EtolSystem(new_v, g.sigma, axiom, new_tables, reduced=False)


def to_reduced(g):
    """Reduced system generating L(G) with no more derivation trees.

    Active terminals gain primed nonterminal copies that carry their
    productions; identity productions of inactive terminals vanish; a
    finalization table maps primed symbols to their terminals and every
    other nonterminal to the dead symbol F.
    """
    if g.reduced:
        return g
    act = g.active_symbols()
    used = set(g.v) | set(g.sigma)
    active_terms = sorted(act & set(g.sigma))
    prime = {a: _fresh(a + "'", used) for a in active_terms}
    dead = _fresh("F", used)
    nonterminals = [x for x in g.v if x not in g._sset]

    def h(rhs):
        return tuple(prime.get(s, s) for s in rhs)

    new_tables = []
    for t in g.tables:
        nt = {}
        for x in nonterminals:
            nt[x] = tuple(h(r) for r in t[x])
        for a in active_terms:
            nt[prime[a]] = tuple(h(r) for r in t[a])
        nt[dead] = ((dead,),)
        new_tables.append(nt)
    finalize = {prime[a]: ((a,),) for a in active_terms}
    for x in nonterminals:
        finalize[x] = ((dead,),)
    finalize[dead] = ((dead,),)
    new_tables.append(finalize)

    axiom = g.axiom
    new_v = tuple(nonterminals) + tuple(prime[a] for a in active_terms) + (dead,)
    if axiom in g._sset:
        if axiom in prime:
            axiom = prime[axiom]
        else:
            # inactive terminal axiom: L = {axiom}; seed it from a fresh start
            start = _fresh("S0", used)
            new_v = new_v + (start,)
            new_tables[-1][start] = ((g.axiom,),)
            axiom = start
    return EtolSystem(new_v, g.sigma, axiom, new_tables, reduced=True)


def from_reduced(g):
    """Plain system with the same language and exactly the same number of
    derivation trees per word.

    Barred copies of symbols mark the paths of maximum height in each
    derivation tree; terminals produced early turn into subscripted
    placeholders that survive untouched until one finalization table
    converts everything at the last step.  The bar discipline forces a
    unique marking per tree, which is what makes the correspondence a
    bijection.  The index may grow (the placeholders count as active).
    """
    if not g.reduced:
        raise PreconditionError("from_reduced expects a reduced system")
    used = set(g.v) | set(g.sigma)
    bar = {s: _fresh(s + "_bar", used) for s in list(g.v) + list(g.sigma)}
    lam_bar = _fresh("lam_bar", used)
    one = {a: _fresh(a + "_1", used) for a in g.sigma}
    two = {a: _fresh(a + "_2", used) for a in g.sigma}
    lam1 = _fresh("lam_1", used)
    lam2 = _fresh("lam_2", used)
    dead = _fresh("F", used)
    nts = set(g.v)

    def h1(rhs):
        if not rhs:
            return (lam1,)
        return tuple(s if s in nts else one[s] for s in rhs)

    def barword(rhs):
        if not rhs:
            return (lam_bar,)
        return tuple(bar[s] for s in rhs)

    def barvariants(rhs):
        img = h1(rhs)
        nt_positions = [i for i, s in enumerate(rhs) if s in nts]
        out = []
        for mask in range(1, 2 ** len(nt_positions)):
            chosen = {nt_positions[i] for i in range(len(nt_positions)) if (mask >> i) & 1}
            out.append(
                tuple(
                    bar[rhs[i]] if i in chosen else img[i] for i in range(len(rhs))
                )
            )
        return out

    all_v = (
        list(g.v)
        + [bar[s] for s in list(g.v) + list(g.sigma)]
        + [lam_bar]
        + [one[a] for a in g.sigma]
        + [two[a] for a in g.sigma]
        + [lam1, lam2]
        + [dead]
        + list(g.sigma)
    )

    new_tables = []
    for t in g.tables:
        nt = {}
        for x in g.v:
            rhss = t.get(x, ())
            plain_imgs = [h1(r) for r in rhss]
            bar_imgs = []
            for r in rhss:
                if all(s in g._sset for s in r):
                    bar_imgs.append(barword(r))
                else:
                    bar_imgs.extend(barvariants(r))
            nt[x] = tuple(plain_imgs) or ((dead,),)
            nt[bar[x]] = tuple(bar_imgs) or ((dead,),)
        for a in g.sigma:
            nt[one[a]] = ((two[a],),)
            nt[two[a]] = ((two[a],),)
            nt[a] = ((dead,),)
            nt[bar[a]] = ((dead,),)
        nt[lam1] = ((lam2,),)
        nt[lam2] = ((lam2,),)
        nt[lam_bar] = ((dead,),)
        nt[dead] = ((dead,),)
        new_tables.append(nt)

    finalize = {dead: ((dead,),)}
    for a in g.sigma:
        finalize[bar[a]] = ((a,),)
        finalize[one[a]] = ((dead,),)
        finalize[two[a]] = ((a,),)
        finalize[a] = ((dead,),)
    finalize[lam_bar] = ((),)
    finalize[lam1] = ((dead,),)
    finalize[lam2] = ((),)
    for x in g.v:
        finalize[x] = ((dead,),)
        finalize[bar[x]] = ((dead,),)
    new_tables.append(finalize)

    return EtolSystem(all_v, g.sigma, bar[g.axiom], new_tables, reduced=False)


def _blocks(q, words, used, name):
    """The block subsystems shared by both bounded constructions.

    Per linear component c with r > 0 periods, block i gets the markers
    ``<name>c_i_j`` for j = 1..r (fresh against ``used``).  Returns
    ``(seeds, rules, markers)``: ``seeds`` holds one seed per component,
    ``words[i]`` to the constant's power followed by the block's first
    marker for every block, or phi of the constant when c has no
    periods; ``rules`` holds one ``(pump, advance)`` pair of
    productions per (component, period), where pump appends
    ``words[i]`` to the period's power before each marker and advance
    moves each marker to the next period or erases it after the last;
    ``markers`` lists the marker names in creation order.
    """
    seeds, rules, markers = [], [], []
    for c, comp in enumerate(q.components):
        r = len(comp.periods)
        if not r:
            seeds.append(phi(words, comp.constant))
            continue
        x = [[_fresh("%s%d_%d_%d" % (name, c, i + 1, j), used) for j in range(1, r + 1)]
             for i in range(len(words))]
        markers.extend(m for row in x for m in row)
        seed = []
        for w, e, row in zip(words, comp.constant, x):
            seed.extend(w * e + (row[0],))
        seeds.append(tuple(seed))
        for j, period in enumerate(comp.periods):
            pump = {row[j]: (w * e + (row[j],),) for w, e, row in zip(words, period, x)}
            advance = {row[j]: ((row[j + 1],) if j + 1 < r else (),) for row in x}
            rules.append((pump, advance))
    return seeds, rules, markers


def semilinear_to_etol(q, letters):
    """Two-table plain system of index k generating {a1^l1 .. ak^lk : l ∈ Q}.

    Table 1 seeds one subsystem per linear component (union by initial
    choice) and advances/erases the per-block markers; table 0 pumps one
    period's worth of letters into every block at once.
    """
    letters = tuple(l if isinstance(l, str) else tuple(l)[0] for l in letters)
    if len(set(letters)) != len(letters):
        raise PreconditionError("semilinear_to_etol needs distinct letters")
    k = len(letters)
    if q.dim != k:
        raise PreconditionError("set dimension must equal letter count")
    used = set(letters)
    S = _fresh("S", used)
    Z = _fresh("Z", used)
    seeds, rules, markers = _blocks(q, tuple((l,) for l in letters), used, "X")
    pump = {S: ((Z,),)}          # table 0
    advance = {S: tuple(seeds)}  # table 1
    for period_pump, period_advance in rules:
        pump.update(period_pump)
        advance.update(period_advance)
    for a in letters + (Z,):
        pump[a] = ((a,),)
        advance[a] = ((a,),)
    v = letters + (S, Z) + tuple(markers)
    return EtolSystem(v, letters, S, [pump, advance], reduced=False)


def _semi_simple_failure(q):
    """Why Q is not semi-simple, or None when it is: each component has
    linearly independent periods and no two components meet."""
    comps = q.components
    for i, c in enumerate(comps):
        if not is_simple(c):
            return "component %d has dependent periods" % i
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            disjoint, v = vecautomata.compare(
                SemilinearSet([comps[i]]), SemilinearSet([comps[j]]), "disjoint"
            )
            if not disjoint:
                return "components %d and %d meet at %r" % (i, j, v)
    return None


def unambiguous_bounded_etol(words, q, injectivity_len=14):
    """Reduced finite-index system generating phi(Q) with one derivation
    tree per word.

    Requires a semi-simple Q (decided exactly) and phi injective on Q
    (validated by exponent-tuple collisions up to a length bound).  The
    system guesses the linear component, runs one branch per block, and
    emits constant-many then period-many copies of each block word, one
    period at a time; simplicity plus disjointness plus injectivity make
    every choice recoverable from the generated word.
    """
    words = tuple(tuple(w) for w in words)
    if any(not w for w in words):
        raise PreconditionError("block words must be nonempty")
    k = len(words)
    if q.dim != k:
        raise PreconditionError("set dimension must equal block count")
    failure = _semi_simple_failure(q)
    if failure:
        raise PreconditionError("Q is not semi-simple: %s" % failure)
    in_q = (t for t in _tuples_within_length(words, injectivity_len) if member(q, t))
    hit = _phi_collision(words, in_q)
    if hit:
        raise PreconditionError("phi not injective on Q: %r from %r and %r" % hit)

    sigma = sorted({s for w in words for s in w})
    used = set(sigma)
    S = _fresh("S", used)
    seeds, rules, markers = _blocks(q, words, used, "B")
    tables = [{S: tuple(seeds)}]
    for pump, advance in rules:
        tables += [pump, advance]
    return EtolSystem((S,) + tuple(markers), sigma, S, tables, reduced=True)
