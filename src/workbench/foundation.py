"""Words, Parikh images, commutative equivalence, and the enumeration oracle.

A word is a tuple of symbols; a symbol is any string, so constructed
names like ``X_{1,1}`` or primed/barred letters are ordinary symbols.
For the common case of single-character alphabets, :func:`word` parses
``"abb"`` into ``('a', 'b', 'b')``.

Every language-defining object in the workbench (finite lists, regexes,
bounded specs, counter machines, ETOL systems, matrix grammars) can be
enumerated up to a length bound through :func:`enumerate_language`.  The
enumeration is the desk-scale oracle the whole test suite leans on:
deterministic output, explicit budget, and an explicit ``complete`` flag
so "search ran out" is never confused with "language is empty here".

Every budgeted enumerator runs on one frontier.  :func:`_budgeted` owns
the budget: it counts the nodes it is handed in ``explored``, stops
after ``max_steps`` of them, and collects the words they yield into the
:class:`Enumeration`.  The nodes come from :func:`_breadth_first` (each
node reachable through a ``successors`` function and not pruned by a
``keep`` test, once, layer by layer), from :func:`_words_up_to` (Σ^{≤n}
in length-then-alphabet order) or from any other generator, so an
enumerator only says how a node expands, which nodes it keeps and
which word a node yields.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass
from itertools import product


class BudgetExhausted(RuntimeError):
    """A bounded search hit its budget before the answer was certain."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


Word = tuple  # tuple of symbol strings

EMPTY_WORD: Word = ()


def word(text):
    """Parse a string of single-character symbols into a word tuple."""
    return tuple(text)


def show_word(w):
    """Render a word for humans; multi-char symbols are dot-separated."""
    if not w:
        return "λ"
    if all(len(s) == 1 for s in w):
        return "".join(w)
    return "·".join(w)


class Alphabet:
    """Ordered list of distinct symbols; the order fixes Parikh coordinates."""

    __slots__ = ("symbols", "index")

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet has duplicate symbols: %r" % (symbols,))
        self.symbols = symbols
        self.index = {s: i for i, s in enumerate(symbols)}

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, s):
        return s in self.index

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return "Alphabet(%r)" % (self.symbols,)


def parikh(w, alphabet):
    """Parikh image of a word: coordinate i counts symbol i occurrences."""
    counts = [0] * len(alphabet)
    idx = alphabet.index
    for s in w:
        if s not in idx:
            raise PreconditionError("symbol %r not in alphabet %r" % (s, alphabet.symbols))
        counts[idx[s]] += 1
    return tuple(counts)


def comm_equivalent(u, v):
    """True iff one word is a rearrangement of the other."""
    return Counter(u) == Counter(v)


def decompositions(w, words):
    """All exponent tuples (i1,..,ik) with w == w1^i1 ... wk^ik.

    Dynamic programming over (position, block index); the result may
    have any size since the block map need not be injective.
    """
    words = tuple(tuple(b) for b in words)
    if any(not b for b in words):
        raise PreconditionError("decomposition blocks must be nonempty")
    w = tuple(w)
    k = len(words)
    memo = {}

    def solve(pos, j):
        if j == k:
            return frozenset([()]) if pos == len(w) else frozenset()
        key = (pos, j)
        if key in memo:
            return memo[key]
        block = words[j]
        out = set()
        e = 0
        p = pos
        while True:
            for rest in solve(p, j + 1):
                out.add((e,) + rest)
            if w[p:p + len(block)] != block:
                break
            p += len(block)
            e += 1
        memo[key] = frozenset(out)
        return memo[key]

    return solve(0, 0)


@dataclass(frozen=True)
class Budget:
    """Search limits for oracle enumeration and machine simulation."""

    max_steps: int = 200_000     # node/configuration expansions
    step_factor: int = 64        # counter-machine step bound = factor * (|w| + 1)

    def scaled_steps(self, n):
        return self.step_factor * (n + 1)


DEFAULT_BUDGET = Budget()


@dataclass
class Enumeration:
    """Result of enumerating L(spec) up to a length bound."""

    words: list
    complete: bool
    explored: int = 0

    def as_set(self):
        return set(self.words)

    def require_complete(self):
        if not self.complete:
            raise BudgetExhausted("enumeration incomplete: budget exhausted")
        return self


def sort_words(words):
    """Canonical order: by length, then lexicographic on symbol tuples
    (a lexicographic sort, then a stable one by length)."""
    out = sorted(set(map(tuple, words)))
    out.sort(key=len)
    return out


def _budgeted(nodes, word_of, budget):
    """The words ``word_of(node)`` yields over ``nodes`` (None: no word).

    Every node drawn counts in ``explored``; drawing one past
    ``budget.max_steps`` ends the search with ``complete=False``."""
    words = set()
    explored = 0
    for node in nodes:
        explored += 1
        if explored > budget.max_steps:
            return Enumeration(sort_words(words), False, explored)
        w = word_of(node)
        if w is not None:
            words.add(w)
    return Enumeration(sort_words(words), True, explored)


def _breadth_first(start, successors, keep=None):
    """Every node reachable from ``start`` through ``successors``, once
    each, in breadth-first (discovery) order.  A successor that ``keep``
    rejects is pruned; each node is tested once, however often it is
    generated."""
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        yield node
        for nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                if keep is None or keep(nxt):
                    queue.append(nxt)


def _words_up_to(alphabet, n):
    """Σ^{≤n} by length, then lexicographic in the alphabet's order."""
    for length in range(n + 1):
        yield from product(alphabet, repeat=length)


_ENUMERATORS = {}


def register_enumerator(cls, fn):
    """Register ``fn(spec, max_len, budget) -> Enumeration`` for a spec type."""
    _ENUMERATORS[cls] = fn


def enumerate_language(spec, max_len, budget=None):
    """L(spec) ∩ Σ^{≤max_len}, sorted length-then-lexicographic.

    Deterministic for fixed inputs.  The returned ``complete`` flag is
    False when the budget cut the search short.
    """
    budget = budget or DEFAULT_BUDGET
    for cls in type(spec).__mro__:
        fn = _ENUMERATORS.get(cls)
        if fn is not None:
            return fn(spec, max_len, budget)
    raise PreconditionError("no enumerator registered for %r" % (type(spec).__name__,))


@dataclass(frozen=True)
class FiniteLanguage:
    """A finite word list used directly as a language spec."""

    words: tuple

    def __init__(self, words):
        object.__setattr__(self, "words", tuple(sort_words(words)))


def _enumerate_finite(spec, max_len, budget):
    hits = [w for w in spec.words if len(w) <= max_len]
    return Enumeration(sort_words(hits), True, explored=len(spec.words))


register_enumerator(FiniteLanguage, _enumerate_finite)


@dataclass(frozen=True)
class RegexLanguage:
    """A regex over a finite alphabet, enumerated by filtering Σ^{≤n}.

    Words are matched as the concatenation of their symbols, so every
    symbol must be a single character."""

    pattern: str
    alphabet: Alphabet

    def __post_init__(self):
        multi = [s for s in self.alphabet if len(s) != 1]
        if multi:
            raise PreconditionError(
                "regex alphabet needs single-character symbols, got %r" % (multi,)
            )
        try:
            re.compile(self.pattern)
        except re.error as e:
            raise PreconditionError("invalid regex %r: %s" % (self.pattern, e)) from None


def _enumerate_regex(spec, max_len, budget):
    rx = re.compile(spec.pattern)
    return _budgeted(
        _words_up_to(spec.alphabet, max_len),
        lambda w: w if rx.fullmatch("".join(w)) else None,
        budget,
    )


register_enumerator(RegexLanguage, _enumerate_regex)
