"""Linear and semilinear sets over N^k, the block map phi, and the
membership tests behind all the boundedness notions.

A linear set is a constant vector plus nonnegative integer combinations
of period vectors; a semilinear set is a finite union of linear sets.
A bounded spec names one of three language kinds over a fixed word
tuple (w1,..,wk):

* ``ginsburg``        -- { w1^t1 ... wk^tk : t in Q1 }
* ``parikh``          -- words of that block shape whose Parikh image lies in Q2
* ``ginsburg-parikh`` -- both constraints at once

Exact arithmetic throughout; nothing here touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .foundation import (
    Alphabet,
    PreconditionError,
    _budgeted,
    decompositions,
    parikh,
    register_enumerator,
)


@dataclass(frozen=True)
class LinearSet:
    """constant + N-combinations of periods; no all-zero periods allowed."""

    constant: tuple
    periods: tuple

    def __init__(self, constant, periods=()):
        constant = tuple(int(c) for c in constant)
        periods = tuple(tuple(int(x) for x in p) for p in periods)
        if len(constant) < 1:
            raise ValueError("dimension must be at least 1")
        if any(c < 0 for c in constant):
            raise ValueError("constant must be nonnegative")
        for p in periods:
            if len(p) != len(constant):
                raise ValueError("period dimension mismatch")
            if any(x < 0 for x in p):
                raise ValueError("periods must be nonnegative")
            if not any(p):
                raise ValueError("all-zero period rejected")
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "periods", periods)

    @property
    def dim(self):
        return len(self.constant)


@dataclass(frozen=True)
class SemilinearSet:
    """Finite union of linear sets of one common dimension."""

    components: tuple

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("semilinear set needs at least one component")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise ValueError("components must share one dimension")
        object.__setattr__(self, "components", components)

    @property
    def dim(self):
        return self.components[0].dim


def linear(constant, *periods):
    return LinearSet(constant, periods)


def semilinear(*components):
    return SemilinearSet(components)


def _member_linear(ls, v):
    """Exact bounded search for multipliers with v = v0 + sum l_j v_j.

    Any coordinate where a period is positive bounds that period's
    multiplier by the target coordinate; a positive coordinate always
    exists since all-zero periods are rejected at construction.
    """
    rem = tuple(a - b for a, b in zip(v, ls.constant))
    if any(x < 0 for x in rem):
        return False

    periods = ls.periods

    def search(rem, j):
        if not any(rem):
            return True
        if j == len(periods):
            return False
        p = periods[j]
        cap = min(rem[i] // p[i] for i in range(len(p)) if p[i] > 0)
        for mult in range(cap + 1):
            nxt = tuple(r - mult * x for r, x in zip(rem, p))
            if search(nxt, j + 1):
                return True
        return False

    return search(rem, 0)


def member(q, v):
    """True iff some component of q contains the vector v."""
    v = tuple(int(x) for x in v)
    if len(v) != q.dim:
        raise PreconditionError("vector dimension %d != set dimension %d" % (len(v), q.dim))
    if any(x < 0 for x in v):
        return False
    return any(_member_linear(c, v) for c in q.components)


def enumerate_vectors(q, coord_bound):
    """All members of q inside the box [0, coord_bound]^k (brute force)."""
    return [v for v in product(range(coord_bound + 1), repeat=q.dim) if member(q, v)]


def phi(words, t):
    """w1^t1 ... wk^tk as one word."""
    if len(words) != len(t):
        raise PreconditionError("tuple length %d != word count %d" % (len(t), len(words)))
    out = []
    for w, e in zip(words, t):
        out.extend(tuple(w) * e)
    return tuple(out)


KINDS = ("ginsburg", "parikh", "ginsburg-parikh")


@dataclass(frozen=True)
class BoundedSpec:
    """Words (w1,..,wk) plus the semilinear data naming a bounded language."""

    words: tuple
    kind: str
    q1: SemilinearSet | None
    q2: SemilinearSet | None
    alphabet: Alphabet

    def __init__(self, words, kind, q1=None, q2=None, alphabet=None):
        words = tuple(tuple(w) for w in words)
        if not words or any(not w for w in words):
            raise ValueError("bounded spec needs nonempty words")
        if kind not in KINDS:
            raise ValueError("kind must be one of %r" % (KINDS,))
        if alphabet is None:
            alphabet = Alphabet(sorted({s for w in words for s in w}))
        if kind in ("ginsburg", "ginsburg-parikh"):
            if q1 is None or q1.dim != len(words):
                raise ValueError("Q1 required with dimension = number of words")
        if kind in ("parikh", "ginsburg-parikh"):
            if q2 is None or q2.dim != len(alphabet):
                raise ValueError("Q2 required with dimension = alphabet size")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "alphabet", alphabet)

    def is_distinct_letter(self):
        letters = [w[0] for w in self.words]
        return all(len(w) == 1 for w in self.words) and len(set(letters)) == len(letters)


def induced_member(spec, w):
    """Membership for the three representable boundedness notions."""
    w = tuple(w)
    for s in w:
        if s not in spec.alphabet:
            raise PreconditionError("symbol %r outside spec alphabet" % (s,))
    decs = decompositions(w, spec.words)
    if spec.kind == "ginsburg":
        return any(member(spec.q1, t) for t in decs)
    if spec.kind == "parikh":
        return bool(decs) and member(spec.q2, parikh(w, spec.alphabet))
    return any(member(spec.q1, t) for t in decs) and member(spec.q2, parikh(w, spec.alphabet))


def _tuples_within_length(words, max_len):
    """All exponent tuples t with |phi(t)| <= max_len."""
    lens = [len(w) for w in words]

    def rec(j, remaining):
        if j == len(lens):
            yield ()
            return
        e = 0
        while e * lens[j] <= remaining:
            for rest in rec(j + 1, remaining - e * lens[j]):
                yield (e,) + rest
            e += 1

    return rec(0, max_len)


def _enumerate_bounded(spec, max_len, budget):
    def word_of(t):
        if spec.kind in ("ginsburg", "ginsburg-parikh") and not member(spec.q1, t):
            return None
        w = phi(spec.words, t)
        if spec.kind in ("parikh", "ginsburg-parikh") and not member(
            spec.q2, parikh(w, spec.alphabet)
        ):
            return None
        return w

    return _budgeted(_tuples_within_length(spec.words, max_len), word_of, budget)


register_enumerator(BoundedSpec, _enumerate_bounded)


def _row_reduce(m, ncols):
    """Bring the Fraction matrix ``m`` (a list of rows) to reduced row
    echelon form over its first ``ncols`` columns, in place, by exact
    Gauss-Jordan elimination; returns the pivot columns."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def is_simple(ls):
    """True iff the periods are linearly independent over the rationals."""
    if not ls.periods:
        return True
    m = [[Fraction(x) for x in p] for p in ls.periods]
    return len(_row_reduce(m, ls.dim)) == len(ls.periods)


@dataclass(frozen=True)
class SemiSimpleReport:
    """Box-bounded evidence that a semilinear set is semi-simple."""

    simple_flags: tuple
    collisions: tuple      # (component_i, component_j, vector) triples
    box: int
    validated: bool

    def __str__(self):
        if self.validated:
            return "semi-simple: validated up to box %d" % self.box
        bits = []
        for i, ok in enumerate(self.simple_flags):
            if not ok:
                bits.append("component %d has dependent periods" % i)
        for i, j, v in self.collisions:
            bits.append("components %d and %d collide at %r" % (i, j, v))
        return "semi-simple: FAILED (%s)" % "; ".join(bits)


def validate_semi_simple(q, box):
    """Check every component simple and pairwise disjoint on [0,box]^k.

    The verdict is evidence up to the box, never a proof beyond it;
    semi-simple decompositions are supplied by callers, not synthesized.
    """
    if box < 1:
        raise PreconditionError("box must be >= 1")
    flags = tuple(is_simple(c) for c in q.components)
    collisions = []
    singles = [SemilinearSet((c,)) for c in q.components]
    for v in product(range(box + 1), repeat=q.dim):
        hits = [i for i, s in enumerate(singles) if member(s, v)]
        for a in range(len(hits)):
            for b in range(a + 1, len(hits)):
                collisions.append((hits[a], hits[b], v))
        if len(collisions) >= 10:
            break
    validated = all(flags) and not collisions
    return SemiSimpleReport(flags, tuple(collisions), box, validated)


def morphic_lift(spec, h):
    """Replace the letters of a distinct-letter Ginsburg spec by h-images.

    The lifted spec generates exactly the h-image of the input language,
    since h acts block by block on w = b1^t1 ... bk^tk.
    """
    if spec.kind != "ginsburg" or not spec.is_distinct_letter():
        raise PreconditionError("morphic lift needs a distinct-letter Ginsburg spec")
    images = []
    for w in spec.words:
        img = tuple(h[w[0]])
        if not img:
            raise PreconditionError("morphism must be λ-free; %r maps to λ" % (w[0],))
        images.append(img)
    return BoundedSpec(tuple(images), "ginsburg", q1=spec.q1)
