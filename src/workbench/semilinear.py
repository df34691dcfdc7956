"""Linear and semilinear sets over N^k, the block map phi, and the
membership tests behind all the boundedness notions.

A linear set is a constant vector plus nonnegative integer combinations
of period vectors; a semilinear set is a finite union of linear sets.
A bounded spec names one of three language kinds over a fixed word
tuple (w1,..,wk):

* ``ginsburg``        -- { w1^t1 ... wk^tk : t in Q1 }
* ``parikh``          -- words of that block shape whose Parikh image lies in Q2
* ``ginsburg-parikh`` -- both constraints at once

Membership in a linear set is an exact linear solve.  Each set holds a
plan, worked out once by Gauss-Jordan elimination: a maximal independent
subset of its periods (the basis), the other (free) periods, coordinates
on which the basis is invertible, that inverse scaled to integers, and
linear forms that vanish exactly on the span of the periods.  A query
tests the span once, then enumerates multipliers for the free periods
only and solves for the basis ones, so for r periods of rank s and
coordinates up to n it costs O(n^(r - s)): exponential only in the
number of dependent periods, and O(1) for a set whose periods are
independent.

Enumeration goes the other way: a ``ginsburg`` or ``ginsburg-parikh``
spec, and the semi-simplicity box scan, generate each component's
members forward (constant plus period multiples, clipped by length or
box), lazily and each vector once, so a budget cuts the generation
itself and its cost grows with the members, not with the ways of
reaching them.

Exact arithmetic throughout; nothing here touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul, sub
from typing import NamedTuple

from .foundation import (
    Alphabet,
    PreconditionError,
    _breadth_first,
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

    @cached_property
    def _plan(self):
        """The membership plan, worked out on first use (see ``_Plan``)."""
        return _Plan.of(self.periods, self.dim)


class _Plan(NamedTuple):
    """How ``_member_linear`` solves for a linear set's multipliers."""

    basis: tuple    # a maximal independent subset of the periods, greedy in period order
    free: tuple     # the other periods, which lie in the span of the basis
    coords: tuple   # len(basis) coordinates on which the basis is invertible
    inv: tuple      # den * the inverse of that square submatrix, integer rows
    den: int
    kernel: tuple   # dim - rank integer forms that vanish exactly on the span

    @classmethod
    def of(cls, periods, dim):
        # reducing [P | I], P the periods as columns: period j is a basis
        # member iff column j is a pivot column, and the right-hand rows
        # below the rank are forms that vanish exactly on the span of P
        r = len(periods)
        m = [[Fraction(p[i]) for p in periods] + [Fraction(int(i == j)) for j in range(dim)]
             for i in range(dim)]
        basis = tuple(_row_reduce(m, r))
        rank = len(basis)
        kernel = _integer_rows([row[r:] for row in m[rank:]])[1]
        # reducing [T | I], T the basis periods as rows, picks the pivot
        # coordinates c and leaves T[:, c]^-1 in the right-hand block
        m = [[Fraction(x) for x in periods[b]] + [Fraction(int(i == j)) for j in range(rank)]
             for i, b in enumerate(basis)]
        coords = tuple(_row_reduce(m, dim))
        # l_B solves sum_b l_b p_b[c] = rem[c], so its matrix is T[:, c]^-T
        den, inv = _integer_rows([[m[i][dim + b] for i in range(rank)] for b in range(rank)])
        free = tuple(j for j in range(r) if j not in basis)
        return cls(basis, free, coords, inv, den, kernel)

    def solve(self, rem):
        """True iff rem, known to lie in the span of the basis, is a
        nonnegative integer combination of it."""
        x = [rem[c] for c in self.coords]
        den = self.den
        for row in self.inv:
            l = sum(map(mul, row, x))
            if l < 0 or l % den:
                return False
        return True


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
    """Exact solve for multipliers with v = constant + sum l_j p_j, l_j >= 0.

    With rem = v - constant, rem must first lie in the span of the
    periods, which the plan's kernel forms test on every coordinate.
    Taking free periods off keeps rem in that span, and inside it the
    basis multipliers are fixed by the plan's coordinates: l_B =
    inv . rem[coords] / den, which must be nonnegative integers.  So
    only the multipliers of the free periods are enumerated, each capped
    by the remainder.
    """
    rem = list(map(sub, v, ls.constant))
    if min(rem) < 0:
        return False
    plan = ls._plan
    for z in plan.kernel:
        if sum(map(mul, z, rem)):
            return False
    if not plan.free:
        return plan.solve(rem)
    return _search_free(ls.periods, plan, 0, rem)


def _search_free(periods, plan, j, rem):
    """Some choice of multipliers for the free periods from the j-th on
    leaves a remainder that the basis solves."""
    if j == len(plan.free):
        return plan.solve(rem)
    p = periods[plan.free[j]]
    cap = min(r // x for r, x in zip(rem, p) if x)
    for _ in range(cap + 1):
        if _search_free(periods, plan, j + 1, rem):
            return True
        rem = list(map(sub, rem, p))
    return False


def _members_within(ls, fits):
    """The vectors of ``ls`` that ``fits`` accepts, lazily, each once, in
    breadth-first order from the constant.  ``fits`` must reject v + p
    whenever it rejects v, for every period p, so that every fitting
    member is reached through fitting ones."""
    if not fits(ls.constant):
        return iter(())
    periods = ls.periods
    return _breadth_first(
        ls.constant, lambda v: (tuple(map(add, v, p)) for p in periods), fits
    )


def member(q, v):
    """True iff some component of q contains the vector v.

    Each linear component is answered by an exact solve (see
    ``_member_linear``) that searches only the multipliers of its
    dependent periods: a component whose r periods have rank s costs
    O(n^(r - s)) for coordinates up to n, and O(1) when its periods are
    independent.
    """
    v = tuple(map(int, v))
    if len(v) != q.dim:
        raise PreconditionError("vector dimension %d != set dimension %d" % (len(v), q.dim))
    if min(v) < 0:
        return False
    for c in q.components:
        if _member_linear(c, v):
            return True
    return False


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


def _phi_collision(words, tuples):
    """First (w, t, u) among the exponent tuples, in their order, with
    phi(t) = phi(u) = w and t != u, t the earlier one; None when phi is
    injective on them."""
    seen = {}
    for u in tuples:
        w = phi(words, u)
        t = seen.setdefault(w, u)
        if t != u:
            return w, t, u
    return None


def _enumerate_bounded(spec, max_len, budget):
    """A ``parikh`` spec walks every exponent tuple within the length;
    the other kinds draw Q1's members forward, so each node is a distinct
    member.  A vector that a later component reaches again is skipped
    uncharged; each component yields a vector once, so the skipped ones
    number at most the components times the drawn ones."""
    words = spec.words
    if spec.kind == "parikh":
        nodes = _tuples_within_length(words, max_len)
    else:
        lens = [len(w) for w in words]

        def fits(t):
            return sum(map(mul, t, lens)) <= max_len

        def members():
            drawn = set()
            for c in spec.q1.components:
                for t in _members_within(c, fits):
                    if t not in drawn:
                        drawn.add(t)
                        yield t

        nodes = members()

    def word_of(t):
        w = phi(words, t)
        if spec.kind != "ginsburg" and not member(spec.q2, parikh(w, spec.alphabet)):
            return None
        return w

    return _budgeted(nodes, word_of, budget)


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


def _integer_rows(rows):
    """(den, den * rows as integer tuples), den the least common
    denominator of the Fraction rows."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, tuple(tuple(int(x * den) for x in row) for row in rows)


def is_simple(ls):
    """True iff the periods are linearly independent over the rationals."""
    return not ls._plan.free


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

    Each component's points in the box are generated forward; the points
    shared by two or more components are reported in lexicographic order,
    stopping after the point at which ten collisions are reached.  The
    verdict is evidence up to the box, never a proof beyond it;
    semi-simple decompositions are supplied by callers, not synthesized.
    """
    if box < 1:
        raise PreconditionError("box must be >= 1")
    flags = tuple(is_simple(c) for c in q.components)

    def fits(v):
        return max(v) <= box

    owners = {}     # point of the box -> the components holding it
    for i, c in enumerate(q.components):
        for v in _members_within(c, fits):
            owners.setdefault(v, []).append(i)
    collisions = []
    for v in sorted(v for v, hits in owners.items() if len(hits) > 1):
        hits = owners[v]
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
