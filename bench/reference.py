"""Reference answers for every job, computed without the code being timed.

Three parts:

* a forward generator of semilinear members: the constant plus period
  combinations, clipped to a box.  It checks ``member`` answers,
  ``decide`` witnesses, true ``decide`` verdicts inside the box, the
  enumerations of bounded specs and counter machines, and box scans;
* cross-construction equality: the NCM, the DCM and the ``BoundedSpec``
  built from one semilinear set must enumerate the words this generator
  predicts, so they agree with each other;
* known answers for the grammar documents, whose languages, derivation
  counts and counting series follow from how they were built.

``check(job, outcome)`` returns None when the answer is right and a
one-line reason otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

DECIDE_BOX = 10          # coordinate bound for checking true verdicts
INJECTIVITY_LEN = 12     # decide_bounded's documented check length
COUNT_CAP = 4096         # count_trees / count_derivations default cap
FIT_TERMS = 16           # fit_recurrence needs 2*max_order + 4 terms


# ---------------------------------------------------------------- semilinear

def members(ls, bound):
    """Members of a linear set with every coordinate <= bound[i]."""
    out = set()
    periods = ls.periods

    def fits(v):
        return all(x <= b for x, b in zip(v, bound))

    def rec(v, j):
        if j == len(periods):
            out.add(v)
            return
        p = periods[j]
        while fits(v):
            rec(v, j + 1)
            v = tuple(x + y for x, y in zip(v, p))

    if fits(ls.constant):
        rec(tuple(ls.constant), 0)
    return out


def set_members(q, bound):
    out = set()
    for comp in q.components:
        out |= members(comp, bound)
    return out


def contains(q, v):
    return tuple(v) in set_members(q, v)


def members_up_to(q, n):
    """Members with coordinate sum <= n."""
    return {v for v in set_members(q, (n,) * q.dim) if sum(v) <= n}


def rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# ---------------------------------------------------------------- words

def phi(words, t):
    return tuple(s for w, e in zip(words, t) for _ in range(e) for s in w)


def factorizations(words, w):
    """Every exponent tuple t with phi(words, t) == w."""
    out = []

    def rec(pos, j, t):
        if j == len(words):
            if pos == len(w):
                out.append(tuple(t))
            return
        b, e = words[j], 0
        while True:
            rec(pos, j + 1, t + [e])
            if tuple(w[pos:pos + len(b)]) != tuple(b):
                return
            pos, e = pos + len(b), e + 1

    rec(0, 0, [])
    return out


def collision(words, max_len):
    """Two exponent tuples with one image of length <= max_len, or None."""
    seen = {}
    lens = [len(w) for w in words]

    def rec(j, left, t):
        if j == len(words):
            w = phi(words, t)
            if w in seen:
                return seen[w], tuple(t)
            seen[w] = tuple(t)
            return None
        e = 0
        while e * lens[j] <= left:
            hit = rec(j + 1, left - e * lens[j], t + [e])
            if hit:
                return hit
            e += 1
        return None

    return rec(0, max_len, [])


def arrangements(letters, v):
    """All words with letter counts v over the given letters."""
    out = []

    def rec(prefix, left):
        if not any(left):
            out.append(tuple(prefix))
            return
        for i, a in enumerate(letters):
            if left[i]:
                left[i] -= 1
                prefix.append(a)
                rec(prefix, left)
                prefix.pop()
                left[i] += 1

    rec([], list(v))
    return out


def canonical(words):
    return sorted(set(map(tuple, words)), key=lambda w: (len(w), w))


def show(w):
    return "".join(w) if w else "λ"


def diff_words(got, want):
    g, w = set(got), set(want)
    missing = sorted(w - g, key=lambda x: (len(x), x))
    extra = sorted(g - w, key=lambda x: (len(x), x))
    if missing:
        return "%d words missing, first %s" % (len(missing), show(missing[0]))
    if extra:
        return "%d extra words, first %s" % (len(extra), show(extra[0]))
    return "word order differs"


# ---------------------------------------------------------------- checks

def check_decide(job, out):
    info = job.info
    words, q1, q2, rel = info["words"], info["q1"], info["q2"], info["rel"]
    clash = collision(words, INJECTIVITY_LEN)
    if clash:
        if out.status == "precondition":
            return None
        return "phi collides at %r and %r within length %d, expected a precondition error" % (
            clash[0], clash[1], INJECTIVITY_LEN)
    if out.status != "ok":
        return "unexpected %s" % out.text
    v = out.value
    if v.holds:
        box = (DECIDE_BOX,) * q1.dim
        m1, m2 = set_members(q1, box), set_members(q2, box)
        bad = {"equal": m1 ^ m2, "subset": m1 - m2, "disjoint": m1 & m2}[rel]
        if bad:
            return "%s reported true, but %r contradicts it" % (rel, min(bad))
        return None
    if info.get("true"):
        return "%s holds by construction but was reported false" % rel
    if v.witness is None:
        return "false verdict without a witness"
    ts = factorizations(words, v.witness)
    in1 = any(contains(q1, t) for t in ts)
    in2 = any(contains(q2, t) for t in ts)
    ok = {"equal": in1 != in2, "subset": in1 and not in2, "disjoint": in1 and in2}[rel]
    if not ok:
        return "witness %s does not refute %s (in L1: %s, in L2: %s)" % (
            show(v.witness), rel, in1, in2)
    return None


def check_member(job, out):
    q, v = job.args
    want = job.info["answer"] if "answer" in job.info else contains(q, v)
    if out.status != "ok" or out.value != want:
        return "member%r: want %s, got %s" % (v, want, out.text)
    return None


def expected_enum(job):
    info = job.info
    if job.kind == "ncm-enum":
        _, alphabet, n = job.args
        words = set()
        for v in members_up_to(info["q"], n):
            words.update(arrangements(tuple(alphabet), v))
        return canonical(words)
    if job.kind == "cap-probe":
        return [()]
    spec, n = job.args
    if "q1" in info and "q2" in info:
        vs = members_up_to(info["q1"], n) & members_up_to(info["q2"], n)
    else:
        vs = members_up_to(info.get("q1") or info.get("q2"), n)
    return canonical(phi(spec.words, v) for v in vs)


def check_enum(job, out):
    if out.status != "ok":
        return "unexpected %s" % out.text[:200]
    want = expected_enum(job)
    if out.value.words != want:
        return diff_words(out.value.words, want)
    return None


def check_accepts(job, out):
    m, w = job.args
    letters = job.info["letters"]
    counts = tuple(w.count(a) for a in letters)
    want = contains(job.info["q"], counts)
    if job.info["shape"]:
        want = want and tuple(w) == phi(((a,) for a in letters), counts)
    if out.status != "ok" or out.value != want:
        return "accepts(%s): want %s, got %s" % (show(w), want, out.text)
    return None


def check_validate(job, out):
    q, box = job.args
    flags = tuple(not c.periods or rank(c.periods) == len(c.periods) for c in q.components)
    sets = [members(c, (box,) * q.dim) for c in q.components]
    collisions = []
    for v in product(range(box + 1), repeat=q.dim):
        hits = [i for i, s in enumerate(sets) if v in s]
        collisions += [(hits[a], hits[b], v)
                       for a in range(len(hits)) for b in range(a + 1, len(hits))]
        if len(collisions) >= 10:
            break
    if out.status != "ok":
        return "unexpected %s" % out.text
    rep = out.value
    want = (flags, tuple(collisions), all(flags) and not collisions)
    got = (rep.simple_flags, rep.collisions, rep.validated)
    if got != want:
        return "semi-simple report %r, want %r" % (got, want)
    return None


# ---------------------------------------------------------------- grammar

def family_words(info, max_len):
    """The language of a grammar document, cut at max_len."""
    fam = info["family"]
    if fam == "edol":
        return [("a",) + ("b",) * n for n in range(max_len)]
    if fam == "anbn":
        p, q = info["p"], info["q"]
        return [("a",) * (p * n) + ("b",) * (q * n) for n in range(1, max_len // (p + q) + 1)]
    k, letters = info["k"], info["letters"]
    out = []
    n = 0 if fam == "etol" else 1
    while k * n + k - 1 <= max_len:
        for x in product(letters, repeat=n):
            w = list(x)
            for _ in range(k - 1):
                w += ["#"] + list(x)
            out.append(tuple(w))
        n += 1
    return canonical(out)


def most_derivations(info, max_len):
    """Derivations of the most ambiguous word of a copy-language document
    up to max_len: d per letter of one copy."""
    k = info["k"]
    return info["d"] ** ((max_len - k + 1) // k)


def expected_cli(job, fixtures):
    """(exit code, stdout lines) the command must produce; the lines are
    only compared when the exit code is 0."""
    info, argv = job.info, job.info["argv"]
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    steps = "steps=100000"
    if cmd == "enumerate":
        L = int(opts["--max-len"])
        if info.get("fixture") and info["family"] == "matrix":
            words = canonical(fixtures.copy_language(L))
        else:
            words = family_words(info, L)
        return 0, ["config: max-len=%d %s" % (L, steps)] + [show(w) for w in words]
    if cmd == "convert":
        L, to = int(opts["--check-len"]), opts["--to"]
        lines = ["config: max-len=10 %s check-len=%d to=%s" % (steps, L, to)]
        if to == "normal-form":
            lines.append("already normal: True")
        lines.append("oracle-equal <= %d: PASS" % L)
        if to == "reduced-etol":
            if most_derivations(info, L) >= COUNT_CAP:
                return 3, []     # the counts cannot be compared past the cap
            lines.append("derivation counts preserved: PASS")
        return 0, lines + ["wrote %s" % info["out"]]
    if cmd == "audit":
        L, kind = int(opts["--max-len"]), opts["--kind"]
        n_words = len(family_words(info, L))
        head = "config: max-len=%d %s kind=%s" % (L, steps, kind)
        if kind == "index":
            return 0, [head, "index <= %d over explored region (complete=True, %d words)"
                       % (info["k"], n_words)]
        most = most_derivations(info, L)
        noun = "derivation" if info["family"] == "matrix" else "tree"
        return 0, [head, "max %s count %d over %d words (exact=%s)"
                   % (noun, min(most, COUNT_CAP), n_words, most < COUNT_CAP)]
    if cmd == "series":
        return expected_series(info, opts)
    if cmd == "regularize":
        if info.get("fixture"):
            return 2, []     # the copy grammar fails the padded-output conditions
        verify = int(opts.get("--verify-len", 12))
        construction = {"edol": "edol-theta-szilard"}.get(
            info["family"],
            "matrix-szilard-code" if job.info["doc"].endswith("matrix") else "etol-prefix-codes",
        )
        return 0, ["config: max-len=10 %s verify-len=%d" % (steps, verify),
                   "construction: %s" % construction,
                   "verified Parikh multisets to length %d" % verify]
    raise ValueError("no reference for %r" % (argv,))


def expected_series(info, opts):
    count = int(opts["--count"])
    mode = opts.get("--mode", "length")
    k, d, letters = info["k"], info["d"], info["letters"]
    base = len(letters) * d
    lines = ["config: max-len=10 steps=100000 count=%d mode=%s" % (count, mode),
             "grammar already in normal form"]
    if mode == "parikh":
        rows = []
        j = 1
        while k * j + k - 1 <= count:
            for split in product(range(j + 1), repeat=len(letters)):
                if sum(split) != j:
                    continue
                ways = factorial(j)
                for e in split:
                    ways //= factorial(e)
                v = tuple(k * e for e in split) + (k - 1,)
                rows.append((v, ways * d ** j))
            j += 1
        rows.sort(key=lambda r: (sum(r[0]), r[0]))
        return 0, lines + ["%s %d" % (",".join(map(str, v)), c) for v, c in rows]
    seq = []
    for n in range(count + 1):
        j, rem = divmod(n - (k - 1), k)
        seq.append(base ** j if n >= 2 * k - 1 and rem == 0 else 0)
    lines += ["%d %d" % (n, c) for n, c in enumerate(seq)]
    sub = seq[2 * k - 1::k]
    if len(sub) < FIT_TERMS:
        # a[n] = base * a[n-1] holds on every term there is; a correct run
        # either finds it or refuses with exit code 2
        return 2, lines
    lines.append("fit: order 1: a[n] = (%d)*a[n-1] (validated on %d terms) "
                 "(on the stride-%d nonzero subsequence)" % (base, len(sub) - 1, k))
    return 0, lines


def check_cli(job, out, fixtures):
    rc, stdout, stderr = out.value if out.status != "raised" else (None, "", "")
    want_rc, want_lines = expected_cli(job, fixtures)
    if rc != want_rc:
        got = stdout.splitlines()[-1:] or stderr.splitlines()[-1:]
        return "exit %s, want %d (last line: %s)" % (rc, want_rc, got[0] if got else "")
    if want_rc == 0 and stdout.splitlines() != want_lines:
        got = stdout.splitlines()
        for i, line in enumerate(want_lines):
            if i >= len(got) or got[i] != line:
                return "line %d: got %r, want %r" % (
                    i + 1, got[i] if i < len(got) else None, line)
        return "%d extra output lines" % (len(got) - len(want_lines))
    return None


def check(job, out, fixtures):
    if job.kind == "decide":
        return check_decide(job, out)
    if job.kind == "member":
        return check_member(job, out)
    if job.kind in ("ncm-enum", "dcm-enum", "spec-enum", "cap-probe"):
        return check_enum(job, out)
    if job.kind == "accepts":
        return check_accepts(job, out)
    if job.kind == "validate":
        return check_validate(job, out)
    return check_cli(job, out, fixtures)
