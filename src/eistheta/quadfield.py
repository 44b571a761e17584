"""Arithmetic of quadratic fields K = Q(sqrt(D)).

Class numbers come from reduced binary quadratic forms.  The residues
of the fundamental unit and the split-prime data come from one walk
along a form's rho-cycle with its change of variables kept modulo N
(`_walk`): the unit from the cycle of the principal form, a split
prime's generator from explicit ideal powers [N^k, (b + sqrt(D))/2].
So a huge unit or generator is never written down.

A unit is u = (x + y*sqrt(D))/2 with x^2 - D*y^2 = +-4, for both
parities of D.  The fundamental one, u > 1, is read off the principal
cycle (`unit_residues`):
- Start at f_0 = (1, b0, (b0^2 - D)/4), b0 the one of m0 - 1, m0
  (m0 = isqrt(D)) of the parity of D; f_0 is reduced, as
  0 < b0 and sqrt(D) - 2 < b0 < sqrt(D).  Step rho to the first k >= 1 with
  |a_k| = 1, and let gamma = [[g00, g01], [g10, g11]] be the product of
  the k changes of variables, so f_0 o gamma = f_k.  Then u has
  x = s (g00 + a_k g11) and y = s g10, with s = (-1)^floor(k/2), and
  N(u) = a_k.
- The reduced forms with |a| = 1 are (1, b0, .) and (-1, b0, .), as a
  reduced (a, b, .) with |a| = 1 has sqrt(D) - 2 < b <= m0.  So
  f_0 o (gamma diag(1, a_k)) = a_k f_0, and the matrices that multiply
  f_0 by a_k are +-[[(x - b0 y)/2, -c0 y], [y, (x + b0 y)/2]], for the
  units (x + y sqrt(D))/2 of norm a_k: x = +-(g00 + a_k g11) and
  y = +-g10.  The first return to (+-1, b0) gives a fundamental unit
  (Buchmann and Vollmer, Binary Quadratic Forms, 2007, chapter 6), but
  that identity leaves u open among +-u and +-u^-1.
- The sign: along a reduced cycle with D > 0, ac < 0 and
  a_{i+1} = c_i, so the leading coefficients alternate in sign (and
  a_k = (-1)^k).  Each t_i = (b_i + b_{i+1})/(2 c_i) has the sign of
  c_i, so the t's run -, +, -, ... from f_0.  Two steps multiply to
  [[0, -1], [1, -q]] [[0, -1], [1, q']] = -[[1, q'], [q, 1 + q q']]
  with q, q' > 0, so gamma is (-1)^floor(k/2) times a matrix whose
  signs make x, y > 0, and that picks u > 1.
- Only gamma mod N is kept, so x and y are known mod N: the residues
  of u at the primes above N are (x +- y r)/2, r = `split_root`.
  x^2 - D y^2 = 4 a_k is checked mod N.

A row's modular data comes from two O(N) tables rather than a search
per residue.  `split_root` reads the smaller square root of each
residue mod N off one table (`_smaller_roots`, r^2 mod N over
r <= (N - 1)/2, cached per level); the discrete logs of the unit
residues and of the conjugate generator read the full log table of the
context's `LogMap`, indexed by residue.  So a row's three logs and its
root are lookups, and each table is built once for all the rows at N.

The class numbers of many D are found together (`class_numbers`), in
batches of one sign.  Each b >= 0 of the parity of a D, with
m = |b^2 - D|/4, makes a group of candidates a <= sqrt(m), each tested
by a | m.  The candidates of a batch form one flat int64 range, scanned
_CLASS_CHUNK at a time, so a group may span two chunks.
- D < 0: the reduced forms (a, +-b, c) have 0 <= b <= a <= c, so
  b^2 <= |D|/3 and max(b, 1) <= a; h counts each once if b = 0, b = a
  or a = c, and twice otherwise.
- D > 0, m0 = isqrt(D): (a, b, c) is reduced iff 0 < b < sqrt(D) and
  sqrt(D) - b < 2|a| < sqrt(D) + b.  Then ac = -m, and (c, b, a) is
  reduced too, so only |a| <= |c| is scanned: 2a + b >= m0 + 1 and
  a^2 <= m.  A hit a, c = m/a gives (a, b, -c), (-a, b, c) and, if
  c != a, (c, b, -a), (-c, b, a); 2c < sqrt(D) + b because
  c = m/a < 2m/(sqrt(D) - b).  That is about D/14 candidates.
  - On a reduced form 2|c| < sqrt(D) + b < 2 sqrt(D), so rho of
    `_rho` takes its second branch: rho(a, b, c) = (c, b', .), with b'
    the residue of -b mod 2|c| in (sqrt(D) - 2|c|, sqrt(D)), that is
    m0 - ((m0 + b) mod 2|c|).  rho maps reduced forms to reduced
    forms, and two reduced forms are properly equivalent iff they lie
    on one rho-cycle (Cohen, A Course in Computational Algebraic Number
    Theory, 1993, section 5.6; Buchmann and Vollmer, Binary Quadratic
    Forms, 2007, chapter 6).  rho is also injective on them: b = -b'
    mod 2|c| lies in (sqrt(D) - 2|c|, sqrt(D)), as (c, b, a) is
    reduced, so (c, b') fixes b and then a.  So rho permutes the
    reduced forms, found by `searchsorted` on the key below, and the
    number of its cycles is the narrow class number.
  - The cycles are labelled by pointer doubling: after k rounds
    label(i) is the least index among i, rho(i), ..., rho^(2^k - 1)(i),
    and a round, with nxt = rho^(2^k), sets label = min(label,
    label[nxt]) and nxt = nxt[nxt].  While 2^k < L for a cycle of
    length L, its least index mu lies outside the window of
    rho^(-2^k)(mu) but inside the next, so some label drops; so the
    loop, run until no label changes, stops with every label its
    cycle's least index.
  - (1, b0, .) and (-1, b0, .), b0 the one of m0 - 1, m0 of the
    parity of D, are the reduced forms with |a| = 1.  They share a
    cycle iff the principal form represents -1, that is iff the
    fundamental unit has norm -1; h is the number of cycles then, and
    half of it otherwise.
- int64: |D| < 2^52, so the float square root of every m or |D| is
  within one of its floor and one correction makes it exact.  A form
  is keyed (row * (2M + 1) + a + M) * (M + 1) + b, M the batch's
  largest m0; a batch holds at most _CLASS_CHUNK rows, so keys stay
  below _CLASS_CHUNK * (2M + 1) * (M + 1) < 2^63.  Both bounds are
  checked before any work.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .exact_linalg import (
    LogMap,
    divisors,
    factorize,
    is_prime,
    kronecker,
    log_to_p,
    primes_up_to,
    vp,
)


def _squarefree(n):
    return all(e == 1 for e in factorize(abs(n)).values())


def is_fundamental(D):
    """True for fundamental discriminants (and 1 and 0 are excluded)."""
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


# `fundamental_mask` tests a |D| below this bound in numpy, by the odd
# primes up to its square root, 2^16 at most; a larger D is factored alone
_MASK_BOUND = 2**32


def fundamental_mask(Ds):
    """`is_fundamental` of each D in Ds, in order, as a bool array, by one
    vectorized test for the |D| < 2^32: D = 1 mod 4 or D = 8, 12 mod 16,
    D != 1, and no square q^2 of an odd prime q <= sqrt(max |D|) dividing
    D (the test of `fundamental_discriminants`).  A larger |D| is tested
    alone by `is_fundamental`."""
    Ds = [int(D) for D in Ds]
    D = np.array([D if abs(D) < _MASK_BOUND else 0 for D in Ds], dtype=np.int64)
    ok = ((D % 4 == 1) | (D % 16 == 8) | (D % 16 == 12)) & (D != 1)
    q2 = np.array(primes_up_to(isqrt(int(np.abs(D).max(initial=0))))[1:], dtype=np.int64) ** 2
    step = max(1, 2**16 // max(len(q2), 1))  # rows per block of D % q^2
    for lo in range(0, len(D), step):
        ok[lo:lo + step] &= (D[lo:lo + step, None] % q2 != 0).all(axis=1)
    big = [i for i, D in enumerate(Ds) if abs(D) >= _MASK_BOUND]
    ok[big] = [is_fundamental(Ds[i]) for i in big]
    return ok


def fundamental_discriminants(d_min, d_max):
    """The fundamental discriminants in [d_min, d_max], ascending, by one
    sieve instead of a factorization per D: D = 1 mod 4 or D = 8, 12
    mod 16 (D/4 = 2, 3 mod 4), D != 1, and no odd square q^2,
    q <= sqrt(max |D|), dividing D.  That is `is_fundamental`'s test:
    D/4 = 2, 3 mod 4 leaves no square factor 4 in it."""
    D = np.arange(d_min, d_max + 1, dtype=np.int64)
    ok = ((D % 4 == 1) | (D % 16 == 8) | (D % 16 == 12)) & (D != 1)
    for q in range(3, isqrt(max(abs(d_min), abs(d_max))) + 1, 2):
        ok[-d_min % (q * q)::q * q] = False
    return D[ok].tolist()


def validate_discriminant(D, N, p, want_split):
    """Admissibility of a twisting discriminant: fundamental, coprime to
    p and N, of the right sign, with N split (+1) resp. inert (-1)."""
    if not is_fundamental(D):
        return False
    if D % p == 0 or D % N == 0:
        return False
    if want_split:
        return D > 0 and kronecker(D, N) == 1
    return D < 0 and kronecker(D, N) == -1


def legendre_table(q):
    """The Legendre symbol (a/q) at a = 0 .. q - 1, for an odd prime q, as
    a read-only int8 array: (q - k)^2 = k^2, so the k < q/2 give every
    square mod q."""
    table = np.full(q, -1, dtype=np.int8)
    table[0] = 0
    table[np.arange(1, (q + 1) // 2, dtype=np.int64) ** 2 % q] = 1
    table.flags.writeable = False
    return table


def admissible_mask(Ds, N, p, want_split):
    """`validate_discriminant` of each D in Ds, in order, as one bool
    array, for an odd prime N: `fundamental_mask`, then p not dividing
    D, the sign of D, and (D/N) = +1 (split) or -1 (inert), which also
    puts D prime to N.  At an odd prime N, (D/N) is the Legendre symbol
    of D mod N (`legendre_table`)."""
    if N < 3 or not is_prime(N):
        raise ValueError("need an odd prime N")
    Ds = [int(D) for D in Ds]
    residues = np.array([D % N for D in Ds], dtype=np.int64)
    ok = fundamental_mask(Ds) & (legendre_table(N)[residues] == (1 if want_split else -1))
    return ok & np.array([D % p != 0 and (D > 0) == want_split for D in Ds], dtype=bool)


# ---------------------------------------------------------------------------
# class numbers via reduced forms, a batch of discriminants at a time

def _is_reduced_pos(a, b, c, m0, D):
    # 0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b, in exact integer form
    if b < 1 or b > m0:
        return False
    t = 2 * abs(a)
    return (t + b) * (t + b) > D and (t < b or (t - b) * (t - b) < D)


def _rho(a, b, c, m0, D):
    """One step along the reduction operator: (a,b,c) -> (c,b2,c2) via
    the change of variables [[0,-1],[1,t]]; returns the new form and t."""
    ac = abs(c)
    if ac > m0:
        b2 = (-b) % (2 * ac)
        if b2 > ac:
            b2 -= 2 * ac
    else:
        b2 = m0 - ((m0 + b) % (2 * ac))
    t = (b + b2) // (2 * c)
    return (c, b2, (b2 * b2 - D) // (4 * c)), t


# the class-number scan tests at most this many candidates a at a time; a
# batch takes rows while the sum of |D| // 8 + 1 (about a row's candidates)
# stays within it, so a batch never holds more rows than this
_CLASS_CHUNK = 2**14


def _isqrt_int64(m):
    """floor(sqrt(m)) of an int64 array with 0 <= m < 2^52: the float
    root is within one of it, and one correction each way makes it exact."""
    s = np.sqrt(m.astype(np.float64)).astype(np.int64)
    s -= s * s > m
    return s + ((s + 1) * (s + 1) <= m)


def _divisor_pairs(Ds):
    """(row, b, a, m) of every a | m = |b^2 - D| / 4 in the scan range of
    the module docstring, for the rows Ds (all of one sign), testing
    _CLASS_CHUNK candidates a at a time."""
    D = np.array(Ds, dtype=np.int64)
    pos = Ds[0] > 0
    m0 = _isqrt_int64(np.abs(D))
    b_lo = 2 - D % 2 if pos else D % 2
    b_hi = m0 if pos else _isqrt_int64(-D // 3)
    nb = np.maximum((b_hi - b_lo) // 2 + 1, 0)
    row = np.repeat(np.arange(len(Ds), dtype=np.int64), nb)
    b = b_lo[row] + 2 * (np.arange(len(row), dtype=np.int64) - (np.cumsum(nb) - nb)[row])
    m = np.abs(b * b - D[row]) // 4
    a_lo = np.maximum((m0[row] + 2 - b) // 2 if pos else b, 1)
    counts = np.maximum(_isqrt_int64(m) - a_lo + 1, 0)
    starts, total = np.cumsum(counts) - counts, int(counts.sum())
    hits = []
    for lo in range(0, total, _CLASS_CHUNK):
        t = np.arange(lo, min(lo + _CLASS_CHUNK, total), dtype=np.int64)
        g = np.searchsorted(starts, t, side="right") - 1
        a = a_lo[g] + t - starts[g]
        hits.append(np.stack([g, a])[:, m[g] % a == 0])
    g, a = np.concatenate(hits, axis=1) if hits else np.zeros((2, 0), dtype=np.int64)
    return row[g], b[g], a, m[g]


def _cycle_labels(nxt):
    """The least index on the cycle of each index under the permutation
    nxt, by pointer doubling until no label changes (module docstring)."""
    label = np.arange(len(nxt), dtype=np.int64)
    while True:
        new = np.minimum(label, label[nxt])
        if np.array_equal(new, label):
            return label
        label, nxt = new, nxt[nxt]


def _batch_class_numbers(Ds):
    """h(D) for a batch of fundamental D, all of one sign."""
    R = len(Ds)
    row, b, a, m = _divisor_pairs(Ds)
    c = m // a
    if Ds[0] < 0:
        # (a, +-b, c): once if b = 0, b = a or a = c, else twice
        twice = (b != 0) & (b != a) & (a != c)
        return np.bincount(row, minlength=R) + np.bincount(row[twice], minlength=R)
    # the pair a <= c gives (a, b, -c) and (-a, b, c), then, if c != a,
    # (c, b, -a) and (-c, b, a): each reduced form as (row, first, b, last)
    two = c != a
    row, b = (np.concatenate([x, x, x[two], x[two]]) for x in (row, b))
    first = np.concatenate([a, -a, c[two], -c[two]])
    last = -np.concatenate([c, -c, a[two], -a[two]])
    D = np.array(Ds, dtype=np.int64)
    m0 = _isqrt_int64(D)
    M = int(m0.max())

    def find(r, x, y):
        """The index of the form (r, x, y, .), which must exist."""
        want = (r * (2 * M + 1) + x + M) * (M + 1) + y
        at = np.minimum(np.searchsorted(key, want), len(key) - 1)
        if not np.array_equal(key[at], want):
            raise ValueError("a form cycle leaves the reduced forms")
        return at

    key = (row * (2 * M + 1) + first + M) * (M + 1) + b
    order = np.argsort(key)
    row, b, last, key = row[order], b[order], last[order], key[order]
    # rho: (a, b, c) -> (c, m0 - ((m0 + b) mod 2|c|), .), as |c| <= m0
    label = _cycle_labels(find(row, last, m0[row] - (m0[row] + b) % (2 * np.abs(last))))
    cycles = np.bincount(row[label == np.arange(len(label))], minlength=R)
    # N(u) = -1 iff (1, b0, .) and (-1, b0, .) share a cycle
    r = np.arange(R, dtype=np.int64)
    b0 = m0 - (m0 - D) % 2
    plus = label[find(r, 1, b0)] != label[find(r, -1, b0)]
    if (cycles[plus] % 2).any():  # narrow-to-wide index is 2 when N(u) = +1
        raise ValueError("odd number of form cycles for a unit of norm +1")
    return np.where(plus, cycles // 2, cycles)


def class_numbers(Ds):
    """Wide class numbers h(K) of the maximal orders of Q(sqrt(D)) for
    the fundamental D in Ds, of either sign, in the order given, from one
    batched scan of their reduced forms (module docstring).  |D| is
    checked against the int64 bounds before any other work."""
    Ds = [int(D) for D in Ds]
    M = isqrt(max(map(abs, Ds), default=0))
    if M * M >= 2**52 or _CLASS_CHUNK * (2 * M + 1) * (M + 1) >= 2**63:
        raise ValueError("class numbers: |D| too large for int64 arithmetic")
    if not fundamental_mask(Ds).all():
        raise ValueError("discriminant is not fundamental")
    batches, out = [], {}
    for pos in (True, False):
        n = _CLASS_CHUNK  # each sign opens a new batch
        for i in (i for i, D in enumerate(Ds) if (D > 0) == pos):
            size = abs(Ds[i]) // 8 + 1
            if n + size > _CLASS_CHUNK:
                batches.append([])
                n = 0
            batches[-1].append(i)
            n += size
    for batch in batches:
        out.update(zip(batch, _batch_class_numbers([Ds[i] for i in batch]).tolist()))
    return [out[i] for i in range(len(Ds))]


def class_number(D):
    """Wide class number h(K) of the maximal order of Q(sqrt(D))."""
    return class_numbers([D])[0]


# ---------------------------------------------------------------------------
# the walk along a form cycle, the change of variables kept modulo N

def _walk(form, D, N, first):
    """Reduce `form`, of discriminant D > 0, then step rho along its
    cycle to the first form (a, b, c) with |a| = 1 that lies k >= first
    steps past the first reduced form.  Returns (a, k, gamma), gamma the
    product of the changes of variables [[0, -1], [1, t]] mod N, so that
    form o gamma is the form reached; None when the cycle closes first,
    that is when `form` is not wide-principal.  On the cycle, rho takes
    its second branch (module docstring)."""
    m0 = isqrt(D)
    g00, g01, g10, g11 = 1, 0, 0, 1
    for _ in range(100000):
        if _is_reduced_pos(*form, m0, D):
            break
        form, t = _rho(*form, m0, D)
        g00, g01 = g01, (g01 * t - g00) % N
        g10, g11 = g11, (g11 * t - g10) % N
    else:
        raise ValueError("form reduction did not terminate")
    a, b, c = form
    start = a, b
    for k in range(1000000):
        if k >= first and abs(a) == 1:
            return a, k, ((g00, g01), (g10, g11))
        if k and (a, b) == start:
            return None
        b2 = m0 - (m0 + b) % (2 * abs(c))
        t = (b + b2) // (2 * c)
        a, b, c = c, b2, (b2 * b2 - D) // (4 * c)
        g00, g01 = g01, (g01 * t - g00) % N
        g10, g11 = g11, (g11 * t - g10) % N
    raise ValueError("form cycle did not close")


# ---------------------------------------------------------------------------
# the fundamental unit modulo the primes above N

@lru_cache(maxsize=4)
def _smaller_roots(N):
    """root[a], for 0 <= a < N, the odd prime N: the smaller square root
    r <= (N - 1)/2 of a mod N, and -1 at the non-squares, as a tuple.
    Over the r <= (N - 1)/2, r^2 mod N hits 0 once and each nonzero
    square once, its other root being N - r.  Cached for the few levels
    in use, as every even sweep row reads it."""
    root = np.full(N, -1, dtype=np.int64)
    r = np.arange((N + 1) // 2, dtype=np.int64)
    root[r * r % N] = r
    return tuple(root.tolist())


def split_root(D, N):
    """The residue r with r^2 = D mod N, N an odd prime, that labels the
    first prime above N.  The label is fixed by the radicand: sqrt(m) is
    sent to the smaller of its two square roots (`_smaller_roots`),
    where D = m or 4m.  N splits exactly when m is a nonzero square mod
    N, 4 being a square."""
    m = D if D % 4 else D // 4
    rm = _smaller_roots(N)[m % N]
    if rm <= 0:
        raise ValueError("N does not split in Q(sqrt(D))")
    return rm if D % 4 else (2 * rm) % N


def unit_residues(D, N):
    """(r, u mod prime_1, u mod prime_2) for split N, with sqrt(D) sent
    to r resp. N - r, u the fundamental unit read off the principal
    cycle walked modulo N (module docstring)."""
    r = split_root(D, N)
    m0 = isqrt(D)
    b0 = m0 - (m0 - D) % 2
    a, k, ((g00, _), (g10, g11)) = _walk((1, b0, (b0 * b0 - D) // 4), D, N, 1)
    s = -1 if k // 2 % 2 else 1
    x, y = s * (g00 + a * g11) % N, s * g10 % N
    if (x * x - D * y * y - 4 * a) % N:
        raise ValueError("unit does not have norm +-1 modulo N")
    inv2 = pow(2, -1, N)
    res1 = (x + y * r) * inv2 % N
    res2 = (x - y * r) * inv2 % N
    if not (res1 and res2):
        raise ValueError("unit vanishes modulo a prime above N")
    return r, res1, res2


# ---------------------------------------------------------------------------
# split primes: ideal powers, principality, and the conjugate generator

def _lift_root(D, N, k, r):
    """Hensel lift of r^2 = D from mod N to mod N^k (N odd, N ∤ 2D)."""
    rk, M = r % N, N
    while M < N**k:
        M *= N
        rk = (rk - (rk * rk - D) * pow(2 * rk, -1, M)) % M
    return rk


def _prime_power_form(D, N, k, r):
    """The ideal [N^k, (b + sqrt(D))/2] above N (label r = `split_root`)
    as the form (N^k, b, c); sqrt(D) = r means b = -r mod N^k,
    parity-corrected."""
    a = N**k
    b = (-_lift_root(D, N, k, r)) % a
    if (b - D) % 2:
        b += a
    c = b * b - D
    if c % (4 * a):
        raise ValueError("lifted root does not give a form of discriminant D")
    return a, b, c // (4 * a)


def split_prime_data(D, N, p, h=None, logmap=None):
    """(s, log1_pi2): s is the order of [prime_1] in the class group,
    and log1_pi2 the log of the conjugate generator pi_2 mod prime_1.

    The s-th ideal power is produced directly by lifting the square
    root of D to mod N^s; a generator's residue mod prime_1 falls out
    of the reduction trajectory tracked modulo N.
    """
    if not validate_discriminant(D, N, p, want_split=True):
        raise ValueError("invalid discriminant for the split case")
    if h is None:
        h = class_number(D)
    if logmap is None:
        logmap = LogMap(N, p)
    return _split_prime_data(D, N, p, h, logmap, split_root(D, N))


def _split_prime_data(D, N, p, h, logmap, r):
    """`split_prime_data` for a D already validated, r = `split_root`."""
    inv2 = pow(2, -1, N)
    for k in divisors(h):
        a, b, c = _prime_power_form(D, N, k, r)
        hit = _walk((a, b, c), D, N, 0)
        if hit:
            # z = x*a + y*(b + sqrt(D))/2 generates the ideal, (x, y) the
            # first column of gamma; pi_2 is its conjugate, and
            # sqrt(D) = r modulo prime_1
            (x, _), (y, _) = hit[2]
            t = (2 * (a % N) * x + (b % N) * y - y * r) * inv2 % N
            if not t:
                raise ValueError("conjugate generator lies in the first prime above N")
            return k, log_to_p(t, logmap)
    raise RuntimeError("no principal power up to the class number")


# ---------------------------------------------------------------------------
# assembled per-discriminant profile

@dataclass(frozen=True)
class QuadFieldProfile:
    """Everything the rank predictions need to know about Q(sqrt(D)) at
    a split level N: class number, unit and generator logs, and the
    derived boolean criterion h * log1_u = 0 mod p."""

    D: int
    h: int
    h_mod_p: int
    r: int
    u_mod_N1: int
    u_mod_N2: int
    s: int
    log1_u: int
    log1_pi2: int | None
    pic_zn_trivial: bool
    criterion: bool


def field_profile(D, N, p, logmap=None, h=None):
    """Compute the QuadFieldProfile for a valid even (split) D; h, if
    given, is its class number (a sweep batches them).

    log1_pi2 is only reported when p does not divide h, where the rank
    prediction actually consumes it.
    """
    if not validate_discriminant(D, N, p, want_split=True):
        raise ValueError("invalid discriminant for the split case")
    if logmap is None:
        logmap = LogMap(N, p)
    if h is None:
        h = class_number(D)
    return _field_profile(D, N, p, logmap, h)


def _field_profile(D, N, p, logmap, h):
    """`field_profile` for a D already validated, as a sweep row's is."""
    r, res1, res2 = unit_residues(D, N)
    log1_u = log_to_p(res1, logmap)
    if (log1_u + log_to_p(res2, logmap)) % p:
        raise ValueError("unit logs at the two primes above N do not cancel")
    criterion = h * log1_u % p == 0
    s, log1_pi2 = _split_prime_data(D, N, p, h, logmap, r)
    if h % p == 0:
        log1_pi2 = None
    return QuadFieldProfile(
        D=D,
        h=h,
        h_mod_p=h % p,
        r=r,
        u_mod_N1=res1,
        u_mod_N2=res2,
        s=s,
        log1_u=log1_u,
        log1_pi2=log1_pi2,
        pic_zn_trivial=vp(h, p) == vp(s, p),
        criterion=criterion,
    )
