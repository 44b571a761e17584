"""Exact integer linear algebra and modular arithmetic primitives.

Nothing here ever rounds.  An `IntMatrix` is one read-only 2-D numpy
array: int64 when every entry fits, Python ints (dtype=object) when
one does not.  Products run on int64 arrays, each under a bound that
proves no entry can overflow: `mul_int64` raises when its bound fails,
`mul_exact` runs on Python ints past it, and `hnf_mod` and
`scaled_inverse_mod`, whose entries stay below a modulus, switch to
Python ints on the same code when that modulus is too large for int64.
The Smith invariants (`snf`) and the lattice helpers built on a
tracked Hermite transform run on Python-int lists
of the array, by fraction-free integer elimination with partial
pivoting on the entry of least absolute value, which keeps
intermediate growth tame at the matrix sizes we care about (a few
hundred rows at most).
"""

from dataclasses import dataclass
from math import isqrt, prod
from operator import index

import numpy as np


# ---------------------------------------------------------------------------
# matrices

def _int_array(data):
    """The read-only array of an IntMatrix from a nonempty 2-D integer
    array-like: int64 when every entry fits, else dtype=object holding
    Python ints; an int64 array is kept with no copy, made read-only in
    place.  Raises ValueError for any other shape and for entries that
    are not integers (floats included)."""
    a = np.asarray(data)
    if a.ndim != 2 or not a.size:
        raise ValueError("an IntMatrix needs a nonempty 2-D array")
    if a.dtype.kind not in "bi":
        # big Python ints arrive as object, uint64 or float64 arrays
        try:
            a = np.frompyfunc(index, 1, 1)(np.array(data, dtype=object))
        except TypeError:
            raise ValueError("matrix entries must be integers") from None
    try:
        a = a.astype(np.int64, copy=False)
    except OverflowError:  # an entry does not fit: keep the Python ints
        pass
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Immutable integer matrix: one read-only 2-D array, `array`, int64
    when every entry fits and dtype=object (Python ints) otherwise.
    Built from any nonempty 2-D integer array-like."""

    array: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "array", _int_array(self.array))

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=np.int64))

    @property
    def rows(self):
        return self.array.shape[0]

    @property
    def cols(self):
        return self.array.shape[1]

    @property
    def entries(self):
        """The entries as a tuple of row tuples of Python ints, worked out
        on each read; for readers outside the package."""
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.array.shape == other.array.shape
                and bool((self.array == other.array).all()))

    def __reduce__(self):
        # numpy unpickles arrays writeable; the constructor makes them read-only
        return IntMatrix, (self.array,)


@dataclass(frozen=True)
class SmithData:
    """The invariant factors d1 | d2 | ... of a matrix, all >= 0."""

    diag: tuple


def _eye(n):
    return np.eye(n, dtype=np.int64).tolist()


def _hnf_inplace(data, transform=None):
    """Row-style Hermite form of a list-of-lists, optionally carrying a
    transform matrix (same row operations applied to it)."""
    m = len(data)
    n = len(data[0]) if m else 0
    row = 0
    for col in range(n):
        if row == m:
            break
        # repeatedly reduce the column below `row` by its least nonzero entry
        while True:
            piv, best = -1, 0
            for i in range(row, m):
                v = data[i][col]
                if v and (piv < 0 or abs(v) < best):
                    piv, best = i, abs(v)
            if piv < 0:
                break
            if piv != row:
                data[row], data[piv] = data[piv], data[row]
                if transform is not None:
                    transform[row], transform[piv] = transform[piv], transform[row]
            a = data[row][col]
            done = True
            for i in range(row + 1, m):
                v = data[i][col]
                if v:
                    q = v // a
                    _row_sub(data, i, row, q, col)
                    if transform is not None:
                        _row_sub(transform, i, row, q, 0)
                    if data[i][col]:
                        done = False
            if done:
                break
        if piv < 0:
            continue
        if data[row][col] < 0:
            data[row] = [-x for x in data[row]]
            if transform is not None:
                transform[row] = [-x for x in transform[row]]
        a = data[row][col]
        for i in range(row):
            q = data[i][col] // a
            if q:
                _row_sub(data, i, row, q, col)
                if transform is not None:
                    _row_sub(transform, i, row, q, 0)
        row += 1
    return data


def _row_sub(data, i, j, q, start):
    if q:
        ri, rj = data[i], data[j]
        for k in range(start, len(ri)):
            ri[k] -= q * rj[k]


def _hnf_lists(h):
    """(H, U) with U unimodular and U*A = H in Hermite form, for A given
    as a list of Python-int rows, which becomes H in place."""
    u = _eye(len(h))
    _hnf_inplace(h, u)
    return h, u


def snf(A: IntMatrix) -> SmithData:
    """The invariant factors of A (min(rows, cols) of them, zeros last),
    by alternating row and column reduction pivoting on the least
    nonzero entry of the trailing block.  Rows above the block are zero
    on its columns, so every operation starts at column or row t."""
    s = A.array.tolist()
    m, n = A.rows, A.cols
    t = 0
    while t < min(m, n):
        live = [(abs(v), i, j) for i in range(t, m) for j, v in enumerate(s[i][t:], t) if v]
        if not live:
            break
        _, i, j = min(live)
        s[t], s[i] = s[i], s[t]
        for r in s[t:]:
            r[t], r[j] = r[j], r[t]
        a = s[t][t]
        for i in range(t + 1, m):
            _row_sub(s, i, t, s[i][t] // a, t)
        for j in range(t + 1, n):
            q = s[t][j] // a
            if q:
                for r in s[t:]:
                    r[j] -= q * r[t]
        if any(s[i][t] for i in range(t + 1, m)) or any(s[t][t + 1:]):
            continue  # a remainder smaller than the pivot: pivot on it
        bad = next((i for i in range(t + 1, m) if any(v % a for v in s[i][t + 1:])), None)
        if bad is None:
            t += 1
        else:  # row_t += row_bad puts an entry a does not divide in row t
            _row_sub(s, t, bad, -1, t)
    return SmithData(tuple(abs(s[i][i]) for i in range(min(m, n))))


def left_kernel(A: IntMatrix) -> list:
    """Basis (list of row vectors) of {v : v*A = 0}; always saturated."""
    h, u = _hnf_lists(A.array.tolist())
    return [u[i] for i in range(A.rows) if not any(h[i])]


def hnf_rows(A: IntMatrix) -> list:
    """The nonzero rows, as Python-int lists, of the canonical row
    Hermite form of the lattice of A's rows: pivots positive, each entry
    above a pivot in [0, pivot)."""
    return [r for r in _hnf_inplace(A.array.tolist()) if any(r)]


def left_inverse(B: IntMatrix) -> IntMatrix:
    """Integral L with B*L = I, for B of full row rank whose row lattice
    is saturated; then v*L is the solution x of x*B = v for every v in
    that lattice.  From U*B^T = H in Hermite form: H is I over zeros
    exactly when such an L exists, and L is the first B.rows rows of U,
    transposed."""
    h, u = _hnf_lists(B.array.T.tolist())
    k = B.rows
    if h[:k] != _eye(k) or any(map(any, h[k:])):
        raise ValueError("basis is not of full rank with a saturated row lattice")
    return IntMatrix(list(zip(*u[:k])))


def hnf_mod(rows, D):
    """Canonical row Hermite form, as a g x g array, of the lattice
    spanned by `rows` (an m x g integer array) and D * Z^g, for D >= 1.
    When D is a multiple of the index of the row lattice of `rows` in
    Z^g, that lattice contains D * Z^g, so this is its Hermite form.

    Hermite form modulo D (Domich-Kannan-Trotter, Math. Oper. Res. 12,
    1987; Cohen, A Course in Computational Algebraic Number Theory, Alg.
    2.4.8), by `_hnf_mod_reduced`.  A column that holds a unit mod D is
    cleared in one product, its unit's row scaled to pivot 1, and only a
    column without one runs Euclid.  Scaling a row by a unit mod D keeps
    the lattice of the rows and D Z^g, and a Hermite form (positive
    pivots, each entry above a pivot below it) is canonical for its
    lattice, so the form is the same whichever columns take the unit
    step: the Euclid-only elimination it replaced is its test oracle."""
    if D < 1:
        raise ValueError("the modulus must be positive")
    # the reduced stack is handed over, so that it dies as the elimination
    # replaces it (at 40 bits it is an array of Python ints)
    return _hnf_mod_reduced(_mod_rows(rows, D), D)


def _mod_rows(rows, D):
    """`rows` reduced into [0, D): int64 while 2 D^2 < 2^63, which keeps
    the elimination in int64, and Python ints (dtype=object) otherwise."""
    dtype = np.int64 if 2 * D * D < 2**63 else object
    a = np.asarray(rows)
    return ((a if a.dtype == dtype else a.astype(object)) % D).astype(dtype, copy=False)


def _hnf_mod_reduced(a, D):
    """The g x g Hermite form of the rows of `a` and D * Z^g, for `a`
    already reduced into [0, D), as int64 while 2 D^2 < 2^63 and as
    Python ints (dtype=object) otherwise; `a` is overwritten.

    Column by column.  When some nonzero entry a of the column is a unit
    mod D, its row r is scaled to the pivot row r' = a^-1 r mod D, pivot
    1, and one product clears the column from every other live row x,
    as x - x_j r' mod D, and one more from the pivot rows above, which
    is where a Hermite form wants zeros over a pivot 1 (Gauss-Jordan).
    The used row leaves by taking the last row's place.  Otherwise
    Euclid down the column (pivoting on the least entry) leaves one live
    row r with entry a, and one xgcd u*a + v*D = d folds D e_j in: the
    unimodular change of (r, D e_j) to (u r + v D e_j, (D/d) r - (a/d)
    D e_j) gives the pivot row u*r, pivot d, and a row (D/d) r that
    stays live; rows Euclid zeroed are dropped.  Every row is reduced
    mod D, which adding multiples of D e_c does.  Both steps keep the
    lattice: r = a r' mod D, so r and r' span the same lattice with
    D Z^g, and D e_j = D r' minus D times r' off column j, which D Z^g
    holds, so the fold leaves nothing live (the Euclid step's (D/d) r is
    then 0).  At D = 1 every entry is 0, so no column is pivoted on a
    unit.

    The entries above the Euclid pivots are then reduced, column by
    column, also mod D (each pivot divides D).  The Euclid columns are
    listed as they come, since a Euclid pivot can be 1 too (at D = 6,
    Euclid on 2 and 3).  A unit column is already reduced and stays so:
    a later step subtracts multiples of rows that are zero there, as the
    unit step cleared every row above it.  A column with no live entry
    has pivot D, and the entries above it are already in [0, D).  The
    result is the lattice's Hermite form, its pivots positive and each
    entry above a pivot below it, which is canonical: so which columns
    take the unit step does not show in it.  Every entry stays in
    [0, D) and no intermediate exceeds 2 D^2 in size (a unit step's
    a r' is below D^2), which is what the dtype is chosen by."""
    g = a.shape[1]
    h = np.zeros((g, g), dtype=a.dtype)
    euclid = []
    for j in range(g):
        # `a` holds the live rows on columns j.., all zero before column j
        units = np.flatnonzero((a[:, 0] != 0) & (np.gcd(a[:, 0], D) == 1))
        if len(units):
            u = units[0]
            r = a[u] * pow(int(a[u, 0]), -1, int(D)) % D
            h[j, j:] = r
            h[:j, j:] = (h[:j, j:] - h[:j, j:j + 1] * r) % D
            a[u] = a[-1]
            a = (a[:-1, 1:] - a[:-1, :1] * r[1:]) % D
            continue
        while True:
            nz = np.flatnonzero(a[:, 0] != 0)
            if len(nz) < 2:
                break
            k = nz[np.argmin(a[nz, 0])]
            q = a[nz, 0] // a[k, 0]
            q[nz == k] = 0
            a[nz] = (a[nz] - q[:, None] * a[k]) % D
        if not len(nz):
            h[j, j] = D
            a = a[:, 1:]
            continue
        euclid.append(j)
        r = a[nz[0]]
        d, u, _ = xgcd(int(r[0]), D)
        h[j, j:] = u * r % D  # pivot u*a = d mod D, and d < D
        a = np.vstack([np.delete(a, nz, axis=0), D // d * r % D])[:, 1:]
        a = a[(a != 0).any(axis=1)]
    for j in euclid:
        q = h[:j, j] // h[j, j]
        h[:j, j:] = (h[:j, j:] - q[:, None] * h[j, j:]) % D
    return h


def scaled_inverse_mod(h, m):
    """Z = m h^{-1} mod m, for h = `hnf_mod`(rows, m): the g x g Hermite
    basis, entries in [0, m), of a lattice L holding m Z^g.  Then Z is
    integral, and x lies in L exactly when x Z = 0 (mod m).

    Back-substitution on Z h = m I, column by column, modulo
    M = m det h.  Column j is (m e_j - Z[:, :j] h[:j, j]) / h_jj.  By
    induction the computed column differs from the true one by a
    multiple of M / (h_00 ... h_jj) = m h_(j+1)(j+1) ... h_(g-1)(g-1):
    the numerator's error is a multiple of M / (h_00 ... h_(j-1)(j-1)),
    which h_jj divides, so the division stays exact and the error
    shrinks by h_jj.  So every column is right mod m.  The entries stay
    below M m g, in int64 while 2 M m g < 2^63 and in Python ints
    (dtype=object) otherwise."""
    g = len(h)
    M = m * prod(map(int, np.diagonal(h)))
    dtype = np.int64 if 2 * M * m * g < 2**63 else object
    h = np.asarray(h).astype(dtype)
    z = np.zeros((g, g), dtype=dtype)
    for j in range(g):
        num = -(z[:, :j] @ h[:j, j])
        num[j] += m
        z[:, j] = num % M // h[j, j]
    return z % m


def in_lattice(x, z, m):
    """Which rows of the integer array x lie in a lattice L holding
    m Z^g, given z = `scaled_inverse_mod`(h, m) for its Hermite basis h:
    a bool array, True where x z = 0 (mod m).  x is reduced into [0, m)
    first (`_mod_rows`), and the product is `mul_exact`: int64 while its
    bound holds, Python ints past it."""
    return (mul_exact(_mod_rows(x, m), z) % m == 0).all(axis=1)


def as_int64(a):
    """int64 array of an integer array-like; raises ValueError if an
    entry does not fit."""
    try:
        return np.array(a, dtype=np.int64)
    except OverflowError:
        raise ValueError("matrix entry does not fit in int64") from None


def _product_bound(a, b):
    """max|a| * max|b| * (inner dimension): a bound on every partial sum
    of every entry of a @ b, in any order."""
    if not (a.size and b.size):
        return 0
    return (max(int(a.max()), -int(a.min())) * max(int(b.max()), -int(b.min()))
            * a.shape[1])


def mul_int64(a, b):
    """Exact product a @ b of int64 arrays: raises ValueError unless
    max|a| * max|b| * (inner dimension) < 2^63, which bounds every
    partial sum of every entry, in any order.  Below 2^53 the product
    runs in float64 BLAS, where all those sums are exact integers."""
    bound = _product_bound(a, b)
    if bound >= 2**63:
        raise ValueError("int64 product bound exceeded")
    if bound < 2**53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a @ b


def mul_exact(a, b):
    """Exact product a @ b of integer arrays (int64 or Python ints):
    `mul_int64` while its bound holds, and on Python ints (dtype=object)
    past it, where it would refuse."""
    if _product_bound(a, b) >= 2**63:
        return a.astype(object) @ b.astype(object)
    return mul_int64(a, b)


# ---------------------------------------------------------------------------
# elementary number theory

def xgcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def factorize(n):
    """Trial-division factorization as {prime: exponent} (desk scale)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(n):
    """The smallest primitive root modulo a prime n."""
    facs = factorize(n - 1)
    for g in range(2, n):
        if all(pow(g, (n - 1) // q, n) != 1 for q in facs):
            return g
    raise ValueError("no primitive root found")


def unit_powers(g, n):
    """power[k] = g^k mod n for 0 <= k < n - 1, as an int64 array built
    by doubling: for a primitive root g mod a prime n, each unit once."""
    power = np.ones(1, dtype=np.int64)
    while len(power) < n - 1:
        power = np.concatenate([power, power * (int(power[-1]) * g % n) % n])
    return power[:n - 1]


def vp(n, p):
    """Exponent of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisors(n):
    """Sorted positive divisors of n (from trial-division factorization)."""
    out = [1]
    for q, e in factorize(abs(n)).items():
        out = [d * q**i for d in out for i in range(e + 1)]
    return sorted(out)


def kronecker(D, n):
    """Kronecker symbol (D/n)."""
    a, b = int(D), int(n)
    if b == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if b < 0:
        b = -b
        if a < 0:
            result = -result
    while b % 2 == 0:
        b //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def sqrt_mod(a, q):
    """Tonelli-Shanks square root modulo an odd prime q."""
    a %= q
    if a == 0:
        return 0
    if kronecker(a, q) != 1:
        raise ValueError("not a square")
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    # write q-1 = s * 2^e with s odd
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while kronecker(z, q) != -1:
        z += 1
    c = pow(z, s, q)
    x = pow(a, (s + 1) // 2, q)
    t = pow(a, s, q)
    m = e
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return x


# ---------------------------------------------------------------------------
# the fixed surjection (Z/NZ)* -> Z/pZ

class LogMap:
    """Discrete-log surjection (Z/NZ)* -> Z/pZ for p exactly dividing N-1.

    The generator defaults to the smallest primitive root mod N, so the
    map is deterministic across runs; a different primitive root may be
    supplied to check that downstream answers do not depend on the
    choice.  Lookups read a full table of logs, built once from the
    generator's powers (`unit_powers`): O(N), like the space at N.
    """

    def __init__(self, modulus, target, generator=None):
        if not is_prime(modulus) or not is_prime(target):
            raise ValueError("modulus and target must be prime")
        if (modulus - 1) % target or ((modulus - 1) // target) % target == 0:
            raise ValueError("target must divide N-1 exactly once")
        self.modulus = modulus
        self.target = target
        if generator is None:
            generator = primitive_root(modulus)
        else:
            facs = factorize(modulus - 1)
            if any(pow(generator, (modulus - 1) // q, modulus) == 1 for q in facs):
                raise ValueError("generator is not a primitive root")
        self.generator = generator
        log = np.zeros(modulus, dtype=np.int64)
        log[unit_powers(generator, modulus)] = np.arange(modulus - 1)
        self._log = log.tolist()

    def dlog(self, x):
        """Full discrete log of x base the generator, in Z/(N-1)Z."""
        x %= self.modulus
        if x == 0:
            raise ValueError("log of zero residue")
        return self._log[x]


def log_to_p(x, L: LogMap):
    """Image of x under the fixed surjection (Z/NZ)* -> Z/pZ."""
    return L.dlog(x) % L.target
