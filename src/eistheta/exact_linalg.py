"""Exact integer linear algebra and modular arithmetic primitives.

Nothing here ever rounds.  An `IntMatrix` is one read-only 2-D numpy
array: int64 when every entry fits, Python ints (dtype=object) when
one does not.  Products run on int64 arrays, each under a bound that
proves no entry can overflow: `mul_int64` raises when its bound fails,
and `hnf_mod`, whose entries stay below its modulus, switches to
Python ints on the same code when the modulus is too large for int64.
The Hermite and Smith forms with transforms (`hnf_with_transform`,
`snf`) and the lattice helpers built on them run on Python-int lists
of the array, by fraction-free integer elimination with partial
pivoting on the entry of least absolute value, which keeps
intermediate growth tame at the matrix sizes we care about (a few
hundred rows at most).
"""

from dataclasses import dataclass
from math import gcd, isqrt
from operator import index

import numpy as np


# ---------------------------------------------------------------------------
# matrices

def _int_array(data):
    """The read-only array of an IntMatrix from a nonempty 2-D integer
    array-like: int64 when every entry fits, else dtype=object holding
    Python ints.  Raises ValueError for any other shape and for entries
    that are not integers (floats included)."""
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
        a = a.astype(np.int64)
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
    """Invariant factors d1 | d2 | ... with unimodular transforms.

    left * A * right is diagonal with the stated invariants.
    """

    diag: tuple
    left: IntMatrix
    right: IntMatrix


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


def hnf_with_transform(A: IntMatrix):
    """Return (H, U) with U unimodular and U*A = H in Hermite form
    (same shape as A; zero rows sink to the bottom, pivots positive,
    entries above a pivot reduced into [0, pivot))."""
    h, u = _hnf_lists(A.array.tolist())
    return IntMatrix(h), IntMatrix(u)


def snf(A: IntMatrix) -> SmithData:
    """Smith normal form with transforms, by alternating row/column
    reduction pivoting on the least nonzero entry."""
    s = A.array.tolist()
    m, n = A.rows, A.cols
    left = _eye(m)
    right = _eye(n)

    def col_sub(j, k, q):
        # column_j -= q * column_k, mirrored on `right`
        if q:
            for r in s:
                r[j] -= q * r[k]
            for r in right:
                r[j] -= q * r[k]

    t = 0
    while True:
        # locate least nonzero entry of the trailing block
        piv = None
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = s[i][j]
                if v and (piv is None or abs(v) < best):
                    piv, best = (i, j), abs(v)
        if piv is None:
            break
        i, j = piv
        if i != t:
            s[t], s[i] = s[i], s[t]
            left[t], left[i] = left[i], left[t]
        if j != t:
            for r in s:
                r[t], r[j] = r[j], r[t]
            for r in right:
                r[t], r[j] = r[j], r[t]
        while True:
            # clear column t
            for i in range(t + 1, m):
                q = s[i][t] // s[t][t]
                _row_sub(s, i, t, q, 0)
                _row_sub(left, i, t, q, 0)
            if any(s[i][t] for i in range(t + 1, m)):
                # a smaller remainder appeared; make it the pivot
                i = min((i for i in range(t, m) if s[i][t]), key=lambda i: abs(s[i][t]))
                s[t], s[i] = s[i], s[t]
                left[t], left[i] = left[i], left[t]
                continue
            # clear row t
            for j in range(t + 1, n):
                q = s[t][j] // s[t][t]
                col_sub(j, t, q)
            if any(s[t][j] for j in range(t + 1, n)):
                j = min((j for j in range(t, n) if s[t][j]), key=lambda j: abs(s[t][j]))
                for r in s:
                    r[t], r[j] = r[j], r[t]
                for r in right:
                    r[t], r[j] = r[j], r[t]
                continue
            break
        # enforce divisibility of the trailing block by the pivot
        dirty = False
        for i in range(t + 1, m):
            if dirty:
                break
            for j in range(t + 1, n):
                if s[i][j] % s[t][t]:
                    _row_sub(s, t, i, -1, 0)  # row_t += row_i
                    _row_sub(left, t, i, -1, 0)
                    dirty = True
                    break
        if dirty:
            # redo the clearing pass for this t
            continue
        t += 1
        if t == min(m, n):
            break
    for i in range(min(m, n)):
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
            left[i] = [-x for x in left[i]]
    return SmithData(
        diag=tuple(s[i][i] for i in range(min(m, n))),
        left=IntMatrix(left),
        right=IntMatrix(right),
    )


def left_kernel(A: IntMatrix) -> list:
    """Basis (list of row vectors) of {v : v*A = 0}; always saturated."""
    h, u = _hnf_lists(A.array.tolist())
    return [u[i] for i in range(A.rows) if not any(h[i])]


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


def det(a) -> int:
    """Exact determinant of a square integer array, by Bareiss's
    fraction-free elimination on Python ints: every intermediate entry
    is a minor of the array, and each division is exact."""
    m = np.array(a, dtype=object)
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        nz = np.flatnonzero(m[k:, k] != 0)
        if not len(nz):
            return 0
        if nz[0]:
            m[[k, k + nz[0]]] = m[[k + nz[0], k]]
            sign = -sign
        m[k + 1:, k + 1:] = (m[k + 1:, k + 1:] * m[k, k]
                             - np.outer(m[k + 1:, k], m[k, k + 1:])) // prev
        prev = m[k, k]
    return sign * int(m[-1, -1])


def hnf_mod(rows, D):
    """Canonical row Hermite form, as a g x g array, of the lattice
    spanned by `rows` (an m x g integer array) and D * Z^g, for D >= 1.
    When D is a multiple of the index of the row lattice of `rows` in
    Z^g, that lattice contains D * Z^g, so this is its Hermite form.

    Hermite form modulo D (Domich-Kannan-Trotter, Math. Oper. Res. 12,
    1987; Cohen, A Course in Computational Algebraic Number Theory, Alg.
    2.4.8).  Column by column, Euclid down the column (pivoting on the
    least entry) leaves one live row r with entry a, and one xgcd
    u*a + v*D = d folds D e_j in: the unimodular change of (r, D e_j) to
    (u r + v D e_j, (D/d) r - (a/d) D e_j) gives the pivot row u*r, pivot
    d, and a row (D/d) r that stays live; every row is reduced mod D,
    which adding multiples of D e_c does.  The entries above the pivots
    are then reduced column by column, also mod D (each pivot divides
    D).  Every entry stays in [0, D) and no intermediate exceeds 2 D^2 in
    size, so the work is in int64 while 2 D^2 < 2^63 and in Python ints
    (dtype=object) otherwise, by the same code."""
    if D < 1:
        raise ValueError("the modulus must be positive")
    dtype = np.int64 if 2 * D * D < 2**63 else object
    a = np.asarray(rows)
    a = ((a if a.dtype == dtype else a.astype(object)) % D).astype(dtype, copy=False)
    g = a.shape[1]
    h = np.zeros((g, g), dtype=dtype)
    for j in range(g):
        # `a` holds the live rows on columns j.., all zero before column j
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
        r = a[nz[0]]
        d, u, _ = xgcd(int(r[0]), D)
        h[j, j:] = u * r % D  # pivot u*a = d mod D, and d < D
        a = np.vstack([np.delete(a, nz, axis=0), D // d * r % D])[:, 1:]
        a = a[(a != 0).any(axis=1)]
    for j in range(1, g):
        q = h[:j, j] // h[j, j]
        h[:j, j:] = (h[:j, j:] - q[:, None] * h[j, j:]) % D
    return h


def as_int64(a):
    """int64 array of an integer array-like; raises ValueError if an
    entry does not fit."""
    try:
        return np.array(a, dtype=np.int64)
    except OverflowError:
        raise ValueError("matrix entry does not fit in int64") from None


def mul_int64(a, b):
    """Exact product a @ b of int64 arrays: raises ValueError unless
    max|a| * max|b| * (inner dimension) < 2^63, which bounds every
    partial sum of every entry, in any order.  Below 2^53 the product
    runs in float64 BLAS, where all those sums are exact integers."""
    bound = 0
    if a.size and b.size:
        bound = (max(int(a.max()), -int(a.min())) * max(int(b.max()), -int(b.min()))
                 * a.shape[1])
    if bound >= 2**63:
        raise ValueError("int64 product bound exceeded")
    if bound < 2**53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a @ b


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
    choice.  Lookups use baby-step/giant-step on the full unit group
    (N is desk-scale; O(sqrt N) is plenty).
    """

    def __init__(self, modulus, target, generator=None):
        if not is_prime(modulus) or not is_prime(target):
            raise ValueError("modulus and target must be prime")
        if (modulus - 1) % target or ((modulus - 1) // target) % target == 0:
            raise ValueError("target must divide N-1 exactly once")
        self.modulus = modulus
        self.target = target
        if generator is None:
            generator = self._smallest_primitive_root(modulus)
        else:
            facs = factorize(modulus - 1)
            if any(pow(generator, (modulus - 1) // q, modulus) == 1 for q in facs):
                raise ValueError("generator is not a primitive root")
        self.generator = generator
        m = isqrt(modulus - 1) + 1
        self._m = m
        table = {}
        acc = 1
        for j in range(m):
            table.setdefault(acc, j)
            acc = acc * self.generator % modulus
        self._baby = table
        self._giant = pow(self.generator, -m, modulus)

    @staticmethod
    def _smallest_primitive_root(n):
        facs = factorize(n - 1)
        for g in range(2, n):
            if all(pow(g, (n - 1) // q, n) != 1 for q in facs):
                return g
        raise ValueError("no primitive root found")

    def dlog(self, x):
        """Full discrete log of x base the generator, in Z/(N-1)Z."""
        n = self.modulus
        x %= n
        if x == 0:
            raise ValueError("log of zero residue")
        y = x
        for i in range(self._m):
            j = self._baby.get(y)
            if j is not None:
                return (i * self._m + j) % (n - 1)
            y = y * self._giant % n
        raise ValueError("discrete log not found (modulus not prime?)")


def log_to_p(x, L: LogMap):
    """Image of x under the fixed surjection (Z/NZ)* -> Z/pZ."""
    return L.dlog(x) % L.target
