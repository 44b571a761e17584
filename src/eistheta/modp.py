"""Mod-p route to the Eisenstein multiplicity at large prime level.

The exact route keeps every lattice saturated and builds the Hecke
algebra's filtration over Z, which is the right default at small level
but needlessly slow once N has four digits.  For the multiplicity g_p
alone nothing integral is required: the torsion of the Manin-symbol
quotient is supported at 2 and 3 while p >= 5, so plain linear algebra
over F_p yields the same number.  The route reads the exact route's
space, `build_space(N)`, whose quotient map comes off a spanning tree
with no elimination of the relation matrix, and never asks for its
signed bases, so no lattice over Z is saturated.

All arithmetic runs through float64 BLAS, the way FFLAS/FFPACK do it
(Dumas, Giorgi and Pernet, ACM TOMS 35, 2008): each product is bounded
in advance by p^2 times a matrix dimension, below 2^53, so nothing
ever rounds, and every residue is taken by one kernel, `_mod_p`, as
x - p floor(x / p), which is exact under the same bounds.  The
Eisenstein generators are applied in increasing Hecke index
(`sturm_primes`), cutting the candidate space down after each one
(`cut`, which the exact route's g_p also runs on).  Each
operator is the exact route's matrix over Z on the cuspidal lattice,
`hecke(space, l)`, reduced mod p: Cremona's family for T_l (l != N),
and U_N = -W_N from one continued-fraction walk per generator.  So the
route keeps the exact route's checks: the coordinate symbols reduce to
the identity over Z, and no star or Hecke image has a boundary.

The plus quotient (`_plus_quotient`) is the fixed space of the space's
star matrix S on the 2g cuspidal coordinates, checked to square to the
identity mod p on its nonzero entries.  For p odd and S^2 = I it is the
row space of I + S: (I + S) S = S + S^2 = I + S, so each row is fixed,
and a fixed x is (x/2)(I + S).  Most rows of S are those of a signed
permutation, row j a single entry e at pi(j) and row pi(j) a single
entry at j; such a pair gives the one vector e_j + e e_pi(j).  Those
vectors clear their columns out of the other rows, and only the other
rows are eliminated: 78 of 312 at N = 1871.

The loop stops as soon as its answer is proven (`g_p_dimension_modp`):
every cut keeps the m-part, so the dimension never drops below g_p,
and g_p is at least 1 (Mazur), at least 2 when `merel_criterion`
holds (Merel); a dimension equal to that lower bound is g_p.  At
N = 1871 this happens after T_2 - 3, the first of 65 generators.

A cut by an operator q on an m-dimensional subspace keeps the left
kernel of q^e for e >= m, found by squaring q.  It stops at a proven
exponent: with 2^k the least power of two >= m and k >= 4, it first
takes the null space K of q^e at e = 2^ceil(k/2).  The chain ker q,
ker q^2, ... grows strictly until two terms are equal and is constant
after, so dim ker q^j >= j up to that point; dim K < e therefore puts
it at or below e, and K is the generalized kernel.  Only otherwise
does the squaring go on to 2^k, for a second null space.  At
N = 9931 the first cut keeps 6 of its 827 dimensions from q^32, five
squarings short of q^1024.  Below k = 4 the early null space would
save at most one squaring of at most 8 rows, and would cost a null
space on a nilpotent q, which the loop meets in every cut once its
space is the m-part.

`_rref_mod_p` halves the rows, in the manner of recursive echelon
forms (Dumas, Pernet and Sultan, ISSAC 2013): the two halves are
reduced in turn, and each is cleared at the other's pivot columns by
one product, so the per-pivot Python runs only in leaves of at most
16 rows.  Every product is a residue minus at most min(rows, columns)
products of residues, which the bound it checks up front keeps within
2^53 - p.
"""

import numpy as np

from .modsym import build_space, check_pair, hecke, sturm_primes


def _mod_p(x, p):
    """x mod p, in [0, p), for a float64 array x of integers with
    |x| + p <= 2^53 and an odd prime p, as x - p floor(x / p).

    Exact: write x = kp + r with 0 <= r < p.  If r = 0, x / p is the
    integer k, |k| < 2^53, so the division returns it exactly.  If
    r > 0, x / p lies at distance at least 1/p from both k and k + 1;
    all three have absolute value at most (|x| + p) / p <= 2^53 / p,
    where the spacing of float64 values is a power of two no more than
    2 / p, hence below it for odd p, so rounding to nearest lands in
    [k, k + 1) and the floor is k.  Then |pk| <= |x| + p <= 2^53 is
    exactly representable, and so is x - pk = r.  The result is never
    -0.0: x - x is +0.0 under rounding to nearest, and so is
    -0.0 - (-0.0).  Each caller names the bound that gives
    |x| + p <= 2^53.
    """
    q = np.floor(x / p)
    q *= p
    return np.subtract(x, q, out=q)


def _check_exact(p, n):
    """Refuse F_p work whose float64 dot products of length <= n could
    leave the exactly representable integers."""
    if p * p * (n + 1) >= 2**53:
        raise ValueError("float64 arithmetic mod p is not exact at this size")


_RREF_LEAF = 16  # rows at or below which `_rref_mod_p` runs Gauss-Jordan


def _rref_mod_p(a, p):
    """Reduced row echelon form over F_p by halving the rows, so that
    the bulk elimination happens in matrix products.

    Returns (rows, pivot_cols): `rows` has a unit entry at its own
    pivot column and zeros at every other pivot column, and the rows
    come in increasing pivot column, the canonical form of the row
    space of `a`.

    `_rref_rows` reduces the top half; one product clears the bottom
    half at the top's pivot columns; the rest of the bottom half is
    reduced; one product clears the top half at the bottom's pivot
    columns; the two are merged in pivot order.  Every step takes and
    gives residues in [0, p).  A clearing product subtracts from a
    residue one product of residues, in [0, (p-1)^2], per pivot of the
    other half, and a half has at most as many pivots as the whole,
    at most m = min(rows, columns); a leaf's steps subtract one.  So
    every `_mod_p` here but the first sees |x| + p <= m(p-1)^2 + p =
    (p-1)(1 + m(p-1)) + 1, and the check below makes that at most
    2^53.  The entries of `a` itself must be integers with |x| + p <=
    2^53: the route passes residues, and the tests small integers.
    """
    a = np.asarray(a, dtype=np.float64)
    m = min(a.shape)
    if (p - 1) * (1 + m * (p - 1)) >= 2**53:
        raise ValueError("float64 arithmetic mod p is not exact at this size")
    return _rref_rows(_mod_p(a, p), p)


def _rref_rows(a, p):
    """`_rref_mod_p` of residues `a`, without the bound check.

    The merge keeps the echelon form: a top row is zero left of its
    pivot, and the bottom rows it takes multiples of have their pivots
    right of it, so it stays zero there; the bottom rows are zero at
    the top's pivot columns, so the top's unit columns survive.
    """
    if a.shape[0] <= _RREF_LEAF:
        return _gauss_jordan_leaf(a, p)
    h = a.shape[0] // 2
    top, tcols = _rref_rows(a[:h], p)
    low, lcols = _rref_rows(_mod_p(a[h:] - a[h:, tcols] @ top, p), p)
    top = _mod_p(top - top[:, lcols] @ low, p)
    cols = tcols + lcols
    order = np.argsort(cols)
    return np.vstack([top, low])[order], [cols[i] for i in order]


def _gauss_jordan_leaf(a, p):
    """`_rref_rows` of at most `_RREF_LEAF` rows by Gauss-Jordan.  The
    next pivot column is the first with a nonzero among the rows not
    yet used, so the rows from the pivot row down are zero left of it
    and only the columns from it on change.  Hence a nonzero a[r, j],
    at the pivot row r and the column j after the last pivot, is the
    next pivot, and the block is searched only when it is zero; any
    nonzero pivot in the column gives the same form, which is unique.
    Every entry is reduced after each pivot, a residue minus one
    product of residues."""
    a = a.copy()
    pcols = []
    j = 0
    for r in range(a.shape[0]):
        if j == a.shape[1]:
            break
        if not a[r, j]:
            live = a[r:, j:].any(axis=0)
            c = int(live.argmax())  # the first nonzero column, if any
            if not live[c]:
                break
            j += c
            i = r + int((a[r:, j] != 0).argmax())
            a[[r, i]] = a[[i, r]]
        prow = _mod_p(a[r, j:] * pow(int(a[r, j]), -1, p), p)
        a[r, j:] = prow
        col = a[:, j, None].copy()
        col[r] = 0
        a[:, j:] = _mod_p(a[:, j:] - col * prow, p)
        pcols.append(j)
        j += 1
    return a[:len(pcols)], pcols


def _left_nullspace_mod_p(m, p):
    """Basis rows of {x : x m = 0 over F_p}, carrying an identity minor
    at the returned column list so restrictions read off directly.
    `m` holds integers with |x| + p <= 2^53, as `_rref_mod_p` asks."""
    rr, pc = _rref_mod_p(np.asarray(m).T, p)
    n = m.shape[0]
    pset = set(pc)
    free = [j for j in range(n) if j not in pset]
    basis = np.zeros((len(free), n))
    basis[np.arange(len(free)), free] = 1
    if pc:
        basis[:, pc] = _mod_p(-rr[:, free].T, p)  # entries in (-p, 0]
    return basis, free


def cut(rows, cols, images, eigen, p):
    """Shrink span(rows) over F_p to the generalized (op - eigen)-kernel
    of an operator that preserves it.

    `rows` (m x n, entries in [0, p)) carries an identity minor at the
    columns `cols`, and `images` holds the operator's images of those
    rows, reduced into [0, p).  Returns the new (rows, cols) in the
    same form.  Every product below is a sum of at most m terms in
    [0, (p-1)^2], less a residue, so `_check_exact(p, max(m, n))` gives
    |x| + p <= p^2 (m + 1) < 2^53 at each `_mod_p`.

    With q = restr - eigen, the generalized kernel is the left kernel
    of q^e for any e >= m, and 2^k is the least power of two >= m.  For
    k >= 4 the left null space K of q^e at e = 2^ceil(k/2) is taken
    first, and if dim K < e it is the generalized kernel: the chain
    ker q, ker q^2, ... grows strictly until two terms are equal, and
    is constant from there, so dim ker q^j >= j for every j up to that
    point; dim K < e puts the point at or below e.  Otherwise, and for
    k < 4, where the early null space would save at most one squaring,
    q is squared on to q^(2^k) and its null space is the answer.  So a
    cut takes at most two null spaces and squares no further than 2^k.
    A zero power means q is nilpotent, so the generalized kernel is the
    whole subspace: the cut stops there, without a null space.
    """
    _check_exact(p, max(rows.shape))
    m = rows.shape[0]
    restr = images[:, cols]
    if _mod_p(restr @ rows - images, p).any():
        raise ValueError("operator does not preserve the subspace mod p")
    q = _mod_p(restr - eigen % p * np.eye(m), p)
    k = max(m - 1, 0).bit_length()  # 2^k is the least power of two >= m
    # the early null space, at 2^ceil(k/2), where it can save two squarings
    stops = (1 << ((k + 1) // 2), 1 << k) if k >= 4 else (1 << k,)
    e = 1
    for stop in stops:
        while e < stop and q.any():
            q = _mod_p(q @ q, p)
            e *= 2
        if not q.any():
            return rows, cols
        ker, _ = _left_nullspace_mod_p(q, p)
        if ker.shape[0] < e:
            break
    return _rref_mod_p(_mod_p(ker @ rows, p), p)


def merel_criterion(N, p):
    """Merel's criterion (J. reine angew. Math. 477, 1996): g_p >= 2 iff
    prod_{k=1}^{(N-1)/2} k^k is a p-th power mod N, that is, iff its
    (N-1)/p-th power is 1 mod N.  (N-1)/2 modular powers, sharing no
    code with either route: the mod-p route takes it as a lower bound
    on g_p, and the exact route stays independent of it."""
    check_pair(N, p)
    acc = 1
    for k in range(1, (N - 1) // 2 + 1):
        acc = acc * pow(k, k, N) % N
    return pow(acc, (N - 1) // p, N) == 1


def _plus_quotient(star, p):
    """(rows, cols): a basis over F_p of the plus quotient, the vectors of
    the cuspidal coordinates fixed by the star involution, whose integer
    matrix is `star`, as rows in reduced echelon form (pivot columns
    `cols`, in increasing order), the form `cut` reads.

    S = star mod p must square to the identity mod p, and is checked to
    on the nonzero entries of `star`.  (One that is a multiple of p adds
    nothing to a product; alone in its row, it makes that row of S^2
    zero, and the check fails.)  Then, p being odd, the fixed space of S
    is the row space of I + S: (I + S) S = S + S^2 = I + S, so every row
    is fixed, and a fixed x is (x/2)(I + S).

    Most rows of S are a signed permutation's: row j has one nonzero e,
    at pi(j), and row pi(j) one, at j.  Such a pair {a < b} gives the
    row e_a + e e_b of I + S, and its row b is a multiple of it, as
    S^2 = I makes the two entries inverse; a row with pi(a) = a gives
    e_a if e = 1 and nothing if e = -1 (the only square roots of 1 mod
    p).  These pair vectors carry column a, which no other pair
    vector touches, so they clear it out of the other rows of I + S;
    only those rows are eliminated (`_rref_mod_p`), and their pivots
    miss every column a.  Last, each pair vector is cleared at the
    eliminated rows' pivots, through column b, the only one of its
    entries that can sit at one.  Every row then has a unit at its
    pivot and zeros at every other pivot and left of its own, so the
    rows sorted by pivot are the reduced echelon form of the row space.
    The residues stay below p^2 + p in absolute value before each
    `_mod_p`.
    """
    n = len(star)
    flat = np.asarray(star).ravel()
    # the entries in row order, each row's in column order; numpy finds a
    # bool array's nonzeros faster
    which, cols = np.divmod(np.flatnonzero(flat != 0), n)
    vals = flat[which * n + cols] % p
    size = np.bincount(which, minlength=n)
    start = np.cumsum(size) - size
    # S^2 - I, entry by entry: S[i, c] S[c, j] for every S[i, c] and every
    # S[c, j], less 1 at (i, i); each sum has at most n terms below p^2
    run = size[cols]
    entry = np.repeat(np.arange(len(cols)), run)
    pos = np.arange(len(entry)) + np.repeat(start[cols] - (np.cumsum(run) - run), run)
    keys = np.concatenate([which[entry] * n + cols[pos], np.arange(n) * (n + 1)])
    terms = np.concatenate([vals[entry] * vals[pos], np.full(n, -1)])
    _, key = np.unique(keys, return_inverse=True)
    if _mod_p(np.bincount(key, weights=terms), p).any():
        raise ValueError("star matrix does not square to the identity mod p")

    single = np.flatnonzero(size == 1)
    pi = np.full(n, -1)
    eps = np.zeros(n, dtype=np.int64)
    pi[single], eps[single] = cols[start[single]], vals[start[single]]
    paired = np.zeros(n, dtype=bool)
    paired[single] = pi[pi[single]] == single
    piv = np.flatnonzero(paired & (np.arange(n) <= pi))
    piv = piv[(piv != pi[piv]) | (eps[piv] == 1)]
    twin = np.flatnonzero(piv != pi[piv])  # the pairs with a < b
    a, b, e = piv[twin], pi[piv[twin]], eps[piv[twin]]

    other = np.flatnonzero(~paired)
    slot = np.full(n, -1)
    slot[other] = np.arange(len(other))
    rest = np.flatnonzero(~paired[which])
    plus = np.zeros((len(other), n))
    plus[slot[which[rest]], cols[rest]] = vals[rest]
    plus[np.arange(len(other)), other] += 1
    plus[:, b] -= plus[:, a] * e
    plus[:, piv] = 0
    low, lcols = _rref_mod_p(plus, p)

    top = np.zeros((len(piv), n))
    top[np.arange(len(piv)), piv] = 1
    top[twin, b] = e
    row_of = np.full(n, -1)
    row_of[lcols] = np.arange(len(lcols))
    hit = np.flatnonzero(row_of[b] >= 0)
    top[twin[hit]] = _mod_p(top[twin[hit]] - e[hit, None] * low[row_of[b[hit]]], p)

    cols = np.concatenate([piv, np.array(lcols, dtype=np.int64)])
    order = np.argsort(cols)
    return np.vstack([top, low])[order], cols[order].tolist()


def _joint_kernel_dims(N, p):
    """Cut the plus quotient mod p by the Eisenstein generators in turn:
    yields (None, g) for the quotient itself, then (ell, d) after the
    generator of Hecke index ell, d being the dimension of the joint
    generalized kernel so far.  Drained, the last d is g_p.

    An operator's images are vecs @ (T mod p), T = `hecke`(space, ell)
    over Z: a sum of 2g products of residues, within 2^53 - p under
    `_check_exact(p, N + 1)`, as 2g < N + 1."""
    check_pair(N, p)
    # checked before the space is built, from N alone
    _check_exact(p, N + 1)
    space = build_space(N)
    vecs, vcols = _plus_quotient(space.star.array, p)
    if vecs.shape[0] != space.genus:
        raise ValueError("plus quotient mod p does not have rank g")
    yield None, vecs.shape[0]

    for ell in sturm_primes(N):
        if not vecs.shape[0]:
            break
        eigen = 1 if ell == N else ell + 1
        T = (hecke(space, ell).array % p).astype(np.float64)
        vecs, vcols = cut(vecs, vcols, _mod_p(vecs @ T, p), eigen, p)
        yield ell, vecs.shape[0]


def g_p_dimension_modp(N, p):
    """dim over F_p of the joint generalized kernel of the Eisenstein
    generators on the plus quotient — the same number the exact route
    computes, at a fraction of the cost for levels in the thousands.

    Stops as soon as the dimension d is proven to be g_p.  Each
    generator eta_l lies in the Eisenstein ideal m, so it is nilpotent
    on the m-part, whose dimension is g_p: every cut keeps the m-part,
    and d >= g_p after each one.  Mazur (Publ. IHES 47, 1977) gives
    g_p >= 1 when p || N - 1, and Merel's criterion decides g_p >= 2;
    so d >= g_p >= lower, and d == lower means d == g_p.  A d below
    lower can only come from a broken Hecke action or a wrong
    certificate, and raises.
    """
    lower = None
    for _, d in _joint_kernel_dims(N, p):
        if lower is None:  # after the generator's own checks of (N, p)
            lower = 2 if merel_criterion(N, p) else 1
        if d < lower:
            raise ValueError(f"dimension {d} is below the proven g_p >= {lower}")
        if d == lower:
            break
    return d
