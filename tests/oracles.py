"""Slow reference routes kept as differential oracles for the tests.

Both routes to M_rel once eliminated the relation matrix densely; the
package now reads M_rel off a spanning tree of the tau-orbit graph
(`modsym.tree_reduction`).  The eliminations live on here: the exact
route's Smith normal form with the inverse of its right transform, and
the mod-p route's F_p row reduction.  `dense_tree_reduction` is the
tree's reduction as it was built before it became sparse: a FIFO tree
and dense subtree sums.  `csr_from_dense` turns a dense array into the
package's `CSR`.  `gauss_jordan_mod_p` is the plain
pure-Python elimination, and `panel_rref_mod_p` the float64 kernel that
eliminated 128-row panels one pivot at a time before `modp._rref_mod_p`
halved the rows: the two references for that kernel.
`cut_full_squaring` is `modp.cut` before it stopped at a vanishing
power or at a proven exponent; it reduces by numpy's `%`.
`dense_plus_quotient` is the plus quotient as the null space of the
dense condition S - I, before `modp._plus_quotient` read the star's
signed-permutation pairs.
`full_theta_counts` is the theta walk over every residue, and
`convergent_theta_coords` the half walk on continued-fraction
convergents that `modsym.theta_elements` ran before it walked Euclid
remainders: the two references for that walk.  Both read chi_D off
`chi_table`, the full |D| table that `modsym` built for each D on its
own before it made only the half the walk reads, sharing the tables
of a window (`modsym._half_chis`), so neither reference runs the code
it checks.
`saturated_cuspidal_basis` is M as the saturated kernel of the
boundary map, which `modsym` now reads off as M_rel without its
coordinate 0, and `shuffled_tree_space` a space on a second spanning
tree, another M_rel basis.
`loop_presentation` is `modsym.presentation` as it folded the two-term
relations and walked the tau-orbits in Python loops, into tuples.
`dense_reduction` is the dense (N + 1) x (2g + 1) reduction a space
once kept beside its sparse quotient map, and `family_counts`,
`hecke_counts` and `dense_hecke` the exact Hecke route through it:
symbol counts, k x (N + 1), times the dense reduction, before
`modsym.hecke_matrix` met the quotient map's rows pair by pair.
`merel_matrices` is Merel's determinant-l family, and `merel_counts`
its action on Manin symbols, one matrix at a time, with the images
(0:0) dropped.  `inverse_family_counts` is `family_counts` as it
indexed images through the inverses mod N, before the discrete-log
tables.  `merel_hecke` is T_l (U_N at l = N) through Merel's
family at every l: the route `modsym.hecke` took before Cremona's
Heilbronn matrices replaced it at l != N and -W_N at l = N.
`class_number_per_d` is the class number of one discriminant from its
reduced forms, enumerated by factoring each (b^2 - D)/4 and walked
cycle by cycle: the reference for the batched `quadfield.class_numbers`.
`fundamental_unit` writes the unit down from one period of the
continued fraction of (D mod 2 + sqrt(D))/2 by the PQa recurrence
(`_pqa_cycle`), an expansion independent of `quadfield`'s forms; the
package reads only the unit's residues modulo the primes above N, off
the principal rho-cycle walked modulo N (`quadfield.unit_residues`).
`unit_criterion` and `pic_zn_trivial` recompute, for one D, what
`quadfield.field_profile` derives as its `criterion` and
`pic_zn_trivial` fields.  `bsgs_dlog` is the baby-step giant-step
discrete log that `exact_linalg.LogMap` ran for each lookup before it
kept a full table of logs.

`space_digest` is `harness._space_digest` as it built each block of the
dense reduction through `CSR.dense`, before it scattered the block's
contiguous run of entries straight from the quotient map's pointers.

`hnf`, `solve_left` and `unimodular_inverse` are the pure-Python
Hermite-form routes that the package's int64 left inverses and modular
Hermite forms replaced, `euclid_hnf_mod` is `exact_linalg.hnf_mod` with
Euclid in every column, before it pivoted on units, and `mat_mul` is
the pure-Python product that int64 products are checked against.
`det` is Bareiss's fraction-free determinant.  `sturm_chain` is the
chain W_n from the stack of all the Sturm generators, with its modulus
from the determinants of the first three and its saturation check:
the route every context took before the certified chain, and the
fallback beside it until each prime of n got its own generator set.  `hnf_with_transform` and `snf`
carry their unimodular transforms, which the package no longer reads:
`residue_valuations` and `smith_alpha_functional` are the valuations
and the alpha functional read off the Smith right transforms of the
W_n, the route that `eisenstein`'s Z_n = m_n H_n^{-1} mod m_n
replaced.
"""

import hashlib
import random
from dataclasses import dataclass, replace
from math import gcd, isqrt, prod

import numpy as np

from eistheta.exact_linalg import (
    IntMatrix,
    _eye,
    _hnf_inplace,
    _hnf_lists,
    _row_sub,
    as_int64,
    divisors,
    factorize,
    is_prime,
    hnf_mod,
    left_kernel,
    vp,
    mul_exact,
    mul_int64,
    primitive_root,
    scaled_inverse_mod,
    unit_powers,
    xgcd,
)
from eistheta.eisenstein import _generators, _next_primes, eisenstein_generators
from eistheta.modp import _left_nullspace_mod_p, _mod_p, _rref_mod_p
from eistheta.modsym import (
    CSR,
    Presentation,
    _S,
    _T,
    _act,
    _space_from_tree,
    _u_n_pairs,
    check_level,
    cremona_families,
    cuspidal_coords,
    family_images,
    genus,
    p1_index,
    presentation,
    sturm_bound,
    tree_reduction,
)
from eistheta.quadfield import (
    _rho,
    is_fundamental,
    split_prime_data,
    unit_residues,
    validate_discriminant,
)

# every admissible (N, p) with N < 400 and p in {5, 7, 11, 13}: 36 pairs,
# 21 of them with N < 200
ADMISSIBLE = [
    (N, p)
    for p in (5, 7, 11, 13)
    for N in range(5, 400)
    if is_prime(N) and (N - 1) % p == 0 and ((N - 1) // p) % p
]


def mat_mul(*factors):
    """The product of IntMatrix factors, left to right, in Python ints."""
    out = factors[0].array.tolist()
    for f in factors[1:]:
        if len(out[0]) != f.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = list(zip(*f.array.tolist()))
        out = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in out]
    return IntMatrix(out)


def hnf(A):
    """Canonical row-style Hermite normal form of an IntMatrix (same
    shape; zero rows sink to the bottom, pivots positive, entries above
    a pivot reduced into [0, pivot))."""
    return IntMatrix(_hnf_inplace(A.array.tolist()))


def hnf_with_transform(A):
    """Return (H, U) with U unimodular and U*A = H in Hermite form
    (same shape as A; zero rows sink to the bottom, pivots positive,
    entries above a pivot reduced into [0, pivot))."""
    h, u = _hnf_lists(A.array.tolist())
    return IntMatrix(h), IntMatrix(u)


@dataclass(frozen=True)
class SmithData:
    """Invariant factors d1 | d2 | ... with unimodular transforms.

    left * A * right is diagonal with the stated invariants.
    """

    diag: tuple
    left: IntMatrix
    right: IntMatrix


def snf(A):
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


def euclid_hnf_mod(rows, D):
    """`exact_linalg.hnf_mod` without the sketch and without unit
    pivots: `rows` reduced into [0, D) (int64 while 2 D^2 < 2^63, Python
    ints otherwise) and eliminated column by column by Euclid down the
    column, with one xgcd folding D e_j in, the elimination
    `_hnf_mod_reduced` ran before it pivoted on units."""
    dtype = np.int64 if 2 * D * D < 2**63 else object
    a = np.asarray(rows)
    a = ((a if a.dtype == dtype else a.astype(object)) % D).astype(dtype, copy=False)
    g = a.shape[1]
    h = np.zeros((g, g), dtype=a.dtype)
    for j in range(g):
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
        h[j, j:] = u * r % D
        a = np.vstack([np.delete(a, nz, axis=0), D // d * r % D])[:, 1:]
        a = a[(a != 0).any(axis=1)]
    for j in range(1, g):
        q = h[:j, j] // h[j, j]
        h[:j, j:] = (h[:j, j:] - q[:, None] * h[j, j:]) % D
    return h


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


def sturm_chain(space, sign, n_max):
    """(W_0 .. W_{n_max + 1}, the Sturm generators) from the stack of all
    the Sturm generators.  W_{n+1} is the form of the rows of W_n eta
    over the generators eta, modulo det(W_n) G with G the gcd of |det
    eta| over the first three generators (eta_2 is nonsingular, so G !=
    0): W_n eta lies in W_{n+1}, so [M : W_{n+1}] divides det(W_n) |det
    eta| for each one.  The saturation check asks whether the three
    generators at the primes just above max(N, Sturm bound) map Z^g into
    W_1, as membership mod G."""
    N = space.N
    etas = [m.array for m in eisenstein_generators(space, sign)]
    unit = gcd(*(det(m) for m in etas[:3]))
    if not unit:
        raise ValueError("Eisenstein generators are all singular")
    ws = [IntMatrix.identity(len(etas[0]))]
    for _ in range(n_max + 1):
        w = ws[-1].array
        ws.append(IntMatrix(hnf_mod(np.concatenate([mul_exact(w, eta) for eta in etas]),
                                    prod(map(int, np.diagonal(w))) * unit)))
    z = scaled_inverse_mod(ws[1].array, unit).astype(np.int64)  # entries in [0, G)
    for eta in _generators(space, sign, _next_primes(max(N, sturm_bound(N)), 3)):
        if (mul_int64(eta.array % unit, z) % unit).any():
            raise ValueError("Sturm-bound generator set failed saturation check")
    return tuple(ws), etas


def residue_valuations(ctx, xs):
    """The valuations of the rows of xs (signed coordinates, Python ints)
    by the Smith route that Z_n replaced: x is in W_n + p^{e_n} Z^g iff
    x . v_j = 0 mod gcd(d_j, p^{e_n}) for every invariant factor d_j of
    W_n and its column v_j of the Smith right transform."""
    p = ctx.p
    table = []
    for w in ctx.W[1:]:
        sd = snf(w)
        pe = p ** max(vp(d, p) for d in sd.diag)
        table.append([(gcd(d, pe), sd.right.array[:, j].tolist())
                      for j, d in enumerate(sd.diag) if gcd(d, pe) % p == 0])
    out = []
    for x in xs:
        val = 0
        for tests in table:
            if any(sum(a * b for a, b in zip(x, col)) % mod for mod, col in tests):
                break
            val += 1
        out.append(val)
    return out


def smith_alpha_functional(ctx):
    """The alpha functional mod p as the Smith route read it: the right
    transform's column at the one invariant factor of W_1 that p divides,
    which p^2 must not divide."""
    sd = snf(ctx.W[1])
    pivots = [j for j, d in enumerate(sd.diag) if d % ctx.p == 0]
    if len(pivots) != 1 or vp(sd.diag[pivots[0]], ctx.p) != 1:
        raise ValueError("p-part of M^+/W_1 is not of order exactly p")
    return [x % ctx.p for x in sd.right.array[:, pivots[0]].tolist()]


def unimodular_inverse(M):
    """Inverse of a unimodular IntMatrix: the HNF of M is then the
    identity, and its tracked transform is M^{-1}."""
    h, u = hnf_with_transform(M)
    if h != IntMatrix.identity(M.rows):
        raise ValueError("matrix is not unimodular")
    return u


def solve_left(B, C):
    """Solve X*B = C over the integers for IntMatrices B with full row
    rank whose row lattice is saturated (every rational solution is
    integral) and C; raises ValueError if some row of C is outside the
    row span."""
    h, u = hnf_with_transform(B)
    hr = h.array.tolist()
    pivots = []
    for i in range(B.rows):
        nz = [j for j in range(B.cols) if hr[i][j]]
        if not nz:
            raise ValueError("basis matrix does not have full row rank")
        pivots.append(nz[0])
    xs = []
    for rem in C.array.tolist():
        coeff = [0] * B.rows
        for i, pj in enumerate(pivots):
            q, r = divmod(rem[pj], hr[i][pj])
            if r:
                raise ValueError("vector is not in the row span")
            coeff[i] = q
            if q:
                for k in range(B.cols):
                    rem[k] -= q * hr[i][k]
        if any(rem):
            raise ValueError("vector is not in the row span")
        xs.append(coeff)
    return mat_mul(IntMatrix(xs), u)


def loop_presentation(N):
    """`modsym.presentation` by Python loops over the symbols, every
    index field a tuple and `relations` a tuple of (row, var, coeff)."""
    check_level(N)
    gens = ((0, 1),) + tuple((1, y) for y in range(N))
    n = N + 1
    power = unit_powers(primitive_root(N), N)
    invarr = np.zeros(N, dtype=np.int64)
    invarr[power] = power[-np.arange(N - 1) % (N - 1)]
    cs, ds = np.array(gens, dtype=np.int64).T

    def perm(u, v):
        return tuple(p1_index(u % N, v % N, N, invarr).tolist())

    sigma = perm(*_act(cs, ds, _S))
    tau = perm(*_act(cs, ds, _T))
    iota = perm(-cs, ds)

    var_of = [-1] * n
    sign_of = [0] * n
    reps = []
    sfixed = []
    for i in range(n):
        if var_of[i] >= 0:
            continue
        j = sigma[i]
        var_of[i] = len(reps)
        sign_of[i] = 1
        if j == i:
            sfixed.append(len(reps))
        else:
            var_of[j] = len(reps)
            sign_of[j] = -1
        reps.append(i)

    relations = []
    nrel = 0
    done = [False] * n
    for i in range(n):
        if done[i]:
            continue
        j = i
        while not done[j]:
            done[j] = True
            relations.append((nrel, var_of[j], sign_of[j]))
            j = tau[j]
        nrel += 1
    for v in sfixed:
        relations.append((nrel, v, 2))
        nrel += 1
    return Presentation(
        N=N, generators=gens, inv=tuple(invarr.tolist()), sigma=sigma, tau=tau, iota=iota,
        var_of=tuple(var_of), sign_of=tuple(sign_of), reps=tuple(reps),
        sfixed=tuple(sfixed), relations=tuple(relations), nrel=nrel,
    )


def dense_reduction(space):
    """The dense (N + 1) x (2g + 1) reduction from symbols to M_rel, as an
    IntMatrix: the rows of the space's quotient map, written out."""
    return IntMatrix(space.qmap.dense())


def family_counts(symbols, fam, N):
    """counts[i, t]: how many matrices of the family `fam` send the
    symbol symbols[i] = (c, d) to symbol t of P^1(Z/NZ), as an int64
    array with N + 1 columns, from `modsym.family_images` (with its
    refusals), N + 1 matrices at a time."""
    base = np.arange(len(symbols))[:, None] * (N + 1)
    counts = np.zeros(len(symbols) * (N + 1), dtype=np.int64)
    for t in family_images(symbols, fam, N, N + 1):
        counts += np.bincount((t + base).ravel(), minlength=len(counts))
    return counts.reshape(-1, N + 1)


def hecke_counts(symbols, ell, N, inv):
    """counts[i, t]: the signed multiplicity of symbol t of P^1(Z/NZ) in
    the image of symbols[i] under T_ell (ell != N, Cremona's family) or
    U_N (ell = N, `modsym._u_n_pairs`), as an int64 array with N + 1
    columns."""
    if ell != N:
        return family_counts(symbols, cremona_families([ell])[0], N)
    rows, images = _u_n_pairs(symbols, N, inv)
    return np.bincount(rows * (N + 1) + images,
                       minlength=len(symbols) * (N + 1)).reshape(-1, N + 1)


def _counts_to_cuspidal(space, counts):
    """counts @ the dense reduction, in int64 under `mul_int64`'s bound,
    read in cuspidal coordinates, as an IntMatrix."""
    rel = mul_int64(counts, dense_reduction(space).array)
    return IntMatrix(cuspidal_coords(rel, "Hecke image"))


def dense_hecke(space, ell):
    """T_ell (U_N at ell = N) on the cuspidal lattice as `modsym.hecke`
    formed it before it became sparse: the counts of the symbols of
    coordinates 1 .. 2g (`hecke_counts`) times the dense reduction."""
    symbols = [space.generators[j] for j in space.coord_symbols[1:]]
    return _counts_to_cuspidal(space, hecke_counts(symbols, ell, space.N, space._inv))


def relation_matrix(pres):
    """The folded relations as a dense int64 nrel x nvars array."""
    rel = np.zeros((pres.nrel, len(pres.reps)), dtype=np.int64)
    r, v, c = np.array(pres.relations).T
    np.add.at(rel, (r, v), c)
    return rel


def snf_section_reduction(pres):
    """int64 (section, reduction) of M_rel from the Smith normal form of
    the relation matrix: the free columns of its right transform V give
    the reduction, the matching rows of V^-1 the section."""
    n = len(pres.generators)
    nvars = len(pres.reps)
    sd = snf(IntMatrix(relation_matrix(pres)))
    free = [j for j in range(nvars) if j >= len(sd.diag) or sd.diag[j] == 0]
    right, vinv = sd.right.entries, unimodular_inverse(sd.right).entries
    red_vars = [[right[v][j] for j in free] for v in range(nvars)]
    reduction = [[s * x for x in red_vars[v]] for v, s in zip(pres.var_of, pres.sign_of)]
    section = [[0] * n for _ in free]
    for jj, j in enumerate(free):
        for v in range(nvars):
            section[jj][pres.reps[v]] = vinv[j][v]
    return as_int64(section), as_int64(reduction)


def dense_tree_reduction(pres):
    """`modsym.tree_reduction` as it was before the reduction became
    sparse: (free, red_vars) with red_vars a dense int64 nvars x (2g + 1)
    array, the tree grown by a FIFO queue and each tree edge's row read
    off the dense sum of the rows of its subtree."""
    nvars = len(pres.reps)
    nrows = pres.nrel - len(pres.sfixed)  # the tau-orbit rows come first
    half = set(pres.sfixed)  # killed by their 2y = 0 rows wherever they sit
    slots = [[] for _ in range(nvars)]  # (row, coeff) of each occurrence
    incident = [[] for _ in range(nrows)]
    for r, v, c in pres.relations:
        if r < nrows:
            slots[v].append((r, c))
            incident[r].append(v)
    for v, s in enumerate(slots):
        if v not in half and (len(s) != 2 or s[0][1] + s[1][1]):
            raise ValueError(f"variable {v} does not sit in exactly two tau-row slots "
                             "of opposite signs")

    parent = [None] * nrows  # the tree edge into each row but the root
    seen = [True] + [False] * (nrows - 1)
    order = [0]
    for u in order:
        for v in incident[u]:
            if v in half:
                continue
            w = slots[v][0][0] + slots[v][1][0] - u  # the other end; u for a loop
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    if len(order) != nrows:
        raise ValueError("the tau-orbit graph is not connected")
    tree = set(parent[1:])
    free = [v for v in range(nvars) if v not in half and v not in tree]
    if len(free) != 2 * genus(pres.N) + 1:
        raise ValueError("the tau-orbit graph does not have 2g + 1 free edges")

    col = {v: j for j, v in enumerate(free)}
    sub = np.zeros((nrows, len(free)), dtype=np.int64)  # row sums over subtrees
    for r, v, c in pres.relations:
        if v in col:
            sub[r, col[v]] += c
    red_vars = np.zeros((nvars, len(free)), dtype=np.int64)
    red_vars[free, np.arange(len(free))] = 1
    for u in reversed(order[1:]):
        t = parent[u]
        (r1, c1), (r2, c2) = slots[t]
        red_vars[t] = -(c1 if r1 == u else c2) * sub[u]
        sub[r1 + r2 - u] += sub[u]
    return free, red_vars


def csr_from_dense(a):
    """The `modsym.CSR` of a dense integer array."""
    rows, cols = np.nonzero(a)
    return CSR.from_entries(rows, cols, np.asarray(a, dtype=np.int64)[rows, cols], *a.shape)


def rref_reduction(pres, p):
    """(free, red_vars) of the relation quotient mod p from the dense F_p
    row reduction of the relation matrix, in `tree_reduction`'s form:
    entries in [0, p), a unit row at each free (non-pivot) variable."""
    nvars = len(pres.reps)
    rows, pivots = _rref_mod_p(relation_matrix(pres), p)
    pset = set(pivots)
    free = [j for j in range(nvars) if j not in pset]
    red_vars = np.zeros((nvars, len(free)), dtype=np.int64)
    red_vars[free, np.arange(len(free))] = 1
    if pivots:
        red_vars[pivots] = (-rows[:, free].astype(np.int64)) % p
    return free, red_vars


def gauss_jordan_mod_p(rows, p):
    """Canonical reduced row echelon form over F_p by pure-Python
    Gauss-Jordan: (nonzero rows in pivot order, pivot columns)."""
    mat = [[int(x) % p for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        prow = mat[r] = [x * inv % p for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def panel_rref_mod_p(a, p, block=128):
    """Reduced row echelon form over F_p, processing pivot rows in
    panels so the bulk elimination happens in matrix products.

    Returns (rows, pivot_cols): `rows` has a unit entry at its own
    pivot column and zeros at every other pivot column.

    Inside a panel nothing is reduced mod p but the current column and
    the pivot row, both into [0, p); rows at and below the pivot row are
    zero left of its column, so only the columns from it on change.
    Each pivot subtracts a product of two residues, so after t pivots an
    unreduced entry lies in [-t(p-1)^2, p-1], and every product against
    the finished rows is a residue minus a sum of at most m terms in
    [0, (p-1)^2], where m = min(rows, columns) bounds both t and the
    rank.  So every `_mod_p` here but the first sees |x| + p <=
    m(p-1)^2 + p = (p-1)(1 + m(p-1)) + 1, and the check below makes
    that at most 2^53; one reduction per panel suffices.  The entries of
    `a` itself must be integers with |x| + p <= 2^53: the route passes
    residues, and the tests small integers.
    """
    a = np.asarray(a, dtype=np.float64)
    m = min(a.shape)
    if (p - 1) * (1 + m * (p - 1)) >= 2**53:
        raise ValueError("float64 arithmetic mod p is not exact at this size")
    a = _mod_p(a, p)
    done = np.empty((0, a.shape[1]))
    pcols = []
    for lo in range(0, a.shape[0], block):
        panel = a[lo:lo + block].copy()
        if pcols:
            panel = _mod_p(panel - panel[:, pcols] @ done, p)
        new_cols = []
        r = 0
        j = 0
        while j < panel.shape[1] and r < panel.shape[0]:
            col = _mod_p(panel[:, j], p)
            panel[:, j] = col
            nz = np.flatnonzero(col[r:])
            if nz.size == 0:
                j += 1
                continue
            i = r + nz[0]
            if i != r:
                panel[[r, i]] = panel[[i, r]]
                col[[r, i]] = col[[i, r]]
            prow = _mod_p(_mod_p(panel[r, j:], p) * pow(int(col[r]), -1, p), p)
            panel[r, j:] = prow
            col[r] = 0
            panel[:, j:] -= np.outer(col, prow)
            new_cols.append(j)
            r += 1
            j += 1
        if r:
            new = _mod_p(panel[:r], p)
            if pcols:
                done = _mod_p(done - done[:, new_cols] @ new, p)
            done = np.vstack([done, new])
            pcols += new_cols
    # canonical form: rows ordered by pivot column
    order = np.argsort(pcols) if pcols else []
    return done[order], [pcols[i] for i in order]


def dense_plus_quotient(star, p):
    """`modp._plus_quotient` as the mod-p route took it before it read the
    star's pairs: the left null space over F_p of S - I, S the integer
    matrix `star` of the star involution on the cuspidal coordinates."""
    return _left_nullspace_mod_p((np.asarray(star) - np.eye(len(star), dtype=np.int64)) % p, p)


def cut_full_squaring(rows, cols, images, eigen, p):
    """`modp.cut` squaring q = restr - eigen up to q^(2^i), 2^i >= m,
    whether or not a power vanishes on the way, and taking the null
    space of the last power."""
    m = rows.shape[0]
    restr = images[:, cols]
    if ((restr @ rows - images) % p).any():
        raise ValueError("operator does not preserve the subspace mod p")
    q = (restr - eigen % p * np.eye(m)) % p
    e = 1
    while e < m:
        q = q @ q % p
        e *= 2
    ker, _ = _left_nullspace_mod_p(q, p)
    if ker.shape[0] == m:
        return rows, cols
    return _rref_mod_p(ker @ rows % p, p)


# the characters of the prime discriminants -4, 8 and -8, indexed by a mod 8
_CHI_MOD_8 = {-4: (0, 1, 0, -1, 0, 1, 0, -1), 8: (0, 1, 0, -1, 0, -1, 0, 1),
              -8: (0, 1, 0, 1, 0, -1, 0, -1)}


def chi_table(D):
    """chi_D(a) for 0 <= a < |D|, D fundamental, as an int8 array: the
    product of the characters of the prime discriminants dividing D, a
    Legendre table mod q for each odd prime q | D (the character of
    q* = +-q = 1 mod 4) and a table mod 8 for the 2-part -4, 8 or -8."""
    m = abs(D)
    a = np.arange(m, dtype=np.int64)
    chi = np.ones(m, dtype=np.int8)
    odd = m
    while odd % 2 == 0:
        odd //= 2
    for q in factorize(odd):
        legendre = np.full(q, -1, dtype=np.int8)
        legendre[0] = 0
        legendre[np.arange(1, q, dtype=np.int64) ** 2 % q] = 1
        chi *= legendre[a % q]
    two_part = D // (odd if odd % 4 == 1 else -odd)
    if two_part != 1:
        chi *= np.array(_CHI_MOD_8[two_part], dtype=np.int8)[a % 8]
    return chi


def full_theta_counts(D, N, inv):
    """Signed Manin-symbol counts of sum_a chi_D(a) {0, a/|D|}, an int64
    array over P^1(Z/NZ): the continued-fraction walks of every a < |D|
    with chi_D(a) != 0, run together as one lockstep Euclid loop (all
    lanes take their k-th step together, so the sign of q_{k-1} is
    shared).  Exact in int64 while max(N, |D|)^2 < 2^63."""
    m = abs(D)
    if max(N, m) ** 2 >= 2**63:
        raise ValueError("theta walk: N or |D| too large for int64 arithmetic")
    inv = np.array(inv, dtype=np.int64)
    chi = chi_table(D)
    x = np.flatnonzero(chi)
    w = chi[x]
    y = np.full(len(x), m, dtype=np.int64)
    qm2, qm1 = np.ones_like(y), np.zeros_like(y)
    # every walk opens with the {0, oo} symbol (0 : 1), index 0
    steps, weights = [np.zeros_like(y)], [w]
    sign = -1
    while len(x):
        q = x // y
        x, y = y, x - q * y
        qm2, qm1 = qm1, q * qm1 + qm2
        steps.append(p1_index(qm1 % N, sign * qm2 % N, N, inv))
        weights.append(w)
        sign = -sign
        live = y != 0
        x, y, qm1, qm2, w = x[live], y[live], qm1[live], qm2[live], w[live]
    idx, w = np.concatenate(steps), np.concatenate(weights)
    return (np.bincount(idx[w > 0], minlength=N + 1)
            - np.bincount(idx[w < 0], minlength=N + 1))


def convergent_theta_coords(space, Ds):
    """Cuspidal coordinates of the theta elements of the Ds, one row per
    D, by the convergent half walk: the continued-fraction walk of a/|D|
    for each 0 < a < |D|/2 with chi_D(a) != 0, weighted by chi_D(a),
    its symbols (q_k : (-1)^(k-1) q_{k-1}) counted as h, and
    theta = h + sign(D) iota(h).  The walks of 32 D at a time run as one
    lockstep Euclid loop.  Exact in int64 while max(N, |D|)^2 < 2^63."""
    N = space.N
    inv = np.array(space._inv, dtype=np.int64)
    iota = np.array(space._iota, dtype=np.int64)
    out = []
    for lo in range(0, len(Ds), 32):
        part = Ds[lo:lo + 32]
        chis = [chi_table(D)[:(abs(D) + 1) // 2] for D in part]
        a = [np.flatnonzero(chi) for chi in chis]
        row = np.repeat(np.arange(len(part)), [len(x) for x in a])
        w = np.concatenate([chi[x] for chi, x in zip(chis, a)])
        key = row * (N + 1)
        # each walk starts after its opening (0 : 1), q_0 = 0, (1 : 0)
        x, y = np.abs(np.array(part, dtype=np.int64))[row], np.concatenate(a)
        qm2, qm1 = np.zeros_like(y), np.ones_like(y)
        h = np.zeros(len(part) * (N + 1), dtype=np.int64)
        sign = 1
        while len(x):
            q = x // y
            x, y = y, x - q * y
            qm2, qm1 = qm1, q * qm1 + qm2
            idx = key + p1_index(qm1 % N, sign * qm2 % N, N, inv)
            h += (np.bincount(idx[w > 0], minlength=len(h))
                  - np.bincount(idx[w < 0], minlength=len(h)))
            sign = -sign
            live = y != 0
            x, y, qm1, qm2, key, w = x[live], y[live], qm1[live], qm2[live], key[live], w[live]
        h = h.reshape(len(part), N + 1)
        s = np.sign(np.array(part, dtype=np.int64))[:, None]
        out.append(mul_int64(h + s * h[:, iota], dense_reduction(space).array))
    rel = np.concatenate(out)
    if rel[:, 0].any():
        raise ValueError("theta chain has nonzero boundary")
    return rel[:, 1:]


def merel_matrices(ell):
    """Merel's family {(a,b;c,d): a > b >= 0, d > c >= 0, ad - bc = l}
    as an int64 array of rows (a, b, c, d).

    The boundary strips (b = 0 or c = 0, only possible for a | l) are
    written down directly; interior entries are found by scanning, for
    each (a, d), the divisors b of ad - l inside the window forced by
    c < d, vectorized over d and b.
    """
    out = [(1, 0, 0, ell), (ell, 0, 0, 1)]
    out += [(1, 0, c, ell) for c in range(1, ell)]
    out += [(ell, b, 0, 1) for b in range(1, ell)]
    chunks = [np.array(out, dtype=np.int64)]
    for a in range(2, ell + 1):
        dlo = -(-ell // a)
        dhi = ell + 1 - a
        if a * dlo == ell:
            dlo += 1  # ad = l handled by the boundary strips
        if dlo > dhi:
            continue
        d = np.arange(dlo, dhi + 1, dtype=np.int64)
        bc = a * d - ell
        blo = np.maximum((bc - 1) // (d - 1) + 1, 1)
        counts = np.maximum(a - blo, 0)
        total = int(counts.sum())
        if not total:
            continue
        drep = np.repeat(d, counts)
        bcrep = np.repeat(bc, counts)
        offs = np.repeat(np.cumsum(counts) - counts, counts)
        b = np.arange(total, dtype=np.int64) - offs + np.repeat(blo, counts)
        ok = bcrep % b == 0
        b, drep, bcrep = b[ok], drep[ok], bcrep[ok]
        chunks.append(np.stack([np.full_like(b, a), b, bcrep // b, drep], axis=1))
    arr = np.concatenate(chunks)
    if (arr[:, 0] * arr[:, 3] - arr[:, 1] * arr[:, 2] != ell).any():
        raise ValueError("Merel family has a matrix of the wrong determinant")
    return arr


def merel_counts(symbols, ell, N, inv):
    """`modsym.hecke_counts` through Merel's family: one np.add.at per
    matrix over the symbols, the images (0:0) dropped (only l = N makes
    them); the loop `modsym.hecke` ran before the shared action."""
    cs, ds = np.array(symbols, dtype=np.int64).T
    inv = np.array(inv, dtype=np.int64)
    counts = np.zeros((len(cs), N + 1), dtype=np.int64)
    rows = np.arange(len(cs))
    for a, b, c, d in merel_matrices(ell):
        u = (cs * a + ds * c) % N
        v = (cs * b + ds * d) % N
        keep = (u != 0) | (v != 0)
        np.add.at(counts, (rows[keep], p1_index(u, v, N, inv)[keep]), 1)
    return counts


def inverse_family_counts(symbols, fam, N, inv):
    """`modsym.family_counts` as it was before the discrete-log index:
    each image reduced by `%` from the raw entries and indexed
    1 + v u^-1 mod N through the inverses mod N (`p1_index`), N + 1
    matrices at a time.  Raises on the same bound and on an image
    (0 : 0)."""
    if len(fam) and 2 * N * int(np.abs(fam).max()) >= 2**63:
        raise ValueError("family entries too large for int64 symbol action")
    cs, ds = (np.array(x, dtype=np.int64)[:, None] for x in zip(*symbols))
    inv = np.array(inv, dtype=np.int64)
    base = np.arange(len(cs))[:, None] * (N + 1)
    counts = np.zeros(len(cs) * (N + 1), dtype=np.int64)
    for lo in range(0, len(fam), N + 1):
        a, b, c, d = fam[lo:lo + N + 1].T
        u = (cs * a + ds * c) % N
        v = (cs * b + ds * d) % N
        if not (u | v).all():
            raise ValueError("a matrix of the family sends a symbol to (0 : 0)")
        counts += np.bincount((p1_index(u, v, N, inv) + base).ravel(), minlength=counts.size)
    return counts.reshape(-1, N + 1)


def merel_hecke(space, ell):
    """T_ell (U_N at ell = N) on the cuspidal lattice through Merel's
    determinant-ell family, as an IntMatrix: `modsym.hecke` with the
    counts taken from `merel_counts`."""
    symbols = [space.generators[j] for j in space.coord_symbols[1:]]
    return _counts_to_cuspidal(space, merel_counts(symbols, ell, space.N, space._inv))


def symbol_boundary(N, c, d):
    """The boundary [a/c] - [b/d] of the Manin symbol (c:d), the path
    {b/d, a/c} of a lift (a, b; c, d), on the cusp classes ([0], [oo]):
    at prime level p/q lies over oo iff N | q."""
    def cusp(q):
        return (0, 1) if q % N == 0 else (1, 0)
    return tuple(x - y for x, y in zip(cusp(c), cusp(d)))


def saturated_cuspidal_basis(space):
    """M inside M_rel as the saturated left kernel of the boundary map on
    the coordinate symbols, the route `modsym` took before it read M off
    the coordinates 1 .. 2g."""
    bd = IntMatrix([symbol_boundary(space.N, *space.generators[i]) for i in space.coord_symbols])
    return IntMatrix(left_kernel(bd))


def shuffled_tree_space(N, seed=0):
    """The space at N on a second spanning tree: `tree_reduction` grown
    from the relation triples in a shuffled order, which is another
    M_rel basis wherever the tau-orbit graph has more than one tree."""
    pres = presentation(N)
    order = list(range(len(pres.relations)))
    random.Random(seed).shuffle(order)
    pres = replace(pres, relations=pres.relations[order])
    return _space_from_tree(pres, *tree_reduction(pres))


@dataclass(frozen=True)
class QuadUnit:
    """Fundamental unit u = (x + y*sqrt(D))/2 > 1 of O_K."""

    D: int
    x: int
    y: int
    norm: int
    period_parity: int

    def __post_init__(self):
        if self.x * self.x - self.D * self.y * self.y != 4 * self.norm:
            raise ValueError("unit does not satisfy x^2 - D y^2 = +-4")
        if (self.norm == -1) != (self.period_parity == 1):
            raise ValueError("norm disagrees with period parity")


def _pqa_cycle(D):
    """Continued fraction of (D mod 2 + sqrt(D))/2 by the PQa recurrence.

    Returns (m0, states, partial_quotients, j0, period) where states[i]
    is (P_i, Q_i) and the expansion is purely periodic from index j0 on.
    """
    m0 = isqrt(D)
    if m0 * m0 == D:
        raise ValueError("discriminant must not be a square")
    P, Q = D % 2, 2
    seen = {}
    states = []
    quots = []
    i = 0
    while (P, Q) not in seen:
        seen[P, Q] = i
        states.append((P, Q))
        a = (P + m0) // Q if Q > 0 else (P + m0 + 1) // Q
        quots.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        i += 1
    j0 = seen[P, Q]
    return m0, states, quots, j0, i - j0


def fundamental_unit(D):
    """Fundamental unit of O_K for real quadratic K, from one period of
    the continued fraction of (D mod 2 + sqrt(D))/2."""
    if not is_fundamental(D) or D < 0:
        raise ValueError("need a positive fundamental discriminant")
    m0, states, quots, j0, period = _pqa_cycle(D)
    # bottom row of the product of [[a,1],[1,0]] over one period
    r, s = 0, 1
    for i in range(j0, j0 + period):
        r, s = r * quots[i] + s, r
    P0, Q0 = states[j0]
    # the automorphy factor r*alpha + s is the unit; clear Q0 denominators
    ny, nx = 2 * r, 2 * r * P0 + 2 * s * Q0
    if ny % Q0 or nx % Q0:
        raise ValueError("unit coordinates are not integral")
    x, y = abs(nx // Q0), abs(ny // Q0)
    return QuadUnit(D, x, y, -1 if period % 2 else 1, period % 2)


def reduced_count_neg(D):
    """The number of reduced forms of discriminant D < 0, each (a, b, c)
    with |b| <= a <= c and b >= 0 when |b| = a or a = c; all forms are
    primitive because D is fundamental."""
    count = 0
    b = abs(D) % 2
    while b * b <= abs(D) // 3:
        m = (b * b - D) // 4
        for a in divisors(m):
            if a * a > m:
                break
            if a < max(b, 1):
                continue
            c = m // a
            count += 1 if (b == 0 or b == a or a == c) else 2
        b += 2
    return count


def reduced_forms_pos(D):
    """The reduced forms (a, b, c) of discriminant D > 0."""
    m0 = isqrt(D)
    forms = []
    b = D % 2 if D % 2 else 2
    while b <= m0:
        m = (D - b * b) // 4
        for d in divisors(m):
            if (2 * d + b) ** 2 > D and (2 * d < b or (2 * d - b) ** 2 < D):
                forms.append((d, b, -(m // d)))
                forms.append((-d, b, m // d))
        b += 2
    return forms


def class_number_per_d(D):
    """h(D) from the reduced forms: their count for D < 0; for D > 0 the
    number of rho-cycles, halved when the fundamental unit has norm +1."""
    if not is_fundamental(D):
        raise ValueError("discriminant is not fundamental")
    if D < 0:
        return reduced_count_neg(D)
    m0 = isqrt(D)
    todo = set(reduced_forms_pos(D))
    cycles = 0
    while todo:
        start = next(iter(todo))
        cycles += 1
        f = start
        while True:
            todo.discard(f)
            f, _ = _rho(*f, m0, D)
            if f == start:
                break
    if fundamental_unit(D).norm == -1:
        return cycles
    if cycles % 2:  # narrow-to-wide index is 2 when N(u) = +1
        raise AssertionError("odd number of form cycles for a unit of norm +1")
    return cycles // 2


def unit_criterion(D, N, p):
    """True iff (u mod prime_1)^h is a p-th power in F_N^* (equivalently
    at prime_2; equivalently h * log_1(u) = 0 in Z/p)."""
    if not validate_discriminant(D, N, p, want_split=True):
        raise ValueError("invalid discriminant for the split case")
    h = class_number_per_d(D)
    _, res1, res2 = unit_residues(D, N)
    e = h * (N - 1) // p
    out = pow(res1, e, N) == 1
    if out != (pow(res2, e, N) == 1):
        raise ValueError("unit criterion depends on the choice of prime above N")
    return out


def pic_zn_trivial(D, N, p):
    """True iff the p-part of Cl(K) dies in Cl(O_K[1/N]), i.e. is
    generated by the class of a prime above N: v_p(s) = v_p(h)."""
    h = class_number_per_d(D)
    if h % p:
        return True
    s, _ = split_prime_data(D, N, p, h=h)
    return vp(h, p) == vp(s, p)


def bsgs_dlog(N, g, x):
    """The discrete log of x mod the prime N to the base g, a primitive
    root, in [0, N - 1), by baby-step giant-step over the full unit
    group."""
    x %= N
    if x == 0:
        raise ValueError("log of zero residue")
    m = isqrt(N - 1) + 1
    baby = {}
    acc = 1
    for j in range(m):
        baby.setdefault(acc, j)
        acc = acc * g % N
    giant = pow(g, -m, N)
    y = x
    for i in range(m):
        j = baby.get(y)
        if j is not None:
            return (i * m + j) % (N - 1)
        y = y * giant % N
    raise ValueError("discrete log not found (modulus not prime?)")


def space_digest(space, rows=1024):
    """sha256 of the space as a cache file keeps it: the quotient map as
    the dense reduction, `rows` rows at a time through `CSR.dense`, then
    the coordinate symbols, `star`, `plus_basis` and `minus_basis`."""
    h = hashlib.sha256()
    qmap = space.qmap
    nrows = len(qmap.indptr) - 1
    h.update(f"reduction:{nrows}x{qmap.ncols};".encode())
    for lo in range(0, nrows, rows):
        block = qmap.dense(np.arange(lo, min(lo + rows, nrows)))
        h.update(block.astype("<i8").tobytes())
    for name in ("coord_symbols", "star", "plus_basis", "minus_basis"):
        m = getattr(space, name)
        if name == "coord_symbols":
            m = IntMatrix([m])
        h.update(f"{name}:{m.rows}x{m.cols};".encode())
        h.update(m.array.astype("<i8").tobytes())
    return h.hexdigest()
