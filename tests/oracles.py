"""Slow reference routes kept as differential oracles for the tests.

Both routes to M_rel once eliminated the relation matrix densely; the
package now reads M_rel off a spanning tree of the tau-orbit graph
(`modsym.tree_reduction`).  The eliminations live on here: the exact
route's Smith normal form with the inverse of its right transform, and
the mod-p route's F_p row reduction.  `gauss_jordan_mod_p` is the plain
pure-Python elimination that the panelled float64 kernel is checked
against.  `full_theta_counts` is the theta walk over every residue, the
reference for the half walk of `modsym.theta_elements`.  `merel_hecke`
is T_l through Merel's family at every l, the route `modsym.hecke`
took before Cremona's Heilbronn matrices replaced it at l != N.
`class_number_per_d` is the class number of one discriminant from its
reduced forms, enumerated by factoring each (b^2 - D)/4 and walked
cycle by cycle: the reference for the batched `quadfield.class_numbers`.
`fundamental_unit` writes the unit down, where
`quadfield.unit_residues` only tracks it modulo the primes above N.
`unit_criterion` and `pic_zn_trivial` recompute, for one D, what
`quadfield.field_profile` derives as its `criterion` and
`pic_zn_trivial` fields.

`hnf`, `solve_left` and `unimodular_inverse` are the pure-Python
Hermite-form routes that the package's int64 left inverses and modular
Hermite forms replaced, and `mat_mul` is the pure-Python product that
int64 products are checked against.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from eistheta.exact_linalg import (
    IntMatrix,
    _hnf_inplace,
    as_int64,
    divisors,
    hnf_with_transform,
    is_prime,
    vp,
    mul_int64,
    snf,
)
from eistheta.modp import _rref_mod_p
from eistheta.modsym import (
    _chi_table,
    family_counts,
    merel_matrices,
    p1_index,
    solve_by_inverse,
)
from eistheta.quadfield import (
    _pqa_cycle,
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
    chi = _chi_table(D)
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


def merel_hecke(space, ell):
    """T_ell (U_N at ell = N) on the cuspidal lattice through Merel's
    determinant-ell family, as an IntMatrix: `modsym.hecke` with the
    family fixed to `merel_matrices`."""
    support, sec_s = space.section_support
    counts = family_counts([space.generators[j] for j in support],
                           merel_matrices(ell), space.N, space._inv)
    t_rel = mul_int64(sec_s, mul_int64(counts, space.reduction.array))
    cusp = space.cuspidal_basis.array
    t_m = solve_by_inverse(cusp, space.cuspidal_inverse.array, mul_int64(cusp, t_rel))
    return IntMatrix(t_m)


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
