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
"""

import numpy as np

from eistheta.exact_linalg import (
    IntMatrix,
    as_int64,
    is_prime,
    mul_int64,
    snf,
    unimodular_inverse,
)
from eistheta.modp import _rref_mod_p
from eistheta.modsym import (
    _chi_table,
    family_counts,
    merel_matrices,
    p1_index,
    solve_by_inverse,
)

# every admissible (N, p) with N < 400 and p in {5, 7, 11, 13}: 36 pairs,
# 21 of them with N < 200
ADMISSIBLE = [
    (N, p)
    for p in (5, 7, 11, 13)
    for N in range(5, 400)
    if is_prime(N) and (N - 1) % p == 0 and ((N - 1) // p) % p
]


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
    sd = snf(IntMatrix.from_rows(relation_matrix(pres).tolist()))
    free = [j for j in range(nvars) if j >= len(sd.diag) or sd.diag[j] == 0]
    vinv = unimodular_inverse(sd.right)
    red_vars = [[sd.right.entries[v][j] for j in free] for v in range(nvars)]
    reduction = [[s * x for x in red_vars[v]] for v, s in zip(pres.var_of, pres.sign_of)]
    section = [[0] * n for _ in free]
    for jj, j in enumerate(free):
        for v in range(nvars):
            section[jj][pres.reps[v]] = vinv.entries[j][v]
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
    t_rel = mul_int64(sec_s, mul_int64(counts, space.int64("reduction")))
    cusp = space.int64("cuspidal_basis")
    t_m = solve_by_inverse(cusp, space.int64("cuspidal_inverse"), mul_int64(cusp, t_rel))
    return IntMatrix.from_rows(t_m.tolist())
