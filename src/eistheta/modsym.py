"""Weight-2 modular symbols for Gamma_0(N), N prime, over Z.

The presentation is the classical one on Manin symbols indexed by
P^1(Z/NZ): generators x_(c:d) subject to x + xS = 0 and
x + xT + xT^2 = 0, with S = [[0,-1],[1,0]], T = [[0,-1],[1,-1]] acting
on the right.  `presentation(N)` folds the two-term relations away
(they pair up symbols, possibly killing self-paired ones into torsion)
and lists the remaining three-term relations; the exact route here and
the mod-p route in `modp` both start from it.

Those relations are the signed incidence matrix of a graph.  Its
vertices are the tau-orbit rows (the triangles of the Farey
tessellation mod Gamma_0(N)) and its edges the folded variables: the
pair {x, xS} has x in one tau-orbit with sign +1 and xS in one with
sign -1.  An S-fixed variable is a half-edge, which its 2y = 0 row
kills over Q and mod p >= 5; a tau-fixed orbit is a leaf, its row a
single symbol; an edge with both ends in one orbit is a loop.  The
free quotient M_rel, of rank 2g + 1, is then read off a spanning tree
with no elimination (`tree_reduction`): the non-tree edges are its
basis, and a tree edge is the signed sum of the non-tree edges across
the cut it makes, the sum of the vertex rows on one side.  Every
reduction entry is -1, 0 or 1, and the section lifts each basis vector
to a single symbol.  All reductions and sections are integral
matrices, so every later computation (boundary, star involution,
Hecke action, theta elements) is exact.

A Hecke operator acts on Manin symbols through a family of integer
matrices of determinant l, each sending the symbol (c:d) to
(c:d)(a,b;c',d') = (ca + dc' : cb + dd').  For l prime to N, T_l uses
Cremona's Heilbronn matrices (`cremona_matrices`; Cremona, Algorithms
for Modular Elliptic Curves, 2nd ed., 1997, sec. 2.4): (1, 0; 0, l) and
the matrices of the nearest-integer continued fractions of -l/r,
|r| <= l/2, halves rounded away from zero, about a third as many as
Merel's.  Cremona's proof covers only l prime to N, so U_N (l = N)
keeps Merel's family {(a,b;c,d): a > b >= 0, d > c >= 0, ad - bc = l}
(`merel_matrices`; Merel, Universal Fourier expansions of modular
forms, LNM 1585, 1994), with the symbols that die on P^1 (image (0:0))
dropped.  `hecke_family` makes that choice for both routes;
`family_counts` is the action, shared with the mod-p route, and `hecke`
applies it only to the symbols in the support of the section, the only
ones the operator on M_rel reads.

The fixed matrices of a space (reduction, section, boundary, cuspidal
and signed bases, and integral left inverses of the bases) are
`IntMatrix`es, each stored once as a read-only array, int64 while its
entries fit.  Products with them run in int64 under `mul_int64`'s
bound, which raises rather than overflow.
A solve x @ B = v is v @ L for a left inverse L of B, proven by
multiplying back (`solve_by_inverse`); `hecke`, `restrict_to_sign` and
the theta walk solve that way.

The theta element of D is the chain sum_a chi_D(a) {0, a/m}, m = |D|,
and only the a < m/2 are walked (the half walk).  Proof: pair a > m/2
with a' = m - a < m/2.  chi_D(a) = chi_D(-1) chi_D(a') = s chi_D(a') with
s = sign(D).  In M_rel, where Gamma_0(N) acts trivially,
{0, a/m} = {0, 1} + {1, 1 - a'/m} = {0, 1} + T{0, -a'/m}
= {0, 1} + iota{0, a'/m}, with T = [[1, 1], [0, 1]] in Gamma_0(N) and
iota: x -> -x, conjugation by diag(-1, 1), which sends the symbol
(c:d) = {b/d, a/c} to (-c:d): the permutation the star involution
reads.  So theta = h + s (iota(h) + sigma {0, 1}), with h the signed
symbol counts of the walks of the a < m/2 and sigma the sum of their
chi_D(a).  At even m (so m >= 4) the middle a = m/2 has chi_D = 0,
since gcd(m/2, m) > 1.  The sigma term is zero: {0, 1} is the symbol
pair (0:1) + (1:0) = x + xS, which the two-term relation kills.  So is
the same pair that opens every walk of a/m < 1, so the walks are not
made to count it.  chi_D comes from the characters of the prime
discriminants dividing D; the continued-fraction walks of many D run
together in one lockstep Euclid loop, each step's symbols
(q_k : +-q_{k-1}) counted by one `bincount` keyed by row and symbol
(`theta_elements`).  The folded counts go through the int64 reduction
to M_rel, and into the cuspidal (and later the signed) basis by
`solve_by_inverse`.  `path_to_chain` is the one-path form.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .exact_linalg import (
    IntMatrix,
    as_int64,
    factorize,
    is_prime,
    kronecker,
    left_inverse,
    left_kernel,
    mul_int64,
)
from .quadfield import is_fundamental

_S = ((0, -1), (1, 0))
_T = ((0, -1), (1, -1))


def _act(c, d, g):
    return c * g[0][0] + d * g[1][0], c * g[0][1] + d * g[1][1]


def p1_index(u, v, N, inv):
    """P^1(Z/NZ) index of (u : v) for u, v already reduced mod N: (0 : v)
    is 0 and (u : v) = (1 : v/u) is 1 + v/u, with `inv` the inverses
    mod N.  Works on ints and, elementwise, on int64 arrays (with `inv`
    an array); the degenerate (0 : 0) also lands on 0."""
    return (1 + v * inv[u] % N) * (u != 0)


def check_level(N):
    if not is_prime(N) or N < 5:
        raise ValueError("level must be a prime >= 5")


def check_pair(N, p):
    """The standing hypotheses on (N, p): prime level N >= 5, prime
    p >= 5, and p dividing N - 1 exactly once."""
    check_level(N)
    if not is_prime(p) or p < 5:
        raise ValueError("need a prime p >= 5")
    if (N - 1) % p or ((N - 1) // p) % p == 0:
        raise ValueError("hypothesis p || N-1 violated")


def genus(N):
    """Genus of X_0(N) at prime level N >= 5: (N + 1 - 3 nu_2 - 4 nu_3) / 12,
    with nu_2 = 1 + (-4/N) and nu_3 = 1 + (-3/N) elliptic points."""
    check_level(N)
    nu2 = 1 + kronecker(-4, N)
    nu3 = 1 + kronecker(-3, N)
    return (N + 1 - 3 * nu2 - 4 * nu3) // 12


@dataclass(frozen=True)
class Presentation:
    """Manin-symbol presentation at prime level N (Cremona, ch. 2).

    Generators are indexed by P^1(Z/NZ).  The two-term relations
    x + xS = 0 are folded away: generator i equals sign_of[i] times the
    folded variable var_of[i], whose representative generator is
    reps[var_of[i]]; a self-paired symbol leaves a 2y = 0 relation on
    its variable (listed in `sfixed`).  What remains is the relation
    matrix in folded variables, nrel rows of sparse (row, var, coeff)
    triples: one row per tau-orbit, then one row per `sfixed` entry.
    `boundary` gives each generator's boundary as its coefficients on
    the two cusp classes ([0], [oo]).
    """

    N: int
    generators: tuple  # the N+1 points (c, d) of P^1(Z/NZ)
    inv: tuple  # inverses mod N (index 0 unused)
    sigma: tuple  # index permutations (c:d) -> (c:d)S, (c:d)T, (-c:d)
    tau: tuple
    iota: tuple
    var_of: tuple
    sign_of: tuple
    reps: tuple
    sfixed: tuple
    relations: tuple
    nrel: int
    boundary: tuple


def presentation(N):
    """The folded Manin-symbol presentation at prime level N >= 5."""
    check_level(N)
    gens = ((0, 1),) + tuple((1, y) for y in range(N))
    n = N + 1
    inv = (0,) + tuple(pow(u, -1, N) for u in range(1, N))
    cs, ds = np.array(gens, dtype=np.int64).T
    invarr = np.array(inv, dtype=np.int64)

    def perm(u, v):
        return tuple(p1_index(u % N, v % N, N, invarr).tolist())

    sigma = perm(*_act(cs, ds, _S))
    tau = perm(*_act(cs, ds, _T))
    iota = perm(-cs, ds)

    # fold the two-term relations: x_j = -x_i for j = sigma(i) != i
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

    # three-term relations, one row per tau-orbit, in folded variables
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

    # symbol (c:d) is the path {b/d, a/c} for any SL2 lift, and at prime
    # level the cusp p/q sits at oo iff N | q, else at 0, so only the
    # bottom row (c, d) matters; rows keyed by (N | c, N | d) are shared
    # so the table costs one reference per generator
    rows = {(False, False): (0, 0), (True, False): (-1, 1),
            (False, True): (1, -1), (True, True): (0, 0)}
    boundary = tuple(rows[c % N == 0, d % N == 0] for c, d in gens)
    return Presentation(
        N=N, generators=gens, inv=inv, sigma=sigma, tau=tau, iota=iota,
        var_of=tuple(var_of), sign_of=tuple(sign_of), reps=tuple(reps),
        sfixed=tuple(sfixed), relations=tuple(relations), nrel=nrel,
        boundary=boundary,
    )


def tree_reduction(pres):
    """(free, red_vars): M_rel read off a spanning tree of the tau-orbit
    graph (module docstring), grown breadth-first from row 0 in relation
    order, so the output is deterministic.  `free` lists the 2g + 1
    non-tree variables in increasing order; red_vars, int64 nvars x
    (2g + 1), maps each folded variable to M_rel: a unit row at a free
    one, zero at an S-fixed one, and at the tree edge into row u, minus
    its coefficient there times the sum of the rows of u's subtree on
    the free columns.  Raises ValueError if the relations are not a
    connected graph with 2g + 1 free edges.
    """
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


@dataclass(frozen=True)
class ModularSymbolSpace:
    """Immutable exact model of H_1(X_0(N), cusps; Z) and its pieces.

    Matrix conventions: everything acts on row vectors from the right.
    `reduction` maps Manin-symbol coordinates to M_rel coordinates,
    `relation_kernel_basis` (the section) lifts M_rel back to symbols,
    and reduction o section = identity.  `cuspidal_basis` rows span
    M = ker(boundary) inside M_rel; `star`, `plus_basis`, `minus_basis`
    live in cuspidal-basis coordinates.  The symbol indexing
    (`generators`, `_inv`, `_iota`) is that of `presentation(N)`.
    `build_space(N)` makes every field a deterministic function of N, so
    a cache file stores N and a digest of the matrices, not the matrices
    (`harness.save_context`).
    """

    N: int
    relation_kernel_basis: IntMatrix  # section: M_rel -> symbols
    reduction: IntMatrix  # symbols -> M_rel
    boundary: IntMatrix  # M_rel -> Z^2 (cusp classes [0], [oo])
    cuspidal_basis: IntMatrix  # rows: basis of M in M_rel coordinates
    star: IntMatrix  # involution on M, cuspidal-basis coordinates
    plus_basis: IntMatrix  # rows: basis of M^+ in cuspidal coordinates
    minus_basis: IntMatrix
    genus: int
    generators: tuple  # the N+1 points (c, d) of P^1(Z/NZ)
    _inv: tuple  # inverses mod N (index 0 unused)
    _iota: tuple  # index permutation of (c:d) -> (-c:d)

    def index(self, u, v):
        """P^1(Z/NZ) index of (u : v); None for the degenerate (0:0)."""
        u %= self.N
        v %= self.N
        return p1_index(u, v, self.N, self._inv) if u or v else None

    # integral left inverses of the bases, derived on first use and never
    # written to a cache file (see `solve_by_inverse`)
    @cached_property
    def cuspidal_inverse(self):
        return left_inverse(self.cuspidal_basis)

    @cached_property
    def plus_inverse(self):
        return left_inverse(self.plus_basis)

    @cached_property
    def minus_inverse(self):
        return left_inverse(self.minus_basis)

    def signed(self, sign):
        """The arrays of the basis of M^+ (sign > 0) or M^- and of its
        left inverse."""
        if sign > 0:
            return self.plus_basis.array, self.plus_inverse.array
        return self.minus_basis.array, self.minus_inverse.array

    @cached_property
    def section_support(self):
        """(S, section[:, S]): the symbols the section reads, and its
        columns there as a read-only int64 array; the section vanishes on
        every other symbol."""
        sec = self.relation_kernel_basis.array
        support = np.flatnonzero(sec.any(axis=0))
        sec_s = sec[:, support]
        sec_s.flags.writeable = False
        return support, sec_s


@dataclass(frozen=True)
class HeckeOp:
    """A Hecke operator restricted to the cuspidal lattice M (index N
    means U_N; anything else is T_index for index prime to N)."""

    index: int
    matrix: IntMatrix


@dataclass(frozen=True)
class ThetaElement:
    """Theta element of a fundamental discriminant: the chain
    sum_a chi_D(a) {0, a/|D|} written in the cuspidal basis."""

    D: int
    coords: tuple
    sign: int


def build_space(N):
    """Construct the full modular-symbol space at prime level N >= 5, on
    the M_rel basis of `tree_reduction`: the section lifts each basis
    vector to the representative symbol of its free variable."""
    pres = presentation(N)
    free, red_vars = tree_reduction(pres)
    red = red_vars[list(pres.var_of)] * np.array(pres.sign_of, dtype=np.int64)[:, None]
    sec = np.zeros((len(free), N + 1), dtype=np.int64)
    sec[np.arange(len(free)), [pres.reps[v] for v in free]] = 1
    return _space_from_section(pres, sec, red)


def _space_from_section(pres, sec, red):
    """The space on the M_rel basis given by int64 arrays sec (section,
    M_rel -> symbols) and red (reduction, symbols -> M_rel), checked to
    satisfy sec @ red = I."""
    k = sec.shape[0]
    if not np.array_equal(mul_int64(sec, red), np.eye(k)):
        raise ValueError("section is not a right inverse of the reduction")

    boundary = IntMatrix(mul_int64(sec, as_int64(pres.boundary)))
    cuspidal = IntMatrix(left_kernel(boundary))
    cusp_inv = left_inverse(cuspidal)
    cusp = cuspidal.array
    star_rel = mul_int64(sec, red[list(pres.iota)])
    star_m = IntMatrix(solve_by_inverse(cusp, cusp_inv.array, mul_int64(cusp, star_rel)))
    plus, minus = star_decompose(star_m)
    g = cuspidal.rows // 2
    if cuspidal.rows != 2 * g or k != 2 * g + 1:
        raise ValueError("relative homology rank is not 2g + 1")
    if plus.rows != g or minus.rows != g:
        raise ValueError("star eigenlattices do not both have rank g")

    space = ModularSymbolSpace(
        N=pres.N,
        relation_kernel_basis=IntMatrix(sec),
        reduction=IntMatrix(red),
        boundary=boundary,
        cuspidal_basis=cuspidal,
        star=star_m,
        plus_basis=plus,
        minus_basis=minus,
        genus=g,
        generators=pres.generators,
        _inv=pres.inv,
        _iota=pres.iota,
    )
    # seed the cached property, so the first hecke or theta does not redo the HNF
    space.__dict__["cuspidal_inverse"] = cusp_inv
    return space


def star_decompose(star):
    """Saturated eigenlattices (M^+, M^-) of the star involution, as
    rows in the coordinates the matrix `star` acts on."""
    ident = np.eye(star.rows, dtype=np.int64)
    return tuple(IntMatrix(left_kernel(IntMatrix(star.array + s * ident))) for s in (-1, 1))


# ---------------------------------------------------------------------------
# the determinant-l families of Merel and Cremona

# both families, Merel's keyed by l and Cremona's by ("cremona", l)
_MEREL_CACHE = {}


def merel_matrices(ell):
    """Merel's family {(a,b;c,d): a > b >= 0, d > c >= 0, ad - bc = l}
    as an int64 array of rows (a, b, c, d).

    The boundary strips (b = 0 or c = 0, only possible for a | l) are
    written down directly; interior entries are found by scanning, for
    each (a, d), the divisors b of ad - l inside the window forced by
    c < d — vectorized because the scan is quadratic-ish in l.
    """
    if ell in _MEREL_CACHE:
        return _MEREL_CACHE[ell]
    out = [(1, 0, 0, ell), (ell, 0, 0, 1)]
    out += [(1, 0, c, ell) for c in range(1, ell)]
    out += [(ell, b, 0, 1) for b in range(1, ell)]
    if ell > 1:
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
            blo = (bc - 1) // (d - 1) + 1
            np.maximum(blo, 1, out=blo)
            counts = a - blo
            counts[counts < 0] = 0
            total = int(counts.sum())
            if not total:
                continue
            drep = np.repeat(d, counts)
            bcrep = np.repeat(bc, counts)
            offs = np.repeat(np.cumsum(counts) - counts, counts)
            b = np.arange(total, dtype=np.int64) - offs + np.repeat(blo, counts)
            ok = bcrep % b == 0
            b, drep, bcrep = b[ok], drep[ok], bcrep[ok]
            rows = np.empty((len(b), 4), dtype=np.int64)
            rows[:, 0] = a
            rows[:, 1] = b
            rows[:, 2] = bcrep // b
            rows[:, 3] = drep
            chunks.append(rows)
        arr = np.concatenate(chunks)
    else:
        arr = np.array(out, dtype=np.int64)
    if (arr[:, 0] * arr[:, 3] - arr[:, 1] * arr[:, 2] != ell).any():
        raise ValueError("Merel family has a matrix of the wrong determinant")
    _MEREL_CACHE[ell] = arr
    return arr


def cremona_matrices(ell):
    """Cremona's Heilbronn matrices of determinant l, for a prime l, as
    an int64 array of rows (a, b, c, d), memoized in _MEREL_CACHE under
    ("cremona", l).

    The family is (1, 0; 0, l) and, for each r with |r| <= l // 2, the
    matrices met by the nearest-integer continued fraction of -l/r,
    started at (l, -r; 0, 1): with (a, b) = (-l, r), each step takes
    q = round(a / b), halves rounded away from zero, sets
    (a, b) = (-b, a - qb) and (x1, x2; y1, y2) =
    (x2, q x2 - x1; y2, q y2 - y1), until b = 0.  Each step keeps the
    determinant.  For l = 2 the family is Merel's four matrices.
    """
    key = ("cremona", ell)
    if key in _MEREL_CACHE:
        return _MEREL_CACHE[key]
    if ell == 2:
        out = [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    else:
        out = [(1, 0, 0, ell)]
        for r in range(-(ell // 2), ell // 2 + 1):
            x1, x2, y1, y2 = ell, -r, 0, 1
            a, b = -ell, r
            out.append((x1, x2, y1, y2))
            while b:
                q, rem = divmod(2 * a + b, 2 * b)  # floor(a / b + 1/2)
                if not rem and q <= 0:
                    q -= 1  # a / b = q - 1/2 < 0 rounds down, away from zero
                a, b = -b, a - b * q
                x1, x2 = x2, q * x2 - x1
                y1, y2 = y2, q * y2 - y1
                out.append((x1, x2, y1, y2))
    arr = np.array(out, dtype=np.int64)
    if (arr[:, 0] * arr[:, 3] - arr[:, 1] * arr[:, 2] != ell).any():
        raise ValueError("Cremona family has a matrix of the wrong determinant")
    _MEREL_CACHE[key] = arr
    return arr


def hecke_family(ell, N):
    """The determinant-l family that computes T_l (l != N) or U_N
    (l = N) on the Manin symbols of level N: Cremona's for l != N,
    Merel's for l = N."""
    return merel_matrices(ell) if ell == N else cremona_matrices(ell)


def family_counts(symbols, fam, N, inv):
    """counts[i, t]: how many matrices of the family `fam` send the
    symbol symbols[i] = (c, d) to symbol t of P^1(Z/NZ), as an int64
    array with N + 1 columns (`inv` the inverses mod N).  Images
    (0 : 0), which only ell = N produces, die in a dropped sink column.
    The family is walked N + 1 matrices at a time, so no index array
    outgrows the counts it fills.  Raises ValueError unless
    2 N max|entry| < 2^63, which keeps c a + d c' exact in int64 for
    0 <= c, d < N."""
    if len(fam) and 2 * N * int(np.abs(fam).max()) >= 2**63:
        raise ValueError("family entries too large for int64 symbol action")
    cs, ds = (np.array(x, dtype=np.int64)[:, None] for x in zip(*symbols))
    inv = np.array(inv, dtype=np.int64)
    n = N + 2  # the N + 1 symbols, then the sink
    base = np.arange(len(cs))[:, None] * n
    counts = np.zeros(len(cs) * n, dtype=np.int64)
    for lo in range(0, len(fam), N + 1):
        a, b, c, d = fam[lo:lo + N + 1].T
        u = (cs * a + ds * c) % N
        v = (cs * b + ds * d) % N
        tgt = p1_index(u, v, N, inv)
        tgt[(u | v) == 0] = N + 1
        tgt += base
        counts += np.bincount(tgt.ravel(), minlength=counts.size)
    return counts.reshape(-1, n)[:, :N + 1]


def solve_by_inverse(B, L, v):
    """The x with x @ B = v, for int64 arrays, read off as v @ L through
    a left inverse L of B (B @ L = I) and proven by multiplying back;
    raises ValueError if some row of v is outside the row lattice of B."""
    x = mul_int64(v, L)
    if not np.array_equal(mul_int64(x, B), v):
        raise ValueError("vector is not in the row span")
    return x


def hecke(space, ell):
    """T_ell for ell prime to N, or U_N for ell = N, on the cuspidal
    lattice, computed on Manin symbols through `hecke_family`: Cremona's
    Heilbronn matrices for ell != N (rounding halves away from zero),
    Merel's family for U_N, which Cremona's proof does not cover (module
    docstring).  Only the symbols S in the support of the section are
    acted on: the operator on M_rel is section[:, S] @ counts @
    reduction, and on M it is read off through the cuspidal basis's left
    inverse, all in int64 under `mul_int64`'s bound."""
    if not is_prime(ell):
        raise ValueError("Hecke index must be prime")
    support, sec_s = space.section_support
    counts = family_counts([space.generators[j] for j in support],
                           hecke_family(ell, space.N), space.N, space._inv)
    t_rel = mul_int64(sec_s, mul_int64(counts, space.reduction.array))
    cusp = space.cuspidal_basis.array
    t_m = solve_by_inverse(cusp, space.cuspidal_inverse.array, mul_int64(cusp, t_rel))
    return HeckeOp(index=ell, matrix=IntMatrix(t_m))


def restrict_to_sign(space, op_matrix, sign):
    """Restrict an operator on M (cuspidal coordinates) to M^+ or M^-."""
    basis, inverse = space.signed(sign)
    return IntMatrix(solve_by_inverse(basis, inverse, mul_int64(basis, op_matrix.array)))


# ---------------------------------------------------------------------------
# paths and theta elements

def _symbol_stream(a, m):
    """Manin symbols of the unimodular path chain of {0, a/m}: yields
    (q_k, +-q_{k-1}) over the continued-fraction convergents, seeded
    with the {0, oo} term."""
    yield 0, 1
    pm2, pm1 = 0, 1
    qm2, qm1 = 1, 0
    sign = -1  # (-1)^(k-1) for k = 0
    x, y = a, m
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        pm2, pm1 = pm1, q * pm1 + pm2
        qm2, qm1 = qm1, q * qm1 + qm2
        yield qm1, sign * qm2
        sign = -sign


def path_to_chain(space, a, m):
    """Coordinates in M_rel of the modular symbol {0, a/m}."""
    if m <= 0 or gcd(a, m) != 1:
        raise ValueError("need m > 0 and gcd(a, m) = 1")
    symbols = [space.index(u, v) for u, v in _symbol_stream(a, m)]
    return tuple(map(int, space.reduction.array[symbols].sum(axis=0)))


# the characters of the prime discriminants -4, 8 and -8, indexed by a mod 8
_CHI_MOD_8 = {-4: (0, 1, 0, -1, 0, 1, 0, -1), 8: (0, 1, 0, -1, 0, -1, 0, 1),
              -8: (0, 1, 0, 1, 0, -1, 0, -1)}


def _chi_table(D):
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


# the theta walk runs at most this many lanes at a time, and counts the
# symbols of at most this many (row, symbol) cells (unless one row is wider)
_THETA_CHUNK = 2**14


def theta_elements(space, Ds):
    """Theta elements sum_a chi_D(a) {0, a/|D|} of the fundamental
    discriminants Ds, prime to N, in the order given, by the half walk
    of the module docstring.

    A lane is one a of one D, keyed by its row's block of N + 1 symbol
    counts, and the lanes with chi_D(a) = -1 by a second block.  The
    rows are walked in chunks of at most _THETA_CHUNK lanes and
    (row, symbol) cells (a row with more lanes or cells is a chunk
    alone, its lanes walked _THETA_CHUNK at a time), so no array
    outgrows that bound.  Each chunk is folded, reduced to M_rel,
    checked to have no boundary and solved into the cuspidal basis at
    once.  Every walk value is at most |D|, a Legendre table squares
    residues mod q | D, and `p1_index` multiplies residues mod N: all
    exact in int64 while max(N, |D|)^2 < 2^63, which is checked before
    any symbol data is read."""
    N = space.N
    Ds = list(Ds)
    for D in Ds:
        if abs(D) <= 1 or not is_fundamental(D) or gcd(D, N) != 1:
            raise ValueError("need a fundamental discriminant prime to N")
    if max([N] + [abs(D) for D in Ds]) ** 2 >= 2**63:
        raise ValueError("theta walk: N or |D| too large for int64 arithmetic")
    inv = np.array(space._inv, dtype=np.int64)
    iota = np.array(space._iota, dtype=np.int64)
    out = []
    rows, n = [], 0  # the rows (D, a, chi_D(a) < 0) of the next chunk, n lanes
    for D in Ds:
        chi = _chi_table(D)[:(abs(D) + 1) // 2]
        a = np.flatnonzero(chi)  # the 0 < a < |D|/2 with chi_D(a) != 0
        if rows and (n + len(a) > _THETA_CHUNK or (len(rows) + 1) * (N + 1) > _THETA_CHUNK):
            out += _theta_chunk(space, rows, inv, iota)
            rows, n = [], 0
        rows.append((D, a, chi[a] < 0))
        n += len(a)
    return out + (_theta_chunk(space, rows, inv, iota) if rows else [])


def _theta_chunk(space, rows, inv, iota):
    """The theta elements of the rows (D, a, chi_D(a) < 0) of one chunk."""
    N = space.N
    Ds = [D for D, _, _ in rows]
    width = len(rows) * (N + 1)
    row = np.repeat(np.arange(len(rows), dtype=np.int64), [len(a) for _, a, _ in rows])
    a_all = np.concatenate([a for _, a, _ in rows])
    key_all = row * (N + 1) + width * np.concatenate([neg for _, _, neg in rows])
    m_all = np.abs(np.array(Ds, dtype=np.int64))[row]
    counts = np.zeros(2 * width, dtype=np.int64)
    for lo in range(0, len(a_all), _THETA_CHUNK):
        piece = slice(lo, lo + _THETA_CHUNK)
        # each walk starts after its opening (0 : 1), q_0 = 0, (1 : 0)
        x, y, key = m_all[piece], a_all[piece], key_all[piece]
        qm2, qm1 = np.zeros_like(y), np.ones_like(y)
        sign = 1  # all lanes take their k-th step together: one sign of q_{k-1}
        while len(x):
            q = x // y
            x, y = y, x - q * y
            qm2, qm1 = qm1, q * qm1 + qm2
            counts += np.bincount(key + p1_index(qm1 % N, sign * qm2 % N, N, inv),
                                  minlength=2 * width)
            sign = -sign
            live = y != 0
            x, y, qm1, qm2, key = x[live], y[live], qm1[live], qm2[live], key[live]
    half = (counts[:width] - counts[width:]).reshape(len(rows), N + 1)
    # theta = half + s iota(half), s = sign(D)
    s = np.sign(np.array(Ds, dtype=np.int64))[:, None]
    rel = mul_int64(half + s * half[:, iota], space.reduction.array)
    if mul_int64(rel, space.boundary.array).any():
        raise ValueError("theta chain has nonzero boundary")
    in_m = solve_by_inverse(space.cuspidal_basis.array, space.cuspidal_inverse.array, rel)
    return [ThetaElement(D=D, coords=tuple(c), sign=1 if D > 0 else -1)
            for D, c in zip(Ds, in_m.tolist())]


def theta_element(space, D):
    """Theta element: sum over a mod |D| of chi_D(a) {0, a/|D|}."""
    return theta_elements(space, [D])[0]
