"""The p-Eisenstein filtration on the signed cuspidal lattices.

At prime level N with p dividing N - 1 exactly once, the Eisenstein
ideal I is generated (after Sturm-bound truncation) by T_l - l - 1 for
primes l up to ceil((N+1)/6) together with U_N - 1.  Restricting those
operators to M^+ or M^- gives a descending chain of finite-index
sublattices W_n = I^n M^{+-}.  The Smith form of each W_n then turns
membership questions "x in W_n up to prime-to-p index" into
coordinate-wise divisibility tests, which is how local-at-p valuations
of theta elements are read off.

W_{n+1} is spanned by the rows of W_n @ eta over the generators eta,
formed as int64 products, and its Hermite form is computed modulo a
proven multiple D_{n+1} of its index (`hnf_mod`), so no entry outgrows
D_{n+1}.  The modulus: W_n @ eta lies in W_{n+1} for every generator,
so [M^sign : W_{n+1}] divides [M^sign : W_n @ eta] = det(W_n) |det eta|
for each one, hence divides D_{n+1} = det(W_n) * G with G the gcd of
|det eta| over the first three generators.  eta_2 = T_2 - 3 is
nonsingular, because every eigenvalue a_2 of T_2 on cusp forms has
|a_2| <= 2 sqrt 2 < 3 (Ramanujan-Petersson), so G != 0.  The Sturm
saturation check computes W_1 again with three more generators, modulo
G (det W_0 = 1).

`merel_criterion` (defined in `modp`, which takes it as a lower bound
on g_p) decides g_p >= 2 from N and p alone; the exact route's
`g_p_dimension` does not use it and stays an independent check.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import mul

import numpy as np

from .exact_linalg import (
    IntMatrix,
    LogMap,
    as_int64,
    det,
    hnf_mod,
    is_prime,
    log_to_p,
    mul_int64,
    primes_up_to,
    snf,
    vp,
)
from .modp import cut, merel_criterion
from .modsym import (
    check_pair,
    hecke,
    path_to_chain,
    restrict_to_sign,
    solve_by_inverse,
)


@dataclass(frozen=True)
class EisensteinContext:
    """Everything needed to valuate elements against the W_n chain at
    one sign.  W, snf_of_W and e are indexed by n = 0 .. n_max + 1; the
    extra level lets "valuation >= n_max + 1" be certified honestly."""

    space: object
    p: int
    n_max: int
    sign: int
    sturm_bound: int
    eis_generators: tuple  # restricted operators spanning I on M^sign
    W: tuple  # HNF bases of I^n M^sign, in signed coordinates
    snf_of_W: tuple  # WSmith of each W_n
    e: tuple  # p-exponent of M^sign / W_n
    logmap: LogMap

    @cached_property
    def residue_table(self):
        """Per level n = 1 .. n_max + 1, the tests of "x in W_n + p^{e_n}
        M^sign": (modulus, column) for each SNF right-transform column j
        of W_n with p | d'_j = gcd(d_j, p^{e_n}), the column reduced mod
        d'_j.  x passes iff x . column = 0 mod d'_j for all of them (the
        other columns test modulo 1).  Built on first use, never cached
        on disk."""
        table = []
        for n in range(1, self.n_max + 2):
            pe = self.p ** self.e[n]
            sd = self.snf_of_W[n]
            tests = []
            for j, d in enumerate(sd.diag):
                mod = gcd(d, pe)
                if mod % self.p == 0:
                    tests.append((mod, tuple(map(int, sd.right.array[:, j] % mod))))
            table.append(tuple(tests))
        return tuple(table)


@dataclass(frozen=True)
class WSmith:
    """The part of a Smith form of W_n that membership tests read: the
    invariant factors and the right transform (the left one is not
    kept)."""

    diag: tuple
    right: IntMatrix


def _next_primes(start, count):
    out = []
    q = start
    while len(out) < count:
        q += 1
        if is_prime(q):
            out.append(q)
    return out


def build_context(space, p, n_max=3, sign=1):
    """Assemble the Eisenstein filtration on M^sign at the prime p."""
    N = space.N
    check_pair(N, p)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def generator(ell, eigen):
        """T_ell (or U_N) on M^sign, minus its Eisenstein eigenvalue."""
        t = restrict_to_sign(space, hecke(space, ell).matrix, sign).array
        if np.abs(t).max() >= 2**62:  # so that t - eigen cannot wrap
            raise ValueError("Hecke operator entries too large for int64")
        return IntMatrix(t - eigen * np.eye(len(t), dtype=np.int64))

    sturm = -(-(N + 1) // 6)
    gens = [generator(ell, ell + 1) for ell in primes_up_to(sturm) if ell != N]
    gens.append(generator(N, 1))
    etas = [m.array for m in gens]
    unit = gcd(*(det(m) for m in etas[:3]))
    if not unit:
        raise ValueError("Eisenstein generators are all singular")

    def step(w, ops, modulus):
        return IntMatrix(hnf_mod(np.concatenate([mul_int64(w.array, op) for op in ops]), modulus))

    ident = IntMatrix.identity(gens[0].rows)
    ws = [ident]
    for _ in range(n_max + 1):
        ws.append(step(ws[-1], etas, prod(map(int, np.diagonal(ws[-1].array))) * unit))

    # Sturm saturation check: three more Hecke primes must not shrink W_1
    extra = [generator(q, q + 1).array for q in _next_primes(max(N, sturm), 3)]
    if step(ident, etas + extra, unit) != ws[1]:
        raise ValueError("Sturm-bound generator set failed saturation check")

    smiths = tuple(WSmith(sd.diag, sd.right) for sd in map(snf, ws))
    es = tuple(max(vp(d, p) for d in sd.diag) for sd in smiths)
    return EisensteinContext(
        space=space,
        p=p,
        n_max=n_max,
        sign=sign,
        sturm_bound=sturm,
        eis_generators=tuple(gens),
        W=tuple(ws),
        snf_of_W=smiths,
        e=es,
        logmap=LogMap(N, p),
    )


def p_local_valuation(ctx, x):
    """Largest n <= n_max with x in W_n locally at p (in W_n + p^{e_n}
    M^sign); n_max + 1 means the valuation is at least n_max + 1 (e.g.
    x = 0)."""
    x = list(x)
    g = ctx.W[0].rows
    if len(x) != g or not all(isinstance(t, int) for t in x):
        raise ValueError("x is not a lattice vector of the right size")
    val = 0
    for n, tests in enumerate(ctx.residue_table, 1):
        if any(sum(map(mul, x, col)) % mod for mod, col in tests):
            break
        val = n
    return val


def theta_valuations(ctx, thetas):
    """The valuations of theta elements against the context's sign chain,
    as `p_local_valuation` reads them: one solve into the signed basis,
    the coordinates reduced mod p^E with E = max e_n (every test modulus
    divides p^E, so the reduction is exact), and each level's tests as
    one product, in int64 while p^2E * g < 2^63 and in Python ints
    beyond."""
    thetas = list(thetas)
    if any(theta.sign != ctx.sign for theta in thetas):
        raise ValueError("theta element has the wrong star sign")
    if not thetas:
        return []
    basis, inverse = ctx.space.signed(ctx.sign)
    x = solve_by_inverse(basis, inverse, as_int64([theta.coords for theta in thetas]))
    pe = ctx.p ** max(ctx.e)
    fits = pe * pe * x.shape[1] < 2**63
    x = x % pe if fits else x.astype(object) % pe
    val = np.zeros(len(thetas), dtype=np.int64)
    passed = np.ones(len(thetas), dtype=bool)
    for n, tests in enumerate(ctx.residue_table, 1):
        if tests:
            mods, cols = zip(*tests)
            cols = np.array(cols, dtype=np.int64 if fits else object).T
            prods = mul_int64(x, cols) if fits else x @ cols
            passed &= (prods % np.array(mods, dtype=cols.dtype) == 0).all(axis=1)
        val[passed] = n
    return val.tolist()


def theta_valuation(ctx, theta):
    """Valuation of a theta element against the context's sign chain."""
    return theta_valuations(ctx, [theta])[0]


def g_p_dimension(ctx):
    """dim over F_p of the intersection of the generalized kernels of
    the Eisenstein generators on M^sign mod p: the multiplicity of the
    Eisenstein prime.  The generators commute, so cutting F_p^g down by
    one generator at a time leaves that intersection."""
    p = ctx.p
    g = ctx.W[0].rows
    rows, cols = np.eye(g), list(range(g))
    for gen in ctx.eis_generators:
        if not rows.shape[0]:
            break
        a = (gen.array % p).astype(np.float64)
        # the generators already have their eigenvalue subtracted
        rows, cols = cut(rows, cols, rows @ a % p, 0, p)
    return rows.shape[0]


# ---------------------------------------------------------------------------
# the alpha map on the p-part of M^+ / W_1

def _alpha_data(ctx):
    sd = ctx.snf_of_W[1]
    pivots = [j for j, dj in enumerate(sd.diag) if dj % ctx.p == 0]
    if len(pivots) != 1 or vp(sd.diag[pivots[0]], ctx.p) != 1:
        raise ValueError("p-part of M^+/W_1 is not of order exactly p")
    return sd.right.array, pivots[0]


def _alpha_of_plus_vector(ctx, y):
    """Value of the alpha functional on a vector of M^+ (signed coords):
    its image in the order-p quotient of M^+/W_1, as an element of F_p."""
    right, jstar = _alpha_data(ctx)
    return sum(map(mul, y, map(int, right[:, jstar] % ctx.p))) % ctx.p


def alpha_check(ctx, samples, logmap=None):
    """Do the images of the paths {0, b/d} under alpha equal a single
    nonzero multiple of log(d)?

    Each sample (b, d) needs gcd(b, d) = 1 and gcd(d, N) = 1.  The path
    is symmetrized into M^+ via x + x*iota (which doubles the plus
    projection, so the functional is halved mod p afterwards).
    """
    if ctx.sign != 1:
        raise ValueError("alpha lives on the plus part")
    lm = logmap if logmap is not None else ctx.logmap
    space = ctx.space
    cusp, cusp_inv = space.cuspidal_basis.array, space.cuspidal_inverse.array
    plus, plus_inv = space.signed(1)
    inv2 = pow(2, -1, ctx.p)
    pairs = []
    for b, d in samples:
        if gcd(d, space.N) != 1:
            raise ValueError("sample denominator shares a factor with N")
        x = solve_by_inverse(cusp, cusp_inv, as_int64([path_to_chain(space, b, d)]))
        sym = x + mul_int64(x, space.star.array)
        y = solve_by_inverse(plus, plus_inv, sym)[0].tolist()
        val = _alpha_of_plus_vector(ctx, y) * inv2 % ctx.p
        pairs.append((val, log_to_p(d, lm)))
    if all(ld == 0 for _, ld in pairs):
        raise ValueError("uninformative samples")
    first = next((v, ld) for v, ld in pairs if ld != 0)
    lam = first[0] * pow(first[1], -1, ctx.p) % ctx.p
    if lam == 0:
        return False
    return all(v == lam * ld % ctx.p for v, ld in pairs)
