"""The p-Eisenstein filtration on the signed cuspidal lattices.

At prime level N with p dividing N - 1 exactly once, the Eisenstein
ideal I is generated (after Sturm-bound truncation) by T_l - l - 1 for
primes l up to ceil((N+1)/6) together with U_N - 1.  Restricting those
operators to M^+ or M^- gives a descending chain of finite-index
sublattices W_n = I^n M^{+-}.  A context keeps their Hermite bases and
the multiplicity g_p; everything else is read off W_n.

Valuations are local at p: x has valuation >= n when x lies in
W_n + p^k Z^g for k >= e_n, the p-exponent of A = Z^g / W_n.  That
lattice does not depend on k >= e_n, because p^k A = p^{e_n} A is the
prime-to-p part of A.  So take k = v_p(det W_n), which is at least e_n,
and m_n = p^k: H_n = `hnf_mod`(W_n, m_n) is the Hermite basis of
W_n + m_n Z^g, and x lies in it exactly when x Z_n = 0 (mod m_n), with
Z_n = m_n H_n^{-1} mod m_n (`scaled_inverse_mod`).  When m_1 = p, Z_1
vanishes but for one column, which is the alpha functional.

W_{n+1} is spanned by the rows of W_n @ eta over the generators eta,
formed as int64 products, and its Hermite form is computed modulo a
proven multiple D_{n+1} of its index (`hnf_mod`, which eliminates a
certified random sketch of the tall stack), so no entry outgrows
D_{n+1}.  The modulus: W_n @ eta lies in W_{n+1} for every generator,
so [M^sign : W_{n+1}] divides [M^sign : W_n @ eta] = det(W_n) |det eta|
for each one, hence divides D_{n+1} = det(W_n) * G with G the gcd of
|det eta| over the first three generators.  eta_2 = T_2 - 3 is
nonsingular, because every eigenvalue a_2 of T_2 on cusp forms has
|a_2| <= 2 sqrt 2 < 3 (Ramanujan-Petersson), so G != 0.

The Sturm saturation check asks whether three more generators, at the
primes just above max(N, Sturm bound), would shrink W_1: adding them
gives W_1 + sum eta_q Z^g (W_0 = Z^g), which is W_1 exactly when each
eta_q maps Z^g into W_1.  W_1 holds G Z^g, so that is a membership
test: the rows of eta_q mod G must satisfy x Z_1 = 0 (mod G), with
Z_1 = `scaled_inverse_mod`(W_1, G).

`merel_criterion` (defined in `modp`, which takes it as a lower bound
on g_p) decides g_p >= 2 from N and p alone; `build_context` does not
use it, so it stays an independent check of the exact g_p, and a
cache file's g_p is held to it on load.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

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
    scaled_inverse_mod,
    snf,
    vp,
)
from .modp import _mod_p, cut, merel_criterion
from .modsym import (
    check_pair,
    cuspidal_coords,
    hecke_operators,
    path_to_chain,
    restrict_to_sign,
    solve_by_inverse,
)


@dataclass(frozen=True)
class EisensteinContext:
    """Everything needed to valuate elements against the W_n chain at
    one sign: the Hermite bases W of W_n = I^n M^sign, n = 0 .. n_max + 1
    (the extra level lets "valuation >= n_max + 1" be certified
    honestly), and the multiplicity g_p.  The rest is derived from W,
    and the discrete log from (N, p)."""

    space: object
    p: int
    n_max: int
    sign: int
    g_p: int
    W: tuple  # HNF bases of I^n M^sign, in signed coordinates

    @property
    def sturm_bound(self):
        return _sturm_bound(self.space.N)

    @cached_property
    def logmap(self):
        """The discrete log to Z/p on (Z/N)^x that the sweep rows read."""
        return LogMap(self.space.N, self.p)

    @cached_property
    def snf_of_W(self):
        """The Smith invariants of each W_n (for reports; no valuation
        reads them)."""
        return tuple(map(snf, self.W))

    @cached_property
    def e(self):
        """The p-exponent of each M^sign / W_n."""
        return tuple(max(vp(d, self.p) for d in sd.diag) for sd in self.snf_of_W)

    @cached_property
    def membership(self):
        """Per level n = 1 .. n_max + 1, (m_n, Z_n): m_n = p^{v_p(det W_n)}
        and Z_n = `scaled_inverse_mod`(H_n, m_n) with H_n = `hnf_mod`(W_n,
        m_n).  x lies in W_n locally at p exactly when x Z_n = 0 mod m_n."""
        out = []
        for w in self.W[1:]:
            m = self.p ** vp(prod(map(int, np.diagonal(w.array))), self.p)
            out.append((m, IntMatrix(scaled_inverse_mod(hnf_mod(w.array, m), m)).array))
        return tuple(out)


def _sturm_bound(N):
    return -(-(N + 1) // 6)


def _generators(space, sign, ells):
    """T_ell - ell - 1 (U_N - 1 at ell = N) on M^sign for each prime of
    `ells`, in order, from one `hecke_operators` call."""
    eye = np.eye(space.genus, dtype=np.int64)
    out = []
    for ell, op in zip(ells, hecke_operators(space, ells)):
        t = restrict_to_sign(space, op, sign).array
        if np.abs(t).max() >= 2**62:  # so that t - eigenvalue cannot wrap
            raise ValueError("Hecke operator entries too large for int64")
        out.append(IntMatrix(t - (1 if ell == space.N else ell + 1) * eye))
    return out


def eisenstein_generators(space, sign):
    """The restricted operators spanning I on M^sign: T_l - l - 1 for the
    primes l != N up to the Sturm bound, then U_N - 1."""
    N = space.N
    return _generators(space, sign, [ell for ell in primes_up_to(_sturm_bound(N)) if ell != N]
                       + [N])


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
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    etas = [m.array for m in eisenstein_generators(space, sign)]
    unit = gcd(*(det(m) for m in etas[:3]))
    if not unit:
        raise ValueError("Eisenstein generators are all singular")

    g = len(etas[0])
    ws = [IntMatrix.identity(g)]
    for _ in range(n_max + 1):
        w = ws[-1].array
        ws.append(IntMatrix(hnf_mod(np.concatenate([mul_int64(w, eta) for eta in etas]),
                                    prod(map(int, np.diagonal(w))) * unit)))

    # Sturm saturation check: three more Hecke primes must not shrink W_1,
    # that is, W_0 = Z^g must map into W_1 under each of them
    z = scaled_inverse_mod(ws[1].array, unit).astype(np.int64)  # entries in [0, G)
    for eta in _generators(space, sign, _next_primes(max(N, _sturm_bound(N)), 3)):
        if (mul_int64(eta.array % unit, z) % unit).any():
            raise ValueError("Sturm-bound generator set failed saturation check")

    # g_p: the generators commute, so cutting F_p^g down by one generator
    # at a time leaves the intersection of their generalized kernels mod p
    rows, cols = np.eye(g), list(range(g))
    for eta in etas:
        if not rows.shape[0]:
            break
        # the generators already have their eigenvalue subtracted; the
        # product is a sum of g terms in [0, (p-1)^2], which cut's own
        # bound on these rows keeps within 2^53 - p (it raises otherwise)
        rows, cols = cut(rows, cols, _mod_p(rows @ (eta % p).astype(np.float64), p), 0, p)
    return EisensteinContext(space=space, p=p, n_max=n_max, sign=sign, g_p=rows.shape[0],
                             W=tuple(ws))


def _valuations(ctx, x):
    """The valuations of the rows of x (signed coordinates): each level's
    test x Z_n = 0 mod m_n as one product, on x reduced mod the largest
    m_n (every m_n divides it, so the reduction is exact), in int64
    while that m_n squared times g is below 2^63 and in Python ints
    beyond."""
    top = ctx.membership[-1][0]
    dtype = np.int64 if top * top * x.shape[1] < 2**63 else object
    x = x % top if x.dtype == dtype else (x.astype(object) % top).astype(dtype)
    val = np.zeros(len(x), dtype=np.int64)
    passed = np.ones(len(x), dtype=bool)
    for n, (m, z) in enumerate(ctx.membership, 1):
        prods = mul_int64(x, z) if dtype is np.int64 else x @ z.astype(object)
        passed &= (prods % m == 0).all(axis=1)
        val[passed] = n
    return val.tolist()


def p_local_valuation(ctx, x):
    """Largest n <= n_max with x in W_n locally at p (in W_n + p^k M^sign
    for every k >= e_n); n_max + 1 means the valuation is at least
    n_max + 1 (e.g. x = 0)."""
    x = list(x)
    if len(x) != ctx.W[0].rows or not all(isinstance(t, int) for t in x):
        raise ValueError("x is not a lattice vector of the right size")
    return _valuations(ctx, np.array([x], dtype=object))[0]


def theta_valuations(ctx, thetas):
    """The valuations of theta elements against the context's sign chain,
    as `p_local_valuation` reads them, after one solve into the signed
    basis."""
    thetas = list(thetas)
    if any(theta.sign != ctx.sign for theta in thetas):
        raise ValueError("theta element has the wrong star sign")
    if not thetas:
        return []
    basis, inverse = ctx.space.signed(ctx.sign)
    return _valuations(ctx, solve_by_inverse(basis, inverse,
                                             as_int64([theta.coords for theta in thetas])))


def theta_valuation(ctx, theta):
    """Valuation of a theta element against the context's sign chain."""
    return theta_valuations(ctx, [theta])[0]


def g_p_dimension(ctx):
    """dim over F_p of the intersection of the generalized kernels of
    the Eisenstein generators on M^sign mod p: the multiplicity of the
    Eisenstein prime, computed once by `build_context`."""
    return ctx.g_p


# ---------------------------------------------------------------------------
# the alpha map on the p-part of M^+ / W_1

def _alpha_data(ctx):
    """The functional x -> x z mod p on M^+ whose kernel is W_1 + p M^+:
    with v_p(det W_1) = 1, H_1 is the identity but for one column j, of
    pivot p, so Z_1 = p H_1^{-1} vanishes mod p outside column j."""
    m, z = ctx.membership[0]
    if m != ctx.p:
        raise ValueError("p-part of M^+/W_1 is not of order exactly p")
    return z[:, np.flatnonzero(z.any(axis=0))[0]].tolist()


def _alpha_of_plus_vector(ctx, y):
    """Value of the alpha functional on a vector of M^+ (signed coords):
    its image in the order-p quotient of M^+/W_1, as an element of F_p."""
    return sum(a * b for a, b in zip(y, _alpha_data(ctx))) % ctx.p


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
    plus, plus_inv = space.signed(1)
    inv2 = pow(2, -1, ctx.p)
    pairs = []
    for b, d in samples:
        if gcd(d, space.N) != 1:
            raise ValueError("sample denominator shares a factor with N")
        x = cuspidal_coords(as_int64([path_to_chain(space, b, d)]), "path")
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
