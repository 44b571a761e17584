"""The p-Eisenstein filtration on the signed cuspidal lattices.

At prime level N with p dividing N - 1 exactly once, let T be the Hecke
algebra acting on M = M^+ or M^-, and I the Eisenstein ideal, generated
by T_l - l - 1 for the primes l != N and by U_N - 1 (= -(1 + w_N), as
U_N = -w_N at prime level).  A context keeps the Hermite bases of the
finite-index sublattices W_n = I^n M and the multiplicity g_p;
everything else is read off W_n.

One generator per prime of n = num((N - 1) / 12).  T/I is Z/n (Mazur,
"Modular curves and the Eisenstein ideal", Publ. IHES 47, 1977,
Prop. II.9.7).  For a prime q not dividing n, I + qT = T, so I^k M and
M agree locally at q (Nakayama).  For q | n, m = (I, q) is the only
maximal ideal of T over q that holds I, and M_m != 0, because M (x) Q
is free of rank one over T (x) Q.  By Nakayama, IM_m is a proper
submodule of M_m, so [M_m : IM_m] >= q.  Take eta = T_l - l - 1 on M,
l != N, with v_q(det eta) = 1.  M_q is the sum of the M_m' over the
maximal ideals m' over q, and det eta is the product of eta's
determinants on them.  eta lies in I, hence in m, so it is not a unit
on M_m: its determinant there takes the one factor q, and eta is a
unit at every other m'.  So [M_m : eta M_m] = q, and eta M_m inside
IM_m forces eta M_m = IM_m.  T is commutative, so (I^k M)_q =
(eta^k M)_q for every k.  M_m / eta M_m has order q, so q M_m lies in
eta M_m, and (I^k M)_q holds q^k M_q.  Hence W_k holds r^k Z^g, with
r = rad(n).

The certificate needs no determinant: the index of `hnf_mod`(eta, r^2),
the lattice eta Z^g + r^2 Z^g, has q-part q^(sum min(e_i, 2)) over the
q-exponents e_i of eta's Smith invariants, which is q exactly when
v_q(det eta) = 1; a singular eta reads q^2 at least and never
qualifies.

The build (`_certified_chain`): eta_l for l = 2, 3, 5, ... (l != N,
l < 50) one at a time, each prime q | n taking the first l that
certifies it, until every q has one.  For each chosen l, with m_l the
product of the primes it certifies, L_{l,k} = `hnf_mod`(L_{l,k-1}
eta_l, m_l^k), from L_{l,0} = Z^g: that is eta_l^k M + m_l^k M, since
q^(k-1) eta M_q lies in eta^k M_q, and it is W_k locally at the primes
of m_l and Z^g at every other.  W_k is their intersection, which for
lattices of coprime indices a and b is A cap B = bA + aB: W_k =
`hnf_mod`(stack of (r/m_l)^k L_{l,k}, r^k), and W_k = L_{l,k} when one
l certifies every q.  Every eta the search computed lies in I, so it
maps Z^g into W_1 = I M: that is checked as membership mod r (W_1 holds
r Z^g), and a failure raises ValueError.  A chain product past
`mul_int64`'s bound runs on Python ints (`mul_exact`), so every n_max
is built.

When one eta certifies every q, W_1 is the Hermite form H =
`hnf_mod`(eta, r^2) the certificate already made, and its elimination
is not repeated.  Proof: H is the form of eta Z^g + r^2 Z^g, whose
index divides r^{2g}, so has no prime outside r, and has q-part q for
every q | r: the index is r.  W_1 = eta Z^g + r Z^g contains that
lattice and has index r too, so the two are equal, and a Hermite form
is canonical.

g_p is the dimension over F_p of M_m/pM_m, m = (I, p): the part of
M/pM on which I acts nilpotently.  eta_{l_p} is nilpotent on M_m/pM_m
and a unit on M_m'/pM_m' for every other m' over p, so g_p is the
dimension of its generalized kernel mod p (`cut` on it alone).

No eta certifies a q with q^2 | n.  A certificate gives [M_m : IM_m] =
q, so IM_m = mM_m and M_m/mM_m is one-dimensional over T/m; then M_m
is cyclic over T_m (Nakayama), and faithful, so M_m = T_m, and
M_m/IM_m = (T/I)_m = Z/q^{v_q(n)} has order q only when q^2 does not
divide n.  So a non-squarefree n skips the search.

The fallback (`_sturm_chain`).  When some q | n has no certificate
below 50, the chain comes from the Sturm stack.  That happens where n
is not squarefree (q^2 | n for q = 2 or 3 at the admissible N < 400
113, 241, 271, 337, 353 and 379, and at 641), and also where n is
squarefree but q = 2 or 3 has no eta_l with v_q(det eta_l) = 1 for
l < 50 (at 307, q = 3, and at 761 and 1129, q = 2).  The stack is
T_l - l - 1 for the primes l != N up to ceil((N + 1)/6) and U_N - 1,
with the saturation check below, and g_p from the generalized kernels
of all of them.  It is the route every context took before the
certificate, and it stays as that fallback and as the certified
route's test oracle.  There W_{n+1} is
spanned by the rows of W_n @ eta over the generators eta, formed as
exact products (`mul_exact`), and its Hermite form is computed modulo
a proven
multiple D_{n+1} of its index (`hnf_mod`, which eliminates a certified
random sketch of the tall stack), so no entry outgrows D_{n+1}.  The
modulus: W_n @ eta lies in W_{n+1} for every generator, so
[M : W_{n+1}] divides [M : W_n @ eta] = det(W_n) |det eta| for each
one, hence divides D_{n+1} = det(W_n) * G with G the gcd of |det eta|
over the first three generators.  eta_2 = T_2 - 3 is nonsingular,
because every eigenvalue a_2 of T_2 on cusp forms has |a_2| <= 2 sqrt 2
< 3 (Ramanujan-Petersson), so G != 0.

The Sturm saturation check asks whether three more generators, at the
primes just above max(N, Sturm bound), would shrink W_1: adding them
gives W_1 + sum eta_q Z^g (W_0 = Z^g), which is W_1 exactly when each
eta_q maps Z^g into W_1.  W_1 holds G Z^g, so that is a membership
test: the rows of eta_q mod G must satisfy x Z_1 = 0 (mod G), with
Z_1 = `scaled_inverse_mod`(W_1, G).

Valuations are local at p: x has valuation >= n when x lies in
W_n + p^k Z^g for k >= e_n, the p-exponent of A = Z^g / W_n.  That
lattice does not depend on k >= e_n, because p^k A = p^{e_n} A is the
prime-to-p part of A.  So take k = v_p(det W_n), which is at least e_n,
and m_n = p^k: H_n = `hnf_mod`(W_n, m_n) is the Hermite basis of
W_n + m_n Z^g, and x lies in it exactly when x Z_n = 0 (mod m_n), with
Z_n = m_n H_n^{-1} mod m_n (`scaled_inverse_mod`).  When m_1 = p, Z_1
vanishes but for one column, which is the alpha functional.

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
    factorize,
    hnf_mod,
    is_prime,
    log_to_p,
    mul_exact,
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


_CERTIFY_BELOW = 50  # the certificate search tries the primes l < 50


def _candidates(space, sign):
    """(l, eta_l) for the primes l < 50, l != N, in order, each operator
    computed only when the search asks for it."""
    for ell in primes_up_to(_CERTIFY_BELOW - 1):
        if ell != space.N:
            yield ell, _generators(space, sign, [ell])[0].array


def _certified_chain(space, sign, n_max):
    """(W_0 .. W_{n_max + 1}, {q: eta certifying q}) from one generator
    per prime q of n = num((N - 1)/12), or None when some q has no
    certificate below 50 (module docstring)."""
    N, g = space.N, space.genus
    n = factorize((N - 1) // gcd(N - 1, 12))
    if max(n.values()) > 1:
        return None  # no eta certifies a q with q^2 | n
    qs = sorted(n)
    r = prod(qs)
    chains, certified, searched = [], {}, []  # chains: (m_l, eta_l, hnf_mod(eta_l, r^2))
    for _, eta in _candidates(space, sign):
        searched.append(eta)
        h = hnf_mod(eta, r * r)
        index = prod(map(int, np.diagonal(h)))
        new = [q for q in qs if q not in certified and vp(index, q) == 1]
        if new:
            chains.append((prod(new), eta, h))
            certified.update(dict.fromkeys(new, eta))
        if len(certified) == len(qs):
            break
    else:
        return None

    ws = [np.eye(g, dtype=np.int64)]
    ls = [ws[0]] * len(chains)
    for k in range(1, n_max + 2):
        if k == 1 and len(chains) == 1:
            ls = [chains[0][2]]  # W_1 is the certificate's Hermite form (module docstring)
        else:
            ls = [hnf_mod(mul_exact(l, eta), m**k) for l, (m, eta, _) in zip(ls, chains)]
        ws.append(ls[0] if len(ls) == 1 else hnf_mod(
            np.concatenate([l.astype(object) * (r // m)**k
                            for l, (m, _, _) in zip(ls, chains)]),
            r**k))

    # runtime cross-check: every eta the search computed lies in I, so it
    # maps W_0 = Z^g into W_1, which holds r Z^g
    z = scaled_inverse_mod(ws[1], r).astype(np.int64)  # entries in [0, r)
    for eta in searched:
        if (mul_int64(eta % r, z) % r).any():
            raise ValueError("a certificate-search generator does not map M into W_1")
    return tuple(map(IntMatrix, ws)), certified


def _sturm_chain(space, sign, n_max):
    """(W_0 .. W_{n_max + 1}, the Sturm generators) from the stack of all
    the Sturm generators, with the saturation check: the fallback when
    some prime of n has no certificate (module docstring)."""
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

    # Sturm saturation check: three more Hecke primes must not shrink W_1,
    # that is, W_0 = Z^g must map into W_1 under each of them
    z = scaled_inverse_mod(ws[1].array, unit).astype(np.int64)  # entries in [0, G)
    for eta in _generators(space, sign, _next_primes(max(N, _sturm_bound(N)), 3)):
        if (mul_int64(eta.array % unit, z) % unit).any():
            raise ValueError("Sturm-bound generator set failed saturation check")
    return tuple(ws), etas


def _g_p(etas, p):
    """The dimension over F_p of the intersection of the generalized
    kernels of the commuting `etas` mod p: cutting F_p^g down by one
    generator at a time leaves it."""
    g = len(etas[0])
    rows, cols = np.eye(g), list(range(g))
    for eta in etas:
        if not rows.shape[0]:
            break
        # the generators already have their eigenvalue subtracted; the
        # product is a sum of g terms in [0, (p-1)^2], which cut's own
        # bound on these rows keeps within 2^53 - p (it raises otherwise)
        rows, cols = cut(rows, cols, _mod_p(rows @ (eta % p).astype(np.float64), p), 0, p)
    return rows.shape[0]


def build_context(space, p, n_max=3, sign=1):
    """Assemble the Eisenstein filtration on M^sign at the prime p: from
    the certified generators when every prime of num((N - 1)/12) has one,
    else from the Sturm stack (module docstring)."""
    check_pair(space.N, p)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    built = _certified_chain(space, sign, n_max)
    if built is None:
        ws, etas = _sturm_chain(space, sign, n_max)
    else:
        ws, certified = built
        etas = [certified[p]]
    return EisensteinContext(space=space, p=p, n_max=n_max, sign=sign, g_p=_g_p(etas, p),
                             W=ws)


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
