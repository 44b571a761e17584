"""The p-Eisenstein filtration on the signed cuspidal lattices.

At prime level N with p dividing N - 1 exactly once, let T be the Hecke
algebra acting on M = M^+ or M^-, and I the Eisenstein ideal, generated
by T_l - l - 1 for the primes l != N and by U_N - 1 (= -(1 + w_N), as
U_N = -w_N at prime level).  A context keeps the Hermite bases of the
finite-index sublattices W_n = I^n M and the multiplicity g_p;
everything else is read off W_n.

The chain is fixed by its parts at the primes of n = num((N - 1) /
12).  T/I is Z/n (Mazur, "Modular curves and the Eisenstein ideal",
Publ. IHES 47, 1977, Prop. II.9.7).  For a prime q not dividing n,
I + qT = T, so I^k M and M agree locally at q (Nakayama).  For q | n,
m = (I, q) is the only maximal ideal of T over q that holds I, and
M_m' != 0 at every maximal m', because M is faithful over T.  By
Nakayama, IM_m is a proper submodule of M_m, so [M_m : IM_m] >= q.

Each q | n gets a list S_q of generators eta_l = T_l - l - 1 (U_N - 1
at l = N), all in I, with IM_q = sum eta M_q over eta in S_q, and an
exponent a_q = v_q(det eta) of one eta in S_q (`_local_sets`).

The proven case: S_q = [eta_l], l != N, with v_q(det eta_l) = 1, and
a_q = 1.  M_q is the sum of the M_m' over the maximal ideals m' over
q, and det eta is the product of eta's determinants on them.  eta lies
in I, hence in m, so it is not a unit on M_m: its determinant there
takes the one factor q, and eta is a unit at every other m', where I is
the unit ideal too.  So [M_m : eta M_m] = q, and eta M_m inside IM_m
forces eta M_m = IM_m, so IM_q = eta M_q.  The certificate needs no
determinant: the index of `hnf_mod`(eta, r^2), r = rad(n), the lattice
eta Z^g + r^2 Z^g, has q-part q^(sum min(e_i, 2)) over the q-exponents
e_i of eta's Smith invariants, which is q exactly when v_q(det eta) =
1; a singular eta reads q^2 at least and never qualifies
(`_certified`).  The search tries eta_l for l = 2, 3, 5, ... (l != N, l < 50) one
at a time, each q taking the first l that certifies it, until every q
has one.

No eta certifies a q with q^2 | n.  A certificate gives [M_m : IM_m] =
q, so IM_m = mM_m and M_m/mM_m is one-dimensional over T/m; then M_m
is cyclic over T_m (Nakayama), and faithful, so M_m = T_m, and
M_m/IM_m = (T/I)_m = Z/q^{v_q(n)} has order q only when q^2 does not
divide n.  So a non-squarefree n skips the search.

The accepted case, at every other q: where n is not squarefree (q^2 |
n for q = 2 or 3 at the admissible N < 400 113, 241, 271, 337, 353 and
379, and at 641 and 1009), and where n is squarefree but q = 2 or 3
has no certificate below 50 (at 307, q = 3, and at 761 and 1129, q =
2).  a_q = v_q(det eta_2).  eta_2 = T_2 - 3 is nonsingular, because
every eigenvalue a_2 of T_2 on cusp forms has |a_2| <= 2 sqrt 2 < 3
(Ramanujan-Petersson), and q^{a_q} M_q lies in eta_2 M_q, inside IM_q;
a_q >= 1, as eta_2 is not a unit on M_m.  S_q is the Sturm generators
eta_2, eta_3, eta_5, ... in order -- T_l - l - 1 for the primes l != N
up to ceil((N + 1)/6), then U_N - 1, which generate I -- as few as make
every Sturm generator, and the three at the primes just above max(N,
Sturm bound) (the saturation check), map Z^g into L_{q,1} =
`hnf_mod`(stack of S_q, q^{a_q}) (`_accepted`).  That is a membership
test: x lies in L_{q,1} exactly when x Z = 0 (mod q^{a_q}), with Z =
`scaled_inverse_mod`(L_{q,1}, q^{a_q}).  L_{q,1} = S_q M + q^{a_q} M
lies in IM locally at q, and holds IM_q once the generators of I map M
into it, so L_{q,1} is IM locally at q; as q^{a_q} M_q lies in eta_2
M_q, IM_q = sum eta M_q over eta in S_q.  If S_q reaches the last Sturm
generator and a saturation generator still falls outside, the build
raises ValueError.  The only assumption is the Sturm-bound generation
of I.

v_q(det eta) without a determinant (`_vq_det`): the index of
`hnf_mod`(eta, q^b) has q-exponent sum min(e_i, b).  Once that is below
b, so is every e_i, and it is sum e_i = v_q(det eta).  b doubles from 2
until then; a nonsingular eta has stopped once q^b exceeds the Hadamard
bound on |det eta|, so an eta still going there is singular, and the
build raises ValueError.

The chain.  Let S be the union of the S_q and m = prod q^{a_q}.  W_1 =
`hnf_mod`(stack of S, m): S lies in I and spans IM_q at every q | n,
which holds q^{a_q} M_q, so m Z^g lies in IM, and the form is IM (at a
prime not dividing n both are Z^g).  Every eta the build computed lies
in I, so it maps Z^g into W_1: that is checked as membership mod m, and
a failure raises ValueError.  For k >= 2, W_k = `hnf_mod`(stack of
W_{k-1} eta for eta in S, E^k), with E the exponent of Z^g/W_1, the
least E with E Z^g in W_1.  E Z^g lies in W_1 exactly when E W_1^{-1}
is integral, so E = m / gcd(m, Z_1) over the entries of Z_1 =
`scaled_inverse_mod`(W_1, m) = m W_1^{-1} mod m.  As T is commutative
and S spans IM_q, I^k M_q = sum eta I^{k-1} M_q over eta in S, so the
rows span I^k M locally at each q | n, and E has no other prime; and
I^k M = I^{k-1} (IM) holds E I^{k-1} M, hence E^k Z^g by induction: the
form is W_k.  Where every q is proven, W_1 has index r = m, so E = m
and the moduli are m^k.  Each eta_l is computed at most once per build
(`_Etas`).  A chain product past `mul_int64`'s bound runs on Python ints
(`mul_exact`), so every n_max is built.

When one eta certifies every q, W_1 is the Hermite form H =
`hnf_mod`(eta, r^2) the certificate already made, and its elimination
is not repeated.  Proof: H is the form of eta Z^g + r^2 Z^g, whose
index divides r^{2g}, so has no prime outside r, and has q-part q for
every q | r: the index is r.  W_1 = eta Z^g + r Z^g contains that
lattice and has index r too, so the two are equal, and a Hermite form
is canonical.

g_p is the dimension over F_p of M_m/pM_m, m = (I, p): the part of
M/pM on which I acts nilpotently.  p | n, as p >= 5, and g_p is the
dimension of the joint generalized kernel of S_p mod p (`cut` on each
in turn).  That kernel is the sum of the M_m'/pM_m' over the maximal
ideals m' over p that hold S_p, m among them.  A maximal m' that holds
S_p and p but not I would have IM_m' = M_m', yet IM_m' = S_p M_m' lies
in m'M_m', which Nakayama forbids as M_m' != 0.

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
    factorize,
    hnf_mod,
    in_lattice,
    is_prime,
    log_to_p,
    mul_exact,
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
    sturm_bound,
    sturm_primes,
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
        return sturm_bound(self.space.N)

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
        """The p-exponent of each M^sign / W_n: 0 at n = 0 and, for n >= 1,
        v_p of the exponent m_n / gcd(m_n, entries of Z_n) of Z^g / H_n,
        the p-part of Z^g / W_n, read off `membership` as `build_context`
        reads E; no Smith form is made."""
        return (0,) + tuple(vp(m // gcd(m, int(np.gcd.reduce(z.ravel()))), self.p)
                            for m, z in self.membership)

    @cached_property
    def membership(self):
        """Per level n = 1 .. n_max + 1, (m_n, Z_n): m_n = p^{v_p(det W_n)}
        and Z_n = `scaled_inverse_mod`(H_n, m_n) with H_n = `hnf_mod`(W_n,
        m_n).  x lies in W_n locally at p exactly when x Z_n = 0 mod m_n."""
        out = []
        for w in self.W[1:]:
            m = self.p ** vp(_index(w.array), self.p)
            out.append((m, IntMatrix(scaled_inverse_mod(hnf_mod(w.array, m), m)).array))
        return tuple(out)


def _index(h):
    """The index in Z^g of the lattice of a Hermite basis."""
    return prod(map(int, np.diagonal(h)))


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
    return _generators(space, sign, sturm_primes(space.N))


def _next_primes(start, count):
    out = []
    q = start
    while len(out) < count:
        q += 1
        if is_prime(q):
            out.append(q)
    return out


class _Etas(dict):
    """{l: eta_l} for every l one build has asked for.  Called with a
    list of primes, it returns their eta_l as arrays, in order, and
    computes those not asked for before in one `_generators` call, so
    that no operator is computed twice."""

    def __init__(self, space, sign):
        super().__init__()
        self.space, self.sign = space, sign

    def __call__(self, ells):
        missing = [ell for ell in ells if ell not in self]
        if missing:
            self.update(zip(missing, (m.array for m in _generators(self.space, self.sign, missing))))
        return [self[ell] for ell in ells]


_CERTIFY_BELOW = 50  # the certificate search tries the primes l < 50


def _certified(eta, qs):
    """(H, the primes q of `qs` with v_q(det eta) = 1), H = `hnf_mod`(eta,
    r^2) for r the product of `qs` (module docstring)."""
    h = hnf_mod(eta, prod(qs) ** 2)
    index = _index(h)
    return h, [q for q in qs if vp(index, q) == 1]


def _vq_det(eta, q):
    """v_q(det eta) from Hermite forms modulo powers of q (module
    docstring); raises ValueError when eta is singular."""
    bound = prod(int(s) for s in (eta.astype(object) ** 2).sum(axis=1))  # Hadamard: det^2 <= bound
    b = 2
    while True:
        e = vp(_index(hnf_mod(eta, q**b)), q)
        if e < b:
            return e
        if q ** (2 * b) > bound:  # then q^b > |det eta| unless det eta = 0
            raise ValueError("Eisenstein generators are all singular")
        b *= 2


def _accepted(gens, count, q):
    """(k, a_q) for a prime q of n without a certificate: S_q is the
    first k of the `count` Sturm generators that open `gens`, the fewest
    such that every generator in `gens` (the Sturm generators, then the
    saturation generators) maps Z^g into `hnf_mod`(stack of S_q,
    q^{a_q}), and a_q = v_q(det eta_2) (module docstring)."""
    a = _vq_det(gens[0], q)
    if not a:
        raise ValueError("eta_2 is a unit at a prime of n")
    m = q**a
    h, outside = np.empty((0, len(gens[0])), dtype=np.int64), gens
    for k in range(1, count + 1):
        h = hnf_mod(np.concatenate([h, gens[k - 1]]), m)  # the form of S_q Z^g + m Z^g
        z = scaled_inverse_mod(h, m)
        outside = [eta for eta in outside if not in_lattice(eta, z, m).all()]
        if not outside:
            return k, a
    raise ValueError("Sturm-bound generator set failed saturation check")


def _local_sets(etas):
    """({q: (S_q, a_q)} for the primes q of n = num((N - 1)/12), each S_q
    a tuple of the primes l of its eta_l, drawn from `etas` (an
    `_Etas`); and W_1 when one eta certifies every q, else None (module
    docstring)."""
    N = etas.space.N
    n = factorize((N - 1) // gcd(N - 1, 12))
    sets = {}
    if max(n.values()) == 1:  # no eta certifies a q with q^2 | n
        for ell in primes_up_to(_CERTIFY_BELOW - 1):
            if ell == N:
                continue
            h, new = _certified(etas([ell])[0], sorted(n))
            if not sets and len(new) == len(n):
                return dict.fromkeys(n, ((ell,), 1)), h
            sets.update({q: ((ell,), 1) for q in new if q not in sets})
            if len(sets) == len(n):
                return sets, None
    sturm = sturm_primes(N)
    gens = etas(sturm + _next_primes(N, 3))  # N is past the Sturm bound
    for q in sorted(n):
        if q not in sets:
            k, a = _accepted(gens, len(sturm), q)
            sets[q] = (tuple(sturm[:k]), a)
    return sets, None


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
    """Assemble the Eisenstein filtration on M^sign at the prime p from a
    generator set S_q for each prime q of num((N - 1)/12) (module
    docstring)."""
    check_pair(space.N, p)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    etas = _Etas(space, sign)
    sets, w1 = _local_sets(etas)
    chain = etas(list(dict.fromkeys(ell for s, _ in sets.values() for ell in s)))
    m = prod(q**a for q, (_, a) in sets.items())
    if w1 is None:
        w1 = hnf_mod(np.concatenate(chain), m)

    # runtime cross-check: every eta the build computed lies in I, so it
    # maps W_0 = Z^g into W_1, which holds m Z^g
    z = scaled_inverse_mod(w1, m)
    for eta in etas.values():
        if not in_lattice(eta, z, m).all():
            raise ValueError("an Eisenstein generator does not map M into W_1")
    e = m // gcd(m, int(np.gcd.reduce(z.ravel())))  # the exponent of Z^g / W_1
    ws = [np.eye(space.genus, dtype=np.int64), w1]
    for k in range(2, n_max + 2):
        ws.append(hnf_mod(np.concatenate([mul_exact(ws[-1], eta) for eta in chain]), e**k))
    return EisensteinContext(space=space, p=p, n_max=n_max, sign=sign,
                             g_p=_g_p(etas(sets[p][0]), p), W=tuple(map(IntMatrix, ws)))


def _valuations(ctx, x):
    """The valuations of the rows of x (signed coordinates): each level's
    test x Z_n = 0 mod m_n as one product (`in_lattice`)."""
    val = np.zeros(len(x), dtype=np.int64)
    passed = np.ones(len(x), dtype=bool)
    for n, (m, z) in enumerate(ctx.membership, 1):
        passed &= in_lattice(x, z, m)
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
        sym = x + space.star.left_mul(x)
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
