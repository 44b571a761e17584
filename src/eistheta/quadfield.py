"""Arithmetic of quadratic fields K = Q(sqrt(D)).

Class numbers come from reduced binary quadratic forms (Gauss reduction
for D < 0, cycles of reduced indefinite forms for D > 0), fundamental
units from the continued-fraction (PQa) expansion of (b0 + sqrt(D))/2,
and split-prime data from explicit ideal powers [N^k, (b + sqrt(D))/2]
reduced along their form cycle.

Units are always represented as u = (x + y*sqrt(D))/2 with
x^2 - D*y^2 = +-4; this works uniformly for both parities of D.
Residues of u modulo the primes above a split N are computed by running
the convergent recurrence modulo a small auxiliary modulus, so huge
fundamental units never have to be written down.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .exact_linalg import (
    LogMap,
    divisors,
    factorize,
    is_prime,
    kronecker,
    log_to_p,
    sqrt_mod,
    vp,
)


def _squarefree(n):
    return all(e == 1 for e in factorize(abs(n)).values())


def is_fundamental(D):
    """True for fundamental discriminants (and 1 and 0 are excluded)."""
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def validate_discriminant(D, N, p, want_split):
    """Admissibility of a twisting discriminant: fundamental, coprime to
    p and N, of the right sign, with N split (+1) resp. inert (-1)."""
    if not is_fundamental(D):
        return False
    if D % p == 0 or D % N == 0:
        return False
    if want_split:
        return D > 0 and kronecker(D, N) == 1
    return D < 0 and kronecker(D, N) == -1


# ---------------------------------------------------------------------------
# class numbers via reduced forms

def _reduced_count_neg(D):
    # |b| <= a <= c with b >= 0 when |b| = a or a = c; all forms are
    # primitive because D is fundamental
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


def _is_reduced_pos(a, b, c, m0, D):
    # 0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b, in exact integer form
    if b < 1 or b > m0:
        return False
    t = 2 * abs(a)
    return (t + b) * (t + b) > D and (t < b or (t - b) * (t - b) < D)


def _rho(a, b, c, m0, D):
    """One step along the reduction operator: (a,b,c) -> (c,b2,c2) via
    the change of variables [[0,-1],[1,t]]; returns the new form and t."""
    ac = abs(c)
    if ac > m0:
        b2 = (-b) % (2 * ac)
        if b2 > ac:
            b2 -= 2 * ac
    else:
        b2 = m0 - ((m0 + b) % (2 * ac))
    t = (b + b2) // (2 * c)
    return (c, b2, (b2 * b2 - D) // (4 * c)), t


def _reduced_forms_pos(D):
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


def class_number(D):
    """Wide class number h(K) of the maximal order of Q(sqrt(D))."""
    if not is_fundamental(D):
        raise ValueError("discriminant is not fundamental")
    if D < 0:
        return _reduced_count_neg(D)
    m0 = isqrt(D)
    todo = set(_reduced_forms_pos(D))
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
        raise ValueError("odd number of form cycles for a unit of norm +1")
    return cycles // 2


# ---------------------------------------------------------------------------
# fundamental units

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


def split_root(D, N):
    """The residue r with r^2 = D mod N that labels the first prime
    above N.  The label is fixed by the radicand: sqrt(m) is sent to the
    smaller of its two square roots, where D = m or 4m."""
    if kronecker(D, N) != 1:
        raise ValueError("N does not split in Q(sqrt(D))")
    m = D if D % 4 else D // 4
    rm = sqrt_mod(m % N, N)
    rm = min(rm, N - rm)
    return rm if D % 4 else (2 * rm) % N


def unit_residues(D, N):
    """(r, u mod prime_1, u mod prime_2) for split N, with sqrt(D) sent
    to r resp. N - r.  Runs the convergent recurrence modulo 2*N*Q0 so
    only the small trajectory, never the unit itself, is needed."""
    r0 = split_root(D, N)
    m0, states, quots, j0, period = _pqa_cycle(D)
    P0, Q0 = states[j0]
    mod = 2 * N * Q0
    r, s = 0, 1
    for i in range(j0, j0 + period):
        r, s = (r * quots[i] + s) % mod, r
    ny = 2 * r % mod
    nx = (2 * r * P0 + 2 * s * Q0) % mod
    if ny % Q0 or nx % Q0:
        raise ValueError("unit coordinates are not integral")
    y2n = ny // Q0 % (2 * N)
    x2n = nx // Q0 % (2 * N)
    inv2 = pow(2, -1, N)
    res1 = (x2n + y2n * r0) * inv2 % N
    res2 = (x2n + y2n * (N - r0)) * inv2 % N
    if not (res1 and res2):
        raise ValueError("unit vanishes modulo a prime above N")
    return r0, res1, res2


def unit_criterion(D, N, p):
    """True iff (u mod prime_1)^h is a p-th power in F_N^* (equivalently
    at prime_2; equivalently h * log_1(u) = 0 in Z/p)."""
    if not validate_discriminant(D, N, p, want_split=True):
        raise ValueError("invalid discriminant for the split case")
    h = class_number(D)
    _, res1, res2 = unit_residues(D, N)
    e = h * (N - 1) // p
    out = pow(res1, e, N) == 1
    if out != (pow(res2, e, N) == 1):
        raise ValueError("unit criterion depends on the choice of prime above N")
    return out


# ---------------------------------------------------------------------------
# split primes: ideal powers, principality, and the conjugate generator

def _lift_root(D, N, k, r):
    """Hensel lift of r^2 = D from mod N to mod N^k (N odd, N ∤ 2D)."""
    rk, M = r % N, N
    while M < N**k:
        M *= N
        rk = (rk - (rk * rk - D) * pow(2 * rk, -1, M)) % M
    return rk


def _prime_power_form(D, N, k):
    """The ideal [N^k, (b + sqrt(D))/2] above N (label r) as the form
    (N^k, b, c); sqrt(D) = r means b = -r mod N^k, parity-corrected."""
    r = split_root(D, N)
    a = N**k
    b = (-_lift_root(D, N, k, r)) % a
    if (b - D) % 2:
        b += a
    c = b * b - D
    if c % (4 * a):
        raise ValueError("lifted root does not give a form of discriminant D")
    return a, b, c // (4 * a)


def _principal_walk(form, D, N):
    """Reduce `form` and walk its cycle looking for leading coefficient
    +-1 (wide principality).  Returns (principal, gamma mod N) where
    gamma accumulates every change of variables, so its first column is
    the coordinate vector of a generator."""
    m0 = isqrt(D)
    a, b, c = form
    g = [[1, 0], [0, 1]]

    def push(t):
        tm = t % N
        for row in g:
            row[0], row[1] = row[1], (row[1] * tm - row[0]) % N

    guard = 0
    while not _is_reduced_pos(a, b, c, m0, D):
        (a, b, c), t = _rho(a, b, c, m0, D)
        push(t)
        guard += 1
        if guard >= 100000:
            raise ValueError("form reduction did not terminate")
    start = (a, b)
    while True:
        if abs(a) == 1:
            return True, g
        (a, b, c), t = _rho(a, b, c, m0, D)
        push(t)
        if (a, b) == start:
            return False, None
        guard += 1
        if guard >= 1000000:
            raise ValueError("form cycle did not close")


def split_prime_data(D, N, p, h=None, logmap=None):
    """(s, log1_pi2): s is the order of [prime_1] in the class group,
    and log1_pi2 the log of the conjugate generator pi_2 mod prime_1.

    The s-th ideal power is produced directly by lifting the square
    root of D to mod N^s; a generator's residue mod prime_1 falls out
    of the reduction trajectory tracked modulo N.
    """
    if not validate_discriminant(D, N, p, want_split=True):
        raise ValueError("invalid discriminant for the split case")
    if h is None:
        h = class_number(D)
    if logmap is None:
        logmap = LogMap(N, p)
    r = split_root(D, N)
    inv2 = pow(2, -1, N)
    for k in divisors(h):
        a, b, c = _prime_power_form(D, N, k)
        principal, g = _principal_walk((a, b, c), D, N)
        if principal:
            # z = x*a + y*(b + sqrt(D))/2 generates the ideal; pi_2 is
            # its conjugate, and sqrt(D) = r modulo prime_1
            x, y = g[0][0], g[1][0]
            t = (2 * (a % N) * x + (b % N) * y - y * r) * inv2 % N
            if not t:
                raise ValueError("conjugate generator lies in the first prime above N")
            return k, log_to_p(t, logmap)
    raise RuntimeError("no principal power up to the class number")


def pic_zn_trivial(D, N, p):
    """True iff the p-part of Cl(K) dies in Cl(O_K[1/N]), i.e. is
    generated by the class of a prime above N: v_p(s) = v_p(h)."""
    h = class_number(D)
    if h % p:
        return True
    s, _ = split_prime_data(D, N, p, h=h)
    return vp(h, p) == vp(s, p)


# ---------------------------------------------------------------------------
# assembled per-discriminant profile

@dataclass(frozen=True)
class QuadFieldProfile:
    """Everything the rank predictions need to know about Q(sqrt(D)) at
    a split level N: class number, unit and generator logs, and the
    derived boolean criterion h * log1_u = 0 mod p."""

    D: int
    h: int
    h_mod_p: int
    r: int
    u_mod_N1: int
    u_mod_N2: int
    s: int
    log1_u: int
    log1_pi2: int | None
    pic_zn_trivial: bool
    criterion: bool


def field_profile(D, N, p, logmap=None):
    """Compute the QuadFieldProfile for a valid even (split) D.

    log1_pi2 is only reported when p does not divide h, where the rank
    prediction actually consumes it.
    """
    if not validate_discriminant(D, N, p, want_split=True):
        raise ValueError("invalid discriminant for the split case")
    if logmap is None:
        logmap = LogMap(N, p)
    h = class_number(D)
    r, res1, res2 = unit_residues(D, N)
    log1_u = log_to_p(res1, logmap)
    if (log1_u + log_to_p(res2, logmap)) % p:
        raise ValueError("unit logs at the two primes above N do not cancel")
    criterion = h * log1_u % p == 0
    s, log1_pi2 = split_prime_data(D, N, p, h=h, logmap=logmap)
    if h % p == 0:
        log1_pi2 = None
    return QuadFieldProfile(
        D=D,
        h=h,
        h_mod_p=h % p,
        r=r,
        u_mod_N1=res1,
        u_mod_N2=res2,
        s=s,
        log1_u=log1_u,
        log1_pi2=log1_pi2,
        pic_zn_trivial=vp(h, p) == vp(s, p),
        criterion=criterion,
    )
