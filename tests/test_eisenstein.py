"""Eisenstein filtration: lattice chain, valuations, g_p, alpha map."""

import functools
import random
from dataclasses import replace
from math import gcd, prod

import pytest

from eistheta import eisenstein, exact_linalg
import numpy as np

from eistheta.exact_linalg import (
    IntMatrix,
    LogMap,
    hnf_mod,
    primes_up_to,
    snf,
    vp,
)
from eistheta.eisenstein import (
    _alpha_data,
    _alpha_of_plus_vector,
    _valuations,
    alpha_check,
    build_context,
    eisenstein_generators,
    g_p_dimension,
    merel_criterion,
    p_local_valuation,
    theta_valuation,
    theta_valuations,
)
from eistheta.harness import FIXTURES_LARGE
from eistheta.modp import g_p_dimension_modp
from eistheta.modsym import (
    ThetaElement,
    build_space,
    hecke,
    restrict_to_sign,
    solve_by_inverse,
    theta_element,
    theta_elements,
)
from eistheta.quadfield import validate_discriminant
from oracles import (
    ADMISSIBLE,
    dense_reduction,
    det,
    hnf,
    mat_mul,
    merel_counts,
    merel_hecke,
    residue_valuations,
    shuffled_tree_space,
    smith_alpha_functional,
    solve_left,
    sturm_chain,
)

rng = random.Random(771561)

SP11 = build_space(11)
CTX11 = build_context(SP11, 5)
SP31 = build_space(31)
CTX31 = build_context(SP31, 5)


def test_context_pinned_at_eleven():
    assert CTX11.sturm_bound == 2
    # M^+ has rank 1 and the whole ideal acts as multiplication by -5,
    # so the chain is 5^n Z and every quotient is cyclic
    assert [sd.diag for sd in CTX11.snf_of_W] == [(1,), (5,), (25,), (125,), (625,)]
    assert CTX11.e == (0, 1, 2, 3, 4)
    assert CTX11.e[1] == 1 and CTX11.e[2] <= 2


def test_context_validation():
    with pytest.raises(ValueError, match="hypothesis p \\|\\| N-1 violated"):
        build_context(SP11, 7)
    with pytest.raises(ValueError, match="hypothesis"):
        build_context(build_space(101), 5)  # 25 | 100
    with pytest.raises(ValueError, match="p >= 5"):
        build_context(SP31, 3)  # 3 || 30, but too small a p
    with pytest.raises(ValueError, match="sign"):
        build_context(SP11, 5, sign=0)


def test_context_refuses_negative_n_max():
    # n_max = -1 once died in the Sturm check's ws[1] with an IndexError
    with pytest.raises(ValueError, match="n_max >= 0"):
        build_context(SP11, 5, n_max=-1)
    assert build_context(SP11, 5, n_max=0).e == (0, 1)


def test_g_p_dimension_fixtures_small():
    assert g_p_dimension(CTX11) == 1
    assert g_p_dimension(CTX31) == 2


def test_theta_twelve_valuation_exactly_one():
    th = theta_element(SP11, 12)
    assert theta_valuation(CTX11, th) == 1


def test_zero_vector_valuation_is_sentinel():
    assert p_local_valuation(CTX11, [0]) == CTX11.n_max + 1
    assert p_local_valuation(CTX31, [0, 0]) == CTX31.n_max + 1


def test_valuation_input_validation():
    with pytest.raises(ValueError):
        p_local_valuation(CTX31, [1])  # wrong length
    with pytest.raises(ValueError):
        p_local_valuation(CTX11, [1.5])


def _brute_member(ctx, n, x):
    """Membership in W_n + p^{e_n} M via an honest integer solve."""
    g = ctx.W[0].rows
    pe = ctx.p ** ctx.e[n]
    stacked = hnf(IntMatrix(
        [list(r) for r in ctx.W[n].entries]
        + [[pe if i == j else 0 for j in range(g)] for i in range(g)]
    ))
    basis = IntMatrix([list(r) for r in stacked.entries if any(r)])
    try:
        solve_left(basis, IntMatrix([list(x)]))
        return True
    except ValueError:
        return False


def test_valuation_matches_solve_oracle():
    ctx = CTX31
    g = ctx.W[0].rows
    vectors = []
    for _ in range(25):
        vectors.append([rng.randrange(-9, 10) for _ in range(g)])
    # salt in vectors that sit deep in the chain
    for n in (1, 2, 3, 4):
        w = ctx.W[n].entries
        for _ in range(6):
            c = [rng.randrange(-2, 3) for _ in range(g)]
            vectors.append(
                [sum(c[i] * w[i][j] for i in range(g)) for j in range(g)]
            )
    for x in vectors:
        val = p_local_valuation(ctx, x)
        for n in range(ctx.n_max + 2):
            assert _brute_member(ctx, n, x) == (n <= val)


def test_valuation_scaling_by_p():
    # multiplying by p raises the valuation (capped at the sentinel)
    ctx = CTX11
    x = [3]
    vals = []
    for k in range(6):
        vals.append(p_local_valuation(ctx, [t * 5**k for t in x]))
    assert vals == [0, 1, 2, 3, 4, 4]


def test_saturation_and_determinism():
    again = build_context(SP31, 5)
    assert again.W == CTX31.W
    assert again.snf_of_W[1].diag == CTX31.snf_of_W[1].diag
    shallow = build_context(SP31, 5, n_max=1)
    assert shallow.W == CTX31.W[:3]


def test_minus_side_valuations():
    ctxm = build_context(SP11, 5, sign=-1)
    # h(-3) = 1 is prime to 5: the theta element must be a unit in the chain
    assert theta_valuation(ctxm, theta_element(SP11, -3)) == 0
    # h(-47) = 5: the true side; this chain even vanishes identically
    assert theta_valuation(ctxm, theta_element(SP11, -47)) == ctxm.n_max + 1
    with pytest.raises(ValueError):
        theta_valuation(CTX11, theta_element(SP11, -3))  # sign mismatch
    with pytest.raises(ValueError):
        alpha_check(ctxm, [(1, 2)])


def _random_samples(k):
    out = []
    while len(out) < k:
        d = rng.randrange(2, 500)
        if d % 11 == 0:
            continue
        b = rng.randrange(1, d)
        from math import gcd

        if gcd(b, d) != 1:
            continue
        out.append((b, d))
    return out


def test_alpha_is_log_multiple():
    assert alpha_check(CTX11, _random_samples(50)) is True


def test_alpha_generator_choice_does_not_matter():
    samples = _random_samples(20)
    assert alpha_check(CTX11, samples, logmap=LogMap(11, 5, generator=7))
    assert alpha_check(CTX11, samples, logmap=LogMap(11, 5, generator=8))


def test_alpha_uninformative_samples():
    # denominators congruent to +-1 mod 11 all have log 0
    with pytest.raises(ValueError, match="uninformative"):
        alpha_check(CTX11, [(1, 12), (1, 23), (2, 21)])


def test_alpha_kills_theta_elements():
    for D in (12, 37, 40):
        th = theta_element(SP11, D)
        y = solve_left(
            SP11.plus_basis, IntMatrix([list(th.coords)])
        )
        assert _alpha_of_plus_vector(CTX11, list(y.entries[0])) == 0


def test_alpha_rejects_bad_denominator():
    with pytest.raises(ValueError):
        alpha_check(CTX11, [(1, 22)])


def _oracle_valuation(ctx, x):
    """Largest n <= n_max + 1 with x in W_1 .. W_n locally at p, by
    honest integer solves."""
    val = 0
    while val <= ctx.n_max and _brute_member(ctx, val + 1, x):
        val += 1
    return val


@pytest.mark.parametrize("N", [11, 31, 211])
@pytest.mark.parametrize("sign", [1, -1])
def test_theta_valuation_matches_solve_oracle(N, sign):
    # the left-inverse route against solve_left on the signed basis, then
    # against the residue table and the brute-force membership chain
    space = {11: SP11, 31: SP31}.get(N) or build_space(N)
    ctx = {(11, 1): CTX11, (31, 1): CTX31}.get((N, sign)) or build_context(space, 5, sign=sign)
    basis = space.plus_basis if sign > 0 else space.minus_basis
    ds = []
    while len(ds) < 8:
        D = sign * rng.randrange(3, 1500)
        if validate_discriminant(D, N, 5, want_split=sign > 0) and D not in ds:
            ds.append(D)
    for D in ds:
        th = theta_element(space, D)
        x = list(solve_left(basis, IntMatrix([list(th.coords)])).entries[0])
        val = theta_valuation(ctx, th)
        assert val == p_local_valuation(ctx, x) == _oracle_valuation(ctx, x), (N, D)


def _valuations_one_by_one(ctx, thetas):
    basis = ctx.space.plus_basis if ctx.sign > 0 else ctx.space.minus_basis
    xs = solve_left(basis, IntMatrix([list(th.coords) for th in thetas])).entries
    return [p_local_valuation(ctx, list(x)) for x in xs]


@pytest.mark.parametrize("N", [11, 31, 211])
@pytest.mark.parametrize("sign", [1, -1])
def test_theta_valuations_match_p_local_valuation(N, sign):
    # the one batched solve and product per level, against the per-vector
    # residue tests on exact solve_left coordinates, row by row
    space = {11: SP11, 31: SP31}.get(N) or build_space(N)
    ctx = {(11, 1): CTX11, (31, 1): CTX31}.get((N, sign)) or build_context(space, 5, sign=sign)
    ds = [D for D in range(2 * sign, 1200 * sign, sign)
          if validate_discriminant(D, N, 5, want_split=sign > 0)]
    thetas = theta_elements(space, ds)
    vals = theta_valuations(ctx, thetas)
    assert vals == _valuations_one_by_one(ctx, thetas)
    assert len(set(vals)) >= 2
    assert theta_valuations(ctx, []) == []
    with pytest.raises(ValueError, match="wrong star sign"):
        theta_valuations(ctx, thetas[:1] + theta_elements(space, [-3 if sign > 0 else 12]))


def test_theta_valuations_past_the_int64_bound():
    # at n_max = 16, m^2 * g >= 2^63 for m = m_17 = 5^17: the membership
    # tests run in Python ints
    ctx = build_context(SP11, 5, n_max=16)
    assert ctx.membership[-1][0] == 5**17
    assert 5 ** 34 * ctx.space.genus >= 2**63
    thetas = [ThetaElement(D=th.D, coords=tuple(5**k * c for c in th.coords), sign=1)
              for th in theta_elements(SP11, [12, 37, 53]) for k in (0, 6, 13, 20)]
    vals = theta_valuations(ctx, thetas)
    assert vals == _valuations_one_by_one(ctx, thetas)
    assert vals[:4] == [1, 7, 14, 17]  # 17 = n_max + 1: at least 17


def test_n_max_past_the_int64_product_bound():
    # at 211 the chain product W_15 eta_2, and every later one, passes
    # mul_int64's bound; they run on Python ints, and the chain continues
    # the n_max = 14 one
    short, ctx = build_context(SP211, 5, n_max=14), build_context(SP211, 5, n_max=16)
    assert ctx.W[:16] == short.W and ctx.g_p == short.g_p == 2
    assert ctx.e[:16] == short.e and ctx.e[15:17] == (8, 8)
    eta = eisenstein._generators(SP211, 1, [2])[0].array
    exact_linalg.mul_int64(ctx.W[14].array, eta)
    with pytest.raises(ValueError, match="int64 product bound"):
        exact_linalg.mul_int64(ctx.W[15].array, eta)


@pytest.mark.parametrize("N,sign", [(211, 1), (211, -1), (421, 1), (421, -1)])
def test_w1_is_the_certificates_hermite_form(N, sign, monkeypatch):
    # one eta certifies every prime of n here, so W_1 is the Hermite form
    # mod r^2 the certificate made, and no step eliminates mod r
    space = SP211 if N == 211 else build_space(N)
    r = prod(exact_linalg.factorize((N - 1) // gcd(N - 1, 12)))
    sets, w1 = eisenstein._local_sets(eisenstein._Etas(space, sign))
    assert set(sets.values()) == {((2,), 1)} and w1 is not None
    moduli = []
    monkeypatch.setattr(eisenstein, "hnf_mod", lambda rows, D:
                        moduli.append(D) or exact_linalg.hnf_mod(rows, D))
    ctx = build_context(space, 5, sign=sign)
    assert moduli == [r**2, r**2, r**3, r**4]
    eta = eisenstein._generators(space, sign, [2])[0].array
    assert np.array_equal(ctx.W[1].array, exact_linalg.hnf_mod(eta, r))
    assert np.array_equal(ctx.W[1].array, w1)


def test_theta_valuation_refuses_vectors_outside_the_sign_lattice():
    plus, minus = SP31.plus_basis.entries, SP31.minus_basis.entries
    outside = (minus[0], [a + b for a, b in zip(plus[0], minus[1])])
    for coords in outside:
        with pytest.raises(ValueError, match="row span"):
            theta_valuation(CTX31, ThetaElement(D=13, coords=tuple(coords), sign=1))


# ---------------------------------------------------------------------------
# the filtration against the stacked-HNF route and the good-prime oracle

SP211 = build_space(211)


def _stacked_filtration(space, p, n_max, sign):
    """(generators, W, SNF diagonals, e) by the route the modular HNF
    replaced: each Hecke operator and its restriction solved by
    `solve_left` in IntMatrix arithmetic, and each W_{n+1} the full
    `hnf` of the stacked products W_n * eta."""
    symbols = [space.generators[j] for j in space.coord_symbols[1:]]
    basis = space.plus_basis if sign > 0 else space.minus_basis

    def generator(ell, eigen):
        counts = merel_counts(symbols, ell, space.N, space._inv)
        t_rel = mat_mul(IntMatrix(counts), dense_reduction(space))
        assert not any(row[0] for row in t_rel.entries)  # the images lie in M
        t_m = IntMatrix([row[1:] for row in t_rel.entries])
        t = solve_left(basis, mat_mul(basis, t_m))
        return IntMatrix([[x - (eigen if i == j else 0) for j, x in enumerate(row)]
                          for i, row in enumerate(t.entries)])

    N = space.N
    gens = [generator(ell, ell + 1) for ell in primes_up_to(-(-(N + 1) // 6)) if ell != N]
    gens.append(generator(N, 1))
    w = [IntMatrix.identity(space.genus)]
    for _ in range(n_max + 1):
        h = hnf(IntMatrix([row for op in gens for row in mat_mul(w[-1], op).entries]))
        w.append(IntMatrix([r for r in h.entries if any(r)]))
    diags = [snf(m).diag for m in w]
    return gens, w, diags, [max(vp(d, p) for d in diag) for diag in diags]


@pytest.mark.parametrize("N", [11, 31, 211])
@pytest.mark.parametrize("sign", [1, -1])
def test_filtration_matches_stacked_hnf_oracle(N, sign):
    space = {11: SP11, 31: SP31, 211: SP211}[N]
    ctx = build_context(space, 5, sign=sign)
    gens, w, diags, e = _stacked_filtration(space, 5, ctx.n_max, sign)
    assert eisenstein_generators(space, sign) == gens
    assert ctx.W == tuple(w)
    assert [sd.diag for sd in ctx.snf_of_W] == diags
    assert list(ctx.e) == e


@pytest.mark.parametrize("N,p", sorted({N: p for N, p in reversed(ADMISSIBLE)}.items())
                         + [(421, 5)])
def test_hecke_matches_merel_family_at_every_context_prime(N, p, monkeypatch):
    # Cremona's family gives T_l (l != N) and Merel's U_N; both families
    # give the same operator at every l the Sturm chain (the oracle) asks
    # for: the primes up to the Sturm bound, N, and the three saturation
    # primes above both (one `hecke_operators` call for the generators,
    # one for the three)
    space = {11: SP11, 31: SP31, 211: SP211}.get(N) or build_space(N)
    asked, given = [], []
    real = eisenstein.hecke_operators

    def recording(sp, ells):
        ops = real(sp, ells)
        asked.append(list(ells))
        given.extend(ops)
        return ops

    monkeypatch.setattr(eisenstein, "hecke_operators", recording)
    sturm_chain(space, 1, 3)
    sturm = -(-(N + 1) // 6)
    above = [q for q in primes_up_to(max(N, sturm) + 100) if q > max(N, sturm)][:3]
    assert asked == [[ell for ell in primes_up_to(sturm) if ell != N] + [N], above]
    for ell, op in zip(asked[0] + asked[1], given):
        assert op == hecke(space, ell) == merel_hecke(space, ell), ell


@pytest.mark.parametrize("N,p", ADMISSIBLE + [(421, 5), (641, 5), (1021, 5)])
@pytest.mark.parametrize("sign", [1, -1])
def test_sketched_chain_steps_match_the_direct_elimination(N, p, sign, monkeypatch):
    # every hnf_mod of the build (the certificates, v_q(det eta_2), the
    # accepted case's checks and the chain steps) eliminates its whole
    # stack once, to the form of the direct elimination; the last n_max
    # steps are W_2 .. W_{n_max + 1}, modulo E^2 .. E^{n_max + 1} for E
    # the exponent of Z^g/W_1 (its largest Smith invariant), and W_1 is
    # one of the forms
    space = _space(N)
    steps, sizes = [], []
    direct = exact_linalg._hnf_mod_reduced
    monkeypatch.setattr(exact_linalg, "_hnf_mod_reduced",
                        lambda a, D: sizes.append(len(a)) or direct(a, D))

    def step(rows, D):  # (stack, modulus, form, rows of each elimination)
        sizes.clear()
        steps.append((rows, D, exact_linalg.hnf_mod(rows, D), list(sizes)))
        return steps[-1][2]

    monkeypatch.setattr(eisenstein, "hnf_mod", step)
    ctx = build_context(space, p, sign=sign)
    for rows, D, got, used in steps:
        assert used == [len(rows)]
        assert np.array_equal(got, direct(exact_linalg._mod_rows(rows, D), D)), (N, sign, D)
    forms = [got for _, _, got, _ in steps]
    for n in range(2, ctx.n_max + 2):
        assert np.array_equal(forms[n - ctx.n_max - 2], ctx.W[n].array)
    exponent = max(ctx.snf_of_W[1].diag)
    assert [D for _, D, _, _ in steps[-ctx.n_max:]] == [exponent**k for k in range(2, ctx.n_max + 2)]
    assert any(np.array_equal(got, ctx.W[1].array) for got in forms)


def _p_parts(diag, p):
    return sorted(v for v in (vp(d, p) for d in diag) if v)


@pytest.mark.parametrize("sign", [1, -1])
def test_good_primes_generate_the_filtration_locally(sign):
    # at N = 211 the naive "good prime" test (l != N, l not a p-th power
    # mod N, l != 1 mod p) happens to pick exactly the l < 40 whose
    # certificate reads v_p(det eta_l) = 1, and for those the p-parts of
    # the Smith forms of eta_l^n and of W_n agree (the `eisenstein`
    # docstring); 11 and 31 (= 1 mod 5) fail both.  The naive test is no
    # certificate: v_p(det eta_l) also counts the other maximal ideals over
    # p at which eta_l is not a unit, and at 1021 it fails (next test)
    N, p = 211, 5
    ctx = build_context(SP211, p, sign=sign)
    good = []
    for ell in primes_up_to(40):
        t = restrict_to_sign(SP211, hecke(SP211, ell), sign)
        eta = IntMatrix(t.array - (ell + 1) * np.eye(SP211.genus, dtype=np.int64))
        is_good = ell != N and pow(ell, (N - 1) // p, N) != 1 and ell % p != 1
        assert (vp(_index(hnf_mod(eta.array, p * p)), p) == 1) == is_good, ell
        power = eta
        for n in range(1, 5):
            same = _p_parts(snf(power).diag, p) == _p_parts(ctx.snf_of_W[n].diag, p)
            assert same == is_good, (ell, n)
            power = mat_mul(power, eta)
        good.append(is_good)
    assert good.count(False) == 2


def _index(h):
    """The index in Z^g of the lattice of a Hermite basis."""
    return prod(map(int, np.diagonal(h)))


@pytest.mark.parametrize("sign", [1, -1])
def test_naive_good_primes_are_not_certificates_at_1021(sign):
    # 23 and 37 pass the naive test at (1021, 5), but eta_l Z^g + 25 Z^g
    # has index divisible by 25: v_5(det eta_l) >= 2, so neither certifies
    # 5.  n = 85 = 5 * 17, and the search stops at l = 3: l = 2 certifies
    # 5 and l = 3 certifies 17
    N, p = 1021, 5
    space = _space(N)
    for ell in (23, 37):
        assert ell % p != 1 and pow(ell, (N - 1) // p, N) != 1
        eta = eisenstein._generators(space, sign, [ell])[0].array
        assert vp(_index(hnf_mod(eta, p * p)), p) >= 2, ell
    asked = []
    real = eisenstein._generators
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eisenstein, "_generators",
                   lambda sp, sg, ells: asked.extend(ells) or real(sp, sg, ells))
        sets, w1 = eisenstein._local_sets(eisenstein._Etas(space, sign))
    assert asked == [2, 3]
    assert sets == {5: ((2,), 1), 17: ((3,), 1)} and w1 is None


@pytest.mark.parametrize("sign", [1, -1])
def test_search_order_does_not_change_the_context_at_1021(sign, monkeypatch):
    # with eta_23 met in eta_3's place, it certifies 17 (not 5: it reads
    # 5^2), and l = 2 certifies 5; the chain stacks the two and gives the
    # same W, and g_p still comes from eta_2: eta_23's generalized kernel
    # mod 5 has dimension 3, g_p is 1
    space = _space(1021)
    want = build_context(space, 5, sign=sign)
    real = eisenstein._generators
    swap = {3: 23, 23: 3}
    monkeypatch.setattr(eisenstein, "_generators", lambda sp, sg, ells: real(
        sp, sg, [swap.get(ell, ell) for ell in ells]))
    etas = eisenstein._Etas(space, sign)
    sets, _ = eisenstein._local_sets(etas)
    eta23 = real(space, sign, [23])[0].array
    assert sets == {5: ((2,), 1), 17: ((3,), 1)} and np.array_equal(etas[3], eta23)
    assert eisenstein._g_p([eta23], 5) == 3
    got = build_context(space, 5, sign=sign)
    assert got.W == want.W and got.g_p == want.g_p == 1


def test_merel_criterion_at_the_large_fixtures():
    for N, p, want in FIXTURES_LARGE:
        assert merel_criterion(N, p) == (want >= 2)
    assert merel_criterion(31, 5) and not merel_criterion(11, 5)
    with pytest.raises(ValueError, match="hypothesis"):
        merel_criterion(101, 5)


def test_sturm_check_refuses_a_generator_that_shrinks_w1(monkeypatch):
    # an extra Hecke prime whose operator (here the identity) does not map
    # W_0 into L_{2,1} fails the membership test, at either sign, though
    # S_2 grows to every Sturm generator
    for N, sign in ((113, 1), (113, -1), (241, 1), (241, -1)):
        first = eisenstein._next_primes(max(N, eisenstein.sturm_bound(N)), 1)[0]
        real = eisenstein._generators
        monkeypatch.setattr(eisenstein, "_generators", lambda sp, sg, ells: [
            IntMatrix.identity(sp.genus) if ell == first else eta
            for ell, eta in zip(ells, real(sp, sg, ells))])
        with pytest.raises(ValueError, match="failed saturation check"):
            build_context(_space(N), P_AT[N], sign=sign)
        monkeypatch.undo()


# the admissible levels where n = num((N - 1)/12) is not squarefree, with
# a prime q whose square divides n: q has no certificate
FALLBACK_LEVELS = {113: 2, 241: 2, 271: 3, 337: 2, 353: 2, 379: 3}
# levels past 400 where a prime of n has no certificate: at 641 and 1009
# n is not squarefree, and at 307, 761 and 1129 it is, but q = 3, 2, 2
# has no eta_l with v_q(det eta_l) = 1 for l < 50
LARGE_ACCEPTED = [(307, 17), (641, 5), (761, 5), (1009, 7), (1129, 47)]
P_AT = dict(reversed(ADMISSIBLE + LARGE_ACCEPTED))  # the least p at each N
# {q: (|S_q|, a_q)} at every level where some q takes the accepted case;
# every S_q is a prefix of eta_2, eta_3, eta_5, ..., the same at both
# signs
LOCAL_SETS = {
    113: {2: (2, 4), 7: (1, 1)},
    241: {2: (3, 4), 5: (2, 2)},
    271: {3: (1, 2), 5: (1, 1)},
    307: {3: (3, 3), 17: (1, 1)},
    337: {2: (5, 5), 7: (1, 1)},
    353: {2: (2, 8), 11: (1, 1)},
    379: {3: (1, 2), 7: (1, 1)},
    641: {2: (2, 11), 5: (2, 2)},
    761: {2: (2, 14), 5: (1, 1), 19: (1, 1)},
    1009: {2: (3, 6), 3: (2, 2), 7: (1, 1)},
    1129: {2: (5, 4), 47: (1, 1)},
}
SPACES = {11: SP11, 31: SP31, 211: SP211}


def _space(N):
    if N not in SPACES:
        SPACES[N] = build_space(N)
    return SPACES[N]


@functools.cache
def _sturm(N, sign, n_max):
    """The oracle's (W, Sturm generators), once per (N, sign, n_max)."""
    return sturm_chain(_space(N), sign, n_max)


def _recording(monkeypatch, name):
    """Patch the `eisenstein` function `name` to record the arguments and
    result of each call."""
    calls = []
    real = getattr(eisenstein, name)

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(eisenstein, name, recording)
    return calls


@pytest.mark.parametrize("N,p", ADMISSIBLE + [(421, 5), (1021, 5)] + LARGE_ACCEPTED)
@pytest.mark.parametrize("sign", [1, -1])
def test_certified_chain_matches_the_sturm_chain(N, p, sign, monkeypatch):
    # the one route gives the Sturm chain's W (the full chain, every prime
    # of n) and g_p; the accepted case runs exactly at the levels where a
    # prime of n has no certificate, with the pinned S_q and a_q
    space = _space(N)
    local = _recording(monkeypatch, "_local_sets")
    ctx = build_context(space, p, sign=sign)
    ws, etas = _sturm(N, sign, ctx.n_max)
    assert ctx.W == ws
    assert ctx.g_p == eisenstein._g_p(etas, p)
    (_, (sets, w1)), = local
    if N in LOCAL_SETS:
        assert {q: (len(s), a) for q, (s, a) in sets.items()} == LOCAL_SETS[N]
        assert all(s == tuple(eisenstein.sturm_primes(N)[:len(s)]) for s, _ in sets.values())
    else:
        assert all(len(s) == 1 and a == 1 for s, a in sets.values())
    if N in FALLBACK_LEVELS:
        assert (N - 1) // gcd(N - 1, 12) % FALLBACK_LEVELS[N] ** 2 == 0


@pytest.mark.parametrize("N", [113, 241, 337, 353])
@pytest.mark.parametrize("sign", [1, -1])
def test_accepted_chain_matches_the_sturm_chain_at_n_max_8(N, sign):
    ctx = build_context(_space(N), P_AT[N], n_max=8, sign=sign)
    assert ctx.W == _sturm(N, sign, 8)[0]


@pytest.mark.parametrize("N", sorted(FALLBACK_LEVELS) + [641])
@pytest.mark.parametrize("sign", [1, -1])
def test_no_generator_certifies_a_prime_whose_square_divides_n(N, sign, monkeypatch):
    # the search skips a non-squarefree n, because a certificate for q
    # would make M_m/IM_m of order q, and it is Z/q^{v_q(n)} (module
    # docstring): every eta_l, l < 50, reads q^2 off hnf_mod(eta_l, q^2).
    # Every prime of n takes the accepted case, which gives the Sturm
    # chain's W and g_p
    q = FALLBACK_LEVELS.get(N, 2)
    assert (N - 1) // gcd(N - 1, 12) % (q * q) == 0
    space = _space(N)
    ells = [ell for ell in primes_up_to(49) if ell != N]
    for ell, eta in zip(ells, eisenstein._generators(space, sign, ells)):
        assert vp(_index(hnf_mod(eta.array, q * q)), q) >= 2, ell
    monkeypatch.setattr(eisenstein, "_certified", lambda *args: pytest.fail("the search ran"))
    ctx = build_context(space, P_AT[N], sign=sign)
    ws, etas = _sturm(N, sign, ctx.n_max)
    assert ctx.W == ws and ctx.g_p == eisenstein._g_p(etas, ctx.p)


@pytest.mark.parametrize("N,sign", [(11, 1), (11, -1), (421, 1), (421, -1)])
@pytest.mark.parametrize("patch", ["square", "zero"])
def test_a_generator_without_a_certificate_falls_back(N, sign, patch, monkeypatch):
    # every searched eta's certificate read off its square, which lies in
    # I but reads q^2, or off 0, which is singular: no prime of n is
    # certified, and the accepted case builds the same context
    space = _space(N)
    want = build_context(space, 5, sign=sign)
    real = eisenstein._certified
    change = {"square": lambda eta: eta @ eta, "zero": np.zeros_like}[patch]
    monkeypatch.setattr(eisenstein, "_certified", lambda eta, qs: real(change(eta), qs))
    accepted = _recording(monkeypatch, "_accepted")
    got = build_context(space, 5, sign=sign)
    assert sorted(args[2] for args, _ in accepted) == sorted(
        exact_linalg.factorize((N - 1) // gcd(N - 1, 12)))
    assert got.W == want.W and got.g_p == want.g_p


@pytest.mark.parametrize("N,sign", [(11, 1), (11, -1), (421, 1), (421, -1)])
def test_certificate_search_refuses_a_generator_outside_w1(N, sign, monkeypatch):
    # eta_2 patched to the identity: it certifies nothing, a later l
    # certifies every prime of n, and the cross-check finds the identity
    # does not map Z^g into W_1
    real = eisenstein._generators
    monkeypatch.setattr(eisenstein, "_generators", lambda sp, sg, ells: [
        IntMatrix.identity(sp.genus) if ell == 2 else eta
        for ell, eta in zip(ells, real(sp, sg, ells))])
    with pytest.raises(ValueError, match="does not map M into W_1"):
        build_context(_space(N), 5, sign=sign)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("patch", ["singular", "unit"])
def test_an_eta_2_that_cannot_bound_the_chain_is_refused(sign, patch, monkeypatch):
    # at 113 every prime of n takes the accepted case, whose a_q is read
    # off eta_2: a singular eta_2 (its first row copied onto its second)
    # has no v_q(det), and the identity, a unit, would drop q from the
    # chain
    def change(eta):
        if patch == "unit":
            return IntMatrix.identity(eta.rows)
        rows = eta.array.copy()
        rows[1] = rows[0]
        return IntMatrix(rows)

    real = eisenstein._generators
    monkeypatch.setattr(eisenstein, "_generators", lambda sp, sg, ells: [
        change(eta) if ell == 2 else eta for ell, eta in zip(ells, real(sp, sg, ells))])
    message = {"singular": "all singular", "unit": "eta_2 is a unit"}[patch]
    with pytest.raises(ValueError, match=message):
        build_context(_space(113), 7, sign=sign)


def test_vq_det_matches_the_determinant():
    # v_q(det eta) from Hermite forms mod q^b against Bareiss: random
    # matrices, some with a row scaled by a power of q (so b doubles
    # several times) and some singular, and every eta_l, l < 50, at 113
    # and 337, both signs
    r = random.Random(27)
    cases = []
    for _ in range(150):
        g = r.randint(1, 6)
        a = np.array([[r.randint(-20, 20) for _ in range(g)] for _ in range(g)], dtype=np.int64)
        if g > 1 and r.random() < 0.2:
            a[-1] = a[0]
        a[0] *= r.choice((2, 3, 5, 7)) ** r.randint(0, 12)
        cases.append(a)
    for N in (113, 337):
        ells = [ell for ell in primes_up_to(49) if ell != N]
        cases += [eta.array for sign in (1, -1)
                  for eta in eisenstein._generators(_space(N), sign, ells)]
    singular = 0
    for a in cases:
        d = det(a)
        for q in (2, 3, 5, 7):
            if d:
                assert eisenstein._vq_det(a, q) == vp(d, q), (a.tolist(), q)
            else:
                with pytest.raises(ValueError, match="all singular"):
                    eisenstein._vq_det(a, q)
        singular += not d
    assert singular >= 10


@pytest.mark.parametrize("sign", [1, -1])
def test_context_at_421_makes_four_eliminations(sign, monkeypatch):
    # the certificate's elimination gives W_1, and each of W_2 .. W_4 takes
    # one more: no other hnf_mod runs
    seen = []
    direct = exact_linalg._hnf_mod_reduced
    monkeypatch.setattr(exact_linalg, "_hnf_mod_reduced",
                        lambda a, D: seen.append(D) or direct(a, D))
    build_context(_space(421), 5, sign=sign)
    assert seen == [35**2, 35**2, 35**3, 35**4]


def test_no_hecke_operator_is_computed_twice_at_761(monkeypatch):
    # the search computes eta_l for every l < 50 (q = 2 has no
    # certificate), and the accepted case asks for the Sturm and
    # saturation generators: each l is computed once
    asked = []
    real = eisenstein.hecke_operators
    monkeypatch.setattr(eisenstein, "hecke_operators",
                        lambda sp, ells: asked.extend(ells) or real(sp, ells))
    build_context(_space(761), 5)
    sturm = eisenstein.sturm_primes(761)
    assert sorted(asked) == sorted(set(sturm + eisenstein._next_primes(761, 3)))
    assert asked[:15] == primes_up_to(49)


def test_the_exact_and_mod_p_routes_agree_at_1871(monkeypatch):
    # two independent routes to g_p: the certified context (the Sturm
    # generators are not computed there; the Sturm chain would take ~40 s)
    # and the mod-p route
    monkeypatch.setattr(eisenstein, "sturm_primes",
                        lambda N: pytest.fail("the Sturm generators were computed at 1871"))
    ctx = build_context(build_space(1871), 5)
    assert ctx.g_p == g_p_dimension_modp(1871, 5) == 2
    assert ctx.e == (0, 1, 1, 2, 2)


@pytest.mark.parametrize("N,p", [(31, 5), (71, 7), (181, 5)])
def test_filtration_is_independent_of_the_m_rel_basis(N, p):
    # e, the Smith invariants of every W_n, g_p and the theta valuations
    # are the same on a second spanning tree's M_rel basis as on the
    # first; at 31 the second tree gives the same reduction, but the
    # Hecke operators act on other coordinate symbols
    tree = build_context(build_space(N), p)
    old = build_context(shuffled_tree_space(N), p)
    assert old.space.coord_symbols != tree.space.coord_symbols
    assert (dense_reduction(old.space) == dense_reduction(tree.space)) == (N == 31)
    assert old.space.coord_symbols[0] == tree.space.coord_symbols[0] == 0
    assert old.e == tree.e and g_p_dimension(old) == g_p_dimension(tree)
    assert [sd.diag for sd in old.snf_of_W] == [sd.diag for sd in tree.snf_of_W]
    ds = [D for D in range(5, 400) if validate_discriminant(D, N, p, want_split=True)][:5]
    assert ds
    for D in ds:
        assert (theta_valuation(old, theta_element(old.space, D))
                == theta_valuation(tree, theta_element(tree.space, D)))


# ---------------------------------------------------------------------------
# membership and alpha against the Smith-transform route they replaced

def _probe_vectors(ctx, count=6):
    """Signed coordinates of the theta elements of a sweep window, then
    random integer combinations of the rows of each W_n, n = 0 .. n_max +
    1, as Python-int lists."""
    space, N, p = ctx.space, ctx.space.N, ctx.p
    ds = [D for D in range(ctx.sign * 3, ctx.sign * 1500, ctx.sign)
          if validate_discriminant(D, N, p, want_split=ctx.sign > 0)][:40]
    basis, inverse = space.signed(ctx.sign)
    xs = solve_by_inverse(basis, inverse, np.array([th.coords for th in theta_elements(space, ds)],
                                                   dtype=np.int64)).tolist() if ds else []
    for w in ctx.W:
        for _ in range(count):
            c = [rng.randrange(-3, 4) for _ in range(w.rows)]
            xs.append([sum(a * b for a, b in zip(c, col)) for col in w.array.T.tolist()])
    return xs


@pytest.mark.parametrize("N,p", ADMISSIBLE + [(421, 5)])
@pytest.mark.parametrize("sign", [1, -1])
def test_membership_matches_the_smith_residue_route(N, p, sign):
    # the Z_n tests against the residue tests on the Smith right transforms,
    # on sweep-window theta elements and combinations of W_n rows that give
    # every level 0 .. n_max + 1; and the alpha functional read off Z_1 is
    # a nonzero multiple of the Smith route's, which refuses where it does
    space = {11: SP11, 31: SP31, 211: SP211}.get(N) or build_space(N)
    ctx = build_context(space, p, sign=sign)
    xs = _probe_vectors(ctx)
    vals = _valuations(ctx, np.array(xs, dtype=object))
    assert vals == residue_valuations(ctx, xs)
    assert set(vals) == set(range(ctx.n_max + 2))
    if sign > 0:
        new, old = _alpha_data(ctx), smith_alpha_functional(ctx)
        ratios = {a * pow(b, -1, p) % p for a, b in zip(new, old) if b}
        assert len(ratios) == 1 and 0 not in ratios
        assert all(a == 0 for a, b in zip(new, old) if not b)


def test_alpha_refuses_a_p_part_of_order_p_squared():
    # with W_2 = 25 Z in W_1's place, both routes refuse
    ctx = replace(CTX11, W=CTX11.W[:1] + CTX11.W[2:])
    for route in (_alpha_data, smith_alpha_functional):
        with pytest.raises(ValueError, match="order exactly p"):
            route(ctx)
