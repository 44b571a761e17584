"""Eisenstein filtration: lattice chain, valuations, g_p, alpha map."""

import random

import pytest

from eistheta import eisenstein
import numpy as np

from eistheta.exact_linalg import (
    IntMatrix,
    LogMap,
    primes_up_to,
    snf,
    vp,
)
from eistheta.eisenstein import (
    _alpha_of_plus_vector,
    alpha_check,
    build_context,
    g_p_dimension,
    merel_criterion,
    p_local_valuation,
    theta_valuation,
    theta_valuations,
)
from eistheta.harness import FIXTURES_LARGE
from eistheta.modsym import (
    ThetaElement,
    _space_from_section,
    build_space,
    family_counts,
    hecke,
    merel_matrices,
    presentation,
    restrict_to_sign,
    theta_element,
    theta_elements,
)
from eistheta.quadfield import validate_discriminant
from oracles import ADMISSIBLE, hnf, mat_mul, merel_hecke, snf_section_reduction, solve_left

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
    # at n_max = 16, p^(2E) * g >= 2^63: the residue tests run in Python ints
    ctx = build_context(SP11, 5, n_max=16)
    assert 5 ** (2 * max(ctx.e)) * ctx.space.genus >= 2**63
    thetas = [ThetaElement(D=th.D, coords=tuple(5**k * c for c in th.coords), sign=1)
              for th in theta_elements(SP11, [12, 37, 53]) for k in (0, 6, 13, 20)]
    vals = theta_valuations(ctx, thetas)
    assert vals == _valuations_one_by_one(ctx, thetas)
    assert vals[:4] == [1, 7, 14, 17]  # 17 = n_max + 1: at least 17


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
    sec = space.relation_kernel_basis.entries
    support = [j for j, col in enumerate(zip(*sec)) if any(col)]
    sec_s = IntMatrix([[row[j] for j in support] for row in sec])
    basis = space.plus_basis if sign > 0 else space.minus_basis
    cusp = space.cuspidal_basis

    def generator(ell, eigen):
        counts = family_counts([space.generators[j] for j in support],
                               merel_matrices(ell), space.N, space._inv)
        t_rel = mat_mul(sec_s, IntMatrix(counts), space.reduction)
        t = solve_left(basis, mat_mul(basis, solve_left(cusp, mat_mul(cusp, t_rel))))
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
    assert ctx.eis_generators == tuple(gens)
    assert ctx.W == tuple(w)
    assert [sd.diag for sd in ctx.snf_of_W] == diags
    assert list(ctx.e) == e


@pytest.mark.parametrize("N,p", sorted({N: p for N, p in reversed(ADMISSIBLE)}.items())
                         + [(421, 5)])
def test_hecke_matches_merel_family_at_every_context_prime(N, p, monkeypatch):
    # Cremona's family gives T_l (l != N) and Merel's U_N; both families
    # give the same operator at every l the context asks for: the primes
    # up to the Sturm bound, N, and the three saturation primes above both
    space = {11: SP11, 31: SP31, 211: SP211}.get(N) or build_space(N)
    asked = []
    monkeypatch.setattr(eisenstein, "hecke", lambda sp, ell: asked.append(ell) or hecke(sp, ell))
    build_context(space, p)
    sturm = -(-(N + 1) // 6)
    above = [q for q in primes_up_to(max(N, sturm) + 100) if q > max(N, sturm)][:3]
    assert asked == [ell for ell in primes_up_to(sturm) if ell != N] + [N] + above
    for ell in asked:
        assert hecke(space, ell).matrix == merel_hecke(space, ell), ell


def _p_parts(diag, p):
    return sorted(v for v in (vp(d, p) for d in diag) if v)


@pytest.mark.parametrize("sign", [1, -1])
def test_good_primes_generate_the_filtration_locally(sign):
    # Mazur (1977, II.16): locally at p, I^n is generated by eta_l^n for a
    # good prime l (l != N, l not a p-th power mod N, l != 1 mod p), so the
    # p-parts of the Smith forms of eta_l^n and of W_n agree; at N = 211
    # the primes 11 and 31 (= 1 mod 5) are not good, and differ
    N, p = 211, 5
    ctx = build_context(SP211, p, sign=sign)
    good = []
    for ell in primes_up_to(40):
        t = restrict_to_sign(SP211, hecke(SP211, ell).matrix, sign)
        eta = IntMatrix(t.array - (ell + 1) * np.eye(SP211.genus, dtype=np.int64))
        is_good = ell != N and pow(ell, (N - 1) // p, N) != 1 and ell % p != 1
        power = eta
        for n in range(1, 5):
            same = _p_parts(snf(power).diag, p) == _p_parts(ctx.snf_of_W[n].diag, p)
            assert same == is_good, (ell, n)
            power = mat_mul(power, eta)
        good.append(is_good)
    assert good.count(False) == 2


def test_merel_criterion_at_the_large_fixtures():
    for N, p, want in FIXTURES_LARGE:
        assert merel_criterion(N, p) == (want >= 2)
    assert merel_criterion(31, 5) and not merel_criterion(11, 5)
    with pytest.raises(ValueError, match="hypothesis"):
        merel_criterion(101, 5)


@pytest.mark.parametrize("N,p", [(31, 5), (71, 7), (181, 5)])
def test_filtration_is_independent_of_the_m_rel_basis(N, p):
    # e, the Smith invariants of every W_n, g_p and the theta valuations
    # are the same on the SNF route's M_rel basis as on the tree's
    pres = presentation(N)
    tree = build_context(build_space(N), p)
    old = build_context(_space_from_section(pres, *snf_section_reduction(pres)), p)
    assert old.space.reduction != tree.space.reduction
    assert old.e == tree.e and g_p_dimension(old) == g_p_dimension(tree)
    assert [sd.diag for sd in old.snf_of_W] == [sd.diag for sd in tree.snf_of_W]
    ds = [D for D in range(5, 400) if validate_discriminant(D, N, p, want_split=True)][:5]
    assert ds
    for D in ds:
        assert (theta_valuation(old, theta_element(old.space, D))
                == theta_valuation(tree, theta_element(tree.space, D)))
