"""Modular-symbol space: presentation, boundary, star, Hecke, thetas.

The Hecke tests include a from-scratch oracle that applies the coset
definition T_l {a,b} = sum_u {(a+u)/l, (b+u)/l} (+ {la, lb} when l
does not divide the level) with exact rational arithmetic, so the
Heilbronn-family route is checked against the definition itself.
"""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import floor
from types import SimpleNamespace

import numpy as np
import pytest

import eistheta
from eistheta import modsym
from eistheta.exact_linalg import IntMatrix, is_prime, kronecker, mul_int64, primes_up_to, xgcd
from eistheta.modsym import (
    HeckeOp,
    _chi_table,
    _MEREL_CACHE,
    build_space,
    cremona_matrices,
    family_counts,
    genus,
    hecke,
    hecke_family,
    merel_matrices,
    p1_index,
    path_to_chain,
    presentation,
    solve_by_inverse,
    star_decompose,
    theta_element,
    theta_elements,
    tree_reduction,
)
from eistheta.quadfield import is_fundamental
from oracles import (
    ADMISSIBLE,
    full_theta_counts,
    mat_mul,
    relation_matrix,
    snf_section_reduction,
    solve_left,
)

rng = random.Random(60493)


def genus_formula(N):
    # standard genus of X_0(N) for prime N
    nu2 = 1 + kronecker(-4, N)
    nu3 = 1 + kronecker(-3, N)
    g = Fraction(N + 1, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
    assert g.denominator == 1
    return int(g)


def test_build_space_pinned_ranks():
    sp = build_space(11)
    assert len(sp.generators) == 12
    assert sp.reduction.cols == 3
    assert sp.cuspidal_basis.rows == 2
    assert sp.genus == 1
    assert sp.plus_basis.rows == 1 and sp.minus_basis.rows == 1
    sp31 = build_space(31)
    assert sp31.cuspidal_basis.rows == 4
    assert sp31.genus == 2


@pytest.mark.parametrize("N", [11, 31, 53, 73])
def test_ranks_match_genus_formula(N):
    sp = build_space(N)
    g = genus_formula(N)
    assert sp.genus == g
    assert sp.reduction.cols == 2 * g + 1
    assert sp.cuspidal_basis.rows == 2 * g
    assert sp.plus_basis.rows == g and sp.minus_basis.rows == g


def test_genus_matches_formula():
    for N in range(5, 2000):
        if is_prime(N):
            assert genus(N) == genus_formula(N), N
    with pytest.raises(ValueError, match="prime"):
        genus(91)


# --- M_rel from the spanning tree, against the SNF route ----------------------

LEVELS = sorted({N for N, _ in ADMISSIBLE})


def test_levels_cover_both_graph_shapes():
    # N = 1 mod 4 has S-fixed symbols (half-edges), N = 1 mod 3 has
    # tau-fixed ones (leaves); the oracle levels include each case and
    # its absence
    assert {N % 4 for N in LEVELS} == {1, 3} and {N % 3 for N in LEVELS} == {1, 2}
    for N in LEVELS:
        pres = presentation(N)
        assert bool(pres.sfixed) == (N % 4 == 1)
        leaves = [i for i in range(N + 1) if pres.tau[i] == i]
        assert bool(leaves) == (N % 3 == 1)


@pytest.mark.parametrize("N", LEVELS)
def test_tree_reduction_matches_snf_oracle(N):
    pres = presentation(N)
    free, red_vars = tree_reduction(pres)
    assert len(free) == 2 * genus(N) + 1
    assert not (relation_matrix(pres) @ red_vars).any()  # every relation dies
    assert set(np.unique(red_vars).tolist()) <= {-1, 0, 1}
    sp = build_space(N)
    sec, red = sp.relation_kernel_basis.array, sp.reduction.array
    assert set(np.unique(red).tolist()) <= {-1, 0, 1}
    assert (np.abs(sec).sum(axis=1) == 1).all()  # each row one symbol, +-1
    # both reductions are quotient maps onto M_rel: the change of basis
    # each way is an integer matrix, and the two are mutually inverse
    sec_o, red_o = snf_section_reduction(pres)
    a, b = mul_int64(sec_o, red), mul_int64(sec, red_o)
    eye = np.eye(len(free), dtype=np.int64)
    assert (a @ b == eye).all() and (b @ a == eye).all()


def test_tree_reduction_rejects_broken_graphs():
    pres = presentation(31)
    (r, v, c), rest = pres.relations[0], pres.relations[1:]
    flipped = dataclasses.replace(pres, relations=((r, v, -c),) + rest)
    with pytest.raises(ValueError, match="opposite signs"):
        tree_reduction(flipped)
    # a presentation read at the wrong level has the wrong free rank
    with pytest.raises(ValueError, match="2g \\+ 1 free edges"):
        tree_reduction(dataclasses.replace(pres, N=41))  # genus 3, not 2
    # two rows, each with a loop and nothing joining them
    two_loops = SimpleNamespace(N=11, reps=(0, 1), sfixed=(), nrel=2,
                                relations=((0, 0, 1), (0, 0, -1), (1, 1, 1), (1, 1, -1)))
    with pytest.raises(ValueError, match="not connected"):
        tree_reduction(two_loops)


def test_tree_reduction_checks_survive_optimize():
    # a presentation with one relation triple dropped leaves a variable in
    # a single slot; the check is a raise, so `python -O` keeps it
    code = (
        "import dataclasses\n"
        "from eistheta.modsym import presentation, tree_reduction\n"
        "pres = presentation(31)\n"
        "try:\n"
        "    tree_reduction(dataclasses.replace(pres, relations=pres.relations[1:]))\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
        "else:\n"
        "    print('no error')\n"
    )
    src = os.path.dirname(os.path.dirname(eistheta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out == ["ValueError: variable 0 does not sit in exactly two tau-row slots "
                   "of opposite signs"]


def test_build_space_rejects_bad_level():
    for N in (12, 3, 2, 1, 91):
        with pytest.raises(ValueError):
            build_space(N)


def test_index_is_projective():
    sp = build_space(31)
    N = sp.N
    seen = {sp.index(c, d) for c, d in sp.generators}
    assert len(seen) == N + 1 and None not in seen
    assert sp.index(0, 0) is None
    for _ in range(200):
        u, v = rng.randrange(N), rng.randrange(N)
        if u == v == 0:
            continue
        lam = rng.randrange(1, N)
        assert sp.index(u, v) == sp.index(lam * u % N, lam * v % N)


def test_vectorized_index_matches_space_index():
    sp = build_space(31)
    N = sp.N
    u, v = (a.ravel() for a in np.indices((N, N)))
    u, v = u[1:], v[1:]  # every (u : v) but (0 : 0)
    idx = p1_index(u, v, N, np.array(sp._inv))
    assert idx.tolist() == [sp.index(a, b) for a, b in zip(u.tolist(), v.tolist())]


def test_presentation_permutations():
    pres = presentation(31)
    n = 32
    assert sorted(pres.sigma) == sorted(pres.tau) == sorted(pres.iota) == list(range(n))
    assert all(pres.sigma[pres.sigma[i]] == i for i in range(n))  # S^2 = -1 is trivial on P^1
    assert all(pres.tau[pres.tau[pres.tau[i]]] == i for i in range(n))  # T^3 = 1
    assert all(pres.iota[pres.iota[i]] == i for i in range(n))
    # each symbol is +- one folded variable, represented by a symbol of sign +1
    assert all(pres.var_of[r] == v and pres.sign_of[r] == 1 for v, r in enumerate(pres.reps))


def test_two_and_three_term_relations_vanish():
    sp = build_space(31)
    N = sp.N
    red = sp.reduction.entries
    k = sp.reduction.cols
    for i, (c, d) in enumerate(sp.generators):
        js = sp.index(d, -c)  # (c:d) S
        jt = sp.index(d, -c - d)  # (c:d) T
        jt2 = sp.index(-c - d, c)  # (c:d) T^2
        assert all(red[i][m] + red[js][m] == 0 for m in range(k))
        assert all(red[i][m] + red[jt][m] + red[jt2][m] == 0 for m in range(k))


def test_section_is_a_section():
    sp = build_space(31)
    assert mat_mul(sp.relation_kernel_basis, sp.reduction) == IntMatrix.identity(5)


def test_build_space_hands_over_the_cuspidal_inverse():
    # the star matrix needs the inverse, so the build seeds the cached one
    sp = build_space(31)
    assert "cuspidal_inverse" in sp.__dict__
    assert mat_mul(sp.cuspidal_basis, sp.cuspidal_inverse) == IntMatrix.identity(4)


def test_boundary_rank_one():
    sp = build_space(11)
    nonzero = [r for r in sp.boundary.entries if any(r)]
    assert len(nonzero) == 1
    # degree-zero image: the two cusp classes appear with opposite signs
    assert sum(nonzero[0]) == 0


def test_path_pinned_examples():
    sp = build_space(11)
    # {0, 1/2} reduces to the single symbol of the matrix with columns
    # (0,1) and (1,2), i.e. Manin symbol (2:1)
    expected = sp.reduction.entries[sp.index(2, 1)]
    assert path_to_chain(sp, 1, 2) == tuple(expected)
    # {0, 0/1} is the zero chain
    assert path_to_chain(sp, 0, 1) == (0,) * 3
    with pytest.raises(ValueError):
        path_to_chain(sp, 2, 4)
    with pytest.raises(ValueError):
        path_to_chain(sp, 1, 0)


def test_path_boundary_telescopes():
    # boundary of {0, a/m} is [cusp class of a/m] - [class of 0]
    from math import gcd

    sp = build_space(11)
    for _ in range(100):
        m = rng.randrange(1, 400)
        a = rng.randrange(-400, 400)
        if gcd(a, m) != 1:
            continue
        chain = IntMatrix([list(path_to_chain(sp, a, m))])
        bd = mat_mul(chain, sp.boundary).entries[0]
        if m % sp.N == 0:
            assert bd == (-1, 1)  # lands at the cusp oo
        else:
            assert bd == (0, 0)


def test_star_is_an_involution():
    for N in (11, 31, 53):
        sp = build_space(N)
        assert mat_mul(sp.star, sp.star) == IntMatrix.identity(sp.star.rows)
        plus, minus = star_decompose(sp.star)
        assert plus == sp.plus_basis and minus == sp.minus_basis


def test_star_eigenlattice_index_is_power_of_two():
    for N in (11, 31, 53):
        sp = build_space(N)
        stacked = IntMatrix(
            list(sp.plus_basis.entries) + list(sp.minus_basis.entries)
        )
        from eistheta.exact_linalg import snf

        d = snf(stacked).diag
        idx = 1
        for x in d:
            idx *= x
        assert idx != 0
        idx = abs(idx)
        while idx % 2 == 0:
            idx //= 2
        assert idx == 1


def test_merel_family_small():
    m2 = {tuple(r) for r in merel_matrices(2).tolist()}
    assert m2 == {(1, 0, 0, 2), (1, 0, 1, 2), (2, 0, 0, 1), (2, 1, 0, 1)}
    for ell in (2, 3, 5, 7, 13):
        arr = merel_matrices(ell)
        assert len({tuple(r) for r in arr.tolist()}) == len(arr)
        for a, b, c, d in arr.tolist():
            assert a > b >= 0 and d > c >= 0 and a * d - b * c == ell


def _cremona_reference(ell):
    """Cremona's family for an odd prime ell, each nearest integer taken
    from an exact Fraction, halves rounded away from zero."""
    half = Fraction(1, 2)
    out = [(1, 0, 0, ell)]
    for r in range(-(ell // 2), ell // 2 + 1):
        x1, x2, y1, y2 = ell, -r, 0, 1
        a, b = -ell, r
        out.append((x1, x2, y1, y2))
        while b:
            f = Fraction(a, b)
            q = floor(abs(f) + half) * (1 if f > 0 else -1)
            a, b = -b, a - b * q
            x1, x2 = x2, q * x2 - x1
            y1, y2 = y2, q * y2 - y1
            out.append((x1, x2, y1, y2))
    return out


def test_cremona_family():
    assert {tuple(r) for r in cremona_matrices(2).tolist()} == \
        {tuple(r) for r in merel_matrices(2).tolist()}
    assert cremona_matrices(3).tolist() == [
        [1, 0, 0, 3], [3, 1, 0, 1], [1, 0, 1, 3], [3, 0, 0, 1], [3, -1, 0, 1], [-1, 0, 1, -3]]
    for ell in primes_up_to(2000)[1:]:
        arr = cremona_matrices(ell)
        assert arr.dtype == np.int64
        assert (arr[:, 0] * arr[:, 3] - arr[:, 1] * arr[:, 2] == ell).all()
        assert np.array_equal(arr, np.array(_cremona_reference(ell))), ell
    # 8,694 matrices for the 20 T_l and three saturation primes at N = 421,
    # against 26,924 in Merel's families
    ells = primes_up_to(71) + [431, 433, 439]
    assert sum(len(cremona_matrices(ell)) for ell in ells) == 8694


def test_hecke_family_keeps_merel_for_u_n():
    assert hecke_family(11, 11) is merel_matrices(11)
    assert hecke_family(5, 11) is cremona_matrices(5)
    assert hecke_family(5, 5) is merel_matrices(5)
    # both families of 5 memoized side by side in the one cache
    assert _MEREL_CACHE[5] is merel_matrices(5)
    assert _MEREL_CACHE[("cremona", 5)] is cremona_matrices(5)
    assert len(merel_matrices(5)) == 15 and len(cremona_matrices(5)) == 12


def test_family_counts_refuses_entries_beyond_int64():
    sp = build_space(11)
    fam = np.array([[1, 0, 0, 2], [2**60, 0, 0, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        family_counts(sp.generators, fam, 11, sp._inv)
    fam[1, 0] = -(2**60)  # the bound is on the absolute value
    with pytest.raises(ValueError, match="int64"):
        family_counts(sp.generators, fam, 11, sp._inv)
    fam[1, 0] = 2**58  # 2 * 11 * 2^58 < 2^63 is still exact
    assert family_counts(sp.generators, fam, 11, sp._inv).sum() == 2 * 12


def _family_counts_oracle(sp, ell):
    # one np.add.at per matrix over all N + 1 symbols, (0:0) dropped:
    # the loop hecke ran before the shared action
    N = sp.N
    n = N + 1
    cs, ds = np.array(sp.generators, dtype=np.int64).T
    invarr = np.array(sp._inv, dtype=np.int64)
    counts = np.zeros((n, n), dtype=np.int64)
    rows_idx = np.arange(n)
    for a, b, c2, d2 in merel_matrices(ell):
        u = (cs * a + ds * c2) % N
        v = (cs * b + ds * d2) % N
        tgt = p1_index(u, v, N, invarr)
        keep = (u != 0) | (v != 0)
        np.add.at(counts, (rows_idx[keep], tgt[keep]), 1)
    return counts


@pytest.mark.parametrize("N", [11, 31])
def test_family_counts_match_per_matrix_loop(N):
    sp = build_space(N)
    for ell in (2, 3, 5, 7, N):
        fam = merel_matrices(ell)
        want = _family_counts_oracle(sp, ell)
        got = family_counts(sp.generators, fam, N, sp._inv)
        assert got.shape == (N + 1, N + 1) and (got == want).all()
        picks = rng.sample(range(N + 1), 5)
        sub = family_counts([sp.generators[i] for i in picks], fam, N, sp._inv)
        assert (sub == want[picks]).all()
        if ell != N:  # no (0:0) image, so nothing is dropped
            assert (got.sum(axis=1) == len(fam)).all()


def test_hecke_pinned_eleven():
    sp = build_space(11)
    t2 = hecke(sp, 2).matrix
    assert t2 == IntMatrix([[-2, 0], [0, -2]])  # both eigenvalues -2
    assert hecke(sp, 3).matrix == IntMatrix([[-1, 0], [0, -1]])
    assert hecke(sp, 11).matrix == IntMatrix.identity(2)
    assert (-2 - 3) % 5 == 0  # T_2 - (2+1) is 5-Eisenstein here


def test_hecke_charpoly_at_31():
    import sympy

    sp = build_space(31)
    t2 = sympy.Matrix(list(hecke(sp, 2).matrix.entries))
    x = sympy.Symbol("x")
    # the two conjugate newforms at level 31 have a_2 = (1 +- sqrt(5))/2,
    # whose minimal polynomial is the one whose roots are 3 mod the prime
    # above 5 -- the Eisenstein congruence a_l = l + 1
    assert t2.charpoly(x).as_expr() == ((x**2 - x - 1) ** 2).expand()


def test_hecke_operators_commute():
    sp = build_space(31)
    ops = [hecke(sp, ell).matrix for ell in (2, 3, 5, 31)]
    for a in ops:
        for b in ops:
            assert mat_mul(a, b) == mat_mul(b, a)
        assert mat_mul(a, sp.star) == mat_mul(sp.star, a)


def test_hecke_rejects_composite_index():
    sp = build_space(11)
    with pytest.raises(ValueError):
        hecke(sp, 6)


# --- coset-definition oracle ------------------------------------------------

INF = None  # the cusp at infinity


def _chain(sp, r):
    """{0, r} in M_rel coordinates, r a Fraction or INF."""
    if r is INF:
        return list(sp.reduction.entries[sp.index(0, 1)])
    return list(path_to_chain(sp, r.numerator, r.denominator))


def _gen_path(sp, i):
    """Endpoints (alpha, beta) of the path of the i-th Manin generator."""
    c, d = sp.generators[i]
    g, u, v = xgcd(d, c)
    assert g == 1
    a, b = u, -v  # a*d - b*c = 1, lift [[a, b], [c, d]]
    alpha = INF if d == 0 else Fraction(b, d)
    beta = INF if c == 0 else Fraction(a, c)
    return alpha, beta


def _coset_apply(sp, ell, alpha, beta):
    """T_ell {alpha, beta} straight from the coset definition."""
    k = sp.reduction.cols
    total = [0] * k
    for u in range(ell):
        for r, s in (((beta + u) / ell if beta is not INF else INF, 1),
                     ((alpha + u) / ell if alpha is not INF else INF, -1)):
            ch = _chain(sp, r)
            for j in range(k):
                total[j] += s * ch[j]
    if sp.N % ell != 0:
        for r, s in ((beta * ell if beta is not INF else INF, 1),
                     (alpha * ell if alpha is not INF else INF, -1)):
            ch = _chain(sp, r)
            for j in range(k):
                total[j] += s * ch[j]
    return total


def _oracle_matrix(sp, ell):
    """The coset-definition operator on M, in cuspidal coordinates."""
    sec = sp.relation_kernel_basis.entries
    k = sp.reduction.cols
    paths = [_gen_path(sp, i) for i in range(len(sp.generators))]
    images = []
    for row in sp.cuspidal_basis.entries:
        coeffs = [sum(row[j] * sec[j][i] for j in range(k))
                  for i in range(len(sp.generators))]
        total = [0] * k
        for i, c in enumerate(coeffs):
            if not c:
                continue
            img = _coset_apply(sp, ell, *paths[i])
            for j in range(k):
                total[j] += c * img[j]
        images.append(total)
    return solve_left(sp.cuspidal_basis, IntMatrix(images))


@pytest.mark.parametrize("ell", [2, 3, 11])
def test_hecke_matches_coset_definition_at_11(ell):
    sp = build_space(11)
    assert hecke(sp, ell).matrix == _oracle_matrix(sp, ell)


@pytest.mark.parametrize("ell", [2, 31])
def test_hecke_matches_coset_definition_at_31(ell):
    sp = build_space(31)
    assert hecke(sp, ell).matrix == _oracle_matrix(sp, ell)


# --- theta elements ----------------------------------------------------------

def test_theta_twelve_pinned():
    sp = build_space(11)
    th = theta_element(sp, 12)
    assert th.sign == 1
    plus_coords = solve_left(
        sp.plus_basis, IntMatrix([list(th.coords)])
    )
    assert [abs(x) for x in plus_coords.entries[0]] == [5]


def _random_fundamental(N, lo, hi, k):
    out = []
    while len(out) < k:
        D = rng.choice((1, -1)) * rng.randrange(lo, hi)
        if is_fundamental(D) and D % N and D not in out:
            out.append(D)
    return out


def test_theta_matches_sum_of_paths():
    # loop reference for theta_element's vectorized walk: the chain is
    # sum_a chi_D(a) {0, a/|D|}, each path reduced symbol by symbol, with
    # chi_D from `kronecker`
    cases = [(31, (12, 13, -3, -47, 1001, -1003, 8, -8, -4, 24, -24))]
    cases.append((211, _random_fundamental(211, 3, 1200, 10)))
    for N, ds in cases:
        sp = build_space(N)
        for D in ds:
            m = abs(D)
            rel = [0] * sp.reduction.cols
            for a in range(1, m):
                chi = kronecker(D, a)
                if chi:
                    for i, x in enumerate(path_to_chain(sp, a, m)):
                        rel[i] += chi * x
            th = theta_element(sp, D)
            assert mat_mul(IntMatrix([th.coords]), sp.cuspidal_basis) == IntMatrix([rel]), (N, D)


def _fundamental_window(N, ms):
    """The fundamental D = +-m, m in ms, prime to N, in that order."""
    return [D for m in ms for D in (m, -m) if is_fundamental(D) and D % N]


def test_theta_elements_match_the_full_walk_oracle():
    # the half walk, batched across discriminants, against the walk over
    # every residue, reduced to M_rel: at every admissible N < 400, on a
    # random window of both signs (even |D| among them) and at |D| = 3, 4, 8
    r = random.Random(20261018)
    for N in sorted({N for N, _ in ADMISSIBLE}):
        sp = build_space(N)
        assert not any(path_to_chain(sp, 1, 1))  # {0, 1} is zero in M_rel
        lo = r.randrange(5, 1500)
        Ds = _fundamental_window(N, [3, 4, 8, *range(lo, lo + 40)])
        assert {-3, -4, 8, -8} <= set(Ds) and any(D % 2 == 0 for D in Ds[4:])
        thetas = theta_elements(sp, Ds)
        assert [(th.D, th.sign) for th in thetas] == [(D, 1 if D > 0 else -1) for D in Ds]
        got = mul_int64(np.array([th.coords for th in thetas]), sp.cuspidal_basis.array)
        counts = np.array([full_theta_counts(D, N, sp._inv) for D in Ds])
        assert np.array_equal(got, mul_int64(counts, sp.reduction.array)), N


@pytest.mark.parametrize("N", [11, 211])
def test_theta_elements_do_not_depend_on_the_chunk_bound(monkeypatch, N):
    # with the bound patched small, chunks hold one D or split one D's
    # lanes across several loops; the elements are those of one chunk
    sp = build_space(N)
    Ds = _fundamental_window(N, range(3, 200))
    monkeypatch.setattr(modsym, "_THETA_CHUNK", 2**40)
    whole = theta_elements(sp, Ds)
    walk = modsym._theta_chunk
    for bound, split in ((1, True), (7, True), (64, True), (3 * (N + 1), False)):
        chunks = []

        def spy(space, rows, *args):
            chunks.append((len(rows), sum(len(a) for _, a, _ in rows), len(rows[0][1])))
            return walk(space, rows, *args)

        monkeypatch.setattr(modsym, "_THETA_CHUNK", bound)
        monkeypatch.setattr(modsym, "_theta_chunk", spy)
        assert theta_elements(sp, Ds) == whole, bound
        assert sum(rows for rows, _, _ in chunks) == len(Ds)
        assert all(rows * (N + 1) <= bound or rows == 1 for rows, _, _ in chunks)
        assert all(lanes <= bound or rows == 1 for rows, lanes, _ in chunks)
        # a chunk is cut only where the next D would break the bound
        assert all(lanes + first > bound or (rows + 1) * (N + 1) > bound
                   for (rows, lanes, _), (_, _, first) in zip(chunks, chunks[1:]))
        if split:  # some D's lanes are split across the bound
            assert any(lanes > bound for _, lanes, _ in chunks)
        else:  # some chunk holds several D
            assert any(rows > 1 for rows, _, _ in chunks)


def test_chi_table_matches_kronecker():
    for m in range(3, 3001):
        for D in (m, -m):
            if is_fundamental(D):
                assert _chi_table(D).tolist() == [kronecker(D, a) for a in range(m)], D


def test_theta_walk_bound_survives_optimize():
    # the walk's int64 bound is an explicit raise, so `python -O` keeps
    # it; the stub spaces carry a level and no symbol data, so the bound
    # must fire before any is read: a level past 2^31.5, and a prime
    # D = 1 mod 4 past 2^31.5
    code = (
        "from types import SimpleNamespace\n"
        "from eistheta.modsym import theta_element\n"
        "for N, D in ((3037000537, 5), (11, 3037000537)):\n"
        "    try:\n"
        "        theta_element(SimpleNamespace(N=N, _inv=None), D)\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
        "    else:\n"
        "        print('no error')\n"
    )
    src = os.path.dirname(os.path.dirname(eistheta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out == ["ValueError: theta walk: N or |D| too large for int64 arithmetic"] * 2


def test_theta_refuses_vectors_outside_the_lattice():
    # the left-inverse solve proves membership by multiplying back
    sp = build_space(31)
    basis, inverse = sp.cuspidal_basis.array, sp.cuspidal_inverse.array
    # a vector is outside M exactly when its boundary is nonzero; one
    # M_rel coordinate carries the boundary
    j = next(i for i, row in enumerate(sp.boundary.entries) if any(row))
    unit = [int(i == j) for i in range(5)]
    for v in (unit, [-2 * x for x in unit], [3, -1, 4, 1, -5]):
        assert mat_mul(IntMatrix([v]), sp.boundary).entries != ((0, 0),)
        with pytest.raises(ValueError, match="row span"):
            solve_by_inverse(basis, inverse, np.array([v]))
    th = theta_element(sp, 13)
    rel = mat_mul(IntMatrix([th.coords]), sp.cuspidal_basis)
    assert tuple(solve_by_inverse(basis, inverse, np.array(rel.entries))[0].tolist()) == th.coords


def test_theta_sign_matches_star():
    sp = build_space(11)
    for D in (12, 13, -3, -4, -47, 29):
        th = theta_element(sp, D)
        assert th.sign == (1 if D > 0 else -1)
        v = IntMatrix([list(th.coords)])
        assert mat_mul(v, sp.star) == IntMatrix(
            [[th.sign * x for x in th.coords]]
        )


def test_theta_boundary_vanishes_and_rejections():
    sp = build_space(11)
    for D in (9, 1, -1, 45, 44, -44, 11 * 4):
        with pytest.raises(ValueError):
            theta_element(sp, D)
    # D = 8 is fundamental (8/4 = 2), prime to 11, so it is accepted
    theta_element(sp, 8)


def test_theta_negative_fortyseven_vanishes():
    # the -47 twist has positive analytic rank, so the chain itself dies
    sp = build_space(11)
    assert theta_element(sp, -47).coords == (0, 0)
    assert theta_element(sp, -3).coords != (0, 0)
