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
from itertools import islice
from math import floor, gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eistheta
from eistheta import modsym
from eistheta.exact_linalg import IntMatrix, is_prime, kronecker, mul_int64, primes_up_to, xgcd
from eistheta.modsym import (
    _half_chis,
    _space_from_tree,
    build_space,
    coordinate_symbols,
    cuspidal_coords,
    cremona_families,
    family_images,
    genus,
    hecke,
    hecke_operators,
    p1_index,
    path_to_chain,
    presentation,
    quotient_map,
    star_decompose,
    theta_element,
    theta_elements,
    tree_reduction,
)
from eistheta.quadfield import is_fundamental
from oracles import (
    ADMISSIBLE,
    chi_table,
    convergent_theta_coords,
    csr_from_dense,
    dense_hecke,
    dense_reduction,
    dense_tree_reduction,
    family_counts,
    full_theta_counts,
    hecke_counts,
    inverse_family_counts,
    loop_presentation,
    mat_mul,
    merel_counts,
    merel_matrices,
    relation_matrix,
    saturated_cuspidal_basis,
    snf_section_reduction,
    solve_left,
    symbol_boundary,
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
    assert dense_reduction(sp).cols == 3
    assert sp.star.rows == 2
    assert sp.genus == 1
    assert sp.plus_basis.rows == 1 and sp.minus_basis.rows == 1
    sp31 = build_space(31)
    assert sp31.star.rows == 4
    assert sp31.genus == 2


@pytest.mark.parametrize("N", [11, 31, 53, 73])
def test_ranks_match_genus_formula(N):
    sp = build_space(N)
    g = genus_formula(N)
    assert sp.genus == g
    assert dense_reduction(sp).cols == 2 * g + 1
    assert sp.star.rows == 2 * g
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
        assert bool(len(pres.sfixed)) == (N % 4 == 1)
        leaves = [i for i in range(N + 1) if pres.tau[i] == i]
        assert bool(leaves) == (N % 3 == 1)


@pytest.mark.parametrize("N", LEVELS)
def test_tree_reduction_matches_snf_oracle(N):
    pres = presentation(N)
    free, red_vars = tree_reduction(pres)
    red_vars = red_vars.dense()
    assert len(free) == 2 * genus(N) + 1
    assert not (relation_matrix(pres) @ red_vars).any()  # every relation dies
    assert set(np.unique(red_vars).tolist()) <= {-1, 0, 1}
    sp = build_space(N)
    sec, red = sp.relation_kernel_basis.array, dense_reduction(sp).array
    assert set(np.unique(red).tolist()) <= {-1, 0, 1}
    assert (np.abs(sec).sum(axis=1) == 1).all()  # each row one symbol, +-1
    # both reductions are quotient maps onto M_rel: the change of basis
    # each way is an integer matrix, and the two are mutually inverse
    sec_o, red_o = snf_section_reduction(pres)
    a, b = mul_int64(sec_o, red), mul_int64(sec, red_o)
    eye = np.eye(len(free), dtype=np.int64)
    assert (a @ b == eye).all() and (b @ a == eye).all()


@pytest.mark.parametrize("N", LEVELS + [1871, 4621])
def test_tree_reduction_matches_the_dense_oracle(N):
    # the level-by-level tree and the lockstep walks to the meeting points
    # give the FIFO tree's free variables and its dense subtree-sum rows;
    # the CSR holds only entries -1 and 1, in increasing column per row
    pres = presentation(N)
    free, red = tree_reduction(pres)
    free_o, red_o = dense_tree_reduction(pres)
    assert free == free_o and all(type(v) is int for v in free)
    assert red.ncols == len(free) and len(red.indptr) == len(pres.reps) + 1
    assert np.array_equal(red.dense(), red_o)
    assert set(red.vals.tolist()) <= {-1, 1}
    row = np.repeat(np.arange(len(pres.reps)), np.diff(red.indptr))
    assert (np.diff(row * red.ncols + red.cols) > 0).all()


@pytest.mark.parametrize("N", LEVELS + [1871])
def test_presentation_matches_the_loop_oracle(N):
    # the numpy fold and tau-orbit rows against the Python loops, field
    # for field; every index field a read-only int64 array
    pres, want = presentation(N), loop_presentation(N)
    for f in dataclasses.fields(pres):
        got, ref = getattr(pres, f.name), getattr(want, f.name)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.int64 and not got.flags.writeable, f.name
            assert np.array_equal(got, np.array(ref, dtype=np.int64).reshape(got.shape)), f.name
            assert got.ndim == (2 if f.name == "relations" else 1), f.name
        else:
            assert got == ref, f.name
    assert pres.relations.shape == (len(want.relations), 3)


@pytest.mark.parametrize("N", LEVELS + [1871])
def test_quotient_map_matches_the_dense_fold(N):
    # symbol i's row is sign_of[i] times the tree's row of var_of[i]: the
    # CSR against that fold made dense, and read-only
    pres = presentation(N)
    free, red = tree_reduction(pres)
    qmap = quotient_map(pres, red)
    assert qmap.ncols == len(free) and len(qmap.indptr) == N + 2
    assert np.array_equal(qmap.dense(), red.dense()[pres.var_of] * pres.sign_of[:, None])
    assert set(qmap.vals.tolist()) <= {-1, 1}
    assert not any(a.flags.writeable for a in (qmap.indptr, qmap.cols, qmap.vals))
    assert np.array_equal(build_space(N).qmap.dense(), qmap.dense())


def test_presentation_inverses_match_pow():
    # the inverses from the primitive root's power table, as Python ints
    for N in [N for N in range(5, 400) if is_prime(N)] + [1871]:
        inv = presentation(N).inv
        assert inv == (0,) + tuple(pow(u, -1, N) for u in range(1, N))
        assert all(type(x) is int for x in inv)


def test_tree_reduction_rejects_broken_graphs():
    pres = presentation(31)
    relations = pres.relations.copy()
    relations[0, 2] *= -1
    flipped = dataclasses.replace(pres, relations=relations)
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


@pytest.mark.parametrize("N", [5, 7, 13])
def test_build_space_refuses_genus_zero(N, monkeypatch):
    # X_0(N) has genus 0 at these primes: refused before any matrix is built
    monkeypatch.setattr(modsym, "presentation", None)
    with pytest.raises(ValueError, match=f"X_0\\({N}\\) has genus 0"):
        build_space(N)


LAYOUT_LEVELS = [N for N in range(11, 400) if is_prime(N) and genus(N) >= 1]


def test_coordinate_zero_is_the_cusp_symbol():
    # at every level of genus >= 1 the first free variable is that of
    # (0:1) = {0, oo}, and no other representative symbol has c or d = 0
    # mod N, that is a nonzero boundary
    assert len(LAYOUT_LEVELS) == 73 and 13 not in LAYOUT_LEVELS
    for N in LAYOUT_LEVELS:
        pres = presentation(N)
        free, _ = tree_reduction(pres)
        assert free[0] == pres.var_of[0] == 0, N
        assert pres.generators[0] == (0, 1) and pres.var_of[1] == 0  # (1:0) = -(0:1)
        assert all(c % N and d % N for c, d in (pres.generators[r] for r in pres.reps[1:])), N
        assert coordinate_symbols(pres, free) == [pres.reps[v] for v in free]
        with pytest.raises(ValueError, match="coordinate 0"):
            coordinate_symbols(pres, free[1:])


def test_space_from_tree_checks_its_layout():
    # the tree's coordinates rotated, so that coordinate 0 is no longer
    # {0, oo}, and a reduction with a coordinate negated, so that its
    # symbol no longer reduces to a unit row: both are refused
    pres = presentation(31)
    free, red = tree_reduction(pres)
    assert dense_reduction(_space_from_tree(pres, free, red)) == dense_reduction(build_space(31))
    red_vars = red.dense()
    with pytest.raises(ValueError, match="coordinate 0"):
        _space_from_tree(pres, free[1:] + free[:1], csr_from_dense(np.roll(red_vars, -1, axis=1)))
    flipped = red_vars.copy()
    flipped[:, 2] *= -1
    with pytest.raises(ValueError, match="identity"):
        _space_from_tree(pres, free, csr_from_dense(flipped))


@pytest.mark.parametrize("N", LEVELS + [421])
def test_cuspidal_slice_matches_the_saturated_kernel(N):
    # the saturated kernel of the boundary map is the identity without
    # its row 0, so the cuspidal coordinates are the coordinates 1 .. 2g
    sp = build_space(N)
    eye = np.eye(2 * sp.genus + 1, dtype=np.int64)
    assert saturated_cuspidal_basis(sp) == IntMatrix(eye[1:])


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
    red = dense_reduction(sp).entries
    k = len(red[0])
    for i, (c, d) in enumerate(sp.generators):
        js = sp.index(d, -c)  # (c:d) S
        jt = sp.index(d, -c - d)  # (c:d) T
        jt2 = sp.index(-c - d, c)  # (c:d) T^2
        assert all(red[i][m] + red[js][m] == 0 for m in range(k))
        assert all(red[i][m] + red[jt][m] + red[jt2][m] == 0 for m in range(k))


def test_section_is_a_section():
    sp = build_space(31)
    assert mat_mul(sp.relation_kernel_basis, dense_reduction(sp)) == IntMatrix.identity(5)


def test_boundary_rank_one():
    # the boundary map on M_rel is coordinate 0 times [oo] - [0]: every
    # symbol's boundary is its coordinate 0 times (-1, 1), a degree-zero
    # image, so the map has rank one
    for N in (11, 31, 53):
        sp = build_space(N)
        red = dense_reduction(sp).entries
        for i, (c, d) in enumerate(sp.generators):
            assert symbol_boundary(N, c, d) == (-red[i][0], red[i][0]), (N, i)
        bd = [symbol_boundary(N, *sp.generators[i]) for i in sp.coord_symbols]
        assert bd[0] == (-1, 1) and not any(map(any, bd[1:]))


def test_path_pinned_examples():
    sp = build_space(11)
    # {0, 1/2} reduces to the single symbol of the matrix with columns
    # (0,1) and (1,2), i.e. Manin symbol (2:1)
    expected = dense_reduction(sp).entries[sp.index(2, 1)]
    assert path_to_chain(sp, 1, 2) == tuple(expected)
    # {0, 0/1} is the zero chain
    assert path_to_chain(sp, 0, 1) == (0,) * 3
    with pytest.raises(ValueError):
        path_to_chain(sp, 2, 4)
    with pytest.raises(ValueError):
        path_to_chain(sp, 1, 0)


def test_path_boundary_telescopes():
    # boundary of {0, a/m} is [cusp class of a/m] - [class of 0], and
    # coordinate 0, the {0, oo} one, carries it: it is 1 exactly when the
    # path lands at the cusp oo, when N | m
    from math import gcd

    sp = build_space(11)
    for _ in range(100):
        m = rng.randrange(1, 400)
        a = rng.randrange(-400, 400)
        if gcd(a, m) != 1:
            continue
        assert path_to_chain(sp, a, m)[0] == (m % sp.N == 0)
    for m in (11, 22, 143):
        assert path_to_chain(sp, 1, m)[0] == 1


def test_star_is_an_involution():
    for N in (11, 31, 53):
        sp = build_space(N)
        assert mat_mul(sp.star, sp.star) == IntMatrix.identity(sp.star.rows)
        plus, minus = star_decompose(sp.star)
        assert plus == sp.plus_basis and minus == sp.minus_basis


def test_signed_bases_are_derived_once_on_first_use(monkeypatch):
    # `build_space` makes no signed basis; the first read decomposes the
    # star once for both signs, and a star whose eigenlattices do not
    # both have rank g is refused there
    calls = []
    real = modsym.star_decompose
    monkeypatch.setattr(modsym, "star_decompose", lambda star: calls.append(1) or real(star))
    sp = build_space(31)
    assert calls == []
    plus = sp.plus_basis
    assert sp.plus_basis is plus and calls == [1]
    assert sp.minus_basis.rows == sp.genus == 2 and calls == [1]
    bad = dataclasses.replace(sp, star=IntMatrix(np.diag([1, 1, 1, -1])))  # ranks 3 and 1
    with pytest.raises(ValueError, match="do not both have rank g"):
        bad.plus_basis


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
    assert {tuple(r) for r in cremona_families([2])[0].tolist()} == \
        {tuple(r) for r in merel_matrices(2).tolist()}
    assert cremona_families([3])[0].tolist() == [
        [1, 0, 0, 3], [3, 1, 0, 1], [1, 0, 1, 3], [3, 0, 0, 1], [3, -1, 0, 1], [-1, 0, 1, -3]]
    for ell in primes_up_to(2000)[1:]:
        arr = cremona_families([ell])[0]
        assert arr.dtype == np.int64
        assert (arr[:, 0] * arr[:, 3] - arr[:, 1] * arr[:, 2] == ell).all()
        assert np.array_equal(arr, np.array(_cremona_reference(ell))), ell
    # 8,694 matrices for the 20 T_l and three saturation primes at N = 421,
    # against 26,924 in Merel's families
    ells = primes_up_to(71) + [431, 433, 439]
    assert sum(len(cremona_families([ell])[0]) for ell in ells) == 8694


def test_cremona_families_walk_an_unsorted_list_with_repeats():
    # one lockstep walk gives each family in the order asked, each as
    # the walk of that l alone gives it (at 2, Merel's four in that order)
    ells = [439, 2, 7, 3, 2, 431, 7, 5, 433, 3]
    fams = cremona_families(ells)
    assert len(fams) == len(ells)
    for ell, fam in zip(ells, fams):
        assert fam.dtype == np.int64
        want = ([(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)] if ell == 2
                else _cremona_reference(ell))
        assert np.array_equal(fam, np.array(want)), ell
    assert cremona_families([]) == []


def test_family_counts_refuses_entries_beyond_int64():
    # the bound lives in the action, `family_images`, which the Hecke
    # pairs of both routes read
    sp = build_space(11)
    fam = np.array([[1, 0, 0, 2], [2**60, 0, 0, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        list(family_images(sp.generators, fam, 11, 2))
    fam[1, 0] = -(2**60)  # the bound is on the absolute value
    with pytest.raises(ValueError, match="int64"):
        list(family_images(sp.generators, fam, 11, 2))
    fam[1, 0] = 2**58  # 2 * 11 * 2^58 < 2^63 is still exact
    assert np.concatenate(list(family_images(sp.generators, fam, 11, 1)), axis=1).shape == (12, 2)


@pytest.mark.parametrize("N", [11, 31])
def test_family_counts_match_per_matrix_loop(N):
    sp = build_space(N)
    for ell in (2, 3, 5, 7):
        fam = merel_matrices(ell)
        want = merel_counts(sp.generators, ell, N, sp._inv)
        got = family_counts(sp.generators, fam, N)
        assert got.shape == (N + 1, N + 1) and (got == want).all()
        picks = rng.sample(range(N + 1), 5)
        sub = family_counts([sp.generators[i] for i in picks], fam, N)
        assert (sub == want[picks]).all()
        # no (0:0) image, so the oracle dropped nothing
        assert (got.sum(axis=1) == len(fam)).all()


@pytest.mark.parametrize("N", sorted({N for N, _ in ADMISSIBLE}))
def test_family_counts_match_the_inverse_index_at_every_context_prime(N):
    # the discrete-log index against the inverse-table index it replaced
    # (Cremona's families) and against Merel's per-matrix loop (Merel's),
    # on the symbols `hecke` acts on, at the primes up to the Sturm bound
    # and the three saturation primes above it
    sp = build_space(N)
    symbols = [sp.generators[j] for j in sp.coord_symbols[1:]]
    sturm = -(-(N + 1) // 6)
    above = [q for q in primes_up_to(max(N, sturm) + 100) if q > max(N, sturm)][:3]
    for ell in [ell for ell in primes_up_to(sturm) if ell != N] + above:
        fam = cremona_families([ell])[0]
        assert np.array_equal(family_counts(symbols, fam, N),
                              inverse_family_counts(symbols, fam, N, sp._inv)), ell
        assert np.array_equal(family_counts(symbols, merel_matrices(ell), N),
                              merel_counts(symbols, ell, N, sp._inv)), ell


def test_family_counts_match_the_inverse_index_at_1871():
    # T_2, which the mod-p route counts at 1871, on every symbol
    pres = presentation(1871)
    for fam in (cremona_families([2])[0], merel_matrices(2)):
        got = family_counts(pres.generators, fam, 1871)
        assert np.array_equal(got, inverse_family_counts(pres.generators, fam, 1871, pres.inv))
    assert np.array_equal(got, merel_counts(pres.generators, 2, 1871, pres.inv))


@pytest.mark.parametrize("N", [11, 31])
def test_family_counts_refuse_an_image_at_zero_zero(N):
    # Merel's family at l = N sends some symbols to (0:0), which the
    # oracle drops and the action refuses
    sp = build_space(N)
    fam = merel_matrices(N)
    assert (merel_counts(sp.generators, N, N, sp._inv).sum(axis=1) < len(fam)).any()
    with pytest.raises(ValueError, match=r"\(0 : 0\)"):
        family_counts(sp.generators, fam, N)


def test_hecke_pinned_eleven():
    sp = build_space(11)
    t2 = hecke(sp, 2)
    assert t2 == IntMatrix([[-2, 0], [0, -2]])  # both eigenvalues -2
    assert hecke(sp, 3) == IntMatrix([[-1, 0], [0, -1]])
    assert hecke(sp, 11) == IntMatrix.identity(2)
    assert (-2 - 3) % 5 == 0  # T_2 - (2+1) is 5-Eisenstein here


def test_hecke_charpoly_at_31():
    import sympy

    sp = build_space(31)
    t2 = sympy.Matrix(list(hecke(sp, 2).entries))
    x = sympy.Symbol("x")
    # the two conjugate newforms at level 31 have a_2 = (1 +- sqrt(5))/2,
    # whose minimal polynomial is the one whose roots are 3 mod the prime
    # above 5 -- the Eisenstein congruence a_l = l + 1
    assert t2.charpoly(x).as_expr() == ((x**2 - x - 1) ** 2).expand()


def test_hecke_operators_commute():
    sp = build_space(31)
    ops = [hecke(sp, ell) for ell in (2, 3, 5, 31)]
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
        return list(dense_reduction(sp).entries[sp.index(0, 1)])
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
    k = dense_reduction(sp).cols
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
    """The coset-definition operator on M, in cuspidal coordinates: the
    images of the symbols of coordinates 1 .. 2g, each in M (coordinate
    0 zero), read without their coordinate 0."""
    images = [_coset_apply(sp, ell, *_gen_path(sp, i)) for i in sp.coord_symbols[1:]]
    assert not any(img[0] for img in images)
    return IntMatrix([img[1:] for img in images])


@pytest.mark.parametrize("ell", [2, 3, 11])
def test_hecke_matches_coset_definition_at_11(ell):
    sp = build_space(11)
    assert hecke(sp, ell) == _oracle_matrix(sp, ell)


@pytest.mark.parametrize("ell", [2, 31])
def test_hecke_matches_coset_definition_at_31(ell):
    sp = build_space(31)
    assert hecke(sp, ell) == _oracle_matrix(sp, ell)


def _fricke(r, N):
    """W_N on a cusp r of P^1(Q): r -> -1/(N r), with 0 <-> oo."""
    if r is INF:
        return Fraction(0)
    return INF if r == 0 else -1 / (N * r)


@pytest.mark.parametrize("N", [11, 31, 211])
def test_hecke_counts_are_cremona_and_minus_w_n(N):
    sp = build_space(N)
    gens, inv = sp.generators, sp._inv
    for ell in (2, 3, 5, 7):
        assert np.array_equal(hecke_counts(gens, ell, N, inv),
                              family_counts(gens, cremona_families([ell])[0], N))
    # at l = N, each generator's counts reduce to -W_N of its path in M_rel
    red = dense_reduction(sp).array
    got = mul_int64(hecke_counts(gens, N, N, inv), red)
    for i in range(N + 1):
        alpha, beta = _gen_path(sp, i)
        want = np.array(_chain(sp, _fricke(alpha, N))) - np.array(_chain(sp, _fricke(beta, N)))
        assert np.array_equal(got[i], want), gens[i]
    with pytest.raises(ValueError, match="normalised"):
        hecke_counts([(2, 1)], N, N, inv)


@pytest.mark.parametrize("N", LEVELS + [1871])
def test_hecke_matches_the_dense_oracle(N):
    # T_2, T_3, T_5, T_7 and U_N from the pairs met on the sparse quotient
    # map against the symbol counts times the dense reduction
    sp = build_space(N)
    ells = [2, 3, 5, 7, N]
    assert hecke_operators(sp, ells) == [dense_hecke(sp, ell) for ell in ells]


def test_csr_left_mul_matches_the_dense_product():
    # columns with no entry, first, inner and last, and none at all
    r = np.random.default_rng(26)
    for shape in [(7, 5), (30, 9), (1, 1), (4, 3)]:
        a = r.integers(-2, 3, shape) * (r.random(shape) < 0.3)
        a[:, [0, -1]] = 0
        x = r.integers(-50, 50, (6, shape[0]))
        assert np.array_equal(csr_from_dense(a).left_mul(x), x @ a), shape


def test_hecke_matrix_bound_counts_pairs():
    # the float64 bound is on the number of pairs times the largest entry
    # of the quotient map, checked before a run is expanded: a broadcast
    # run of 2^53 pairs is refused without being made, one of 2^52 pairs
    # on entries 2 too, and runs whose images cancel count all their pairs
    sp = build_space(11)
    huge = (np.zeros((1, 1), dtype=np.int64), np.broadcast_to(np.int64(2), (1, 2**53)))
    with pytest.raises(ValueError, match="Hecke pairs are not exact"):
        modsym.hecke_matrix(iter([huge]), sp.qmap, 1)
    doubled = dataclasses.replace(sp.qmap, vals=2 * sp.qmap.vals)
    half = (huge[0], huge[1][:, :2**52])
    with pytest.raises(ValueError, match="Hecke pairs are not exact"):
        modsym.hecke_matrix(iter([half]), doubled, 1)
    partner = presentation(11).sigma[2]
    pair = (np.zeros(2, dtype=np.int64), np.array([2, partner]))
    assert not modsym.hecke_matrix(iter([pair] * 3), sp.qmap, 1).any()


@pytest.mark.parametrize("N", [11, 31, 211, 421])
def test_u_n_is_an_involution(N):
    # U_N = -W_N on M, and W_N^2 = 1
    u = hecke(build_space(N), N)
    assert mat_mul(u, u) == IntMatrix.identity(u.rows)


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
            rel = [0] * dense_reduction(sp).cols
            for a in range(1, m):
                chi = kronecker(D, a)
                if chi:
                    for i, x in enumerate(path_to_chain(sp, a, m)):
                        rel[i] += chi * x
            th = theta_element(sp, D)
            assert rel == [0, *th.coords], (N, D)


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
        counts = np.array([full_theta_counts(D, N, sp._inv) for D in Ds])
        rel = mul_int64(counts, dense_reduction(sp).array)
        assert not rel[:, 0].any(), N
        assert np.array_equal(np.array([th.coords for th in thetas]), rel[:, 1:]), N


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


def _both_dtypes(monkeypatch, want):
    """Patch `_theta_chunk` to walk each chunk in int32 and in int64 and
    check the two agree; returns the (rows, lanes) of the chunks seen,
    after checking each chunk came with tables of dtype `want`."""
    walk = modsym._theta_chunk
    seen = []

    def both(space, rows, tables, iota):
        assert tables[1].dtype == want and tables[0].dtype == want
        out = walk(space, rows, modsym._inverse_tables(space, np.int32), iota)
        assert walk(space, rows, modsym._inverse_tables(space, np.int64), iota) == out
        seen.append((len(rows), sum(len(c) for _, c, _ in rows)))
        return out

    monkeypatch.setattr(modsym, "_theta_chunk", both)
    return seen


@pytest.mark.parametrize("N", [11, 31, 211])
def test_theta_chunks_agree_in_int32_and_int64(monkeypatch, N):
    # the lanes forced into each dtype at the chunk, on a window of both
    # signs, in chunks of many rows
    sp = build_space(N)
    Ds = _fundamental_window(N, range(1, 1501))
    whole = theta_elements(sp, Ds)
    seen = _both_dtypes(monkeypatch, np.int32)
    assert theta_elements(sp, Ds) == whole
    assert sum(rows for rows, _ in seen) == len(Ds) and max(rows for rows, _ in seen) > 1


def test_theta_chunks_agree_in_int32_and_int64_far_out(monkeypatch):
    # a far-window slice at 211 whose rows have more lanes than
    # _THETA_CHUNK, so each is walked in several pieces, in both dtypes
    sp = build_space(211)
    Ds = _fundamental_window(211, range(97001, 97021))
    seen = _both_dtypes(monkeypatch, np.int32)
    theta_elements(sp, Ds)
    assert any(lanes > modsym._THETA_CHUNK for _, lanes in seen)


def test_walk_dtype_at_the_int32_bound():
    # int32 while (N - 1)^2 < 2^31 and |D| < 2^31: 46337 and 46349 are
    # consecutive primes on either side of sqrt(2^31) + 1 = 46341.95...
    assert is_prime(46337) and is_prime(46349)
    assert (46337 - 1) ** 2 < 2**31 <= (46349 - 1) ** 2
    assert modsym._walk_dtype(46337, 3000) is np.int32
    assert modsym._walk_dtype(46349, 3000) is np.int64
    assert modsym._walk_dtype(211, 2**31 - 1) is np.int32
    assert modsym._walk_dtype(211, 2**31) is np.int64


def _remainder_symbols(m, c):
    """The remainder walk of one lane: (x : -+y) along the Euclid
    remainders of (m, c), the sign alternating from -1."""
    out, sign = [], -1
    x, y = m, c
    while y:
        out.append((x, sign * y))
        x, y, sign = y, x % y, -sign
    return out


@given(st.integers(5, 10**9).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, (m - 1) // 2).filter(lambda c: gcd(m, c) == 1))))
@settings(max_examples=300, deadline=None)
def test_remainder_walk_is_the_reversed_convergent_walk(case):
    # the lemma of the module docstring: the walk of lane c is the walk of
    # a = (-1)^(n-1) c^-1 mod m, 0 < a < m/2, read backwards, its second
    # coordinates times (-1)^n
    m, c = case
    walk = _remainder_symbols(m, c)
    n = len(walk)
    a = (-1) ** (n - 1) * pow(c, -1, m) % m
    assert 0 < a < m / 2
    true = list(islice(modsym._symbol_stream(a, m), 2, None))  # k = 1 .. n
    assert len(true) == n
    assert walk == [(x, (-1) ** n * v) for x, v in reversed(true)]


def test_remainder_lanes_stand_for_every_half_residue():
    # c -> (-1)^(n-1) c^-1 mod m permutes the c < m/2 prime to m
    for m in range(3, 400):
        cs = [c for c in range(1, (m + 1) // 2) if gcd(m, c) == 1]
        signs = [(-1) ** (len(_remainder_symbols(m, c)) - 1) for c in cs]
        assert sorted(e * pow(c, -1, m) % m for c, e in zip(cs, signs)) == cs, m


def _walks_agree(N, ms):
    """The remainder walk of the fundamental D = +-m, m in ms, prime to N,
    against the convergent half walk on all of them and the full walk on
    every third, offset by N so the levels share the D out."""
    sp = build_space(N)
    Ds = _fundamental_window(N, ms)
    coords = np.array([th.coords for th in theta_elements(sp, Ds)])
    assert np.array_equal(coords, convergent_theta_coords(sp, Ds)), N
    some = range(N % 3, len(Ds), 3)
    counts = np.array([full_theta_counts(Ds[i], N, sp._inv) for i in some])
    rel = mul_int64(counts, dense_reduction(sp).array)
    assert not rel[:, 0].any(), N
    assert np.array_equal(coords[list(some)], rel[:, 1:]), N


@pytest.mark.parametrize("N", sorted({N for N, p in ADMISSIBLE if p == 5}))
def test_remainder_walk_matches_the_convergent_and_full_walks(N):
    _walks_agree(N, range(1, 3001))


@pytest.mark.parametrize("N", [421, 1871])
def test_remainder_walk_matches_the_oracles_far_out(N):
    _walks_agree(N, range(20001, 21001))


def test_theta_elements_match_the_dense_oracle_at_1871():
    # the gather over the quotient map's rows against the convergent walk
    # and the dense reduction, on every fundamental |D| <= 500 prime to N
    # (211 is one of the levels above, on 1 .. 3000)
    _walks_agree(1871, range(1, 501))


@pytest.mark.parametrize("N", [11, 31, 211, 1871])
def test_path_to_chain_matches_the_dense_rows(N):
    # the gathered rows of the path's symbols against the sum of the dense
    # reduction's rows at them
    sp = build_space(N)
    red = dense_reduction(sp).array
    r = random.Random(N)
    for _ in range(200):
        m = r.randrange(1, 10**r.randrange(1, 12))
        a = r.randrange(-3 * m, 3 * m)
        if gcd(a, m) != 1:
            continue
        symbols = [sp.index(u, v) for u, v in modsym._symbol_stream(a, m)]
        assert path_to_chain(sp, a, m) == tuple(red[symbols].sum(axis=0).tolist()), (a, m)


def test_remainder_walk_matches_the_convergent_walk_on_multi_piece_rows():
    # at |D| > 97,000 a row has more lanes than the real _THETA_CHUNK, so
    # its lanes are walked in several pieces, each counted on its own
    sp = build_space(211)
    Ds = _fundamental_window(211, range(97001, 97101))
    assert any(np.count_nonzero(chi) > modsym._THETA_CHUNK for chi in _half_chis(Ds))
    coords = np.array([th.coords for th in theta_elements(sp, Ds)])
    assert np.array_equal(coords, convergent_theta_coords(sp, Ds))


def test_chi_table_matches_kronecker():
    # the oracle's full tables, and the walk's half tables over windows in
    # several orders: ascending, descending and shuffled (so a larger |D|
    # comes after smaller ones, with longer mod-8 tables), with odd primes
    # that repeat across a window, each 2-part -4, 8 and -8, and far |D|
    near = [D for m in range(3, 3001) for D in (m, -m) if is_fundamental(D)]
    far = [D for m in range(97001, 97013) for D in (m, -m) if is_fundamental(D)]
    want = {}
    for D in near:
        full = [kronecker(D, a) for a in range(abs(D))]
        assert chi_table(D).tolist() == full, D
        want[D] = full[:(abs(D) + 1) // 2]
    for D in far:
        want[D] = [kronecker(D, a) for a in range((abs(D) + 1) // 2)]
    assert {-4, 8, -8} <= set(near) and {-15, 21, 33, -39} <= set(near) and 97001 in far
    Ds = near + far
    shuffled = random.Random(20261019).sample(Ds, len(Ds))
    for window in (Ds, Ds[::-1], shuffled, [5, -4, 97001, 8, -8, 13]):
        for D, chi in zip(window, _half_chis(window), strict=True):
            assert chi.dtype == np.int8
            assert chi.tolist() == want[D], D
    # the shared tables are read-only, so no caller can change a later D
    chis = list(_half_chis([-4, 8, 13, 65]))
    for chi in chis[:3]:
        with pytest.raises(ValueError):
            chi[0] = 1


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
    # a vector of M_rel is outside M exactly when its boundary, carried
    # by coordinate 0, is nonzero; the cuspidal read refuses it
    sp = build_space(31)
    for v in ([1, 0, 0, 0, 0], [-2, 0, 0, 0, 0], [3, -1, 4, 1, -5]):
        with pytest.raises(ValueError, match="nonzero boundary"):
            cuspidal_coords(np.array([v]), "vector")
    th = theta_element(sp, 13)
    assert tuple(cuspidal_coords(np.array([[0, *th.coords]]), "theta")[0].tolist()) == th.coords
    # a reduction that gives every symbol a coordinate 0 makes the theta
    # chains and the Hecke images leave M, and both refuse
    red = dense_reduction(sp).array.copy()
    red[:, 0] = 1
    bad = dataclasses.replace(sp, qmap=csr_from_dense(red))
    with pytest.raises(ValueError, match="theta chain has nonzero boundary"):
        theta_element(bad, 13)
    with pytest.raises(ValueError, match="Hecke image has nonzero boundary"):
        hecke(bad, 2)


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
