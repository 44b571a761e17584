"""Mod-p multiplicity route: agreement with the exact pipeline and
oracle checks of the F_p linear algebra helpers against integer SNF.

Both routes now reach g_p through the same F_p kernel (`modp.cut`), so
their agreement alone no longer checks that kernel; a pure-Python rank
computation over F_p serves as the independent oracle.
"""

import dataclasses
import functools
import os
import random
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest

import eistheta
from eistheta import modp, modsym
from eistheta.eisenstein import build_context, eisenstein_generators, g_p_dimension, merel_criterion
from eistheta.exact_linalg import IntMatrix, is_prime, primes_up_to, snf
from eistheta.modp import (
    _joint_kernel_dims,
    _left_nullspace_mod_p,
    _mod_p,
    _plus_quotient,
    _rref_mod_p,
    cut,
    g_p_dimension_modp,
)
from eistheta.modsym import (
    build_space,
    coordinate_symbols,
    genus,
    hecke,
    presentation,
    quotient_map,
    tree_reduction,
)
from oracles import (
    ADMISSIBLE,
    csr_from_dense,
    cut_full_squaring,
    dense_hecke,
    dense_plus_quotient,
    gauss_jordan_mod_p,
    merel_hecke,
    panel_rref_mod_p,
    rref_reduction,
)

rng = random.Random(96059601)


def test_fixture_pins():
    assert g_p_dimension_modp(11, 5) == 1
    assert g_p_dimension_modp(31, 5) == 2
    assert g_p_dimension_modp(211, 5) == 2


@pytest.mark.parametrize("N,p", [(11, 5), (31, 5), (41, 5), (53, 13), (211, 5)])
def test_matches_exact_route(N, p):
    exact = g_p_dimension(build_context(build_space(N), p))
    assert g_p_dimension_modp(N, p) == exact


def _fp_mul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) % p for c in bt] for r in a]


def _fp_pow(a, e, p):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in a]
    while e:
        if e & 1:
            out = _fp_mul(out, base, p)
        base = _fp_mul(base, base, p)
        e >>= 1
    return out


def _g_p_oracle(ctx):
    # d minus the F_p rank of [A_1^d | A_2^d | ...]: the dimension of the
    # joint kernel of the d-th powers of the Eisenstein generators
    d = ctx.W[0].rows
    concat = [[] for _ in range(d)]
    for gen in eisenstein_generators(ctx.space, ctx.sign):
        power = _fp_pow([list(r) for r in gen.entries], d, ctx.p)
        for i in range(d):
            concat[i].extend(power[i])
    return d - len(gauss_jordan_mod_p(concat, ctx.p)[1])


@functools.cache
def _space(N):
    return build_space(N)


@functools.cache
def _g_p_modp(N, p):
    return g_p_dimension_modp(N, p)


@pytest.mark.parametrize("N,p", ADMISSIBLE)
def test_routes_match_rank_oracle(N, p):
    # exact route == mod-p route == the mod-p loop drained past its proven
    # stop (every generator up to the Sturm bound, then U_N - 1), and
    # g_p >= 2 exactly when Merel's criterion holds; the pure-Python rank
    # oracle is run below N = 200
    ctx = build_context(_space(N), p)
    exact = g_p_dimension(ctx)
    assert exact == _g_p_modp(N, p)
    dims = list(_joint_kernel_dims(N, p))
    assert [ell for ell, _ in dims] == [None] + primes_up_to(-(-(N + 1) // 6)) + [N]
    assert dims[-1][1] == exact
    assert (exact >= 2) == merel_criterion(N, p)
    if N < 200:
        assert exact == _g_p_oracle(ctx)


# the levels where the star matrix on the dense elimination's basis has no
# signed-permutation pairs at all
NO_STAR_PAIRS = {(43, 7), (127, 7), (337, 7), (67, 11), (397, 11), (157, 13), (313, 13)}


@pytest.mark.parametrize("N,p", ADMISSIBLE)
def test_tree_matches_dense_rref_oracle(N, p, monkeypatch):
    # the tree's reduction mod p is the dense F_p elimination's quotient
    # map in another basis: red = red_o @ red[free_o] mod p, red_o being
    # a unit row at each of its free variables.  The route takes only a
    # reduction that is exact over Z (`build_space` checks it), so the
    # eliminated one meets `_plus_quotient` alone: its star matrix, read
    # off the eliminated quotient map with no boundary mod p, gives the
    # dense null space's plus quotient, of rank g.  That star has few
    # signed-permutation pairs, and none at NO_STAR_PAIRS, where the plus
    # quotient eliminates all of its 2g rows
    pres = presentation(N)
    free, red = tree_reduction(pres)
    red = red.dense()
    free_o, red_o = rref_reduction(pres, p)
    assert len(free_o) == len(free)
    assert not ((red_o @ red[free_o] - red) % p).any()
    qmap_o = quotient_map(pres, csr_from_dense(red_o))
    star_o = qmap_o.dense(np.asarray(pres.iota)[coordinate_symbols(pres, free_o)[1:]]) % p
    assert not star_o[:, 0].any()
    star_o = star_o[:, 1:]
    shapes = []
    monkeypatch.setattr(modp, "_rref_mod_p", lambda a, p:
                        shapes.append(a.shape) or _rref_mod_p(a, p))
    rows, cols = _plus_quotient(csr_from_dense(star_o), p)
    monkeypatch.undo()
    want, want_cols = _rref_mod_p(dense_plus_quotient(star_o, p)[0], p)
    assert cols == want_cols and rows.tobytes() == want.tobytes()
    assert len(cols) == genus(N)
    assert shapes[0][1] == len(free) - 1
    assert (shapes[0][0] == len(free) - 1) == ((N, p) in NO_STAR_PAIRS)


def test_tree_reduction_entries_not_below_p_are_refused(monkeypatch):
    # the tree's reduction times p, zero mod p: the route reads the space's
    # reduction over Z, where `build_space` refuses it, as the coordinate
    # symbols no longer reduce to the identity
    real = modsym.tree_reduction

    def scaled(pres):
        free, red = real(pres)
        return free, dataclasses.replace(red, vals=5 * red.vals)

    monkeypatch.setattr(modsym, "tree_reduction", scaled)
    with pytest.raises(ValueError, match="does not send the coordinate symbols to the identity"):
        g_p_dimension_modp(11, 5)


@pytest.mark.parametrize("N,p", ADMISSIBLE + [(1871, 5)])
def test_folded_images_match_dense_quotient_map(N, p, monkeypatch):
    # each operator as dense symbol counts times the dense (N + 1) x
    # (2g + 1) reduction (`dense_hecke`), in place of the pairs met by the
    # sparse quotient map: the drained loop yields the same dimensions
    # after every generator
    own = list(_joint_kernel_dims(N, p))
    used = []
    monkeypatch.setattr(modp, "hecke", lambda space, ell:
                        used.append(ell) or dense_hecke(space, ell))
    assert list(_joint_kernel_dims(N, p)) == own
    assert used == [ell for ell, _ in own[1:]]


@pytest.mark.parametrize("N,p", ADMISSIBLE + [(1871, 5)])
def test_halving_kernel_matches_panel_oracle_in_the_route(N, p, monkeypatch):
    # with the panel kernel in place of `_rref_mod_p`, in the plus quotient
    # and in every cut, the drained loop yields the same dimensions; the
    # kernel sees every elimination: one for the plus quotient, and two
    # (the null space and the new rows) in each cut that shrinks
    own = list(_joint_kernel_dims(N, p))
    used = []
    monkeypatch.setattr(modp, "_rref_mod_p", lambda *args:
                        used.append(1) or panel_rref_mod_p(*args))
    assert list(_joint_kernel_dims(N, p)) == own
    shrinks = sum(d < before for (_, before), (_, d) in zip(own, own[1:]))
    assert len(used) == 1 + 2 * shrinks


@pytest.mark.parametrize("N,p", ADMISSIBLE + [(1871, 5), (4621, 5)])
def test_plus_quotient_matches_the_dense_null_space(N, p):
    # the pair-folded elimination gives the row space of the dense
    # condition's null space, already in its reduced echelon form
    star = _space(N).star
    rows, cols = _plus_quotient(star, p)
    want, want_cols = _rref_mod_p(dense_plus_quotient(star.dense(), p)[0], p)
    assert cols == want_cols and all(type(j) is int for j in cols)
    assert rows.tobytes() == want.tobytes()


def test_plus_quotient_refuses_a_star_that_is_no_involution():
    # row 0 of the star doubled: S^2 has 2 at (0, 0)
    star = _space(211).star
    _plus_quotient(star, 5)
    doubled = star.dense()
    doubled[0] *= 2
    with pytest.raises(ValueError, match="does not square to the identity mod p"):
        _plus_quotient(csr_from_dense(doubled), 5)


def test_star_image_with_a_boundary_is_refused(monkeypatch):
    # coordinate 1's star image replaced by (0:1) = {0, oo}, coordinate 0:
    # `build_space` refuses it for the route
    real = modsym.presentation

    def broken(N):
        pres = real(N)
        iota = list(pres.iota)
        iota[coordinate_symbols(pres, tree_reduction(pres)[0])[1]] = 0
        return dataclasses.replace(pres, iota=tuple(iota))

    monkeypatch.setattr(modsym, "presentation", broken)
    with pytest.raises(ValueError, match="star image has nonzero boundary"):
        g_p_dimension_modp(211, 5)


def test_the_route_never_decomposes_the_star(monkeypatch):
    # the route reads the space's star and Hecke matrices, never its signed
    # bases, and `build_space` alone does not make them
    monkeypatch.setattr(modsym, "signed_basis", lambda star, sign:
                        pytest.fail("the star was decomposed"))
    assert g_p_dimension_modp(1871, 5) == 2
    build_space(211)


@pytest.mark.parametrize("N,p", [(41, 5), (181, 5), (211, 7)])
def test_halving_kernel_matches_panel_oracle_in_the_exact_g_p(N, p, monkeypatch):
    # the exact route's g_p loop cuts through the same kernel
    own = build_context(_space(N), p).g_p
    used = []
    monkeypatch.setattr(modp, "_rref_mod_p", lambda *args:
                        used.append(1) or panel_rref_mod_p(*args))
    assert build_context(_space(N), p).g_p == own
    assert used


def _operators_used(monkeypatch, N, p):
    used = []
    monkeypatch.setattr(modp, "hecke", lambda space, ell: used.append(ell) or hecke(space, ell))
    return g_p_dimension_modp(N, p), used


@pytest.mark.parametrize("N,p,g_p,families", [
    (11, 5, 1, []),     # g = 1 = Mazur's bound: no operator at all
    (31, 5, 2, []),     # g = 2 = Merel's bound
    (1871, 5, 2, [2]),  # d = 2 = Merel's bound after T_2 - 3
    (181, 5, 3, primes_up_to(31) + [181]),  # g_p = 3 > 2: the full loop
])
def test_stop_points(N, p, g_p, families, monkeypatch):
    assert _operators_used(monkeypatch, N, p) == (g_p, families)


@pytest.mark.parametrize("N,p", ADMISSIBLE)
def test_u_n_matches_merel_family_in_the_drained_loop(N, p, monkeypatch):
    # the drained loop reaches U_N at every admissible pair; with Merel's
    # family counting U_N instead of -W_N it gives the same dimensions
    own = list(_joint_kernel_dims(N, p))
    assert own[-1][0] == N
    monkeypatch.setattr(modp, "hecke", lambda space, ell:
                        merel_hecke(space, ell) if ell == N else hecke(space, ell))
    assert list(_joint_kernel_dims(N, p)) == own


def test_dimension_below_the_certificate_raises(monkeypatch):
    # g_p = 1 at (41, 5); a false Merel verdict claims g_p >= 2, and T_2 - 3
    # takes the dimension from 3 straight to 1
    assert [d for _, d in _joint_kernel_dims(41, 5)][:2] == [3, 1]
    monkeypatch.setattr(modp, "merel_criterion", lambda N, p: True)
    with pytest.raises(ValueError, match="below the proven g_p >= 2"):
        g_p_dimension_modp(41, 5)


def test_exactness_bounds_survive_optimize():
    # the float64 bounds are explicit raises, so `python -O` keeps them:
    # the shared kernel's own bound (p^2 * 3 >= 2^53 on a 2 x 2 input),
    # the entry bound of the mod-p route (25 * (N + 2) >= 2^53), which
    # must fire before the level-sized presentation is built, and the
    # bound of `modsym.hecke_matrix` on a Hecke operator's (symbol, image)
    # pairs, met on the quotient map's entries +-1 (P >= 2^53 pairs at
    # N = 41, whose loop reaches T_2; at N = 11 and 31 it is proven done
    # before any operator), which must fire before a run of pairs is
    # expanded: the runs are broadcast views of 2^53 or more pairs that
    # hold a few integers.  The bound counts pairs, not what they sum to,
    # since the sum can cancel: `huge_pairs` sends each of the 2g = 6
    # symbols to one image 2^51 times, `cancelling_pairs` sends symbol 1
    # to a symbol and to its sigma-partner 2^53 times each, whose quotient
    # rows cancel.
    code = (
        "import numpy as np\n"
        "from eistheta import modp, modsym\n"
        "presentation = modsym.presentation\n"
        "def no_work(N):\n"
        "    raise RuntimeError('presentation built before the bound check')\n"
        "def huge_pairs():\n"
        "    modsym.presentation = presentation\n"
        "    modsym.family_pairs = lambda symbols, fam, N, width: iter([(\n"
        "        np.broadcast_to(np.arange(len(symbols))[:, None], (len(symbols), 2**51)),\n"
        "        np.broadcast_to(np.int64(2), (1, 2**51)))])\n"
        "    modp.g_p_dimension_modp(41, 5)\n"
        "def cancelling_pairs():\n"
        "    modsym.presentation = presentation\n"
        "    sigma = presentation(41).sigma\n"
        "    modsym.family_pairs = lambda symbols, fam, N, width: iter([(\n"
        "        np.broadcast_to(np.int64(1), (2**53, 2)),\n"
        "        np.broadcast_to(np.array([2, sigma[2]]), (2**53, 2)))])\n"
        "    modp.g_p_dimension_modp(41, 5)\n"
        "modsym.presentation = no_work\n"
        "calls = (lambda: modp.cut(np.eye(2), [0, 1], np.eye(2), 0, 2**31 - 1),\n"
        "         lambda: modp.g_p_dimension_modp(360287970189731, 5),\n"
        "         huge_pairs, cancelling_pairs)\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
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
    assert out == (["ValueError: float64 arithmetic mod p is not exact at this size"] * 2
                   + ["ValueError: float64 sums of the Hecke pairs are not exact at this size"] * 2)


def test_input_validation():
    with pytest.raises(ValueError, match="prime"):
        g_p_dimension_modp(12, 5)
    with pytest.raises(ValueError, match=r"p \|\| N-1"):
        g_p_dimension_modp(11, 7)
    with pytest.raises(ValueError, match=r"p \|\| N-1"):
        g_p_dimension_modp(101, 5)  # 25 divides 100
    with pytest.raises(ValueError, match="p >= 5"):
        g_p_dimension_modp(31, 3)


@pytest.mark.parametrize("p", [5, 7, 2**31 - 1])
def test_mod_p_matches_numpy_remainder(p):
    # x - p floor(x / p) against numpy's float `%` and Python's int `%`
    # over |x| <= 2^53 - p: zero, negatives, multiples of p and their
    # neighbours, both ends of the range, and random values
    top = 2**53 - p
    near = range(-3 * p, 3 * p + 1) if p < 100 else [-2 * p, -p - 1, -p, -p + 1, -1, 1, p - 1, p, p + 1]
    k = top // p
    edge = [c * p + r for c in (k, -k, k - 1, -(k - 1)) for r in (-1, 0, 1)] + [top, -top, top - 1, 1 - top]
    rand = np.random.default_rng(p).integers(-top, top, 2000, endpoint=True).tolist()
    xs = [x for x in [0, *near, *edge, *rand] if abs(x) <= top]
    a = np.array(xs, dtype=np.float64)
    assert a.tolist() == xs  # every value is exact in float64
    got = _mod_p(a, p)
    assert got.tolist() == [x % p for x in xs]
    assert np.array_equal(got, a % p)
    assert not np.signbit(got).any()


def _invertible_mod_p(m, p, g):
    while True:
        a = g.integers(0, p, (m, m))
        rows, pivots = gauss_jordan_mod_p(np.hstack([a, np.eye(m, dtype=np.int64)]).tolist(), p)
        if pivots == list(range(m)):
            return a, np.array([r[m:] for r in rows], dtype=np.int64)


def _operator(p, m, kind, g):
    # a conjugate of diag(nilpotent block, invertible block) over F_p
    a = {"zero": m, "square-zero": m, "nilpotent": m, "invertible": 0}.get(kind, m // 2)
    nil = np.triu(g.integers(0, p, (a, a)), 1)
    if kind == "zero":
        nil[:] = 0
    if kind == "square-zero":  # only the top-right quarter: nil^2 = 0
        nil[:, :a - a // 2] = 0
        nil[a // 2:] = 0
    unit = np.triu(g.integers(0, p, (m - a, m - a)), 1) + np.diag(g.integers(1, p, m - a))
    block = np.zeros((m, m), dtype=np.int64)
    block[:a, :a] = nil
    block[a:, a:] = unit
    conj, conj_inv = _invertible_mod_p(m, p, g)
    return conj_inv @ block % p @ conj % p, a


def _nullspaces_taken(monkeypatch):
    taken = []
    real = modp._left_nullspace_mod_p
    monkeypatch.setattr(modp, "_left_nullspace_mod_p", lambda q, p:
                        taken.append(q.shape[0]) or real(q, p))
    return taken


def _first_exponent(m):
    # the exponent of the cut's first null space, 2^k being the least
    # power of two >= m: 2^ceil(k/2) from k = 4 on, else 2^k
    k = next(k for k in range(64) if 2**k >= m)
    return 2 ** -(-k // 2) if k >= 4 else 2**k


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("kind", ["zero", "square-zero", "nilpotent", "invertible", "mixed"])
def test_cut_stops_at_a_vanishing_power(p, kind, monkeypatch):
    # on a subspace of F_p^n carrying op = eigen + conj^-1 diag(nil, unit) conj,
    # the cut equals the full-squaring one; a nilpotent op - eigen keeps the
    # whole subspace, without a null space if its power at the first
    # exponent vanishes (always for "zero" and "square-zero", and below
    # m = 9), else with the one null space that shows the chain may not
    # have stalled there
    g = np.random.default_rng(p * 100 + len(kind))
    for m, n in [(1, 3), (2, 2), (5, 9), (8, 8), (17, 30)]:
        op, a = _operator(p, m, kind, g)
        eigen = int(g.integers(0, 3 * p))
        while True:
            rows, cols = _rref_mod_p(g.integers(0, p, (m, n)), p)
            if len(cols) == m:
                break
        images = (op + eigen * np.eye(m, dtype=np.int64)) % p @ rows % p
        want = cut_full_squaring(rows, cols, images, eigen, p)
        taken = _nullspaces_taken(monkeypatch)
        got = cut(rows, cols, images, eigen, p)
        monkeypatch.undo()
        assert got[1] == want[1] and np.array_equal(got[0], want[0])
        assert got[0].shape[0] == a
        if a == m:
            vanishes = not np.array(_fp_pow(op.tolist(), _first_exponent(m), p)).any()
            assert taken == ([] if vanishes else [m])
            assert vanishes or kind == "nilpotent"


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("d,blocks,rounds", [
    (7, 1, 1),    # one Jordan block of size 7 < 8: ker q^8 has dimension 7
    (8, 1, 2),    # size 8: dim ker q^8 = 8 is not below 8, though it is the kernel
    (12, 1, 2),   # size 12: ker q^8 has dimension 8, the kernel 12
    (20, 1, 2),
    (20, 7, 2),   # seven Jordan blocks of at most 4: stalled at q^4, yet dim 20 >= 8
])
def test_cut_takes_a_second_null_space_past_the_first_exponent(p, d, blocks, rounds, monkeypatch):
    # m = 40 rows, so 2^6 is the least power of two >= m and the first
    # exponent is 2^3 = 8.  op - eigen is conjugate to diag(nil, unit),
    # nil a d x d nilpotent with `blocks` Jordan blocks (units on its
    # superdiagonal but at the blocks' ends) and unit invertible: the cut
    # equals the full-squaring one, and takes a second null space, of
    # q^64, exactly when dim ker q^8 >= 8
    m, n = 40, 50
    assert _first_exponent(m) == 8
    g = np.random.default_rng(1000 * p + 10 * d + blocks)
    sup = g.integers(1, p, d - 1)
    sup[np.linspace(0, d - 1, blocks + 1).astype(int)[1:-1] - 1] = 0
    nil = np.triu(g.integers(0, p, (d, d)), 2) * (blocks == 1) + np.diag(sup, 1)
    unit = np.triu(g.integers(0, p, (m - d, m - d)), 1) + np.diag(g.integers(1, p, m - d))
    block = np.zeros((m, m), dtype=np.int64)
    block[:d, :d] = nil
    block[d:, d:] = unit
    conj, conj_inv = _invertible_mod_p(m, p, g)
    op = conj_inv @ block % p @ conj % p
    while True:
        rows, cols = _rref_mod_p(g.integers(0, p, (m, n)), p)
        if len(cols) == m:
            break
    eigen = int(g.integers(0, 3 * p))
    images = (op + eigen * np.eye(m, dtype=np.int64)) % p @ rows % p
    want = cut_full_squaring(rows, cols, images, eigen, p)
    taken = _nullspaces_taken(monkeypatch)
    got = cut(rows, cols, images, eigen, p)
    assert got[1] == want[1] and np.array_equal(got[0], want[0])
    assert got[0].shape[0] == d
    assert taken == [m] * rounds


@pytest.mark.parametrize("p", [5, 13, 2**23 - 15])
@pytest.mark.parametrize("kind", ["random", "lowrank", "zerodiag"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (9, 4), (12, 12), (16, 16), (16, 40)])
def test_leaf_matches_gauss_jordan(p, kind, shape):
    # the leaf takes a nonzero a[r, j] as its pivot and searches only past
    # a zero: random blocks mostly take the first branch, zero diagonals
    # start in the search, and rank-deficient blocks end in it
    g = np.random.default_rng(p % 1000 + 100 * shape[0] + shape[1] + len(kind))
    a = g.integers(0, p, shape)
    if kind == "lowrank":
        a = g.integers(0, p, (shape[0], 2)) @ g.integers(0, p, (2, shape[1])) % p
    if kind == "zerodiag":
        np.fill_diagonal(a, 0)
    got, pivots = modp._gauss_jordan_leaf(a.astype(np.float64), p)
    want, want_pivots = gauss_jordan_mod_p(a.tolist(), p)
    assert pivots == want_pivots and all(type(j) is int for j in pivots)
    assert got.tolist() == want


def _random_matrix(rows, cols):
    return [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]


def _rank_mod_p_via_snf(rows, p):
    # independent oracle: the F_p rank is the number of invariant
    # factors of the integer matrix that p does not divide
    return sum(1 for d in snf(IntMatrix(rows)).diag if d % p)


@pytest.mark.parametrize("p", [5, 13])
def test_rref_rank_against_snf(p):
    for _ in range(30):
        rows = _random_matrix(rng.randrange(1, 9), rng.randrange(1, 13))
        rr, pcols = _rref_mod_p(np.array(rows), p)
        assert len(pcols) == _rank_mod_p_via_snf(rows, p)
        # unit pivots, zero elsewhere in every pivot column
        piv = rr[:, pcols]
        assert (piv == np.eye(len(pcols))).all()


@pytest.mark.parametrize("p", [5, 13])
def test_left_nullspace_properties(p):
    for _ in range(30):
        rows = _random_matrix(rng.randrange(1, 9), rng.randrange(1, 13))
        m = np.array(rows)
        basis, cols = _left_nullspace_mod_p(m, p)
        assert basis.shape[0] == m.shape[0] - _rank_mod_p_via_snf(rows, p)
        assert (basis @ m % p == 0).all()
        if basis.shape[0]:
            assert (basis[:, cols] == np.eye(basis.shape[0])).all()


def test_rref_halving_matches_panel_oracle():
    # 40 rows halve down to leaves of 10; the oracle runs 128-row panels
    # and, at block 7, six of them
    a = np.array(_random_matrix(40, 25))
    got, pivots = _rref_mod_p(a, 5)
    for block in (128, 7):
        want, want_pivots = panel_rref_mod_p(a, 5, block=block)
        assert pivots == want_pivots and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["dense", "lowrank"])
def test_no_leaf_sees_a_top_pivot_column(kind, monkeypatch):
    # the leaves run in order, and each earlier leaf lies in the top half of
    # a split whose bottom half holds the later one: so a leaf gets every
    # column but the pivot columns the leaves before it found
    seen = []
    real = modp._gauss_jordan_leaf

    def leaf(a, p):
        out = real(a, p)
        seen.append((a.shape[1], len(out[1])))
        return out

    monkeypatch.setattr(modp, "_gauss_jordan_leaf", leaf)
    a = _rref_input(7, 129, 140, kind, seed=129)
    _assert_rref_matches_oracles(a, 7)
    widths, found = map(list, zip(*seen))
    assert len(seen) == 9 and sum(found) == (129 if kind == "dense" else 24)
    assert widths == [140 - sum(found[:i]) for i in range(len(seen))]


def _largest_exact_prime(m):
    # the largest prime p with (p-1)(1 + m(p-1)) < 2^53: `_rref_mod_p`'s
    # bound at m = min(rows, columns)
    p = isqrt(2**53 // m) + 2
    while not (is_prime(p) and (p - 1) * (1 + m * (p - 1)) < 2**53):
        p -= 1
    return p


P_EDGE = _largest_exact_prime(129)


def _rref_input(p, rows, cols, kind, seed):
    g = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "lowrank":
        return g.integers(0, p, (rows, 24)) @ g.integers(0, p, (24, cols)) % p
    if kind == "duprows":
        half = g.integers(-p, p, (max(rows // 2, 1), cols))  # one row at rows = 1
        a = np.vstack([half, half * g.integers(1, p, (len(half), 1)), half[:rows % 2]])
        return a[:rows][g.permutation(rows)]
    if kind == "dupcols":
        return _rref_input(p, cols, rows, "duprows", seed).T
    return g.integers(0, p, (rows, cols))


def _assert_rref_matches_oracles(a, p):
    # the canonical form is unique: the same pivots as the pure-Python
    # elimination, and the same bytes as the panel kernel
    got, pivots = _rref_mod_p(a, p)
    want, want_pivots = panel_rref_mod_p(a, p)
    assert pivots == want_pivots and all(type(j) is int for j in pivots)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    gj_rows, gj_pivots = gauss_jordan_mod_p(a.tolist(), p)
    assert pivots == gj_pivots and got.tolist() == gj_rows


@pytest.mark.parametrize("p,rows,cols,kind", [
    (5, 127, 140, "dense"),      # wide
    (7, 128, 60, "dense"),       # tall, one full panel
    (11, 129, 150, "dense"),     # wide, one row past the panel edge
    (13, 257, 40, "dense"),      # tall, three panels
    (5, 257, 300, "lowrank"),
    (7, 129, 129, "duprows"),
    (11, 128, 200, "dupcols"),
    (13, 257, 257, "zero"),
    (P_EDGE, 129, 160, "dense"),  # 128 unreduced pivots near 2^53, free columns
])
def test_rref_matches_gauss_jordan(p, rows, cols, kind):
    a = _rref_input(p, rows, cols, kind, seed=rows * cols + p % 1000)
    _assert_rref_matches_oracles(a, p)


# one leaf (1, 15, 16); one row past it, halved into leaves of 8 and 9
# (17); a leaf of 16 beside a halved 17 (33); uneven halvings (129, 257)
RREF_ROWS = [1, 15, 16, 17, 33, 129, 257]


@pytest.mark.parametrize("rows", RREF_ROWS)
@pytest.mark.parametrize("kind,cols", [
    ("dense", lambda r: r + 9),    # wide: full row rank
    ("dense", lambda r: r // 3 + 1),  # tall: the top half fills every column
    ("zero", lambda r: r + 3),
    ("lowrank", lambda r: r + 5),
    ("duprows", lambda r: r + 2),
    ("dupcols", lambda r: r // 2 + 1),
], ids=["wide", "tall", "zero", "lowrank", "duprows", "dupcols"])
@pytest.mark.parametrize("p", [7, P_EDGE], ids=["7", "edge"])
def test_rref_halving_matches_oracles(rows, kind, cols, p):
    cols = cols(rows)
    if p == P_EDGE and min(rows, cols) > 129:
        cols = 129  # stay within the bound at P_EDGE: tall instead
    a = _rref_input(p, rows, cols, kind, seed=rows * 1000 + cols)
    _assert_rref_matches_oracles(a, p)


@pytest.mark.parametrize("shape", [(0, 5), (0, 0), (5, 0), (40, 0), (0, 40)])
def test_rref_empty_shapes(shape):
    a = np.zeros(shape, dtype=np.int64)
    got, pivots = _rref_mod_p(a, 5)
    want, _ = panel_rref_mod_p(a, 5)
    assert pivots == [] and got.shape == want.shape == (0, shape[1])
    basis, free = _left_nullspace_mod_p(a, 5)
    assert (basis == np.eye(shape[0])).all() and free == list(range(shape[0]))


def test_rref_bound_raises_past_its_limit():
    # m = min(rows, cols) bounds every rank, so only it counts
    p_next = next(q for q in range(P_EDGE + 1, 2 * P_EDGE) if is_prime(q))
    a = np.ones((129, 300))
    with pytest.raises(ValueError, match="not exact"):
        _rref_mod_p(a, p_next)
    _rref_mod_p(a[:128], p_next)
    _rref_mod_p(a.T[:, :128], p_next)
