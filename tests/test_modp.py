"""Mod-p multiplicity route: agreement with the exact pipeline and
oracle checks of the F_p linear algebra helpers against integer SNF.

Both routes now reach g_p through the same F_p kernel (`modp.cut`), so
their agreement alone no longer checks that kernel; a pure-Python rank
computation over F_p serves as the independent oracle.
"""

import functools
import os
import random
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest

import eistheta
from eistheta import modp
from eistheta.eisenstein import build_context, g_p_dimension, merel_criterion
from eistheta.exact_linalg import IntMatrix, is_prime, primes_up_to, snf
from eistheta.modp import (
    _joint_kernel_dims,
    _left_nullspace_mod_p,
    _rref_mod_p,
    g_p_dimension_modp,
)
from eistheta.modsym import build_space, presentation, tree_reduction
from oracles import ADMISSIBLE, gauss_jordan_mod_p, rref_reduction

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
    for gen in ctx.eis_generators:
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


@pytest.mark.parametrize("N,p", ADMISSIBLE)
def test_tree_matches_dense_rref_oracle(N, p, monkeypatch):
    # the tree's reduction mod p is the dense F_p elimination's quotient
    # map in another basis: red = red_o @ red[free_o] mod p, red_o being
    # a unit row at each of its free variables; run on the eliminated
    # reduction, the mod-p route gives the same g_p
    pres = presentation(N)
    free, red = tree_reduction(pres)
    free_o, red_o = rref_reduction(pres, p)
    assert len(free_o) == len(free)
    assert not ((red_o @ red[free_o] - red) % p).any()
    monkeypatch.setattr(modp, "tree_reduction", lambda pres: (free_o, red_o))
    assert g_p_dimension_modp(N, p) == _g_p_modp(N, p)


def _families_used(monkeypatch, N, p):
    used = []
    hecke_family = modp.hecke_family
    monkeypatch.setattr(modp, "hecke_family",
                        lambda ell, N: used.append(ell) or hecke_family(ell, N))
    return g_p_dimension_modp(N, p), used


@pytest.mark.parametrize("N,p,g_p,families", [
    (11, 5, 1, []),     # g = 1 = Mazur's bound: no operator at all
    (31, 5, 2, []),     # g = 2 = Merel's bound
    (1871, 5, 2, [2]),  # d = 2 = Merel's bound after T_2 - 3
    (181, 5, 3, primes_up_to(31) + [181]),  # g_p = 3 > 2: the full loop
])
def test_stop_points(N, p, g_p, families, monkeypatch):
    assert _families_used(monkeypatch, N, p) == (g_p, families)


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
    # bound on a Merel family's counts (5 * 7 * 42 * 2^50 >= 2^53 at
    # N = 41; at N = 11 and 31 the loop is proven done before any family)
    code = (
        "import numpy as np\n"
        "from eistheta import modp\n"
        "presentation = modp.presentation\n"
        "def no_work(N):\n"
        "    raise RuntimeError('presentation built before the bound check')\n"
        "def huge_counts():\n"
        "    modp.presentation = presentation\n"
        "    modp.family_counts = lambda symbols, fam, N, inv: np.full((len(symbols), N + 1), 2**50)\n"
        "    modp.g_p_dimension_modp(41, 5)\n"
        "modp.presentation = no_work\n"
        "calls = (lambda: modp.cut(np.eye(2), [0, 1], np.eye(2), 0, 2**31 - 1),\n"
        "         lambda: modp.g_p_dimension_modp(360287970189731, 5),\n"
        "         huge_counts)\n"
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
    assert out == ["ValueError: float64 arithmetic mod p is not exact at this size"] * 3


def test_input_validation():
    with pytest.raises(ValueError, match="prime"):
        g_p_dimension_modp(12, 5)
    with pytest.raises(ValueError, match=r"p \|\| N-1"):
        g_p_dimension_modp(11, 7)
    with pytest.raises(ValueError, match=r"p \|\| N-1"):
        g_p_dimension_modp(101, 5)  # 25 divides 100
    with pytest.raises(ValueError, match="p >= 5"):
        g_p_dimension_modp(31, 3)


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


def test_rref_blocked_panels_agree():
    # force multiple panels through a tiny block size
    rows = _random_matrix(40, 25)
    a, pa = _rref_mod_p(np.array(rows), 5, block=7)
    b, pb = _rref_mod_p(np.array(rows), 5, block=128)
    assert pa == pb and (a == b).all()


def _largest_exact_prime(m):
    # the largest prime p with (p-1)(1 + m(p-1)) < 2^53: the lazy panel's bound
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
        half = g.integers(-p, p, (rows // 2, cols))
        a = np.vstack([half, half * g.integers(1, p, (rows // 2, 1)), half[:rows % 2]])
        return a[g.permutation(rows)]
    if kind == "dupcols":
        return _rref_input(p, cols, rows, "duprows", seed).T
    return g.integers(0, p, (rows, cols))


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
    want_rows, want_pivots = gauss_jordan_mod_p(a.tolist(), p)
    for block in (128, 7):
        got, pivots = _rref_mod_p(a, p, block=block)
        assert pivots == want_pivots
        assert got.tolist() == want_rows


def test_rref_bound_raises_past_its_limit():
    # m = min(rows, cols) bounds the pivots in a panel, so only it counts
    p_next = next(q for q in range(P_EDGE + 1, 2 * P_EDGE) if is_prime(q))
    a = np.ones((129, 300))
    with pytest.raises(ValueError, match="not exact"):
        _rref_mod_p(a, p_next)
    _rref_mod_p(a[:128], p_next)
    _rref_mod_p(a.T[:, :128], p_next)
