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

import numpy as np
import pytest

import eistheta
from eistheta import modp
from eistheta.eisenstein import build_context, g_p_dimension, merel_criterion
from eistheta.exact_linalg import IntMatrix, snf
from eistheta.modp import _left_nullspace_mod_p, _rref_mod_p, g_p_dimension_modp
from eistheta.modsym import build_space, presentation, tree_reduction
from oracles import ADMISSIBLE, rref_reduction

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


def _fp_rank(rows, p):
    mat = [[x % p for x in r] for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _g_p_oracle(ctx):
    # d minus the F_p rank of [A_1^d | A_2^d | ...]: the dimension of the
    # joint kernel of the d-th powers of the Eisenstein generators
    d = ctx.W[0].rows
    concat = [[] for _ in range(d)]
    for gen in ctx.eis_generators:
        power = _fp_pow([list(r) for r in gen.entries], d, ctx.p)
        for i in range(d):
            concat[i].extend(power[i])
    return d - _fp_rank(concat, ctx.p)


@functools.cache
def _space(N):
    return build_space(N)


@functools.cache
def _g_p_modp(N, p):
    return g_p_dimension_modp(N, p)


@pytest.mark.parametrize("N,p", ADMISSIBLE)
def test_routes_match_rank_oracle(N, p):
    # exact route == mod-p route, and g_p >= 2 exactly when Merel's
    # criterion holds; the pure-Python rank oracle is run below N = 200
    ctx = build_context(_space(N), p)
    exact = g_p_dimension(ctx)
    assert exact == _g_p_modp(N, p)
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


def test_exactness_bounds_survive_optimize():
    # the float64 bounds are explicit raises, so `python -O` keeps them:
    # the shared kernel's own bound (p^2 * 3 >= 2^53 on a 2 x 2 input),
    # the entry bound of the mod-p route (25 * (N + 2) >= 2^53), which
    # must fire before the level-sized presentation is built, and the
    # bound on a Merel family's counts (5 * 36 * 2^50 >= 2^53 at N = 11)
    code = (
        "import numpy as np\n"
        "from eistheta import modp\n"
        "presentation = modp.presentation\n"
        "def no_work(N):\n"
        "    raise RuntimeError('presentation built before the bound check')\n"
        "def huge_counts():\n"
        "    modp.presentation = presentation\n"
        "    modp.family_counts = lambda symbols, fam, N, inv: np.full((len(symbols), N + 1), 2**50)\n"
        "    modp.g_p_dimension_modp(11, 5)\n"
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
    return sum(1 for d in snf(IntMatrix.from_rows(rows)).diag if d % p)


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
