import os
import pickle
import random
import subprocess
import sys
from itertools import permutations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eistheta
from eistheta.exact_linalg import (
    IntMatrix,
    LogMap,
    det,
    factorize,
    hnf_mod,
    hnf_with_transform,
    is_prime,
    kronecker,
    left_kernel,
    log_to_p,
    mul_int64,
    primes_up_to,
    snf,
    sqrt_mod,
    xgcd,
)
from oracles import hnf, mat_mul, solve_left, unimodular_inverse

rng = random.Random(20161871)


def rand_matrix(m, n, bound=9):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    )


def rand_unimodular(n, steps=25):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        for k in range(n):
            u[i][k] += q * u[j][k]
    return IntMatrix(u)


# ---------------------------------------------------------------------------
# the matrix type

def test_intmatrix_is_int64_while_every_entry_fits():
    top = 2**63 - 1
    m = IntMatrix([[top, -top - 1], [0, 1]])
    assert m.array.dtype == np.int64 and (m.rows, m.cols) == (2, 2)
    assert m.entries == ((top, -top - 1), (0, 1))
    for big in (2**63, -2**63 - 1):
        m = IntMatrix([[big, 1], [2, 3]])
        assert m.array.dtype == object
        assert m.entries == ((big, 1), (2, 3))
        assert all(type(x) is int for row in m.entries for x in row)
    assert IntMatrix(np.array([[2**63]], dtype=np.uint64)).entries == ((2**63,),)


def test_intmatrix_is_read_only_and_compares_to_a_bool():
    for m in (IntMatrix([[1, 2], [3, 4]]), IntMatrix([[2**70, 2], [3, 4]])):
        with pytest.raises(ValueError, match="read-only"):
            m.array[0, 0] = 5
        with pytest.raises(AttributeError):
            m.array = np.zeros((2, 2), dtype=np.int64)
        again = pickle.loads(pickle.dumps(m))
        assert again == m and not again.array.flags.writeable
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m == IntMatrix(np.array([[1, 2], [3, 4]]))) is True
    assert (m == IntMatrix([[1, 2], [3, 5]])) is False
    assert (m != IntMatrix([[1, 2], [3, 5]])) is True
    assert (m == IntMatrix([[1, 2, 0], [3, 4, 0]])) is False
    assert (m == IntMatrix([[2**70, 2], [3, 4]])) is False
    assert (m == [[1, 2], [3, 4]]) is False


def test_intmatrix_refuses_other_shapes_and_non_integers():
    bad = ([1, 2], [[[1]]], [], [[]], np.zeros((0, 3), dtype=np.int64), [[1, 2], [3]],
           [[1.5, 2]], np.ones((2, 2)), [[2**63, 0.5]], [["1"]])
    for data in bad:
        with pytest.raises(ValueError):
            IntMatrix(data)


def test_intmatrix_of_an_object_hnf_mod_result_that_fits_is_int64():
    rows, D = [[3, 5], [0, 7]], 21 * 2**40  # 2 D^2 >= 2^63: hnf_mod runs in Python ints
    h = hnf_mod(rows, D)
    assert h.dtype == object
    m = IntMatrix(h)
    assert m.array.dtype == np.int64
    assert m.entries == ((3, 5), (0, 7)) == tuple(map(tuple, h.tolist()))


# ---------------------------------------------------------------------------
# Hermite form

def test_hnf_pinned_examples():
    assert hnf(IntMatrix.identity(3)) == IntMatrix.identity(3)
    assert hnf(IntMatrix([[0, 1], [1, 0]])) == IntMatrix.identity(2)
    assert hnf(IntMatrix([[2, 4], [1, 2]])) == IntMatrix(
        [[1, 2], [0, 0]]
    )


def test_hnf_preserves_shape_and_is_idempotent():
    for _ in range(40):
        a = rand_matrix(rng.randint(1, 6), rng.randint(1, 6))
        h = hnf(a)
        assert (h.rows, h.cols) == (a.rows, a.cols)
        assert hnf(h) == h


def test_hnf_canonical_under_unimodular_row_ops():
    # U*A and A have the same row lattice, so identical canonical form
    for _ in range(30):
        a = rand_matrix(4, 5)
        u = rand_unimodular(4)
        assert hnf(mat_mul(u, a)) == hnf(a)


def test_hnf_transform_is_unimodular_and_consistent():
    for _ in range(30):
        a = rand_matrix(rng.randint(1, 6), rng.randint(1, 6))
        h, u = hnf_with_transform(a)
        assert mat_mul(u, a) == h
        assert hnf(u) == IntMatrix.identity(a.rows)  # unimodular


def test_hnf_zero_rows_at_bottom_and_reduced_off_pivots():
    a = IntMatrix([[6, 10, 4], [2, 4, 2], [4, 6, 2]])
    h = hnf(a)
    seen_zero = False
    for row in h.entries:
        if not any(row):
            seen_zero = True
        else:
            assert not seen_zero  # no nonzero row under a zero row
    # every pivot positive, entries above it in [0, pivot)
    pivots = []
    for i, row in enumerate(h.entries):
        nz = [j for j in range(h.cols) if row[j]]
        if nz:
            j = nz[0]
            assert row[j] > 0
            pivots.append((i, j))
    for i, j in pivots:
        for k in range(i):
            assert 0 <= h.entries[k][j] < h.entries[i][j]


# ---------------------------------------------------------------------------
# Hermite form modulo D, against the stacked `hnf` oracle

def _stacked_hnf(rows, D):
    """The g x g Hermite form of rows + D * Z^g, by the full `hnf` of the
    rows stacked on D * I."""
    g = len(rows[0])
    stacked = [list(r) for r in rows] + [[D if i == j else 0 for j in range(g)]
                                         for i in range(g)]
    return [list(r) for r in hnf(IntMatrix(stacked)).entries[:g]]


def _index(rows):
    """[Z^g : row lattice], or 0 when the rows do not have full rank."""
    h = hnf(IntMatrix(rows)).entries
    g = len(rows[0])
    return prod(h[i][i] for i in range(g)) if len(h) >= g else 0


def _random_rows(m, g, bound=9, zero_cols=()):
    return [[0 if j in zero_cols else rng.randint(-bound, bound) for j in range(g)]
            for _ in range(m)]


def test_hnf_mod_matches_stacked_hnf():
    for _ in range(60):
        g = rng.randint(1, 6)
        m = rng.choice((g, g + 2, 8 * g))  # square, a little taller, tall stacks
        zero_cols = set(rng.sample(range(g), rng.randint(0, 1)))
        rows = _random_rows(m, g, zero_cols=zero_cols)
        idx = _index(rows)
        for D in (rng.randint(1, 500), idx, 3 * idx, 2**40 * idx):
            if D:
                got = hnf_mod(rows, D)
                assert got.tolist() == _stacked_hnf(rows, D), (rows, D)
        if idx:  # D a multiple of the index gives the lattice's own form
            want = [list(r) for r in hnf(IntMatrix(rows)).entries[:g]]
            assert hnf_mod(rows, idx).tolist() == want
            assert hnf_mod(rows, 7 * idx).tolist() == want


def test_hnf_mod_takes_python_ints_past_the_int64_bound():
    rows = [[3, 5, 7], [0, 11, 13], [0, 0, 17], [2**70, 1, 2**65]]
    for D in (3037000499, 3037000500, 2**80 * 561):  # 2 D^2 just under, just over, far over 2^63
        got = hnf_mod(rows, D)
        assert got.dtype == (np.int64 if 2 * D * D < 2**63 else object)
        assert got.tolist() == _stacked_hnf(rows, D)
    assert hnf_mod(rows, 561).tolist() == [list(r) for r in hnf(IntMatrix(rows)).entries[:3]]
    with pytest.raises(ValueError, match="positive"):
        hnf_mod(rows, 0)


@given(st.integers(1, 5).flatmap(lambda g: st.tuples(
    st.lists(st.lists(st.integers(-50, 50), min_size=g, max_size=g), min_size=1, max_size=12),
    st.integers(1, 10**4), st.booleans())))
@settings(max_examples=150, deadline=None)
def test_hnf_mod_matches_stacked_hnf_hypothesis(case):
    rows, D, big = case
    D = D * 2**40 if big else D
    assert hnf_mod(rows, D).tolist() == _stacked_hnf(rows, D)


def test_det_matches_leibniz():
    for _ in range(40):
        n = rng.randint(1, 5)
        a = rand_matrix(n, n, bound=rng.choice((1, 9, 10**12)))
        leibniz = 0
        for perm in permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            leibniz += (-1) ** inversions * prod(a.entries[i][perm[i]] for i in range(n))
        assert det(a.array) == leibniz
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0


def test_mul_int64_is_exact_on_both_sides_of_the_float_bound():
    for bound in (9, 2**20, 2**28):  # float64 products, int64 products
        a = [[rng.randint(-bound, bound) for _ in range(7)] for _ in range(5)]
        b = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(7)]
        want = mat_mul(IntMatrix(a), IntMatrix(b))
        assert mul_int64(np.array(a), np.array(b)).tolist() == [list(r) for r in want.entries]
    big = np.full((1, 4), 2**30, dtype=np.int64)
    assert mul_int64(big, big.T).tolist() == [[2**62]]  # bound 2^62: exact in int64
    with pytest.raises(ValueError, match="bound"):
        mul_int64(big, np.full((4, 1), 2**31, dtype=np.int64))


def test_int64_bounds_survive_optimize():
    # the int64 bounds are explicit raises, so `python -O` keeps them: a
    # product whose bound reaches 2^63, an entry past int64, the same
    # product bound met by an operator restricted to M^+ at N = 11, and a
    # product of an object array with an entry past int64
    code = (
        "import numpy as np\n"
        "from eistheta.exact_linalg import IntMatrix, as_int64, mul_int64\n"
        "from eistheta.modsym import build_space, restrict_to_sign\n"
        "big = np.full((2, 2), 2**31, dtype=np.int64)\n"
        "calls = (lambda: mul_int64(big, big),\n"
        "         lambda: as_int64([[2**63]]),\n"
        "         lambda: restrict_to_sign(build_space(11), IntMatrix([[2**62, 0], [0, 1]]), 1),\n"
        "         lambda: mul_int64(IntMatrix([[2**70, 1]]).array, np.ones((2, 1), dtype=np.int64)))\n"
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
    assert out == ["ValueError: int64 product bound exceeded",
                   "ValueError: matrix entry does not fit in int64",
                   "ValueError: int64 product bound exceeded",
                   "ValueError: int64 product bound exceeded"]


# ---------------------------------------------------------------------------
# Smith form

def test_snf_pinned_examples():
    assert snf(IntMatrix([[4, 0], [0, 6]])).diag == (2, 12)
    assert snf(IntMatrix([[2, 0], [0, 3]])).diag == (1, 6)
    assert snf(IntMatrix.identity(4)).diag == (1, 1, 1, 1)


def test_snf_transforms_diagonalize():
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(m, n)
        sd = snf(a)
        prod = mat_mul(sd.left, a, sd.right)
        for i in range(m):
            for j in range(n):
                expect = sd.diag[i] if i == j and i < len(sd.diag) else 0
                assert prod.entries[i][j] == expect
        assert hnf(sd.left) == IntMatrix.identity(m)
        assert hnf(sd.right) == IntMatrix.identity(n)
        for x, y in zip(sd.diag, sd.diag[1:]):
            assert x >= 0 and (x == 0 and y == 0 or y % x == 0 if x else y == 0)


def test_snf_invariant_under_unimodular_equivalence():
    for _ in range(25):
        a = rand_matrix(4, 4)
        u, v = rand_unimodular(4), rand_unimodular(4)
        assert snf(mat_mul(u, a, v)).diag == snf(a).diag


def test_snf_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    for _ in range(15):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(m, n, bound=6)
        ours = [d for d in snf(a).diag if d]
        theirs = smith_normal_form(sympy.Matrix(a.array.tolist()))
        ref = sorted(
            abs(theirs[i, i]) for i in range(min(m, n)) if theirs[i, i] != 0
        )
        assert sorted(ours) == ref


def test_unimodular_inverse():
    for n in (1, 2, 4):
        u = rand_unimodular(n)
        assert mat_mul(u, unimodular_inverse(u)) == IntMatrix.identity(n)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))


def test_left_kernel_and_solve():
    a = IntMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    ker = left_kernel(a)
    assert len(ker) == 1
    v = ker[0]
    assert all(sum(v[i] * a.entries[i][j] for i in range(3)) == 0 for j in range(3))
    assert max(abs(x) for x in v) <= 2  # saturated: (2,-1,0) up to sign

    b = IntMatrix([[1, 0, 2], [0, 1, 3]])
    c = IntMatrix([[2, 3, 13], [5, -1, 7]])
    x = solve_left(b, c)
    assert mat_mul(x, b) == c
    with pytest.raises(ValueError):
        solve_left(b, IntMatrix([[0, 0, 1]]))


# ---------------------------------------------------------------------------
# arithmetic

def test_xgcd():
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_primality_helpers():
    ps = primes_up_to(200)
    assert ps[:8] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert all(is_prime(p) for p in ps)
    assert not any(is_prime(n) for n in (0, 1, 4, 91, 561, 1871 * 4621))
    assert is_prime(1871) and is_prime(4621) and is_prime(9931)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def test_kronecker_pinned_values():
    assert kronecker(12, 11) == 1
    assert kronecker(13, 11) == -1
    assert kronecker(-3, 11) == -1


def test_kronecker_against_euler_criterion():
    for q in (3, 5, 7, 11, 13, 31, 211):
        for a in range(1, q):
            euler = pow(a, (q - 1) // 2, q)
            assert kronecker(a, q) == (1 if euler == 1 else -1)
        assert kronecker(q, q) == 0


def test_kronecker_periodicity_and_multiplicativity():
    for D in (5, 12, 13, -3, -4, -47, 28, -24):
        period = abs(D)
        for n in range(1, 3 * period):
            assert kronecker(D, n) == kronecker(D, n + period)
        for _ in range(50):
            m, n = rng.randint(1, 400), rng.randint(1, 400)
            assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([3, 7, 11, 13, 101, 211, 1009]))
@settings(max_examples=200)
def test_sqrt_mod_roundtrip(x, q):
    a = x * x % q
    r = sqrt_mod(a, q)
    assert r * r % q == a
    assert 0 <= r < q


def test_sqrt_mod_rejects_nonresidues():
    with pytest.raises(ValueError, match="not a square"):
        sqrt_mod(2, 11)
    with pytest.raises(ValueError, match="not a square"):
        sqrt_mod(5, 13)


# ---------------------------------------------------------------------------
# the fixed discrete-log surjection

def test_logmap_pinned_values():
    L = LogMap(11, 5)
    assert L.generator == 2
    assert log_to_p(8, L) == 3  # 8 = 2^3
    assert log_to_p(10, L) == 0  # 10 = 2^5, and 5 = 0 mod 5


def test_logmap_is_a_homomorphism_onto_z_mod_p():
    for N, p in ((11, 5), (31, 5), (211, 5), (211, 7), (1871, 5)):
        L = LogMap(N, p)
        assert log_to_p(1, L) == 0
        assert log_to_p(N - 1, L) == 0  # -1 has even order 2, p is odd
        hits = set()
        for _ in range(120):
            a, b = rng.randint(1, N - 1), rng.randint(1, N - 1)
            la, lb, lab = log_to_p(a, L), log_to_p(b, L), log_to_p(a * b % N, L)
            assert lab == (la + lb) % p
            hits.add(la)
        assert hits == set(range(p))  # surjective


def test_logmap_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LogMap(11, 7)  # 7 does not divide 10
    with pytest.raises(ValueError):
        LogMap(101, 5)  # 25 divides 100: not an exact divisor
    with pytest.raises(ValueError):
        LogMap(15, 7)  # composite modulus


def test_logmap_kernel_is_pth_powers():
    N, p = 31, 5
    L = LogMap(N, p)
    kernel = {x for x in range(1, N) if log_to_p(x, L) == 0}
    pth_powers = {pow(x, p, N) for x in range(1, N)}
    assert kernel == pth_powers
    assert len(kernel) == (N - 1) // p
