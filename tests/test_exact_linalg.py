import os
import pickle
import random
import subprocess
import sys
from itertools import permutations
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eistheta
from eistheta import exact_linalg
from eistheta.exact_linalg import (
    IntMatrix,
    LogMap,
    factorize,
    hnf_mod,
    is_prime,
    kronecker,
    left_kernel,
    log_to_p,
    mul_exact,
    mul_int64,
    primes_up_to,
    scaled_inverse_mod,
    snf,
    sqrt_mod,
    xgcd,
)
from oracles import det, euclid_hnf_mod, hnf, hnf_with_transform, mat_mul, solve_left, unimodular_inverse
from oracles import snf as snf_with_transforms

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
    # the elimination runs in int64 while 2 D^2 < 2^63: 2^31 - 1 is the
    # largest such modulus, 2^31 the least past it, and 2^80 * 561 far past
    for D, dtype in ((2**31 - 1, np.int64), (2**31, object), (2**80 * 561, object)):
        got = hnf_mod(rows, D)
        assert got.dtype == dtype
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


@pytest.mark.parametrize("kind", ["one", "prime power", "35^k, columns without a unit",
                                  "Python ints"])
def test_hnf_mod_matches_the_euclid_only_oracle(kind):
    # unit pivots against the elimination that ran Euclid in every column:
    # at D = 1 no column may take a unit, at 35^k the columns made of
    # multiples of 5 and 7 hold none, and 2 D^2 >= 2^63 runs in Python ints
    for _ in range(40):
        g = rng.randint(1, 7)
        m = rng.choice((rng.randint(1, 3 * g + 2), 2 * (g + 16) + rng.randint(1, 10)))
        D = {"one": 1, "prime power": rng.choice((2, 3, 5, 7, 11)) ** rng.randint(1, 12),
             "35^k, columns without a unit": 35 ** rng.randint(1, 6),
             "Python ints": rng.choice((2**31, 35**13, 5**40, 3 * 2**64))}[kind]
        rows = [[rng.randrange(-D, 2 * D) for _ in range(g)] for _ in range(m)]
        if D % 35 == 0:
            for j in rng.sample(range(g), rng.randint(1, g)):
                for row in rows:
                    row[j] = rng.choice((5, 7, 35)) * rng.randrange(-D, D)
        got, want = hnf_mod(rows, D), euclid_hnf_mod(rows, D)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), (rows, D)
    if kind == "prime power":  # the modulus may also be a numpy integer
        assert hnf_mod([[3, 5], [1, 7]], np.int64(125)).tolist() == [[1, 0], [0, 1]]


def _tall_stack(basis, coeffs):
    """The rows coeffs @ basis, as Python-int lists: a stack whose row
    lattice lies in that of `basis`."""
    return [[sum(c * b for c, b in zip(row, col)) for col in zip(*basis)] for row in coeffs]


def test_hnf_mod_unit_and_euclid_columns_fuzz():
    # Gauss-Jordan unit steps beside Euclid columns, against the pure-Python
    # Hermite form of the stack and D I: moduli with several small primes,
    # so that many columns hold no unit, rows often with shared factors
    r = random.Random(26)
    moduli = [1, 2, 4, 6, 12, 30, 36, 60, 210, 2 * 3 * 5 * 7 * 11, 2**5 * 3**3, 35**3, 97, 1024]
    for _ in range(3000):
        g = r.randint(1, 6)
        D = r.choice(moduli)
        m = r.randint(1, 2 * g + 2)
        factors = [f for f in (1, 2, 3, 5, 6) if D % f == 0]
        rows = [[r.choice(factors) * r.randrange(D) for _ in range(g)] for _ in range(m)]
        assert hnf_mod(rows, D).tolist() == _stacked_hnf(rows, D), (rows, D)


def test_hnf_mod_reduces_above_a_euclid_pivot_of_one():
    # at D = 6 column 1 holds 2 and 3 below row 0, no unit: Euclid makes
    # pivot 1, and the entry above it, the 1 of row 0, must still be reduced
    rows = [[1, 1, 0], [0, 2, 1], [0, 3, 4]]
    assert hnf_mod(rows, 6).tolist() == _stacked_hnf(rows, 6) == np.eye(3, dtype=int).tolist()


def test_mul_exact_runs_on_python_ints_past_the_bound():
    a = np.array([[2**31, 1], [3, -2**31]], dtype=np.int64)
    b = np.array([[2**31, 5], [-7, 2**31]], dtype=np.int64)
    want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.tolist())]
            for row in a.tolist()]
    with pytest.raises(ValueError, match="int64 product bound"):
        mul_int64(a, b)
    got = mul_exact(a, b)
    assert got.dtype == object and got.tolist() == want
    small = mul_exact(a // 2**16, b // 2**16)
    assert small.dtype == np.int64 and small.tolist() == mul_int64(a // 2**16, b // 2**16).tolist()


@given(st.integers(1, 5).flatmap(lambda g: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=g, max_size=g), min_size=g, max_size=g),
    st.lists(st.lists(st.integers(-50, 50), min_size=g, max_size=g),
             min_size=2 * (g + 16) + 1, max_size=2 * (g + 16) + 40),
    st.integers(1, 10**4), st.sampled_from([1, 2**10, 2**30]))))
@settings(max_examples=100, deadline=None)
def test_hnf_mod_sketch_matches_stacked_hnf_hypothesis(case):
    # stacks taller than 2 (g + 16) rows, whose lattice lies in that of a
    # random (often singular) basis: sketched while (D - 1)^2 m < 2^63,
    # the whole stack past it
    basis, coeffs, D, scale = case
    rows, D = _tall_stack(basis, coeffs), D * scale
    assert hnf_mod(rows, D).tolist() == _stacked_hnf(rows, D)


def _counting_eliminations(monkeypatch):
    """A list that records the row count of every elimination hnf_mod
    runs from now on."""
    seen = []
    direct = exact_linalg._hnf_mod_reduced
    monkeypatch.setattr(exact_linalg, "_hnf_mod_reduced",
                        lambda a, D: seen.append(len(a)) or direct(a, D))
    return seen


def test_hnf_mod_past_the_sketch_bound_eliminates_the_stack(monkeypatch):
    # (D - 1)^2 m >= 2^63 while 2 D^2 < 2^63: the whole stack in int64,
    # with no product for mul_int64 to refuse; a stack that is not tall
    # is eliminated whole too
    seen = _counting_eliminations(monkeypatch)
    rows = _tall_stack([[2, 1, 0], [0, 3, 5], [0, 0, 7]], _random_rows(60, 3))
    for D in (2**29 + 1, 2**31 - 1):
        seen.clear()
        got = hnf_mod(rows, D)
        assert got.dtype == np.int64 and got.tolist() == _stacked_hnf(rows, D)
        assert seen == [60]
    seen.clear()
    assert hnf_mod(rows[:38], 42).tolist() == _stacked_hnf(rows[:38], 42)
    assert seen == [38]


def _scaled_inverse_by_fractions(h, m):
    """m h^{-1} mod m for an upper-triangular h, by back-substitution in
    exact rationals; raises unless m h^{-1} is integral."""
    g = len(h)
    z = [[Fraction(0)] * g for _ in range(g)]
    for j in range(g):
        for i in range(g):
            z[i][j] = (Fraction(m * (i == j)) - sum(z[i][k] * h[k][j] for k in range(j))) / h[j][j]
    assert all(x.denominator == 1 for row in z for x in row)
    return [[int(x) % m for x in row] for row in z]


@given(st.integers(1, 5).flatmap(lambda g: st.tuples(
    st.lists(st.lists(st.integers(-50, 50), min_size=g, max_size=g), min_size=1, max_size=12),
    st.integers(1, 3**20), st.integers(0, 3))))
@settings(max_examples=150, deadline=None)
def test_scaled_inverse_mod_matches_exact_rationals(case):
    # every modulus m, from int64 through 2 m^3 g >= 2^63 (Python ints)
    rows, m, shift = case
    m *= 10 ** (6 * shift)
    h = hnf_mod(rows, m)
    z = scaled_inverse_mod(h, m)
    assert z.dtype == (np.int64 if 2 * m * prod(map(int, np.diagonal(h))) * m * len(h) < 2**63
                       else object)
    assert z.tolist() == _scaled_inverse_by_fractions(h.tolist(), m)


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
        sd = snf_with_transforms(a)
        assert sd.diag == snf(a).diag
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
