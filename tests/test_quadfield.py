import math
import os
import random
import subprocess
import sys
from math import gcd, isqrt

import pytest

import eistheta
from eistheta import quadfield
from eistheta.exact_linalg import LogMap, factorize, kronecker, log_to_p, sqrt_mod, xgcd
from eistheta.quadfield import (
    _is_reduced_pos,
    _prime_power_form,
    _rho,
    class_number,
    class_numbers,
    field_profile,
    admissible_mask,
    fundamental_discriminants,
    fundamental_mask,
    is_fundamental,
    split_prime_data,
    split_root,
    unit_residues,
    validate_discriminant,
)
from oracles import (
    QuadUnit,
    bsgs_dlog,
    class_number_per_d,
    fundamental_unit,
    pic_zn_trivial,
    unit_criterion,
)

FUND_NEG = [D for D in range(-1, -200, -1) if is_fundamental(D)]
FUND_POS = [D for D in range(2, 201) if is_fundamental(D)]


# ---------------------------------------------------------------------------
# discriminant admissibility

def test_validate_discriminant_pinned():
    assert validate_discriminant(12, 11, 5, True)
    assert not validate_discriminant(60, 11, 5, True)  # 5 | 60
    assert validate_discriminant(-47, 11, 5, False)
    assert not validate_discriminant(13, 11, 5, True)  # (13/11) = -1
    assert not validate_discriminant(-47, 11, 5, True)  # wrong sign
    assert not validate_discriminant(45, 11, 5, True)  # not fundamental


def test_admissible_mask_matches_validate_discriminant():
    # one batched test against the per-D one, shuffled, with D past 2^32
    # (tested alone by `fundamental_mask`) and multiples of N and p
    Ds = list(range(-3000, 3001)) + [2**32 + 1, -(2**32 + 3), (2**61 - 1) * 4 * 3,
                                     -(2**61 - 1) * 4, 211 * 5 * 97, -1871 * 13]
    random.Random(23).shuffle(Ds)
    for N, p in ((11, 5), (211, 5), (421, 7), (1871, 11)):
        for split in (True, False):
            got = admissible_mask(Ds, N, p, split)
            assert got.dtype == bool
            assert got.tolist() == [validate_discriminant(D, N, p, split) for D in Ds]
    assert admissible_mask([], 11, 5, True).tolist() == []
    with pytest.raises(ValueError, match="odd prime"):
        admissible_mask([12], 15, 5, True)


def test_is_fundamental():
    assert all(is_fundamental(D) for D in (5, 8, 12, 13, -3, -4, -47, 401))
    assert not any(is_fundamental(D) for D in (0, 1, 2, 3, 4, 9, 18, 25, -27, 45))


def test_fundamental_mask_matches_is_fundamental():
    Ds = [D for m in range(1, 10**5 + 1) for D in (m, -m)]
    assert fundamental_mask(Ds).tolist() == [is_fundamental(D) for D in Ds]
    # in the order given, 0 included; past 2^32 a D is tested alone
    big = [0, 2**32 + 1, -(2**32 + 3), 9 * 477218589, 3037000537, (2**61 - 1) * 4 * 3, 45]
    assert fundamental_mask(big).tolist() == [is_fundamental(D) for D in big]
    assert fundamental_mask(big).dtype == bool and fundamental_mask([]).tolist() == []


@pytest.mark.parametrize("d_min, d_max", [(-400, 400), (1, 1), (-1, -1), (0, 0), (2, 4),
                                          (999_001, 1_000_000), (-1_000_000, -999_001)])
def test_fundamental_discriminants_sieve_matches_is_fundamental(d_min, d_max):
    assert fundamental_discriminants(d_min, d_max) == [
        D for D in range(d_min, d_max + 1) if is_fundamental(D)]


# ---------------------------------------------------------------------------
# class numbers, against the analytic class number formula

def test_class_number_pinned():
    assert class_number(-3) == 1
    assert class_number(-47) == 5  # (1,1,12), (2,+-1,6), (3,+-1,4)
    assert class_number(12) == 1
    assert class_number(5) == 1
    assert class_number(40) == 2
    assert class_number(229) == 3
    with pytest.raises(ValueError):
        class_number(45)


def test_class_number_neg_matches_character_sum():
    # h = w/(2|D|) * |sum a*chi(a)| for D < 0
    for D in FUND_NEG:
        w = 6 if D == -3 else 4 if D == -4 else 2
        s = sum(a * kronecker(D, a) for a in range(1, abs(D)))
        assert class_number(D) * 2 * abs(D) == w * abs(s), D


def test_class_number_pos_matches_analytic_formula():
    # h = -sum chi(a) log(2 sin(pi a / D)) / (2 log u)
    for D in FUND_POS:
        u = fundamental_unit(D)
        if u.y * isqrt(D) < 10**15:
            log_u = math.log((u.x + u.y * math.sqrt(D)) / 2)
        else:
            log_u = math.log(u.x)  # u = x - conj(u), |conj(u)| < 1
        s = -sum(
            kronecker(D, a) * math.log(2 * math.sin(math.pi * a / D))
            for a in range(1, D)
            if gcd(a, D) == 1
        )
        h = s / (2 * log_u)
        assert abs(h - round(h)) < 1e-6
        assert class_number(D) == round(h), D


FAR = [D for D in range(97001, 97601) if is_fundamental(D)]


def test_class_numbers_match_the_per_d_oracle():
    # every fundamental 1 < |D| <= 5000 and 97001 <= |D| <= 97600, shuffled,
    # so the batch also keeps the caller's order
    ds = [D for D in range(-5000, 5001) if abs(D) > 1 and is_fundamental(D)]
    ds += FAR + [D for D in range(-97600, -97000) if is_fundamental(D)]
    random.Random(2023).shuffle(ds)
    assert class_numbers(ds) == [class_number_per_d(D) for D in ds]
    assert class_numbers([]) == []


def test_class_numbers_do_not_depend_on_the_chunk_bound(monkeypatch):
    # small bounds make many batches, one-row batches, and rows whose
    # candidate scan is split across many chunks
    ds = [D for D in range(-700, 701) if abs(D) > 1 and is_fundamental(D)] + FAR[:3]
    want = [class_number_per_d(D) for D in ds]
    for chunk in (3, 50, 2**10):
        monkeypatch.setattr(quadfield, "_CLASS_CHUNK", chunk)
        assert class_numbers(ds) == want


def test_class_numbers_refuse_discriminants_beyond_int64(monkeypatch):
    # refused before D is factored or any array is built
    for ds in ([2**48 + 1], [12, -(2**48 + 3)], [2**62 + 1]):
        with pytest.raises(ValueError, match="too large for int64"):
            class_numbers(ds)
    with pytest.raises(ValueError, match="too large for int64"):
        class_number(2**48 + 1)
    monkeypatch.setattr(quadfield, "_CLASS_CHUNK", 1)
    with pytest.raises(ValueError, match="too large for int64"):
        class_numbers([2**52 + 1])


# ---------------------------------------------------------------------------
# fundamental units

def brute_unit(D, ymax=10**5):
    for y in range(1, ymax):
        for sgn in (-1, 1):
            t = D * y * y + 4 * sgn
            if t > 0:
                x = isqrt(t)
                if x * x == t:
                    return x, y, sgn
    raise AssertionError("unit not found in range")


def test_fundamental_unit_pinned():
    assert (lambda u: (u.x, u.y, u.norm))(fundamental_unit(5)) == (1, 1, -1)
    assert (lambda u: (u.x, u.y, u.norm))(fundamental_unit(8)) == (2, 1, -1)
    assert (lambda u: (u.x, u.y, u.norm))(fundamental_unit(12)) == (4, 1, 1)
    assert (lambda u: (u.x, u.y, u.norm))(fundamental_unit(37)) == (12, 2, -1)
    with pytest.raises(ValueError):
        fundamental_unit(-3)


def test_fundamental_unit_is_minimal_small_range():
    for D in FUND_POS:
        if D > 50:
            continue
        u = fundamental_unit(D)
        x, y, sgn = brute_unit(D)
        assert (u.x, u.y, u.norm) == (x, y, sgn)


def test_unit_pell_relation_and_parity_to_500():
    for D in range(2, 501):
        if not is_fundamental(D):
            continue
        u = fundamental_unit(D)
        assert u.x * u.x - D * u.y * u.y == 4 * u.norm
        assert (u.norm == -1) == (u.period_parity == 1)
        assert u.x > 0 and u.y > 0


def test_quadunit_rejects_bad_data():
    with pytest.raises(ValueError):
        QuadUnit(5, 2, 1, 1, 0)
    with pytest.raises(ValueError):
        QuadUnit(5, 1, 1, -1, 0)  # parity contradicts norm


# ---------------------------------------------------------------------------
# residues at split primes

def test_unit_residues_pinned():
    assert unit_residues(12, 11) == (10, 7, 8)
    assert unit_residues(37, 11) == (2, 8, 4)
    with pytest.raises(ValueError):
        unit_residues(13, 11)  # inert


@pytest.mark.parametrize("N", [11, 31, 211, 421, 1871])
def test_log_and_root_tables_match_the_searches(N):
    # the full log table against baby-step giant-step, at the default
    # primitive root and the largest one, and the smaller-root table
    # against Tonelli-Shanks, on every residue mod N
    g = max(x for x in range(2, N) if all(pow(x, (N - 1) // q, N) != 1 for q in factorize(N - 1)))
    for L in (LogMap(N, 5), LogMap(N, 5, generator=g)):
        assert [L.dlog(x) for x in range(1, N)] == [bsgs_dlog(N, L.generator, x) for x in range(1, N)]
        with pytest.raises(ValueError, match="log of zero residue"):
            L.dlog(N)
    roots = quadfield._smaller_roots(N)
    for a in range(N):
        if kronecker(a, N) == -1:
            assert roots[a] == -1, a
        else:
            r = sqrt_mod(a, N)
            assert roots[a] == min(r, N - r), a
    # split_root reads the table: the radicand's smaller root, doubled at 4 | D
    for D in (D for D in range(2, 400) if is_fundamental(D)):
        if kronecker(D, N) != 1:
            with pytest.raises(ValueError, match="does not split"):
                split_root(D, N)
            continue
        r = split_root(D, N)
        m = D if D % 4 else D // 4
        rm = min(sqrt_mod(m, N), N - sqrt_mod(m, N))
        assert r == (rm if D % 4 else 2 * rm % N) and (r * r - D) % N == 0, D


def test_tracked_residues_equal_exact_reduction_to_20000():
    # the principal-cycle walk mod N against the unit that the PQa oracle
    # writes down, at every fundamental D < 20000 and split N: all four
    # classes of the walk's length k mod 4 occur
    for D in range(2, 20000):
        if not is_fundamental(D):
            continue
        u = fundamental_unit(D)
        for N in (11, 31, 211, 421, 1871):
            if kronecker(D, N) != 1:
                continue
            r, res1, res2 = unit_residues(D, N)
            assert r * r % N == D % N
            inv2 = pow(2, -1, N)
            assert res1 == (u.x + u.y * r) * inv2 % N, (D, N)
            assert res2 == (u.x + u.y * (N - r)) * inv2 % N, (D, N)
            # product of the two residues is the norm
            assert res1 * res2 % N == u.norm % N


def test_unit_residues_refuse_a_gamma_off_the_unit_norm(monkeypatch):
    # a walk whose gamma takes one step [[0, -1], [1, 3]] more than its
    # forms did no longer maps the principal form to the form reached,
    # so x^2 - D y^2 = 4 N(u) fails mod N
    real = quadfield._walk

    def one_step_more(*args):
        a, k, ((g00, g01), (g10, g11)) = real(*args)
        return a, k, ((g01, 3 * g01 - g00), (g11, 3 * g11 - g10))

    monkeypatch.setattr(quadfield, "_walk", one_step_more)
    for D, N in ((12, 11), (37, 11), (5, 11), (8, 31), (13, 211)):
        with pytest.raises(ValueError, match="norm"):
            unit_residues(D, N)


def test_log1_u_is_minus_log2_u():
    L = LogMap(11, 5)
    for D in range(2, 301):
        if not is_fundamental(D) or kronecker(D, 11) != 1:
            continue
        _, res1, res2 = unit_residues(D, 11)
        assert (log_to_p(res1, L) + log_to_p(res2, L)) % 5 == 0


# ---------------------------------------------------------------------------
# the unit criterion

def test_unit_criterion_pinned():
    assert unit_criterion(12, 11, 5) is False  # 7^1 not a 5th power mod 11
    assert unit_criterion(37, 11, 5) is False
    with pytest.raises(ValueError):
        unit_criterion(60, 11, 5)


def test_unit_criterion_true_at_first_D_with_p_dividing_h():
    D = 2
    while not (validate_discriminant(D, 11, 5, True) and class_number(D) % 5 == 0):
        D += 1
    assert unit_criterion(D, 11, 5) is True


@pytest.mark.parametrize("N", [11, 31, 211])
def test_criterion_restatement(N):
    # criterion <=> (p | h) or (log1_u = 0); unit_criterion is also the
    # oracle for the criterion field_profile derives from the unit log
    L = LogMap(N, 5)
    for D in range(2, 500):
        if not validate_discriminant(D, N, 5, True):
            continue
        h = class_number(D)
        _, res1, _ = unit_residues(D, N)
        log1_u = log_to_p(res1, L)
        crit = unit_criterion(D, N, 5)
        assert crit == (h % 5 == 0 or log1_u == 0)
        assert field_profile(D, N, 5, logmap=L).criterion == crit


def test_invariant_checks_survive_optimize():
    # the unit-log invariant is an explicit raise, so `python -O` keeps
    # it: a unit_residues whose second residue breaks log1 = -log2
    code = (
        "from eistheta import quadfield\n"
        "r, res1, _ = quadfield.unit_residues(12, 11)\n"
        "quadfield.unit_residues = lambda D, N: (r, res1, res1)\n"
        "try:\n"
        "    quadfield.field_profile(12, 11, 5)\n"
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
    assert out == ["ValueError: unit logs at the two primes above N do not cancel"]


# ---------------------------------------------------------------------------
# split-prime ideal data

def test_split_prime_data_pinned():
    # ideal above 11 in Q(sqrt(12)) is generated by 1 + sqrt(12);
    # its conjugate reduces to 2 = g^1 mod the first prime
    assert split_prime_data(12, 11, 5) == (1, 1)


def exact_generator(D, N, k):
    """Redo the principality walk with an exact transform and return the
    generator z = (tw + y*sqrt(D))/2 of the k-th ideal power (test-side
    slow path; the library only ever tracks the transform mod N)."""
    a, b, c = _prime_power_form(D, N, k, split_root(D, N))
    a0, b0 = a, b
    m0 = isqrt(D)
    g = [[1, 0], [0, 1]]

    def push(t):
        for row in g:
            row[0], row[1] = row[1], row[1] * t - row[0]

    while not _is_reduced_pos(a, b, c, m0, D):
        (a, b, c), t = _rho(a, b, c, m0, D)
        push(t)
    start = (a, b)
    while abs(a) != 1:
        (a, b, c), t = _rho(a, b, c, m0, D)
        push(t)
        if (a, b) == start:
            return None
    x, y = g[0][0], g[1][0]
    tw = 2 * a0 * x + b0 * y
    assert (tw * tw - D * y * y) % 4 == 0
    return tw, y


def test_generator_norm_is_plus_minus_N_to_s():
    for N in (11, 31):
        for D in range(2, 201):
            if not validate_discriminant(D, N, 5, True):
                continue
            s, _ = split_prime_data(D, N, 5)
            tw, y = exact_generator(D, N, s)
            assert abs(tw * tw - D * y * y) == 4 * N**s
            assert class_number(D) % s == 0


def test_tracked_pi2_log_matches_exact_generator():
    # conj(z) mod prime_1 computed from the exact generator must agree
    # with the residue accumulated mod N inside split_prime_data
    L = LogMap(11, 5)
    inv2 = pow(2, -1, 11)
    for D in range(2, 301):
        if not validate_discriminant(D, 11, 5, True):
            continue
        s, log1_pi2 = split_prime_data(D, 11, 5)
        tw, y = exact_generator(D, 11, s)
        r = split_root(D, 11)
        t_exact = (tw - y * r) * inv2 % 11
        assert log_to_p(t_exact, L) == log1_pi2
        # and reducing z itself at prime_2 gives the same residue
        assert (tw + y * (11 - r)) * inv2 % 11 == t_exact


# ---------------------------------------------------------------------------
# order of the split prime class: composition oracle

def principal_form(D):
    m0 = isqrt(D)
    b = m0 if (m0 - D) % 2 == 0 else m0 - 1
    return (1, b, (b * b - D) // 4)


def reduce_form(f, D):
    m0 = isqrt(D)
    while not _is_reduced_pos(*f, m0, D):
        f, _ = _rho(*f, m0, D)
    return f


def cycle_of(f, D):
    m0 = isqrt(D)
    f = reduce_form(f, D)
    start, out = f, []
    while True:
        out.append(f)
        f, _ = _rho(*f, m0, D)
        if f == start:
            return out


def canon(f, D):
    return min(cycle_of(f, D))


def transform(f, g):
    (a, b, c), ((p, q), (r, s)) = f, g
    return (
        a * p * p + b * p * r + c * r * r,
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        a * q * q + b * q * s + c * s * s,
    )


def compose(f1, f2, D):
    """Dirichlet composition of primitive forms via united forms."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    if gcd(a1, a2) != 1:
        hit = next(
            (x, y)
            for x in range(-9, 10)
            for y in range(-9, 10)
            if gcd(x, y) == 1
            and (v := a2 * x * x + b2 * x * y + c2 * y * y)
            and gcd(v, a1) == 1
        )
        x, y = hit
        _, al, be = xgcd(x, y)
        a2, b2, c2 = transform((a2, b2, c2), ((x, -be), (y, al)))
        assert b2 * b2 - 4 * a2 * c2 == D
    m1, m2 = 2 * a1, 2 * a2
    assert (b2 - b1) % 2 == 0
    k = (b2 - b1) // 2 * pow(m1 // 2, -1, abs(m2) // 2) % (abs(m2) // 2)
    B = b1 + m1 * k
    A = a1 * a2
    assert (B * B - D) % (4 * A) == 0
    return canon((A, B, (B * B - D) // (4 * A)), D)


def order_by_composition(D, N):
    f = canon(_prime_power_form(D, N, 1, split_root(D, N)), D)
    acc = f
    for k in range(1, class_number(D) + 1):
        if any(abs(g[0]) == 1 for g in cycle_of(acc, D)):
            return k
        acc = compose(acc, f, D)
    raise AssertionError("order exceeds class number")


def test_split_prime_order_matches_composition_oracle():
    for N in (11, 31):
        for D in range(2, 201):
            if not validate_discriminant(D, N, 5, True):
                continue
            s, _ = split_prime_data(D, N, 5)
            assert s == order_by_composition(D, N), (D, N)


# ---------------------------------------------------------------------------
# Picard triviality and assembled profiles

def test_pic_zn_trivial_cases():
    assert pic_zn_trivial(12, 11, 5) is True  # h = 1
    # first discriminant where the prime above 11 is principal yet 5 | h:
    # Q(sqrt(4889)) has h = 5 and a generator of norm -11
    assert class_number(4889) == 5
    assert split_prime_data(4889, 11, 5)[0] == 1
    assert pic_zn_trivial(4889, 11, 5) is False
    found_nontrivial = False
    for D in range(2, 5000):
        if not validate_discriminant(D, 11, 5, True):
            continue
        h = class_number(D)
        if h % 5:
            assert pic_zn_trivial(D, 11, 5) is True
        else:
            s, _ = split_prime_data(D, 11, 5, h=h)
            if s % 5:
                assert pic_zn_trivial(D, 11, 5) is False
                found_nontrivial = True
                break
    assert found_nontrivial  # a 5 | h discriminant with principal prime


@pytest.mark.parametrize("N, d_max", [(11, 5000), (211, 2000)])
def test_field_profile_pic_matches_oracle(N, d_max):
    # on p | h rows field_profile reuses its own split-prime data;
    # pic_zn_trivial recomputes h and s from scratch
    found = set()
    for D in range(2, d_max + 1):
        if validate_discriminant(D, N, 5, True) and class_number(D) % 5 == 0:
            pic = pic_zn_trivial(D, N, 5)
            assert field_profile(D, N, 5).pic_zn_trivial == pic, D
            found.add(pic)
    assert found == ({True, False} if N == 11 else {True})


def test_field_profile_expands_the_continued_fraction_once(monkeypatch):
    # h comes from the form cycles, so a row walks the principal cycle
    # once, for the unit residues; every other walk starts at an ideal
    # power (N^k, b, c).  The split root is found once per row too.
    walks, roots = [], []
    real_walk, real_root = quadfield._walk, quadfield.split_root

    def walk(form, D, N, first):
        walks.append((form[0], D))
        return real_walk(form, D, N, first)

    monkeypatch.setattr(quadfield, "_walk", walk)
    monkeypatch.setattr(quadfield, "split_root", lambda D, N: roots.append(D) or real_root(D, N))
    ds = [D for D in range(2, 800) if validate_discriminant(D, 11, 5, True)]
    for D in ds:
        field_profile(D, 11, 5)
    assert [D for a, D in walks if a == 1] == ds
    assert all(a == 1 or a % 11 == 0 for a, _ in walks)
    assert roots == ds


def test_field_profile_pinned():
    prof = field_profile(12, 11, 5)
    assert prof.h == 1 and prof.h_mod_p == 1
    assert (prof.r, prof.u_mod_N1, prof.u_mod_N2) == (10, 7, 8)
    assert prof.s == 1 and prof.log1_pi2 == 1
    assert prof.log1_u == 2  # 7 = 2^7 mod 11, 7 = 2 mod 5
    assert prof.pic_zn_trivial is True
    assert prof.criterion is False
    with pytest.raises(ValueError):
        field_profile(13, 11, 5)
