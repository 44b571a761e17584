"""Acceptance suite: the headline invariants this package promises.

One test per criterion, each ending in a single printed PASS/FAIL
line.  The expensive sweeps are shared through module fixtures.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from eistheta.eisenstein import alpha_check, build_context, g_p_dimension, theta_valuation
from eistheta.exact_linalg import IntMatrix, LogMap, kronecker, xgcd
from eistheta.harness import (
    fixture_rows,
    load_context,
    report_to_csv,
    save_context,
    sweep_even,
    sweep_odd,
)
from eistheta.modsym import build_space, hecke, path_to_chain, theta_element
from eistheta.quadfield import (
    class_number,
    field_profile,
    is_fundamental,
    split_root,
    unit_residues,
    validate_discriminant,
)
from eistheta.selmer import SelmerInput, equivalence_predicate
from oracles import dense_reduction, fundamental_unit, mat_mul

rng = random.Random(3001)


def _verdict(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def pair11():
    space = build_space(11)
    return space, build_context(space, 5)


@pytest.fixture(scope="module")
def pair31():
    space = build_space(31)
    return space, build_context(space, 5)


@pytest.fixture(scope="module")
def pair211():
    space = build_space(211)
    return space, build_context(space, 5)


@pytest.fixture(scope="module")
def sweep11():
    t0 = time.monotonic()
    report = sweep_even(11, 5, 1, 2999)
    return report, time.monotonic() - t0


# ---------------------------------------------------------------------------
# 1. fixture table


def test_criterion_1_fixture_table():
    t0 = time.monotonic()
    rows = fixture_rows()
    secs = time.monotonic() - t0
    ok = rows == [(11, 5, 1, 1), (31, 5, 2, 2), (211, 5, 2, 2)] and secs < 60
    _verdict(1, ok, f"g_p fixture table exact in {secs:.1f}s (limit 60s)")


def test_criterion_1_fixture_table_large():
    t0 = time.monotonic()
    rows = fixture_rows(large=True)
    secs = time.monotonic() - t0
    ok = all(want == got for _, _, want, got in rows) and secs < 1800
    _verdict(1, ok, f"large g_p fixtures {rows[3:]} in {secs:.0f}s (limit 1800s)")


# ---------------------------------------------------------------------------
# 2 + 3. the (11, 5) even sweep to 3000


def test_criterion_2_trivial_divisibility(sweep11):
    report, secs = sweep11
    bad = [r.D for r in report.rows if r.eis_valuation < 1]
    ok = report.total == 344 and not bad and secs < 300
    _verdict(2, ok, f"{report.total} even discriminants below 3000, all "
                    f"valuations >= 1, {secs:.1f}s (limit 300s)")


def test_criterion_3_even_equivalence(sweep11):
    report, _ = sweep11
    mism = [r.D for r in report.rows if (r.eis_valuation >= 2) != r.criterion]
    n_true = sum(1 for r in report.rows if r.criterion)
    ok = not mism and 0 < n_true < report.total
    _verdict(3, ok, f"valuation >= 2 iff unit criterion on all {report.total} "
                    f"rows ({n_true} criterion-true, rest false)")


# ---------------------------------------------------------------------------
# 4. the equivalence at higher levels


def test_criterion_4_equivalence_at_31_and_211(pair31, pair211):
    t0 = time.monotonic()
    reports = [sweep_even(31, 5, 1, 499, context=pair31),
               sweep_even(211, 5, 1, 499, context=pair211)]
    secs = time.monotonic() - t0
    ok = secs < 600
    detail = []
    for rep in reports:
        mism = [r.D for r in rep.rows if (r.eis_valuation >= 2) != r.criterion]
        n_true = sum(1 for r in rep.rows if r.criterion)
        ok = ok and not mism and 0 < n_true < rep.total
        detail.append(f"N={rep.rows[0].N}: {rep.total} rows, {n_true} true")
    _verdict(4, ok, "; ".join(detail) + f"; {secs:.1f}s (limit 600s)")


# ---------------------------------------------------------------------------
# 5. odd twists against class numbers


def test_criterion_5_odd_cross_check():
    report = sweep_odd(11, 5, -2999, -1)
    mism = [r.D for r in report.rows if (r.eis_valuation >= 1) != r.criterion]
    row47 = next(r for r in report.rows if r.D == -47)
    ok = (not mism and row47.criterion and row47.eis_valuation >= 1
          and row47.h == 5 and _h_form_enum_neg(-47) == 5)
    _verdict(5, ok, f"{report.total} odd discriminants, valuation >= 1 iff "
                    f"5 | h; D=-47 (h=5) on the true side")


# ---------------------------------------------------------------------------
# 6. the alpha map is log(d), with a one-dimensional p-part


def test_criterion_6_alpha_map(pair11, pair31, pair211):
    _, ctx11 = pair11
    samples = []
    while len(samples) < 50:
        d = rng.randrange(2, 3000)
        if d % 11 == 0:
            continue
        b = rng.randrange(1, d)
        if gcd(b, d) == 1:
            samples.append((b, d))
    ok = alpha_check(ctx11, samples)
    for _, ctx in (pair31, pair211):
        few = [(1, d) for d in range(2, 40) if gcd(d, ctx.space.N) == 1][:8]
        # alpha_check refuses unless the p-part of the quotient by the
        # first Eisenstein layer has order exactly p at this level
        ok = ok and alpha_check(ctx, few)
    _verdict(6, ok, "50 random symbol images proportional to log(d) at "
                    "(11,5); p-part of order exactly p at all three levels")


# ---------------------------------------------------------------------------
# 7. the Selmer-rank grid


def test_criterion_7_selmer_grid():
    t0 = time.monotonic()
    checked = 0
    ok = True
    for pdh in (False, True):
        for pic in (False, True):
            if not pdh and not pic:
                continue  # h prime to p forces the quotient trivial
            for lu in range(5):
                for lp2 in (None, 0, 1, 2, 3, 4):
                    for gp in (1, 2, 3):
                        inp = SelmerInput(pdh, pic, lu, lp2, gp)
                        try:
                            a, b = equivalence_predicate(inp)
                        except ValueError:
                            continue  # split log required but absent
                        checked += 1
                        ok = ok and a == b
    secs = time.monotonic() - t0
    ok = ok and checked > 100 and secs < 1.0
    _verdict(7, ok, f"predicate pair equal on all {checked} grid points "
                    f"in {secs:.3f}s (limit 1s)")


# ---------------------------------------------------------------------------
# 8. structural properties


def test_criterion_8_structural_suite(pair11, pair31, tmp_path):
    space11, ctx11 = pair11
    space31, _ = pair31
    failures = []

    # Hecke commutativity and compatibility with the star involution
    ops = {ell: hecke(space31, ell) for ell in (2, 3, 5, 31)}
    for i in ops:
        for j in ops:
            if mat_mul(ops[i], ops[j]) != mat_mul(ops[j], ops[i]):
                failures.append(f"T{i} T{j} do not commute")
        if mat_mul(ops[i], space31.star) != mat_mul(space31.star, ops[i]):
            failures.append(f"T{i} does not commute with the involution")

    # theta elements: the sum of their paths has boundary zero (no
    # {0, oo} coordinate) and the theta's coordinates, eigenvector of
    # the involution
    for D in (12, 37, -3, -47):
        theta = theta_element(space11, D)
        rel = [0] * dense_reduction(space11).cols
        for a in range(1, abs(D)):
            chi = kronecker(D, a)
            for j, x in enumerate(path_to_chain(space11, a, abs(D)) if chi else ()):
                rel[j] += chi * x
        if rel[0]:
            failures.append(f"theta {D} has boundary")
        if tuple(rel[1:]) != theta.coords:
            failures.append(f"theta {D} is not the sum of its paths")
        image = mat_mul(IntMatrix([theta.coords]), space11.star)
        want = tuple(theta.sign * x for x in theta.coords)
        if image.entries[0] != want:
            failures.append(f"theta {D} not a sign eigenvector")

    # unit criterion independent of which square root labels the prime
    for D in range(2, 300):
        if not (is_fundamental(D) and validate_discriminant(D, 11, 5, True)):
            continue
        h = class_number(D)
        _, res1, res2 = unit_residues(D, 11)
        e = h * 10 // 5
        if (pow(res1, e, 11) == 1) != (pow(res2, e, 11) == 1):
            failures.append(f"root choice changes the criterion at {D}")

    # log-choice invariance: profiles and alpha under another generator
    alt = LogMap(11, 5, generator=7)
    for D in (12, 37, 232, 401):
        if field_profile(D, 11, 5).criterion != field_profile(D, 11, 5, logmap=alt).criterion:
            failures.append(f"criterion depends on the log generator at {D}")
    if not alpha_check(ctx11, [(1, d) for d in (2, 3, 7, 13)], logmap=alt):
        failures.append("alpha fails under an alternative log generator")

    # valuations are a function of the space alone: rebuild and compare
    ctx_again = build_context(space11, 5)
    for D in (12, 37, 232, -3, 93):
        theta = theta_element(space11, D)
        ctx = ctx11 if D > 0 else build_context(space11, 5, sign=-1)
        ctxb = ctx_again if D > 0 else build_context(space11, 5, sign=-1)
        if theta_valuation(ctx, theta) != theta_valuation(ctxb, theta):
            failures.append(f"valuation changed across rebuilds at {D}")

    # parallel report equals serial report
    if sweep_even(11, 5, 1, 300, jobs=2).rows != sweep_even(11, 5, 1, 300).rows:
        failures.append("parallel sweep differs from serial")

    # cache round trip: byte-identical envelope, identical behaviour
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_context(space11, ctx11, a)
    save_context(space11, ctx11, b)
    if a.read_bytes() != b.read_bytes():
        failures.append("cache envelope not deterministic")
    space_l, ctx_l = load_context(a)
    if theta_valuation(ctx_l, theta_element(space_l, 12)) != 1:
        failures.append("cache round trip changes a valuation")
    if g_p_dimension(ctx_l) != g_p_dimension(ctx11):
        failures.append("cache round trip changes g_p")

    _verdict(8, not failures, "structural suite: " +
             ("; ".join(failures) if failures else
              "commutativity, involution, theta, root/log choice, "
              "parallel=serial, cache round trip"))


# ---------------------------------------------------------------------------
# 9. oracle equivalences
#
# Independent re-derivations: class numbers by brute-force enumeration
# of reduced binary quadratic forms (negative: direct count; positive:
# cycles of the reduction walk, halved when the unit has norm +1);
# unit residues from the exact big-integer unit; Hecke matrices from
# the coset definition of T_ell on rational paths.


def _h_form_enum_neg(D):
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c >= a and not (b < 0 and a == c):
                count += 1
        a += 1
    return count


def _h_form_enum_pos(D):
    m0 = isqrt(D)
    forms = set()
    for b in range(1, m0 + 1):
        if (D - b * b) % 4:
            continue
        q = (D - b * b) // 4
        for absa in range((m0 - b + 2) // 2, (m0 + b) // 2 + 1):
            if q % absa == 0:
                forms.add((absa, b, -(q // absa)))
                forms.add((-absa, b, q // absa))

    def rho(form):
        a, b, c = form
        bb = m0 - (m0 + b) % (2 * abs(c))
        return c, bb, (bb * bb - D) // (4 * c)

    cycles = 0
    left = set(forms)
    while left:
        start = left.pop()
        f = rho(start)
        while f != start:
            left.discard(f)
            f = rho(f)
        cycles += 1
    return cycles // 2 if fundamental_unit(D).norm == 1 else cycles


def _coset_hecke(space, ell):
    """T_ell on the cuspidal lattice straight from the coset action on
    rational paths, None standing in for the infinite cusp."""

    red = dense_reduction(space)
    oo = red.entries[0]  # the (0:1) symbol is {0, oo}

    def chain(e):
        if e is None:
            return oo
        return path_to_chain(space, e.numerator, e.denominator)

    k = red.cols
    rows = []
    for i in space.coord_symbols[1:]:  # the symbols of the cuspidal coordinates
        total = [0] * k
        c, d = space.generators[i]
        _, u, v = xgcd(d, c)  # u d + v c = 1, so [[u, -v], [c, d]] lifts
        alpha = None if d == 0 else Fraction(-v, d)
        beta = None if c == 0 else Fraction(u, c)
        pairs = [tuple(None if e is None else (e + sh) / ell for e in (alpha, beta))
                 for sh in range(ell)]
        if space.N % ell:
            pairs.append(tuple(None if e is None else e * ell for e in (alpha, beta)))
        for lo, hi in pairs:
            clo, chi_ = chain(lo), chain(hi)
            for j in range(k):
                total[j] += chi_[j] - clo[j]
        rows.append(total)
    if any(row[0] for row in rows):
        return None  # an image outside M: no operator on the cuspidal lattice
    return IntMatrix([row[1:] for row in rows])


def test_criterion_9_oracles(pair11):
    space11, _ = pair11
    failures = []

    n_h = 0
    for D in range(-200, 201):
        if abs(D) <= 1 or not is_fundamental(D):
            continue
        brute = _h_form_enum_neg(D) if D < 0 else _h_form_enum_pos(D)
        if class_number(D) != brute:
            failures.append(f"class number mismatch at {D}")
        n_h += 1

    n_u = 0
    inv2 = pow(2, -1, 11)
    for D in range(2, 501):
        if not is_fundamental(D) or D % 11 == 0:
            continue
        try:
            r = split_root(D, 11)
        except ValueError:
            continue  # inert level
        unit = fundamental_unit(D)
        want = tuple((unit.x + unit.y * root) * inv2 % 11 for root in (r, 11 - r))
        if unit_residues(D, 11) != (r, *want):
            failures.append(f"unit residue mismatch at {D}")
        n_u += 1

    space37 = build_space(37)
    for space in (space11, space37):
        for ell in (2, 3, 5, 7):
            if _coset_hecke(space, ell) != hecke(space, ell):
                failures.append(f"T{ell} at N = {space.N} differs from the coset definition")

    _verdict(9, not failures, "; ".join(failures) if failures else
             f"class numbers ({n_h} discriminants), unit residues "
             f"({n_u} fields), Heilbronn vs coset T2, T3, T5, T7 at N = 11, 37 all agree")
