"""Sweep, fixture, cache-envelope and report-emitter tests.

Row values below were frozen from runs of this code after checking the
interesting entries by hand (class numbers, unit logs, valuations);
they guard against regressions in any layer of the stack, since a
sweep row exercises the quadratic-field, modular-symbol, Eisenstein
and Selmer modules together.
"""

import dataclasses
import hashlib
import io
import json
import random
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eistheta import harness, quadfield
from eistheta.eisenstein import build_context, g_p_dimension, theta_valuation
from eistheta.exact_linalg import IntMatrix, hnf_mod
from eistheta.harness import (
    CacheIntegrityError,
    CacheVersionError,
    build_pair,
    check_fixtures,
    fixture_rows,
    load_context,
    report_to_csv,
    report_to_json,
    row_function,
    save_context,
    sweep_even,
    sweep_odd,
    sweep_window,
)
from eistheta.modsym import ModularSymbolSpace, build_space, hecke, theta_element
from eistheta.quadfield import validate_discriminant
from oracles import csr_from_dense, dense_reduction, shuffled_tree_space, space_digest

EVEN_CSV = """\
N,p,D,h,h_mod_p,log1_u,log1_pi2,criterion,eis_valuation,selmer_rank,selmer_kind,consistent
11,5,12,1,1,2,1,false,1,1,exact,true
11,5,37,1,1,3,1,false,1,1,exact,true
11,5,53,1,1,4,3,false,1,1,exact,true
11,5,56,1,1,1,4,false,1,1,exact,true
11,5,69,1,1,1,3,false,1,1,exact,true
11,5,89,1,1,3,1,false,1,1,exact,true
11,5,92,1,1,2,2,false,1,1,exact,true
11,5,93,1,1,2,2,false,1,1,exact,true
11,5,97,1,1,2,3,false,1,1,exact,true
"""

ODD_CSV = """\
N,p,D,h,h_mod_p,log1_u,log1_pi2,criterion,eis_valuation,selmer_rank,selmer_kind,consistent
11,5,-47,5,0,,,true,4,,,true
11,5,-31,3,3,,,false,0,,,true
11,5,-23,3,3,,,false,0,,,true
11,5,-4,1,1,,,false,0,,,true
11,5,-3,1,1,,,false,0,,,true
"""

EVEN_REPORT = sweep_even(11, 5, 1, 100)
ODD_REPORT = sweep_odd(11, 5, -50, -1)


def test_even_sweep_pinned():
    assert report_to_csv(EVEN_REPORT) == EVEN_CSV
    assert [r.D for r in EVEN_REPORT.rows] == [12, 37, 53, 56, 69, 89, 92, 93, 97]
    assert (EVEN_REPORT.total, EVEN_REPORT.passed, EVEN_REPORT.failed) == (9, 9, 0)
    row = EVEN_REPORT.rows[0]
    assert (row.h, row.criterion, row.eis_valuation) == (1, False, 1)
    assert (row.selmer.kind, row.selmer.value) == ("exact", 1)


def test_odd_sweep_pinned():
    assert report_to_csv(ODD_REPORT) == ODD_CSV
    assert [r.D for r in ODD_REPORT.rows] == [-47, -31, -23, -4, -3]
    row = ODD_REPORT.rows[0]
    # h(-47) = 5, so this is the one true instance of the odd criterion
    # in range; a sentinel valuation means the theta element vanished.
    assert (row.h, row.h_mod_p, row.criterion) == (5, 0, True)
    assert row.eis_valuation == 4
    assert row.log1_u is None and row.selmer is None
    assert all(not r.criterion and r.eis_valuation == 0
               for r in ODD_REPORT.rows[1:])


def test_sweeps_deterministic():
    assert report_to_csv(sweep_even(11, 5, 1, 100)) == report_to_csv(EVEN_REPORT)
    assert report_to_csv(sweep_odd(11, 5, -50, -1)) == report_to_csv(ODD_REPORT)


def test_wider_even_sweep_branch_variety():
    report = sweep_even(11, 5, 100, 500)
    assert report.failed == 0 and report.total == 49
    by_d = {r.D: r for r in report.rows}
    true_ds = sorted(d for d, r in by_d.items() if r.criterion)
    assert true_ds == [232, 273, 344, 364, 401, 421, 476, 488]
    # D = 401 has h = 5: rank prediction degrades to a lower bound.
    assert by_d[401].h == 5
    assert by_d[401].selmer.kind == "lower_bound"
    # D = 364 reaches the branch where both logs vanish.
    assert by_d[364].log1_u == 0 and by_d[364].log1_pi2 == 0
    assert by_d[364].selmer.kind == "exact" and by_d[364].selmer.value == 3


def test_parallel_matches_serial():
    par = sweep_even(11, 5, 1, 100, jobs=2)
    assert par.rows == EVEN_REPORT.rows
    assert report_to_csv(par) == report_to_csv(EVEN_REPORT)
    par_odd = sweep_odd(11, 5, -50, -1, jobs=3)
    assert par_odd.rows == ODD_REPORT.rows


@pytest.fixture(scope="module")
def pairs():
    return {sign: _built_pair(sign) for sign in (1, -1)}


def test_supplied_context_is_never_rebuilt(monkeypatch, pairs):
    def no_build(*args, **kwargs):
        raise RuntimeError("context rebuilt although one was supplied")

    # pool workers are forked, so they see these patches too
    monkeypatch.setattr(harness, "build_space", no_build)
    monkeypatch.setattr(harness, "build_context", no_build)
    for jobs in (1, 2):
        even = sweep_even(11, 5, 1, 100, jobs=jobs, context=pairs[1])
        odd = sweep_odd(11, 5, -50, -1, jobs=jobs, context=pairs[-1])
        assert even.rows == EVEN_REPORT.rows and odd.rows == ODD_REPORT.rows


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 1500), st.integers(0, 400), st.booleans())
def test_rows_do_not_depend_on_jobs(pairs, lo, width, even):
    if even:
        reports = [sweep_even(11, 5, lo, lo + width, jobs=jobs, context=pairs[1])
                   for jobs in (1, 2, 3)]
    else:
        reports = [sweep_odd(11, 5, -lo - width, -lo, jobs=jobs, context=pairs[-1])
                   for jobs in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]


def test_row_functions_refuse_inadmissible_discriminants(pairs):
    # 11 splits in Q(sqrt -7), 5 | -15 and 5 | 5, 13 and -3 are the wrong
    # sign, 44 = 4 * 11 is not prime to N
    for sign, case, bad in ((1, "split", (-7, 5, 44, -3)), (-1, "inert", (-7, -15, 13))):
        rows = row_function(pairs[sign][1])
        good = 12 if sign > 0 else -47
        for D in bad:
            for Ds in ([D], [good, D]):
                with pytest.raises(ValueError, match=f"invalid discriminant for the {case} case"):
                    rows(Ds)
    assert row_function(pairs[1][1])([12]) == [EVEN_REPORT.rows[0]]
    assert row_function(pairs[-1][1])([-47]) == [ODD_REPORT.rows[0]]


def test_sweep_bytes_match_the_benchmark_reference():
    # the benchmark's pinned CSV for its seed-0 window, read, never written
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
                     .read_text())["sweep-even-211"]["1-3000"]
    csv = report_to_csv(sweep_even(211, 5, 1, 3000))
    assert csv.count("\n") - 1 == ref["rows"] == 371
    assert hashlib.sha256(csv.encode()).hexdigest() == ref["sha256"]


# sha256 of the sweep-odd CSV at N = 211, p = 5, D in [-3000, -1],
# recorded from the program before the theta walk was halved
ODD_211_SHA256 = "08a90ba8705fd247654d4d9c06549f75bf7178669bfefccf7df0d36ece9c0e44"


def test_odd_sweep_bytes_pinned_at_211():
    pair = harness.build_pair(211, 5, 3, -1)
    csv = report_to_csv(sweep_odd(211, 5, -3000, -1, context=pair))
    assert csv.count("\n") - 1 == 371
    assert hashlib.sha256(csv.encode()).hexdigest() == ODD_211_SHA256
    assert report_to_csv(sweep_odd(211, 5, -3000, -1, jobs=2, context=pair)) == csv


# sha256 of the sweep-even CSV at N = 211, p = 5, D in [3001, 6000]: a
# window past every benchmark reference window, recorded from the program
# before class numbers and valuations were batched
EVEN_211_3001_SHA256 = "a3da5018820ab906a4bbd000761a57386cbf69aa2d9dac2ca5965215996d3f3b"


def test_second_even_sweep_bytes_pinned_at_211():
    csv = report_to_csv(sweep_even(211, 5, 3001, 6000))
    assert csv.count("\n") - 1 == 389
    assert hashlib.sha256(csv.encode()).hexdigest() == EVEN_211_3001_SHA256


@pytest.mark.parametrize("sign,window,rows,digest", [
    (1, (3001, 6000), 389, EVEN_211_3001_SHA256),
    (-1, (-3000, -1), 371, ODD_211_SHA256),
])
def test_pinned_211_sweeps_from_a_loaded_cache(tmp_path, sign, window, rows, digest):
    # the context a load derives from W gives the pinned bytes too
    path = tmp_path / "ctx.json"
    save_context(*build_pair(211, 5, 3, sign), path)
    pair = load_context(path)
    csv = report_to_csv((sweep_even if sign > 0 else sweep_odd)(211, 5, *window, context=pair))
    assert csv.count("\n") - 1 == rows
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def test_sweep_validates_each_discriminant_once_in_a_row(monkeypatch):
    # the window is sieved (`sweep_window`) and `_rows` refuses a bad D
    # in one batched test that sees each D once; the row's field profile
    # and split-prime data then run unchecked, and no D is factored alone
    # (a 3000-wide window of n rows made n per-D checks before the batch,
    # 3000 + n while the window filter checked every D, 3000 + 3n before)
    batched, per_d = [], []
    real_mask, real = harness.admissible_mask, quadfield.validate_discriminant
    monkeypatch.setattr(harness, "admissible_mask",
                        lambda Ds, *args: batched.extend(Ds) or real_mask(Ds, *args))
    monkeypatch.setattr(quadfield, "validate_discriminant",
                        lambda *args, **kwargs: per_d.append(args[0]) or real(*args, **kwargs))
    report = sweep_even(11, 5, 1, 3000)
    assert report.total == 344
    assert batched == [row.D for row in report.rows] and per_d == []


@pytest.mark.parametrize("N, p, d_min, d_max", [
    (11, 5, 1, 3000), (11, 5, -3000, -1), (31, 5, 1, 2000), (211, 5, -2500, -1),
    (421, 7, 1, 1500), (1871, 11, -1500, -1),
    (211, 5, 997_001, 1_000_000), (421, 5, -1_000_000, -998_001),
])
def test_sweep_window_matches_the_per_d_filter(N, p, d_min, d_max):
    sign = 1 if d_min > 0 else -1
    harness.check_sweep(N, p, d_min, d_max, sign)
    assert sweep_window(N, p, d_min, d_max, sign) == [
        D for D in range(d_min, d_max + 1) if validate_discriminant(D, N, p, sign > 0)]


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize("sweep, window", [(sweep_even, (1, 100)), (sweep_odd, (-50, -1))])
def test_sweep_refuses_fewer_than_one_job(monkeypatch, jobs, sweep, window):
    def no_build(*args, **kwargs):
        raise RuntimeError("context built for a sweep that is refused")

    monkeypatch.setattr(harness, "build_pair", no_build)
    with pytest.raises(ValueError, match="need jobs >= 1"):
        sweep(11, 5, *window, jobs=jobs)


def test_sweep_input_validation():
    with pytest.raises(ValueError, match="prime"):
        sweep_even(12, 5, 1, 100)
    with pytest.raises(ValueError, match=r"p \|\| N-1"):
        sweep_even(11, 7, 1, 100)
    with pytest.raises(ValueError, match="d_min"):
        sweep_even(11, 5, 100, 1)
    with pytest.raises(ValueError, match="d_min"):
        sweep_odd(11, 5, -5, 5)


def test_empty_range_gives_empty_report():
    # the only fundamental D in [2, 7] is 5, which p = 5 divides
    report = sweep_even(11, 5, 2, 7)
    assert report.total == 0 and report.rows == ()


def test_fixture_table():
    assert fixture_rows() == [(11, 5, 1, 1), (31, 5, 2, 2), (211, 5, 2, 2)]
    assert check_fixtures() is True


# ---------------------------------------------------------------------------
# cache envelope


def _built_pair(sign=1):
    space = build_space(11)
    return space, build_context(space, 5, sign=sign)


def test_cache_round_trip(tmp_path):
    space, ctx = _built_pair()
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    space2, ctx2 = load_context(path)

    assert space2.N == space.N and space2.genus == space.genus
    assert space2.coord_symbols == space.coord_symbols
    assert dense_reduction(space2) == dense_reduction(space)
    assert np.array_equal(space2.star.dense(), space.star.dense())
    assert space2.plus_basis == space.plus_basis
    assert space2.minus_basis == space.minus_basis
    assert ctx2.W == ctx.W and ctx2.g_p == ctx.g_p and ctx2.e == ctx.e
    assert [sd.diag for sd in ctx2.snf_of_W] == [sd.diag for sd in ctx.snf_of_W]
    assert [m for m, _ in ctx2.membership] == [m for m, _ in ctx.membership]
    assert all((a == b).all() for (_, a), (_, b) in zip(ctx2.membership, ctx.membership))

    # the symbol indexing is derived from N alone, identically
    assert space2.generators == space.generators
    assert space2._inv == space._inv and np.array_equal(space2._iota, space._iota)
    assert all(space2.index(u, v) == space.index(u, v)
               for u in range(11) for v in range(11))

    # the loaded pair is fully usable: same valuations, same sweep
    theta = theta_element(space2, 12)
    assert theta_valuation(ctx2, theta) == 1
    assert g_p_dimension(ctx2) == 1
    report = sweep_even(11, 5, 1, 100, context=(space2, ctx2))
    assert report_to_csv(report) == EVEN_CSV


# sha256 and size of what save_context writes for build_pair(N, 5, 3, sign),
# pinned again at format version 8, which writes every number as a JSON
# integer and digests the space's sparse arrays
CACHE_BYTES = {
    (11, 1): ("0456756c3dfe67e295af6dade0438a10a6a63591599c9dac5de147172d56f41d", 273),
    (211, 1): ("3270fd15c39c812defb938869f09b2b455d01a5a2c9ba083d21c76b6be61d999", 3473),
    (211, -1): ("55deedf8c53040896489680df1ea88c466ffbb09c433837086e4be8e84b72f9d", 3453),
}


@pytest.mark.parametrize("N,sign", sorted(CACHE_BYTES))
def test_cache_file_bytes_are_pinned(tmp_path, N, sign):
    path = tmp_path / "ctx.json"
    save_context(*build_pair(N, 5, 3, sign), path)
    data = path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CACHE_BYTES[N, sign]


def test_bench_and_demo_readers_see_python_ints():
    # the (211, 5) pair read as the context bench's counters and record
    # read it, and a Hecke matrix as the filtration walkthrough prints it
    space, ctx = build_pair(211, 5, 3, 1)
    section = space.relation_kernel_basis.entries
    support = sum(1 for j in range(len(space.generators)) if any(r[j] for r in section))
    assert (support, len(space.generators)) == (35, 212)
    assert max(abs(x).bit_length() for w in ctx.W for r in w.entries for x in r) == 16
    assert all(type(d) is int for sd in ctx.snf_of_W for d in sd.diag)
    diags = [[str(d) for d in sd.diag] for sd in ctx.snf_of_W]
    assert [d[-2:] for d in diags] == [["1", "1"], ["1", "35"], ["5", "245"],
                                       ["5", "8575"], ["25", "60025"]]
    assert all(d[:-2] == ["1"] * 15 for d in diags)
    t2 = hecke(space, 2).entries
    assert all(type(x) is int for row in t2 for x in row)
    assert str(t2).startswith("((1, 0, 0, -1, 1, 0, 0, 0, -1, 0, 1, -1, ")


def test_cache_save_is_deterministic(tmp_path):
    space, ctx = _built_pair()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_context(space, ctx, a)
    save_context(space, ctx, b)
    assert a.read_bytes() == b.read_bytes()


def test_cache_file_is_compact_sorted_json(tmp_path):
    # the C encoder (json.dumps) writes the bytes the pure-Python one
    # (json.dump to a file) would
    space, ctx = _built_pair()
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    envelope = json.loads(path.read_text())
    assert path.read_text() == json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    buf = io.StringIO()
    json.dump(envelope, buf, sort_keys=True, separators=(",", ":"))
    assert path.read_text() == buf.getvalue()
    space2, ctx2 = load_context(path)
    assert space2.N == space.N and ctx2.W == ctx.W and ctx2.e == ctx.e


def test_cache_rejects_foreign_version(tmp_path):
    space, ctx = _built_pair()
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    envelope = json.loads(path.read_text())
    # version 1 files also stored the unused SNF left transforms, version 3
    # files every matrix of the space, version 4 files the generators of I,
    # the SNF diagonals and right transforms and e, version 5 files a
    # digest of the section, boundary and cuspidal basis, version 6 files
    # W in the coordinates of the bases of the dense star's Hermite
    # transform, which the digest covered, version 7 files every number as
    # a JSON string and a digest of the dense reduction and star
    for version in (0, 1, 3, 4, 5, 6):
        envelope["format_version"] = version
        path.write_text(json.dumps(envelope))
        with pytest.raises(CacheVersionError, match="version"):
            load_context(path)
    envelope["format_version"] = 7
    path.write_text(json.dumps(envelope))
    with pytest.raises(CacheVersionError, match="file has 7, this build reads 8"):
        load_context(path)
    assert issubclass(CacheVersionError, ValueError)


def test_cache_refuses_version_two_on_the_snf_basis(tmp_path):
    # version 2 files hold spaces on the M_rel basis of the Smith normal
    # form, which the spanning-tree basis replaced; at the current version
    # the space's digest tells another basis from the one build_space
    # gives: a second spanning tree's at 71, and at 31, where the second
    # tree gives the same reduction, its other coordinate symbols
    for N, p in ((31, 5), (71, 7)):
        space, base = shuffled_tree_space(N), build_space(N)
        assert space.coord_symbols != base.coord_symbols
        assert (dense_reduction(space) == dense_reduction(base)) == (N == 31)
        path = tmp_path / f"v2-{N}.json"
        save_context(space, build_context(space, p), path)
        with pytest.raises(CacheVersionError, match="another M_rel basis"):
            load_context(path)
    envelope = json.loads(path.read_text())
    envelope["format_version"] = 2
    path.write_text(json.dumps(envelope))
    with pytest.raises(CacheVersionError, match="file has 2, this build reads 8"):
        load_context(path)


def test_cache_holds_the_context_and_a_digest_of_the_space(tmp_path):
    space, ctx = _built_pair()
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    payload = json.loads(path.read_text())["payload"]
    assert set(payload) == {"N", "space_sha256", "p", "n_max", "sign", "g_p", "W"}
    assert payload["N"] == 11 and payload["g_p"] == 1
    assert payload["space_sha256"] == harness._space_digest(build_space(11))

    def edit_digest(payload):
        payload["space_sha256"] = payload["space_sha256"][::-1]

    _resealed(path, edit_digest)
    with pytest.raises(CacheVersionError, match="another M_rel basis"):
        load_context(path)


@pytest.mark.parametrize("N", [11, 211, 421, 1871])
def test_space_digest_matches_the_dense_blocks(N):
    # the digest hashes the quotient map's and the star's own sparse
    # arrays; the oracle writes both out dense and makes each a CSR again,
    # so the two agree only if the space's CSRs are in that canonical form
    assert harness._space_digest(build_space(N)) == space_digest(build_space(N))


def test_space_digest_sees_one_star_entry_and_one_coordinate_symbol():
    space = build_space(211)
    digest = harness._space_digest(space)
    star = space.star.dense()
    i, j = np.argwhere(star)[0]
    for value in (star[i, j] + 1, 0):
        edited = star.copy()
        edited[i, j] = value
        other = dataclasses.replace(space, star=csr_from_dense(edited))
        assert harness._space_digest(other) != digest
    symbols = list(space.coord_symbols)
    symbols[-1] += 1
    assert harness._space_digest(dataclasses.replace(space, coord_symbols=symbols)) != digest


def test_cache_round_trips_a_chain_past_int64(tmp_path):
    # at n_max = 16 the last two levels at 211 hold entries of up to 69
    # bits; the file writes them as JSON integers, and they load unchanged
    space, ctx = build_pair(211, 5, 16, 1)
    assert [w.array.dtype == object for w in ctx.W][-3:] == [False, True, True]
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    assert json.loads(path.read_text())["payload"]["W"][-1] == ctx.W[-1].array.tolist()
    ctx2 = load_context(path)[1]
    assert ctx2.W == ctx.W and ctx2.e == ctx.e
    assert [w.array.dtype for w in ctx2.W] == [w.array.dtype for w in ctx.W]


def test_plus_side_cache_never_derives_the_minus_basis(tmp_path, monkeypatch):
    # the digest leaves the signed bases out, so a plus build, save and
    # load reads M^+ alone
    monkeypatch.setattr(ModularSymbolSpace, "minus_basis",
                        property(lambda self: pytest.fail("M^- was derived")))
    space, ctx = build_pair(211, 5, 3, 1)
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    space2, ctx2 = load_context(path)
    assert ctx2.W == ctx.W and ctx2.g_p == ctx.g_p == 2
    assert space2.plus_basis == space.plus_basis


def test_cache_rejects_tampered_payload(tmp_path):
    space, ctx = _built_pair()
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    envelope = json.loads(path.read_text())
    envelope["payload"]["g_p"] = 2
    path.write_text(json.dumps(envelope))
    with pytest.raises(CacheIntegrityError, match="integrity"):
        load_context(path)
    assert issubclass(CacheIntegrityError, ValueError)


def _resealed(path, edit):
    """Rewrite a cache file with `edit` applied to its payload and the
    checksum recomputed, as a consistent but wrong writer would."""
    envelope = json.loads(path.read_text())
    edit(envelope["payload"])
    envelope["checksum"] = harness._checksum(envelope["payload"])
    path.write_text(json.dumps(envelope))


def test_cache_rechecks_structure_on_load(tmp_path):
    space, ctx = _built_pair()
    path = tmp_path / "ctx.json"

    def swap_levels(payload):
        w = payload["W"]
        w[1], w[2] = w[2], w[1]

    def negate_level(payload):  # the same lattice, but not a Hermite basis
        payload["W"][1] = [[-x for x in row] for row in payload["W"][1]]

    def widen_level(payload):
        payload["W"][2] = [row + [0] for row in payload["W"][2]]

    def drop(key):
        return lambda payload: payload.pop(key)

    def drop_level(key):
        return lambda payload: payload[key].pop()

    def other_p(payload):  # 7 does not divide N - 1 = 10
        payload["p"] = 7

    def other_sign(payload):
        payload["sign"] = 5

    def scaled_top(payload):  # W_0 = 5 Z holds W_1 = 5 Z, but is not M^+
        payload["W"][0] = [[5]]

    for edit, what in ((swap_levels, "W_2 is not inside W_1"),
                       (negate_level, "W_1 is not a Hermite basis"),
                       (widen_level, "not 1 x 1"),
                       (drop("g_p"), r"malformed payload \(KeyError: 'g_p'"),
                       (drop("space_sha256"), r"malformed payload \(KeyError"),
                       (drop_level("W"), r"n_max \+ 2 = 5 levels"),
                       (other_p, r"malformed payload \(ValueError: hypothesis p"),
                       (other_sign, r"malformed payload \(ValueError: sign must be"),
                       (scaled_top, "W_0 is not M\\^plus")):
        save_context(space, ctx, path)
        _resealed(path, edit)
        with pytest.raises(CacheIntegrityError, match=what):
            load_context(path)


@pytest.mark.parametrize("sign", [1, -1])
def test_cache_refuses_a_chain_resealed_at_the_other_sign(tmp_path, sign):
    # at 211 the plus and minus chains differ, and eta_2 = T_2 - 3 on the
    # stored side does not map M into the other side's W_1; at 11 the two
    # chains are equal, so a swapped sign there changes no answer
    path = tmp_path / "ctx.json"
    for N, refused in ((211, True), (11, False)):
        pair = build_pair(N, 5, 3, sign)
        save_context(*pair, path)
        _resealed(path, lambda payload: payload.update(sign=-sign))
        if not refused:
            assert load_context(path)[1].W == build_pair(N, 5, 3, -sign)[1].W == pair[1].W
            continue
        side = "minus" if sign > 0 else "plus"
        with pytest.raises(CacheIntegrityError,
                           match=f"does not hold its image under T_2 - 3 on the {side} side"):
            load_context(path)


@pytest.mark.parametrize("where,value,kind", [
    (("W", 0, 0, 0), 1.0, "float"),
    (("W", 0, 0, 0), True, "bool"),
    (("W", 1, 0, 0), "5", "str"),
    (("W", 1, 0, 0), [5], "list"),
    (("g_p",), 1.9, "float"),
    (("n_max",), 3.5, "float"),
    (("sign",), True, "bool"),
    (("N",), "11", "str"),
    (("p",), [5], "list"),
], ids=["W-float", "W-bool", "W-str", "W-list", "g_p-float", "n_max-float", "sign-bool",
        "N-str", "p-list"])
def test_cache_reads_only_json_integers(tmp_path, where, value, kind):
    # a resealed number that is not a JSON integer is refused, though
    # int() would read each as one (1.0 and true as 1, 1.9 as 1, 3.5 as 3,
    # "11" as 11) and the rest of the file would then pass its checks
    path = tmp_path / "ctx.json"
    save_context(*build_pair(11, 5, 3, 1), path)

    def edit(payload):
        *keys, last = where
        for key in keys:
            payload = payload[key]
        payload[last] = value

    _resealed(path, edit)
    with pytest.raises(CacheIntegrityError,
                       match=rf"malformed payload \(ValueError: not an integer: {kind}\)"):
        load_context(path)


def test_cache_refuses_a_g_p_out_of_bounds_or_against_merel(tmp_path):
    # a resealed g_p is held to 1 <= g_p <= genus and to Merel's criterion
    # (false at 11, where the genus is 1; true at 31, where it is 2)
    path = tmp_path / "ctx.json"
    for N, bad in ((11, (0, 2)), (31, (0, 1, 3))):
        pair = build_pair(N, 5, 3, 1)
        for value in bad:
            save_context(*pair, path)
            _resealed(path, lambda payload: payload.update(g_p=value))
            with pytest.raises(CacheIntegrityError, match=f"g_p = {value} is not in"):
                load_context(path)


def test_cache_refuses_a_level_off_the_hermite_shape(tmp_path):
    # each edit keeps W_1's lattice (a unimodular row change) but not its
    # Hermite shape: an entry above a pivot outside [0, pivot), and a row
    # added to the one below it, off the triangle
    path = tmp_path / "ctx.json"
    space, ctx = build_pair(211, 5, 3, 1)
    w = ctx.W[1].array
    j = next(j for j in range(1, len(w)) if w[j, j] > 1)

    def unreduced(payload):
        payload["W"][1][0][j] = int(w[0, j] + w[j, j])

    def below(payload):
        payload["W"][1][j] = [int(a + b) for a, b in zip(w[j], w[0])]

    for edit in (unreduced, below):
        save_context(space, ctx, path)
        _resealed(path, edit)
        with pytest.raises(CacheIntegrityError, match="W_1 is not a Hermite basis"):
            load_context(path)


def _hermite(rng, g, bits):
    """A random g x g Hermite basis with pivots below 2^bits."""
    w = np.zeros((g, g), dtype=object)
    for j in range(g):
        w[j, j] = rng.randrange(1, 2**bits)
        for i in range(j):
            w[i, j] = rng.randrange(w[j, j])
    return w


@pytest.mark.parametrize("bits", [3, 20, 40])
def test_lattice_test_matches_hnf_mod(bits):
    # x lies in the lattice of a Hermite basis w of index d exactly when
    # hnf_mod gives w back from w and x modulo d; at 40 bits the product
    # runs in Python ints, below in int64
    rng = random.Random(bits)
    seen = set()
    for _ in range(40):
        g = rng.randrange(1, 6)
        w = _hermite(rng, g, bits)
        d = prod(map(int, np.diagonal(w)))
        inside = np.array([[rng.randrange(-5, 6) for _ in range(g)] for _ in range(2)],
                          dtype=object) @ w
        other = np.array([[rng.randrange(-9, 10) for _ in range(g)]], dtype=object)
        x = inside if rng.random() < 0.5 else np.concatenate([inside, other])
        want = np.array_equal(hnf_mod(np.concatenate([w, x]), d), w)
        test = harness._lattice_test(IntMatrix(w).array)
        assert test(IntMatrix(x).array) == want
        seen.add(want)
    assert seen == {True, False}
    for bad in ([[2, 2], [0, 2]], [[2, -1], [0, 3]], [[2, 0], [1, 3]], [[-2, 0], [0, 3]]):
        assert harness._lattice_test(np.array(bad)) is None


# ---------------------------------------------------------------------------
# emitters


def test_json_report_shape():
    data = json.loads(report_to_json(ODD_REPORT))
    assert data["format_version"] == 1
    assert data["summary"] == {"total": 5, "passed": 5, "failed": 0}
    row = data["rows"][0]
    assert row["D"] == -47 and row["criterion"] is True
    assert row["selmer_rank"] is None and row["branch"] is None
    assert set(row) == {
        "N", "p", "D", "h", "h_mod_p", "log1_u", "log1_pi2", "criterion",
        "eis_valuation", "selmer_rank", "selmer_kind", "branch", "consistent",
    }
    even = json.loads(report_to_json(EVEN_REPORT))["rows"][0]
    assert even["selmer_rank"] == 1 and even["branch"] == "unit log nonzero"
