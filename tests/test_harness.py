"""Sweep, fixture, cache-envelope and report-emitter tests.

Row values below were frozen from runs of this code after checking the
interesting entries by hand (class numbers, unit logs, valuations);
they guard against regressions in any layer of the stack, since a
sweep row exercises the quadratic-field, modular-symbol, Eisenstein
and Selmer modules together.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eistheta import harness
from eistheta.eisenstein import build_context, g_p_dimension, theta_valuation
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
)
from eistheta.modsym import _space_from_section, build_space, hecke, presentation, theta_element
from oracles import snf_section_reduction

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
    assert space2.relation_kernel_basis == space.relation_kernel_basis
    assert space2.reduction == space.reduction
    assert space2.boundary == space.boundary
    assert space2.cuspidal_basis == space.cuspidal_basis
    assert space2.star == space.star
    assert space2.plus_basis == space.plus_basis
    assert space2.minus_basis == space.minus_basis
    assert ctx2.W == ctx.W and ctx2.e == ctx.e
    assert [sd.diag for sd in ctx2.snf_of_W] == [sd.diag for sd in ctx.snf_of_W]
    assert [sd.right for sd in ctx2.snf_of_W] == [sd.right for sd in ctx.snf_of_W]

    # the symbol indexing is derived from N alone, identically
    assert space2.generators == space.generators
    assert space2._inv == space._inv and space2._iota == space._iota
    assert all(space2.index(u, v) == space.index(u, v)
               for u in range(11) for v in range(11))

    # the loaded pair is fully usable: same valuations, same sweep
    theta = theta_element(space2, 12)
    assert theta_valuation(ctx2, theta) == 1
    assert g_p_dimension(ctx2) == 1
    report = sweep_even(11, 5, 1, 100, context=(space2, ctx2))
    assert report_to_csv(report) == EVEN_CSV


# sha256 and size of what save_context writes for build_pair(N, 5, 3, sign)
CACHE_BYTES = {
    (11, 1): ("b2030f96dc25315d755a75351f7aab9a92b6ff6f4748abdb4f68d686ecfc7dcb", 465),
    (211, 1): ("53ea6c92476c06afbb0411f606344bdd40296c883d06d45697872ec8710a4428", 28868),
    (211, -1): ("66aad830113355313cad4b1bab29095208c830444ba9e76aea5e6b1049bcfebf", 28708),
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
    assert max(abs(x).bit_length() for w in ctx.W for r in w.entries for x in r) == 14
    assert all(type(d) is int for sd in ctx.snf_of_W for d in sd.diag)
    diags = [[str(d) for d in sd.diag] for sd in ctx.snf_of_W]
    assert [d[-2:] for d in diags] == [["1", "1"], ["1", "35"], ["5", "245"],
                                       ["5", "8575"], ["25", "60025"]]
    assert all(d[:-2] == ["1"] * 15 for d in diags)
    t2 = hecke(space, 2).matrix.entries
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
    # files every matrix of the space
    for version in (0, 1, 3):
        envelope["format_version"] = version
        path.write_text(json.dumps(envelope))
        with pytest.raises(CacheVersionError, match="version"):
            load_context(path)
    assert issubclass(CacheVersionError, ValueError)


def test_cache_refuses_version_two_on_the_snf_basis(tmp_path):
    # version 2 files hold spaces on the M_rel basis of the Smith normal
    # form, which the spanning-tree basis replaced; at the current version
    # the space's digest tells that basis from the one build_space gives
    pres = presentation(31)
    space = _space_from_section(pres, *snf_section_reduction(pres))
    assert space.reduction != build_space(31).reduction
    path = tmp_path / "v2.json"
    save_context(space, build_context(space, 5), path)
    with pytest.raises(CacheVersionError, match="another M_rel basis"):
        load_context(path)
    envelope = json.loads(path.read_text())
    envelope["format_version"] = 2
    path.write_text(json.dumps(envelope))
    with pytest.raises(CacheVersionError, match="file has 2, this build reads 4"):
        load_context(path)


def test_cache_holds_the_context_and_a_digest_of_the_space(tmp_path):
    space, ctx = _built_pair()
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    payload = json.loads(path.read_text())["payload"]
    assert "space" not in payload and payload["N"] == "11"
    assert payload["space_sha256"] == harness._space_digest(build_space(11))

    def edit_digest(payload):
        payload["space_sha256"] = payload["space_sha256"][::-1]

    _resealed(path, edit_digest)
    with pytest.raises(CacheVersionError, match="another M_rel basis"):
        load_context(path)


def test_cache_rejects_tampered_payload(tmp_path):
    space, ctx = _built_pair()
    path = tmp_path / "ctx.json"
    save_context(space, ctx, path)
    envelope = json.loads(path.read_text())
    envelope["payload"]["e"][-1] = "999"
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
        payload["W"][1] = [[str(-int(x)) for x in row] for row in payload["W"][1]]

    def widen_level(payload):
        payload["W"][2] = [row + ["0"] for row in payload["W"][2]]

    def shorten_diag(payload):
        payload["snf_diag"][1].pop()

    def drop(key):
        return lambda payload: payload.pop(key)

    def drop_level(key):
        return lambda payload: payload[key].pop()

    def other_p(payload):  # 7 does not divide N - 1 = 10
        payload["p"] = "7"

    for edit, what in ((swap_levels, "W_2 is not inside W_1"),
                       (negate_level, "W_1 is not a Hermite basis"),
                       (widen_level, "not 1 x 1"),
                       (shorten_diag, "not 1 x 1"),
                       (drop("e"), r"malformed payload \(KeyError: 'e'"),
                       (drop("space_sha256"), r"malformed payload \(KeyError"),
                       *((drop_level(k), r"n_max \+ 2 = 5 levels")
                         for k in ("W", "snf_diag", "snf_right", "e")),
                       (other_p, r"malformed payload \(ValueError: hypothesis p")):
        save_context(space, ctx, path)
        _resealed(path, edit)
        with pytest.raises(CacheIntegrityError, match=what):
            load_context(path)


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
