"""Exit codes, output determinism and cache behaviour of the CLI."""

import json
import os
import subprocess
import sys

import pytest

import eistheta
from eistheta import cli, eisenstein, harness
from eistheta.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_space_command(capsys):
    code, out, _ = _run(capsys, "space", "--N", "11")
    assert code == 0
    assert "genus,1" in out and "rank_M,2" in out
    code, out, _ = _run(capsys, "space", "--N", "31", "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["genus"] == 2 and info["rank_plus"] == 2


@pytest.mark.parametrize("N", [5, 7, 13])
def test_space_command_refuses_genus_zero(capsys, N):
    assert _run(capsys, "space", "--N", str(N)) == (
        2, "", f"error: X_0({N}) has genus 0: there is no cuspidal lattice\n")


def test_sweep_even_deterministic(capsys):
    code, first, _ = _run(capsys, "sweep-even", "--N", "11", "--p", "5",
                       "--dmin", "1", "--dmax", "100")
    assert code == 0
    assert first.splitlines()[1] == "11,5,12,1,1,2,1,false,1,1,exact,true"
    _, second, _ = _run(capsys, "sweep-even", "--N", "11", "--p", "5",
                     "--dmin", "1", "--dmax", "100")
    assert first == second


def test_theta_single_row(capsys):
    code, out, _ = _run(capsys, "theta", "--N", "11", "--p", "5", "--D", "12")
    assert code == 0
    assert out.splitlines()[1].startswith("11,5,12,")
    code, out, _ = _run(capsys, "theta", "--N", "11", "--p", "5", "--D", "-47")
    assert code == 0
    assert out.splitlines()[1] == "11,5,-47,5,0,,,true,4,,,true"


def test_invalid_inputs_exit_2(capsys):
    assert _run(capsys, "theta", "--N", "11", "--p", "5", "--D", "7")[0] == 2
    assert _run(capsys, "sweep-even", "--N", "12", "--p", "5",
                "--dmin", "1", "--dmax", "9")[0] == 2
    assert _run(capsys, "sweep-odd", "--N", "11", "--p", "5",
                "--dmin", "-5", "--dmax", "5")[0] == 2
    for D in ("-7", "-8"):  # 11 splits in Q(sqrt D): no sweep admits D
        assert _run(capsys, "theta", "--N", "11", "--p", "5", "--D", D)[:2] == (2, "")


def test_negative_nmax_exits_2(capsys):
    assert _run(capsys, "sweep-even", "--N", "11", "--p", "5", "--dmin", "1",
                "--dmax", "40", "--nmax", "-1") == (2, "", "error: need n_max >= 0\n")


def test_nmax_past_the_int64_chain_products_sweeps(capsys):
    # at 211 the chain's products pass int64 from n_max = 15 on; they run
    # on Python ints, and the sweep completes
    code, out, err = _run(capsys, "sweep-even", "--N", "211", "--p", "5", "--dmin", "1",
                          "--dmax", "300", "--nmax", "16")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "211,5,13,1,1,4,0,false,1,1,exact,true" and len(lines) == 39
    assert all(line.endswith(",true") for line in lines[1:])
    assert "211,5,284,1,1,0,3,true,17,2,exact,true" in lines  # valuation >= n_max + 1


@pytest.mark.parametrize("argv", [
    ("sweep-even", "--N", "211", "--p", "5", "--dmin", "9", "--dmax", "1"),
    ("sweep-odd", "--N", "211", "--p", "5", "--dmin", "-1", "--dmax", "-9"),
    ("theta", "--N", "211", "--p", "5", "--D", "7"),
    ("theta", "--N", "11", "--p", "5", "--D", "-7"),
])
def test_bad_input_is_refused_before_the_build(tmp_path, capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise RuntimeError("context built for a request that is refused")

    monkeypatch.setattr(harness, "build_space", no_build)
    monkeypatch.setattr(harness, "build_context", no_build)
    for cache in ((), ("--cache-dir", str(tmp_path))):
        code, out, err = _run(capsys, *argv, *cache)
        assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command, dmin, dmax", [("sweep-even", "1", "100"),
                                                 ("sweep-odd", "-50", "-1")])
def test_jobs_below_one_exit_2_before_the_build(tmp_path, capsys, monkeypatch,
                                                jobs, command, dmin, dmax):
    def no_build(*args, **kwargs):
        raise RuntimeError("context built for a sweep that is refused")

    monkeypatch.setattr(harness, "build_space", no_build)
    monkeypatch.setattr(harness, "build_context", no_build)
    args = (command, "--N", "11", "--p", "5", "--dmin", dmin, "--dmax", dmax, "--jobs", jobs)
    for cache in ((), ("--cache-dir", str(tmp_path))):
        assert _run(capsys, *args, *cache) == (2, "", "error: need jobs >= 1\n")
    assert not any(tmp_path.iterdir())


def test_cache_dir_round_trip(tmp_path, capsys):
    args = ("sweep-even", "--N", "11", "--p", "5", "--dmin", "1",
            "--dmax", "100", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *args)
    assert code == 0
    cache_files = list(tmp_path.iterdir())
    assert len(cache_files) == 1
    code, warm, _ = _run(capsys, *args)
    assert code == 0 and warm == cold


def test_cache_dir_refuses_corruption(tmp_path, capsys):
    args = ("theta", "--N", "11", "--p", "5", "--D", "12",
            "--cache-dir", str(tmp_path))
    assert _run(capsys, *args)[0] == 0
    (path,) = tmp_path.iterdir()
    envelope = json.loads(path.read_text())
    envelope["payload"]["p"] = 7
    path.write_text(json.dumps(envelope))
    code, _, err = _run(capsys, *args)
    assert code == 2
    assert "integrity" in err


def test_cache_dir_refuses_a_malformed_file(tmp_path, capsys):
    # a resealed file missing one W level is refused, not a traceback
    args = ("sweep-even", "--N", "11", "--p", "5", "--dmin", "1", "--dmax", "50",
            "--cache-dir", str(tmp_path))
    assert _run(capsys, *args)[0] == 0
    (path,) = tmp_path.iterdir()
    envelope = json.loads(path.read_text())
    envelope["payload"]["W"].pop()
    envelope["checksum"] = harness._checksum(envelope["payload"])
    path.write_text(json.dumps(envelope))
    code, out, err = _run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: cache integrity check failed")


@pytest.mark.parametrize("text", ["[1,2]", '{"format_version":4,"checksum":"ab'])
def test_cache_dir_refuses_a_file_that_is_not_a_json_object(tmp_path, capsys, text):
    # a JSON list, and a file cut off mid-string, are refused as cache
    # files, not a traceback or a bare json message
    args = ("theta", "--N", "11", "--p", "5", "--D", "12", "--cache-dir", str(tmp_path))
    assert _run(capsys, *args)[0] == 0
    (path,) = tmp_path.iterdir()
    path.write_text(text)
    code, out, err = _run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: cache integrity check failed")


def test_fixtures_command(capsys):
    code, out, _ = _run(capsys, "fixtures")
    assert code == 0
    assert out.splitlines()[0] == "N,p,expected,computed,ok"
    assert "11,5,1,1,true" in out


def test_fixtures_print_merel_on_stderr(capsys, monkeypatch):
    # stdout is the fixture table alone; Merel's verdict on g_p >= 2 goes
    # to stderr, one line per fixture, before the table is computed
    code, out, err = _run(capsys, "fixtures")
    assert code == 0
    assert out == "N,p,expected,computed,ok\n11,5,1,1,true\n31,5,2,2,true\n211,5,2,2,true\n"
    assert err.splitlines() == [
        "merel: N=11 p=5 g_p>=2 false (fixture expects g_p=1)",
        "merel: N=31 p=5 g_p>=2 true (fixture expects g_p=2)",
        "merel: N=211 p=5 g_p>=2 true (fixture expects g_p=2)",
    ]
    # --large without its minutes: the table is stubbed, the verdicts are not
    monkeypatch.setattr(cli, "fixture_rows", lambda large: [])
    code, out, err = _run(capsys, "fixtures", "--large")
    assert (code, out) == (0, "N,p,expected,computed,ok\n")
    assert err.splitlines()[3:] == [
        f"merel: N={N} p=5 g_p>=2 true (fixture expects g_p=2)" for N in (1871, 4621, 9931)
    ]


@pytest.mark.parametrize("command, dmin, dmax", [("sweep-even", "1", "300"),
                                                 ("sweep-odd", "-300", "-1")])
def test_jobs_do_not_change_output(tmp_path, capsys, command, dmin, dmax):
    args = (command, "--N", "11", "--p", "5", "--dmin", dmin, "--dmax", dmax)
    code, serial, _ = _run(capsys, *args, "--jobs", "1")
    assert code == 0
    for cache in ((), ("--cache-dir", str(tmp_path))):
        for _ in range(2):  # cold, then warm cache
            assert _run(capsys, *args, "--jobs", "2", *cache)[:2] == (0, serial)


def test_a_serial_run_never_loads_the_process_pool():
    # `harness._sweep` imports the pool only for --jobs > 1, so a fresh
    # import of the CLI and a serial sweep load no concurrent.futures
    code = (
        "import sys\n"
        "import eistheta.cli\n"
        "loaded = 'concurrent.futures' in sys.modules\n"
        "eistheta.cli.main(['sweep-even', '--N', '11', '--p', '5', '--dmin', '1', '--dmax', '40'])\n"
        "print(loaded, 'concurrent.futures' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(eistheta.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[-1] == "False False"


def test_cached_context_is_never_rebuilt(tmp_path, capsys, monkeypatch):
    args = ("sweep-even", "--N", "11", "--p", "5", "--dmin", "1",
            "--dmax", "100", "--cache-dir", str(tmp_path))
    code, cold, _ = _run(capsys, *args)
    assert code == 0

    def no_build(*args, **kwargs):
        raise RuntimeError("context rebuilt although the cache holds it")

    asked = []

    def t2_only(space, ells):
        if list(ells) != [2]:
            no_build()
        asked.append(list(ells))
        return real_hecke(space, ells)

    # the warm path rebuilds the space from N on purpose, and T_2 once, for
    # the load's check that the chain belongs to its stored sign; nothing else
    real_hecke = eisenstein.hecke_operators
    monkeypatch.setattr(harness, "build_context", no_build)
    monkeypatch.setattr(eisenstein, "hecke_operators", t2_only)
    # nor a Smith form: the valuations read Z_n off W
    monkeypatch.setattr(eisenstein, "snf", no_build)
    assert _run(capsys, *args, "--jobs", "2")[:2] == (0, cold)
    assert asked == [[2]]


def test_cache_dir_refuses_foreign_file(tmp_path, capsys):
    assert _run(capsys, "theta", "--N", "11", "--p", "5", "--D", "12",
                "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.iterdir()
    path.rename(tmp_path / "context-N31-p5-n3-plus.json")
    code, out, err = _run(capsys, "sweep-even", "--N", "31", "--p", "5", "--dmin", "1",
                          "--dmax", "100", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert "(11, 5, 3, 1), not the requested (31, 5, 3, 1)" in err


WINDOWS = {"sweep-even": ("--dmin", "1", "--dmax", "50"),
           "sweep-odd": ("--dmin", "-50", "--dmax", "-1")}


@pytest.mark.parametrize("made,read", [("sweep-even", "sweep-odd"), ("sweep-odd", "sweep-even")])
def test_cache_dir_refuses_a_chain_resealed_at_the_other_sign(tmp_path, capsys, made, read):
    # a plus file resealed as minus under the minus name (and the reverse)
    # names the request's (N, p, nmax, sign), but its chain is the other side's
    args = ("--N", "211", "--p", "5", "--cache-dir", str(tmp_path))
    assert _run(capsys, made, *args, *WINDOWS[made])[0] == 0
    (path,) = tmp_path.iterdir()
    envelope = json.loads(path.read_text())
    sign = envelope["payload"]["sign"]
    envelope["payload"]["sign"] = -sign
    envelope["checksum"] = harness._checksum(envelope["payload"])
    side, other = ("plus", "minus") if sign > 0 else ("minus", "plus")
    path.with_name(path.name.replace(side, other)).write_text(json.dumps(envelope))
    path.unlink()
    code, out, err = _run(capsys, read, *args, *WINDOWS[read])
    assert (code, out) == (2, "")
    assert err.startswith("error: cache integrity check failed")
    assert f"on the {other} side" in err
