"""The benchmark's own checks: wrong outputs count as failures, self
times add up, walls are rescaled by the kernels around them, and a
directory without the package's source fails.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import bench_trace  # noqa: E402
import calibration  # noqa: E402
import run  # noqa: E402


def _bench(*argv, cwd=run.ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_wrong_reference_is_counted_as_failure(tmp_path):
    ref = json.loads(run.REFERENCE.read_text())
    for entry in ref["sweep-even-211"].values():
        entry["sha256"] = "0" * 64
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(ref))
    proc = _bench("--workload", "sweep-even-211", "--seed", "0", "--seconds", "1",
                  "--trace", "0", "--reference", str(wrong))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_context_and_modp_checks_compare_every_recorded_value():
    ref = json.loads(run.REFERENCE.read_text())
    want = ref["context-421"]["421"]
    sd = [SimpleNamespace(diag=tuple(int(d) for d in diag)) for diag in want["snf_diag"]]
    ctx = SimpleNamespace(e=tuple(want["e"]), snf_of_W=tuple(sd))
    work = run.Context(None, {"N": 421, "p": 5}, "")
    assert work.check((None, ctx, want["g_p"]), want)
    assert not work.check((None, ctx, want["g_p"] + 1), want)
    bad = SimpleNamespace(e=ctx.e, snf_of_W=ctx.snf_of_W[:-1] + (SimpleNamespace(diag=(1,)),))
    assert not work.check((None, bad, want["g_p"]), want)
    modp = run.ModP(None, {"N": 1871, "p": 5}, "")
    assert modp.check(2, ref["modp-1871"]["1871"])
    assert not modp.check(1, ref["modp-1871"]["1871"])


def test_self_times_add_up_to_the_root():
    # bench.op [0, 10] > hecke [1, 7] > solve_left [2, 5]; theta [8, 9]
    spans = [
        ["bench.op", 0.0, 10.0, None, 0, None],
        ["modsym.hecke", 1.0, 7.0, 0, 0, None],
        ["exact_linalg.solve_left", 2.0, 5.0, 1, 0, None],
        ["modsym.theta_element", 8.0, 9.0, 0, 0, None],
        ["modsym.merel_matrices", 1.5, 2.0, 1, 0, 40],
    ]
    m = bench_trace.summarize(spans, 1)
    assert m["bench.op.self_s"][0] == 3.0
    assert m["modsym.hecke.self_s"][0] == 2.5
    assert m["exact_linalg.solve_left.hecke.s"][0] == 3.0
    assert m["exact_linalg.solve_left.theta.calls"][0] == 0
    assert m["modsym.merel_family_size"][0] == 40
    total_self = sum(m[f"{n}.self_s"][0] for n in bench_trace.SPAN_NAMES)
    assert total_self == m["bench.op.s"][0]


def test_without_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "modp-1871", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_overhead_is_taken_against_both_untraced_neighbours():
    # untraced walls drift 10 -> 11 -> 12; each traced one is 1.5 s above
    # the mean of its neighbours, although it is below the later ones
    sequence = [(False, 10.0), (True, 12.0), (False, 11.0), (True, 13.0), (False, 12.0)]
    overhead, noise = run.paired_overhead(sequence)
    assert overhead == 1.5
    assert abs(noise - 2 * 1.0 * (1.5 / 2) ** 0.5) < 1e-12


def test_each_wall_is_rescaled_by_the_kernels_on_either_side():
    # the host slowed from 1x to 2x across the second operation
    assert calibration.rescaled([4.0, 6.0], [1.0, 1.0, 2.0]) == [4.0, 4.0]
