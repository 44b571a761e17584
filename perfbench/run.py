"""Benchmark of the eistheta pipeline: three serial workloads, each timed
from outside the package through its public functions.

One workload (the last line of stdout is the JSON result):

    python3 perfbench/run.py --workload sweep-even-211 --seed 0 --seconds 40 --trace 0

Every workload, untraced and traced, with a record of the results and
the machine they ran on:

    python3 perfbench/run.py --all --out perfbench/out/BENCH.json

See perfbench/README.md for the workloads, the metrics and the trace.
"""

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bench_trace
import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("sweep-even-211", "context-421", "modp-1871")
P = 5
SWEEP_N = 211
SWEEP_WIDTH = 3000
# The seed shifts the sweep window [1 + s, 3000 + s]; admissible levels
# near 421 and 1871 differ in cost by 10-20%, so those levels are fixed.
SWEEP_SHIFTS = tuple(range(0, 80, 10))
CONTEXT_N = 421
MODP_N = 1871
SETUPS = 3
clock = time.perf_counter

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


def workload_input(workload, seed):
    if workload == "sweep-even-211":
        shift = SWEEP_SHIFTS[seed % len(SWEEP_SHIFTS)]
        return {"N": SWEEP_N, "p": P, "dmin": 1 + shift, "dmax": SWEEP_WIDTH + shift}
    if workload == "context-421":
        return {"N": CONTEXT_N, "p": P}
    return {"N": MODP_N, "p": P}


def reference_key(inp):
    return f"{inp['dmin']}-{inp['dmax']}" if "dmin" in inp else str(inp["N"])


def import_package():
    """Import eistheta from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import eistheta
        import eistheta.cli
        import eistheta.modp
    except ImportError as exc:
        raise SystemExit(f"error: cannot import eistheta from {SRC}: {exc}")
    if not Path(eistheta.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: eistheta was imported from {eistheta.__file__}, not {SRC}")
    return eistheta


def clear_merel_cache(pkg):
    """Every timed build starts cold, as a fresh CLI process does."""
    cache = getattr(pkg.modsym, "_MEREL_CACHE", None)
    if cache is not None:
        cache.clear()


def fresh_import():
    """A fresh interpreter importing the package: the set-up every CLI
    process pays before its first operation."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import eistheta.cli, eistheta.modp")
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """One operation kind: setup() is timed several times, op() is
    timed, and record() / check() read its output after the timer.
    kernel is the calibration kernel of the kind of work op() does."""

    kernel = staticmethod(calibration.python_slowdown)

    def __init__(self, pkg, inp, workdir):
        self.pkg, self.inp, self.workdir = pkg, inp, workdir

    def setup(self):
        fresh_import()

    def check(self, out, ref):
        return self.record(out) == ref

    def rows(self, out):
        return 1

    def counts(self, out):
        return {}


class SweepEven(Workload):
    """`eistheta sweep-even` in-process against a warm --cache-dir."""

    cache_dir = None

    def _cli(self, dmin, dmax):
        argv = ["sweep-even", "--N", str(self.inp["N"]), "--p", str(self.inp["p"]),
                "--dmin", str(dmin), "--dmax", str(dmax), "--jobs", "1",
                "--cache-dir", self.cache_dir]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        return code, buf.getvalue()

    def setup(self):
        # the window [1, 1] holds no discriminant: this builds the
        # context and writes the cache file, and sweeps nothing
        clear_merel_cache(self.pkg)
        self.cache_dir = tempfile.mkdtemp(dir=self.workdir)
        code, _ = self._cli(1, 1)
        if code != 0:
            raise RuntimeError(f"cache fill exited {code}")

    def op(self):
        return self._cli(self.inp["dmin"], self.inp["dmax"])

    def record(self, out):
        return {"sha256": hashlib.sha256(out[1].encode()).hexdigest(),
                "rows": self.rows(out)}

    def check(self, out, ref):
        return out[0] == 0 and self.record(out) == ref

    def rows(self, out):
        return out[1].count("\n") - 1

    def counts(self, out):
        files = os.listdir(self.cache_dir)
        size = sum(os.path.getsize(os.path.join(self.cache_dir, f)) for f in files)
        return {"harness.cache_bytes": size}


class Context(Workload):
    """Cold build_space, build_context, exact g_p and save_context."""

    def op(self):
        clear_merel_cache(self.pkg)
        pkg = self.pkg
        space = pkg.modsym.build_space(self.inp["N"])
        ctx = pkg.eisenstein.build_context(space, self.inp["p"])
        g_p = pkg.eisenstein.g_p_dimension(ctx)
        self.path = os.path.join(self.workdir, "context.json")
        pkg.harness.save_context(space, ctx, self.path)
        return space, ctx, g_p

    def record(self, out):
        _, ctx, g_p = out
        return {"g_p": g_p, "e": list(ctx.e),
                "snf_diag": [[str(d) for d in sd.diag] for sd in ctx.snf_of_W]}

    def counts(self, out):
        space, ctx, _ = out
        section = space.relation_kernel_basis.entries
        support = sum(1 for j in range(len(space.generators)) if any(r[j] for r in section))
        return {
            "modsym.hecke.section_support_frac": support / len(space.generators),
            "eisenstein.W_max_bits": max(abs(x).bit_length()
                                         for w in ctx.W for r in w.entries for x in r),
            "harness.cache_bytes": os.path.getsize(self.path),
        }


class ModP(Workload):
    """Cold g_p_dimension_modp, as `eistheta fixtures --large` runs it."""

    kernel = staticmethod(calibration.numpy_slowdown)

    def op(self):
        clear_merel_cache(self.pkg)
        return self.pkg.modp.g_p_dimension_modp(self.inp["N"], self.inp["p"])

    def record(self, out):
        return {"g_p": out}


KINDS = {"sweep-even-211": SweepEven, "context-421": Context, "modp-1871": ModP}
COUNT_UNITS = {"modsym.hecke.section_support_frac": "ratio",
               "eisenstein.W_max_bits": "bits", "harness.cache_bytes": "bytes"}


def timed_setups(work, kernel):
    times = []
    cals = [kernel()]
    for _ in range(SETUPS):
        gc.collect()
        t0 = clock()
        work.setup()
        times.append(clock() - t0)
        cals.append(kernel())
    return times, cals


# ---------------------------------------------------------------------------
# one run of one workload

def blas_info():
    """(library, threads) of the BLAS numpy loaded, read from the
    library itself; threads is None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return os.path.basename(lib), fn()
    return (libs[0] if libs else "unknown"), None


def provenance(seed):
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    lib, threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": lib,
        "blas_threads": threads,
        "git_rev": rev,
        "seed": seed,
        "inputs": {w: workload_input(w, seed) for w in WORKLOADS},
    }


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def paired_overhead(sequence):
    """Tracing overhead from neighbours: for each traced operation, its
    wall minus the mean of the untraced operations just before and just
    after it; the mean of those k differences.  With no overhead, and
    untraced walls that scatter by a standard deviation sd, that mean
    has a standard error of sd * sqrt(1.5 / k).  The noise is twice
    that; an overhead smaller than the noise is not resolved."""
    diffs = [wall - (sequence[i - 1][1] + sequence[i + 1][1]) / 2
             for i, (traced, wall) in enumerate(sequence[1:-1], 1) if traced]
    sd = statistics.stdev(wall for traced, wall in sequence if not traced)
    return statistics.fmean(diffs), 2 * sd * math.sqrt(1.5 / len(diffs))


def run_workload(pkg, workload, seed, seconds, trace, reference):
    inp = workload_input(workload, seed)
    ref = reference[workload][reference_key(inp)]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        work = KINDS[workload](pkg, inp, workdir)
        kernel = work.kernel
        setups, setup_cals = timed_setups(work, kernel)
        tracer = bench_trace.Tracer()
        sequence = []  # (traced, wall) of every timed operation, in order
        cals = []
        rows = failed = 0
        counts = {}
        op = 0

        def one_op(traced, timed=True):
            nonlocal rows, failed, counts
            gc.collect()
            out = None
            with tracer.operation(pkg, op) if traced else contextlib.nullcontext():
                t0 = clock()
                try:
                    out = work.op()
                except Exception:
                    traceback.print_exc()
                wall = clock() - t0
            if timed:
                sequence.append((traced, wall))
                cals.append(kernel())
            if out is None or not work.check(out, ref):
                failed += 1
                print(f"operation {op} failed: it raised, or its output differs "
                      "from the reference", file=sys.stderr)
            if out is not None:
                rows += work.rows(out)
                counts = work.counts(out)

        # A traced run alternates untraced and traced operations, so that
        # each traced one is compared with its two untraced neighbours.
        # The first operation of a process runs cold; in a traced run it
        # is a warm-up, checked but not timed, so that it is neither side
        # of a comparison.
        if trace:
            one_op(False, timed=False)
            op += 1
        start = clock()
        cals.append(kernel())
        # An operation starts only if the median so far says it ends
        # within `seconds` (a traced one together with the untraced one
        # after it), so a run lasts about `seconds`, not up to one
        # operation more.  A traced operation is always followed by an
        # untraced one.
        min_ops = 3 if trace else 1
        while True:
            n = len(sequence)
            traced = bool(trace) and n % 2 == 1
            if n >= min_ops and not sequence[-1][0]:
                per_op = statistics.median(wall for _, wall in sequence)
                if clock() - start + per_op * (2 if traced else 1) > seconds:
                    break
            one_op(traced)
            op += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scaled = list(zip((traced for traced, _ in sequence),
                      calibration.rescaled([wall for _, wall in sequence], cals)))
    walls = {t: [wall for traced, wall in scaled if traced == t] for t in (False, True)}
    attempted = op
    report = {
        "workload": workload,
        "input": inp,
        "ops": attempted,
        "failed_frac": failed / attempted,
        "setup_samples": setups,
        "wall_samples": [wall for _, wall in sequence],
        "setup_cals": setup_cals,
        "wall_cals": cals,
    }
    if not trace:
        wall = statistics.median(walls[False])
        metrics = {
            "setup_s": statistics.median(calibration.rescaled(setups, setup_cals)),
            "wall_s": wall,
            "rows_per_s": rows / attempted / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
        report["wall_tail"] = tail_percentile(walls[False])
    else:
        n_traced = len(walls[True])
        metrics = bench_trace.summarize(tracer.spans, n_traced)
        row_ms = [(end - start) * 1e3 for name, start, end, *_ in tracer.spans
                  if name == "harness.even_row"]
        for q in (50, 95):
            val = statistics.quantiles(row_ms, n=100, method="inclusive")[q - 1] if len(row_ms) > 1 else 0.0
            metrics[f"harness.even_row.ms_p{q}"] = (val, "ms")
        for name, unit in COUNT_UNITS.items():
            metrics[name] = (counts.get(name, 0), unit)
        metrics["trace.traced_wall_s"] = (statistics.median(walls[True]), "s")
        metrics["trace.untraced_wall_s"] = (statistics.median(walls[False]), "s")
        overhead, noise = paired_overhead(scaled)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_noise_s"] = (noise, "s")
        report["traced"] = [traced for traced, _ in sequence]
        trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    return report, metrics, attempted, failed


def print_report(report, metrics):
    print(f"workload {report['workload']} input {json.dumps(report['input'])}")
    if "trace_file" not in report:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        for name in ("wall", "setup"):
            samples, cals = report[f"{name}_samples"], report[f"{name}_cals"]
            print(f"  {name}_s is the median of {len(samples)}; raw seconds: "
                  + ", ".join(f"{x:.4f}" for x in samples))
            print(f"  {name}_s slowdowns around them: " + ", ".join(f"{x:.3f}" for x in cals))
        if report["wall_tail"]:
            q, val = report["wall_tail"]
            print(f"  wall_s.p{q} = {val:.6g} s")
    else:
        # spans by self time; the self times of all spans add up to the
        # traced wall time, since bench.op is the root of every operation
        spans = [n for n in bench_trace.SPAN_NAMES if metrics[f"{n}.calls"][0]]
        spans.sort(key=lambda n: -metrics[f"{n}.self_s"][0])
        for n in spans:
            print(f"  {n}: self {metrics[n + '.self_s'][0]:.4f} s, total "
                  f"{metrics[n + '.s'][0]:.4f} s, {metrics[n + '.calls'][0]:g} calls per operation")
        accounted = sum(metrics[f"{n}.self_s"][0] for n in spans)
        print(f"  sum of self_s = {accounted:.4f} s of traced wall "
              f"{metrics['bench.op.s'][0]:.4f} s per operation (means over traced operations)")
        spanned = {f"{n}.{k}" for n in bench_trace.SPAN_NAMES for k in ("s", "self_s", "calls")}
        for name, (value, unit) in metrics.items():
            if name not in spanned and value:
                print(f"  {name} = {value:.6g} {unit}")
        overhead, noise = metrics["trace.overhead_s"][0], metrics["trace.overhead_noise_s"][0]
        print("  raw walls in order, T traced: " + ", ".join(
            f"{'T' if traced else ''}{wall:.4f}"
            for traced, wall in zip(report["traced"], report["wall_samples"])))
        print("  slowdowns around them: " + ", ".join(f"{x:.3f}" for x in report["wall_cals"]))
        print(f"  tracing overhead {overhead:+.4f} s per operation (rescaled), each traced "
              f"operation against its untraced neighbours; noise {noise:.4f} s"
              + ("" if abs(overhead) > noise else ", so the overhead is not resolved"))
        print(f"  trace written to {report['trace_file']}; "
              "layers that did not run read 0 and are not listed")
    print(f"  failed_frac = {report['failed_frac']:.6g} (of {report['ops']} operations)")


def run_all(args):
    """Each workload untraced then traced, each in its own process."""
    record = {"seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {"input": workload_input(workload, args.seed)}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("provenance")))
            result = json.loads(lines[-1])
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            for key in ("correct", "attempted", "failed"):
                entry[f"{key}_trace{trace}"] = result[key]
        record["workloads"][workload] = entry
    import_package()
    record["provenance"] = provenance(args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"record written to {out}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="reference outputs to check against")
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced, and write --out")
    ap.add_argument("--out", default=str(OUT / "BENCH.json"))
    args = ap.parse_args(argv)

    if args.all:
        run_all(args)
        return 0
    pkg = import_package()
    if args.workload is None:
        ap.error("--workload is required")
    with open(args.reference) as fh:
        reference = json.load(fh)
    report, metrics, attempted, failed = run_workload(
        pkg, args.workload, args.seed, args.seconds, args.trace, reference)
    print("provenance " + json.dumps(provenance(args.seed)))
    print_report(report, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
