"""Command-line front end for sweeps, fixtures and one-off inspections.

All heavy state is the (space, context) pair per (N, p); with
--cache-dir the pair is saved after first construction and loaded on
subsequent runs, refusing stale, corrupted or foreign cache files
loudly.  --jobs N sweeps in N worker processes that reuse the built or
loaded pair; the report is the serial one, byte for byte.  Reports go
to stdout; `fixtures` also prints Merel's verdict on g_p >= 2 for each
fixture to stderr, so stdout stays the table alone.
"""

import argparse
import json
import os
import sys

from .eisenstein import merel_criterion
from .harness import (
    FIXTURES_DEFAULT,
    FIXTURES_LARGE,
    CacheMismatchError,
    build_pair,
    check_discriminants,
    check_sweep,
    fixture_rows,
    load_context,
    make_report,
    report_to_csv,
    report_to_json,
    row_function,
    save_context,
    sweep_even,
    sweep_odd,
)
from .modsym import build_space, check_pair


def _add_common(sub):
    sub.add_argument("--nmax", type=int, default=3,
                     help="depth of the Eisenstein filtration (default 3)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for sweeps")
    sub.add_argument("--cache-dir", default=None,
                     help="directory for context cache files")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="report format (default csv)")


def _cached_pair(N, p, nmax, sign, cache_dir):
    """(space, ctx), loaded from the cache directory when it holds the
    file of this request, else built (and saved there, if given)."""
    tag = "plus" if sign > 0 else "minus"
    path = cache_dir and os.path.join(cache_dir, f"context-N{N}-p{p}-n{nmax}-{tag}.json")
    if path and os.path.exists(path):
        space, ctx = load_context(path)
        found = (space.N, ctx.p, ctx.n_max, ctx.sign)
        if found != (N, p, nmax, sign):
            raise CacheMismatchError(f"cache file {path} is for (N, p, nmax, sign) = {found}, "
                                     f"not the requested {(N, p, nmax, sign)}")
        return space, ctx
    space, ctx = build_pair(N, p, nmax, sign)
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        save_context(space, ctx, path)
    return space, ctx


def _emit(report, fmt, out):
    out.write(report_to_csv(report) if fmt == "csv" else report_to_json(report))


def _cmd_space(args, out):
    sp = build_space(args.N)
    info = {
        "N": sp.N,
        "generators": len(sp.generators),
        "rank_M_rel": sp.qmap.ncols,
        "rank_M": 2 * sp.genus,
        "genus": sp.genus,
        "rank_plus": sp.plus_basis.rows,
        "rank_minus": sp.minus_basis.rows,
    }
    if args.format == "json":
        out.write(json.dumps(info, indent=2) + "\n")
    else:
        out.write("field,value\n")
        for k, v in info.items():
            out.write(f"{k},{v}\n")
    return 0


def _cmd_fixtures(args, out):
    # Merel's criterion first, on stderr: an O(N) verdict on g_p >= 2 for
    # every fixture before the table is computed
    for N, p, want in FIXTURES_DEFAULT + (FIXTURES_LARGE if args.large else ()):
        verdict = "true" if merel_criterion(N, p) else "false"
        print(f"merel: N={N} p={p} g_p>=2 {verdict} (fixture expects g_p={want})",
              file=sys.stderr)
    rows = fixture_rows(large=args.large)
    ok = True
    if args.format == "json":
        data = [{"N": N, "p": p, "expected": want, "computed": got,
                 "ok": want == got} for N, p, want, got in rows]
        ok = all(d["ok"] for d in data)
        out.write(json.dumps({"fixtures": data, "ok": ok}, indent=2) + "\n")
    else:
        out.write("N,p,expected,computed,ok\n")
        for N, p, want, got in rows:
            good = want == got
            ok = ok and good
            out.write(f"{N},{p},{want},{got},{'true' if good else 'false'}\n")
    return 0 if ok else 1


def _cmd_sweep(args, out, even):
    sign = 1 if even else -1
    check_sweep(args.N, args.p, args.dmin, args.dmax, sign, args.jobs)
    pair = _cached_pair(args.N, args.p, args.nmax, sign, args.cache_dir)
    fn = sweep_even if even else sweep_odd
    report = fn(args.N, args.p, args.dmin, args.dmax,
                n_max=args.nmax, jobs=args.jobs, context=pair)
    _emit(report, args.format, out)
    return 0 if report.failed == 0 else 1


def _cmd_theta(args, out):
    split = args.D > 0
    check_pair(args.N, args.p)
    check_discriminants([args.D], args.N, args.p, split)
    _, ctx = _cached_pair(args.N, args.p, args.nmax,
                          1 if split else -1, args.cache_dir)
    report = make_report(row_function(ctx)([args.D]))
    _emit(report, args.format, out)
    return 0 if report.failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="eistheta",
        description="Eisenstein theta elements and Selmer predictions "
                    "for quadratic twists at prime level",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("space", help="invariants of a modular-symbol space")
    sp.add_argument("--N", type=int, required=True)
    _add_common(sp)

    fx = subs.add_parser("fixtures", help="check the g_p fixture table")
    fx.add_argument("--large", action="store_true",
                    help="include the large levels (mod-p route)")
    _add_common(fx)

    for name in ("sweep-even", "sweep-odd"):
        sw = subs.add_parser(name, help=f"{name.replace('-', ' ')} over a range")
        sw.add_argument("--N", type=int, required=True)
        sw.add_argument("--p", type=int, required=True)
        sw.add_argument("--dmin", type=int, required=True)
        sw.add_argument("--dmax", type=int, required=True)
        _add_common(sw)

    th = subs.add_parser("theta", help="one discriminant, full row")
    th.add_argument("--N", type=int, required=True)
    th.add_argument("--p", type=int, required=True)
    th.add_argument("--D", type=int, required=True)
    _add_common(th)

    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "space":
            return _cmd_space(args, out)
        if args.command == "fixtures":
            return _cmd_fixtures(args, out)
        if args.command == "sweep-even":
            return _cmd_sweep(args, out, even=True)
        if args.command == "sweep-odd":
            return _cmd_sweep(args, out, even=False)
        if args.command == "theta":
            return _cmd_theta(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
