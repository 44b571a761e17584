"""Discriminant sweeps, fixture checks, persistence and report emission.

Each sweep row packages everything needed to re-derive its verdict by
hand: the class number, the unit/generator logs, the predicted Selmer
rank and the measured Eisenstein valuation of the theta element.  The
consistency boolean encodes the theorem under test — for even (split,
real) discriminants that the valuation is >= 1, is >= 2 exactly when
the unit criterion holds, and that the rank prediction crosses 1 at
the same time; for odd (inert, imaginary) discriminants that the
valuation is >= 1 exactly when p divides the class number.

A sweep takes its (space, ctx) pair from the caller or builds it, once,
and hands its discriminants to one row function, which walks their
theta elements together: in this process or, with jobs > 1, in worker
processes handed that function, pair included, one contiguous slice of
the discriminants at a time.

A cache file keeps the pair's expensive half, the Eisenstein context,
with the level N and a digest of the space.  The space is a cheap,
deterministic function of N, so `load_context` rebuilds it and refuses
a file whose digest it does not match.
"""

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from math import prod

import numpy as np

from .eisenstein import (
    EisensteinContext,
    WSmith,
    build_context,
    g_p_dimension,
    theta_valuations,
)
from .exact_linalg import IntMatrix, LogMap, hnf_mod
from .modsym import build_space, check_pair, theta_elements
from .quadfield import class_numbers, field_profile, validate_discriminant
from .selmer import SelmerInput, selmer_rank

FORMAT_VERSION = 4  # context cache files
REPORT_FORMAT_VERSION = 1  # JSON sweep reports


@dataclass(frozen=True)
class SweepRow:
    N: int
    p: int
    D: int
    h: int
    h_mod_p: int
    log1_u: object  # int, or None on odd rows
    log1_pi2: object
    criterion: bool
    eis_valuation: int
    selmer: object  # SelmerRankResult, or None on odd rows
    consistent: bool


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    total: int
    passed: int
    failed: int


class CacheVersionError(ValueError):
    pass


class CacheIntegrityError(ValueError):
    pass


class CacheMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# per-discriminant row computations

def check_discriminant(D, N, p, split):
    """Refuse a D that is not admissible for the split (D > 0) or inert
    (D < 0) case at (N, p)."""
    if not validate_discriminant(D, N, p, want_split=split):
        raise ValueError(f"invalid discriminant for the {'split' if split else 'inert'} case")


def even_row(ctx, g_p, D, h, val):
    """The sweep row of the split discriminant D, from its class number h
    and the valuation val of its theta element."""
    space = ctx.space
    profile = field_profile(D, space.N, ctx.p, logmap=ctx.logmap, h=h)
    sel = selmer_rank(SelmerInput(
        p_divides_h=profile.h_mod_p == 0,
        pic_zn_trivial=profile.pic_zn_trivial,
        log1_u=profile.log1_u,
        log1_pi2=profile.log1_pi2,
        g_p=g_p,
    ))
    crit = profile.criterion
    consistent = (
        val >= 1 and ((val >= 2) == crit) and ((sel.value > 1) == crit)
    )
    return SweepRow(
        N=space.N, p=ctx.p, D=D, h=profile.h, h_mod_p=profile.h_mod_p,
        log1_u=profile.log1_u, log1_pi2=profile.log1_pi2, criterion=crit,
        eis_valuation=val, selmer=sel, consistent=consistent,
    )


def odd_row(ctx, D, h, val):
    """The sweep row of the inert discriminant D, from its class number h
    and the valuation val of its theta element."""
    crit = h % ctx.p == 0
    return SweepRow(
        N=ctx.space.N, p=ctx.p, D=D, h=h, h_mod_p=h % ctx.p,
        log1_u=None, log1_pi2=None, criterion=crit,
        eis_valuation=val, selmer=None,
        consistent=(val >= 1) == crit,
    )


def _rows(ctx, row, Ds):
    for D in Ds:
        check_discriminant(D, ctx.space.N, ctx.p, ctx.sign > 0)
    vals = theta_valuations(ctx, theta_elements(ctx.space, Ds))
    return list(map(row, Ds, class_numbers(Ds), vals))


def row_function(ctx):
    """ctx's row computation as a function of a sequence of D alone, all
    refused before any is computed: even rows (g_p computed here, once)
    for a plus context, odd rows for a minus one, their theta elements
    walked together, valuated in one solve, and their class numbers
    computed in one batch."""
    if ctx.sign > 0:
        return partial(_rows, ctx, partial(even_row, ctx, g_p_dimension(ctx)))
    return partial(_rows, ctx, partial(odd_row, ctx))


def make_report(rows):
    rows = tuple(rows)
    passed = sum(1 for r in rows if r.consistent)
    return SweepReport(rows=rows, total=len(rows), passed=passed,
                       failed=len(rows) - passed)


def build_pair(N, p, n_max, sign):
    """Build the (space, ctx) pair of one sweep side from scratch."""
    space = build_space(N)
    return space, build_context(space, p, n_max=n_max, sign=sign)


# a pool worker's row function, set once by the pool initializer
_WORKER_ROWS = None


def _set_worker_rows(rows):
    global _WORKER_ROWS
    _WORKER_ROWS = rows


def _worker_rows(Ds):
    return _WORKER_ROWS(Ds)


def check_sweep(N, p, d_min, d_max, sign):
    """Refuse a D window that is empty or not of the sweep's sign, then
    an (N, p) outside the standing hypotheses."""
    if sign > 0 and not 0 < d_min <= d_max:
        raise ValueError("need 0 < d_min <= d_max")
    if sign < 0 and not d_min <= d_max < 0:
        raise ValueError("need d_min <= d_max < 0")
    check_pair(N, p)


def _sweep(N, p, d_min, d_max, n_max, jobs, sign, context):
    check_sweep(N, p, d_min, d_max, sign)
    ds = [D for D in range(d_min, d_max + 1)
          if validate_discriminant(D, N, p, want_split=sign > 0)]
    _, ctx = context or build_pair(N, p, n_max, sign)
    rows = row_function(ctx)
    if jobs > 1:
        # contiguous slices, a few per worker, so the walks still batch
        size = -(-len(ds) // (4 * jobs)) or 1
        slices = [ds[i:i + size] for i in range(0, len(ds), size)]
        with ProcessPoolExecutor(jobs, initializer=_set_worker_rows, initargs=(rows,)) as pool:
            return make_report(r for part in pool.map(_worker_rows, slices) for r in part)
    return make_report(rows(ds))


def sweep_even(N, p, d_min, d_max, n_max=3, jobs=1, context=None):
    """Rows for every valid fundamental 0 < D in [d_min, d_max] with N
    split in Q(sqrt D), ascending; `context` may carry a prebuilt or
    loaded (space, ctx) pair, which `jobs` worker processes reuse."""
    return _sweep(N, p, d_min, d_max, n_max, jobs, 1, context)


def sweep_odd(N, p, d_min, d_max, n_max=3, jobs=1, context=None):
    """Rows for every valid fundamental D < 0 in [d_min, d_max] with N
    inert in Q(sqrt D), ascending by D; `context` and `jobs` as in
    `sweep_even`."""
    return _sweep(N, p, d_min, d_max, n_max, jobs, -1, context)


# ---------------------------------------------------------------------------
# fixtures

FIXTURES_DEFAULT = ((11, 5, 1), (31, 5, 2), (211, 5, 2))
FIXTURES_LARGE = ((1871, 5, 2), (4621, 5, 2), (9931, 5, 2))


def fixture_rows(large=False):
    """(N, p, expected, computed) for each configured fixture pair."""
    out = []
    for N, p, want in FIXTURES_DEFAULT:
        _, ctx = build_pair(N, p, 3, 1)
        out.append((N, p, want, g_p_dimension(ctx)))
    if large:
        from .modp import g_p_dimension_modp

        for N, p, want in FIXTURES_LARGE:
            out.append((N, p, want, g_p_dimension_modp(N, p)))
    return out


def check_fixtures(large=False):
    """True iff every configured (N, p) reproduces its g_p value."""
    return all(want == got for _, _, want, got in fixture_rows(large))


# ---------------------------------------------------------------------------
# persistence: single-file JSON envelope, checksummed and versioned

def _enc_matrix(m):
    return [[str(x) for x in row] for row in m.array.tolist()]


def _dec_matrix(rows):
    return IntMatrix([[int(x) for x in row] for row in rows])


def _space_digest(space):
    """sha256 of the shape and int64 bytes of each matrix field of the
    space, in field order: what a cache file keeps of the space."""
    h = hashlib.sha256()
    for f in fields(space):
        m = getattr(space, f.name)
        if isinstance(m, IntMatrix):
            h.update(f"{f.name}:{m.rows}x{m.cols};".encode())
            h.update(m.array.astype("<i8").tobytes())
    return h.hexdigest()


def _checksum(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_context(space, ctx, path):
    """Write ctx to `path`.  Of the space only N and `_space_digest` are
    kept: `load_context` rebuilds it with `build_space(N)`."""
    payload = {
        "N": str(space.N),
        "space_sha256": _space_digest(space),
        "p": str(ctx.p),
        "n_max": str(ctx.n_max),
        "sign": str(ctx.sign),
        "sturm_bound": str(ctx.sturm_bound),
        "eis_generators": [_enc_matrix(m) for m in ctx.eis_generators],
        "W": [_enc_matrix(m) for m in ctx.W],
        "snf_diag": [[str(d) for d in sd.diag] for sd in ctx.snf_of_W],
        "snf_right": [_enc_matrix(sd.right) for sd in ctx.snf_of_W],
        "e": [str(x) for x in ctx.e],
    }
    envelope = {
        "format_version": FORMAT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    # a reader sees the old file or the whole new one, never a part
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    # json.dumps runs the C encoder; json.dump would not
    with open(tmp, "w") as fh:
        fh.write(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    os.replace(tmp, path)


def _read_payload(payload):
    """(N, p, space digest, the context's other fields) of a payload,
    raising CacheIntegrityError if a key is missing, a value does not
    parse, (N, p) breaks the standing hypotheses, or W, snf_diag,
    snf_right or e does not have n_max + 2 levels."""
    try:
        N, p, n_max, sign = (int(payload[k]) for k in ("N", "p", "n_max", "sign"))
        check_pair(N, p)
        levels = [payload[k] for k in ("W", "snf_diag", "snf_right", "e")]
        if any(len(x) != n_max + 2 for x in levels):
            raise ValueError(f"W, snf_diag, snf_right and e need n_max + 2 = {n_max + 2} levels")
        w, diags, rights, e = levels
        return N, p, str(payload["space_sha256"]), {
            "n_max": n_max,
            "sign": sign,
            "sturm_bound": int(payload["sturm_bound"]),
            "eis_generators": tuple(_dec_matrix(m) for m in payload["eis_generators"]),
            "W": tuple(_dec_matrix(m) for m in w),
            "snf_of_W": tuple(WSmith(diag=tuple(int(d) for d in diag), right=_dec_matrix(right))
                              for diag, right in zip(diags, rights)),
            "e": tuple(int(x) for x in e),
        }
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CacheIntegrityError(f"cache integrity check failed: malformed payload "
                                  f"({type(exc).__name__}: {exc})") from None


def _check_structure(ctx):
    """The cheap invariants a cache file cannot fake by its checksum:
    every operator and level g x g for the rebuilt space's genus g, and
    each W_n a Hermite basis holding W_{n+1}."""
    g = ctx.space.genus
    square = [*ctx.eis_generators, *ctx.W, *(sd.right for sd in ctx.snf_of_W)]
    if (any((m.rows, m.cols) != (g, g) for m in square)
            or any(len(sd.diag) != g for sd in ctx.snf_of_W)):
        raise CacheIntegrityError(f"cache integrity check failed: an operator or level "
                                  f"is not {g} x {g}")
    for n in range(len(ctx.W) - 1):
        # a Hermite basis W_n of index d gives itself back from hnf_mod of
        # W_n and W_{n+1} modulo d exactly when W_{n+1} lies inside it
        w = ctx.W[n].array
        d = prod(map(int, np.diagonal(w)))
        if not (d > 0 and np.array_equal(hnf_mod(np.concatenate([w, ctx.W[n + 1].array]), d), w)):
            raise CacheIntegrityError(f"cache integrity check failed: W_{n + 1} is not "
                                      f"inside W_{n}, or W_{n} is not a Hermite basis")


def load_context(path):
    """(space, context) from a cache file: the space rebuilt from N and
    checked against the file's digest, the context read from the file.
    Stale envelopes and spaces on another basis raise CacheVersionError;
    a file that is not a JSON object, and a corrupted, malformed or
    structurally broken payload, raise CacheIntegrityError."""
    try:
        with open(path) as fh:
            envelope = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CacheIntegrityError(f"cache integrity check failed: not a JSON file ({exc})") from None
    if not isinstance(envelope, dict):
        raise CacheIntegrityError("cache integrity check failed: the envelope is not a JSON object")
    if envelope.get("format_version") != FORMAT_VERSION:
        raise CacheVersionError(
            "cache version mismatch: file has %r, this build reads %r"
            % (envelope.get("format_version"), FORMAT_VERSION)
        )
    payload = envelope.get("payload")
    if _checksum(payload) != envelope.get("checksum"):
        raise CacheIntegrityError("cache integrity check failed")
    N, p, digest, parts = _read_payload(payload)
    space = build_space(N)
    if _space_digest(space) != digest:
        raise CacheVersionError("cache file was written on another M_rel basis: "
                                f"its space digest differs from build_space({N})")
    ctx = EisensteinContext(space=space, p=p, logmap=LogMap(N, p), **parts)
    _check_structure(ctx)
    return space, ctx


# ---------------------------------------------------------------------------
# report emission

CSV_COLUMNS = "N,p,D,h,h_mod_p,log1_u,log1_pi2,criterion,eis_valuation,selmer_rank,selmer_kind,consistent"


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def report_to_csv(report):
    lines = [CSV_COLUMNS]
    for r in report.rows:
        lines.append(",".join(_cell(x) for x in (
            r.N, r.p, r.D, r.h, r.h_mod_p, r.log1_u, r.log1_pi2, r.criterion,
            r.eis_valuation,
            r.selmer.value if r.selmer else None,
            r.selmer.kind if r.selmer else None,
            r.consistent,
        )))
    return "\n".join(lines) + "\n"


def report_to_json(report):
    rows = []
    for r in report.rows:
        rows.append({
            "N": r.N, "p": r.p, "D": r.D, "h": r.h, "h_mod_p": r.h_mod_p,
            "log1_u": r.log1_u, "log1_pi2": r.log1_pi2,
            "criterion": r.criterion, "eis_valuation": r.eis_valuation,
            "selmer_rank": r.selmer.value if r.selmer else None,
            "selmer_kind": r.selmer.kind if r.selmer else None,
            "branch": r.selmer.branch if r.selmer else None,
            "consistent": r.consistent,
        })
    return json.dumps({
        "format_version": REPORT_FORMAT_VERSION,
        "rows": rows,
        "summary": {
            "total": report.total,
            "passed": report.passed,
            "failed": report.failed,
        },
    }, indent=2) + "\n"
