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

A cache file keeps the pair's expensive half, the Eisenstein context
(p, n_max, the sign, g_p and the W_n chain), with the level N and a
digest of the space.  The space is a cheap, deterministic function of
N, so `load_context` rebuilds it and refuses a file whose digest it
does not match; everything else a context offers is derived from W.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from functools import partial
from math import prod

import numpy as np

from .eisenstein import (
    EisensteinContext,
    _generators,
    build_context,
    g_p_dimension,
    theta_valuations,
)
from .exact_linalg import IntMatrix, in_lattice, kronecker, scaled_inverse_mod
from .modp import merel_criterion
from .modsym import build_space, check_pair, theta_elements
from .quadfield import (
    _field_profile,
    admissible_mask,
    class_numbers,
    fundamental_discriminants,
)
from .selmer import SelmerInput, selmer_rank

FORMAT_VERSION = 6  # context cache files
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

def check_discriminants(Ds, N, p, split):
    """Refuse Ds unless every D is admissible for the split (D > 0) or
    inert (D < 0) case at (N, p), by one batched test
    (`admissible_mask`)."""
    if not admissible_mask(Ds, N, p, split).all():
        raise ValueError(f"invalid discriminant for the {'split' if split else 'inert'} case")


def even_row(ctx, g_p, D, h, val):
    """The sweep row of the split discriminant D, from its class number h
    and the valuation val of its theta element; `_rows` has validated D."""
    space = ctx.space
    profile = _field_profile(D, space.N, ctx.p, ctx.logmap, h)
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
    check_discriminants(Ds, ctx.space.N, ctx.p, ctx.sign > 0)
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


def check_sweep(N, p, d_min, d_max, sign, jobs=1):
    """Refuse a D window that is empty or not of the sweep's sign, then
    an (N, p) outside the standing hypotheses, then fewer than one job."""
    if sign > 0 and not 0 < d_min <= d_max:
        raise ValueError("need 0 < d_min <= d_max")
    if sign < 0 and not d_min <= d_max < 0:
        raise ValueError("need d_min <= d_max < 0")
    check_pair(N, p)
    if jobs < 1:
        raise ValueError("need jobs >= 1")


def sweep_window(N, p, d_min, d_max, sign):
    """The D of a checked window that `validate_discriminant` admits for
    the sweep of that sign, ascending: the sieved fundamental D prime to
    p and N at which the Kronecker symbol (D/N) is the sign."""
    return [D for D in fundamental_discriminants(d_min, d_max)
            if D % p and D % N and kronecker(D, N) == sign]


def _sweep(N, p, d_min, d_max, n_max, jobs, sign, context):
    check_sweep(N, p, d_min, d_max, sign, jobs)
    ds = sweep_window(N, p, d_min, d_max, sign)
    _, ctx = context or build_pair(N, p, n_max, sign)
    rows = row_function(ctx)
    if jobs > 1:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

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


# quotient-map rows per dense block that `_space_digest` hashes
_DIGEST_ROWS = 1024


def _space_digest(space):
    """sha256 of the shape and int64 bytes of each matrix of the space
    that fixes a coordinate, and of the coordinate symbols: the quotient
    map as the dense (N + 1) x (2g + 1) reduction it stands for, labelled
    `reduction` and streamed a block of rows at a time, so no dense copy
    is made, then the symbols, `star`, `plus_basis` and `minus_basis`.
    It is what a cache file keeps of the space."""
    h = hashlib.sha256()
    qmap = space.qmap
    nrows = len(qmap.indptr) - 1
    h.update(f"reduction:{nrows}x{qmap.ncols};".encode())
    for lo in range(0, nrows, _DIGEST_ROWS):
        # the block's entries are the contiguous run indptr[lo] .. indptr[hi]
        hi = min(lo + _DIGEST_ROWS, nrows)
        run = slice(qmap.indptr[lo], qmap.indptr[hi])
        row = np.repeat(np.arange(hi - lo), np.diff(qmap.indptr[lo:hi + 1]))
        block = np.zeros((hi - lo, qmap.ncols), dtype="<i8")
        block[row, qmap.cols[run]] = qmap.vals[run]
        h.update(block.tobytes())
    for name in ("coord_symbols", "star", "plus_basis", "minus_basis"):
        m = getattr(space, name)
        if name == "coord_symbols":
            m = IntMatrix([m])
        h.update(f"{name}:{m.rows}x{m.cols};".encode())
        h.update(m.array.astype("<i8").tobytes())
    return h.hexdigest()


def _payload_blob(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload):
    return hashlib.sha256(_payload_blob(payload).encode()).hexdigest()


def save_context(space, ctx, path):
    """Write ctx to `path`: its p, n_max, sign, g_p and W.  Of the space
    only N and `_space_digest` are kept: `load_context` rebuilds it with
    `build_space(N)`."""
    payload = {
        "N": str(space.N),
        "space_sha256": _space_digest(space),
        "p": str(ctx.p),
        "n_max": str(ctx.n_max),
        "sign": str(ctx.sign),
        "g_p": str(ctx.g_p),
        "W": [_enc_matrix(m) for m in ctx.W],
    }
    # the envelope {"checksum", "format_version", "payload"} in sorted-key
    # text, built around the payload's one encoding (json.dumps runs the
    # C encoder; json.dump would not)
    blob = _payload_blob(payload)
    checksum = hashlib.sha256(blob.encode()).hexdigest()
    text = f'{{"checksum":"{checksum}","format_version":{FORMAT_VERSION},"payload":{blob}}}'
    # a reader sees the old file or the whole new one, never a part
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _read_payload(payload):
    """(N, p, space digest, the context's other fields) of a payload,
    raising CacheIntegrityError if a key is missing, a value does not
    parse, (N, p) breaks the standing hypotheses, or W does not have
    n_max + 2 levels."""
    try:
        N, p, n_max, sign, g_p = (int(payload[k]) for k in ("N", "p", "n_max", "sign", "g_p"))
        check_pair(N, p)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(payload["W"]) != n_max + 2:
            raise ValueError(f"W needs n_max + 2 = {n_max + 2} levels")
        return N, p, str(payload["space_sha256"]), {
            "n_max": n_max,
            "sign": sign,
            "g_p": g_p,
            "W": tuple(_dec_matrix(m) for m in payload["W"]),
        }
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CacheIntegrityError(f"cache integrity check failed: malformed payload "
                                  f"({type(exc).__name__}: {exc})") from None


def _lattice_test(w):
    """For a Hermite basis w (upper triangular, a positive diagonal, and
    each entry above it in [0, its column's pivot)), the test of whether
    every row of an integer array x lies in the lattice of w; None for
    any other w.  d = det w, so d Z^g lies in the lattice, and x lies in
    it exactly when x Z = 0 (mod d), Z = `scaled_inverse_mod`(w, d)
    (`in_lattice`)."""
    diag, upper = np.diagonal(w), np.triu(w, 1)
    if not ((diag > 0).all() and (upper >= 0).all() and (upper < diag).all()
            and not np.tril(w, -1).any()):
        return None
    d = prod(map(int, diag))
    z = scaled_inverse_mod(w, d)
    return lambda x: bool(in_lattice(x, z, d).all())


def _check_structure(ctx):
    """The cheap invariants a cache file cannot fake by its checksum:
    every level g x g for the rebuilt space's genus g, each W_n a
    Hermite basis holding W_{n+1}, W_0 the identity basis of M^sign, W_1
    holding eta_2 W_0 for eta_2 = T_2 - 3 restricted to the stored sign
    (which ties the chain to its side), and 1 <= g_p <= g with g_p >= 2
    exactly when Merel's criterion holds.  Each containment is one
    product with a scaled inverse (`_lattice_test`)."""
    g = ctx.space.genus
    if any((m.rows, m.cols) != (g, g) for m in ctx.W):
        raise CacheIntegrityError(f"cache integrity check failed: a level is not {g} x {g}")
    tests = [_lattice_test(w.array) for w in ctx.W]
    for n in range(len(ctx.W) - 1):
        if tests[n] is None or not tests[n](ctx.W[n + 1].array):
            raise CacheIntegrityError(f"cache integrity check failed: W_{n + 1} is not "
                                      f"inside W_{n}, or W_{n} is not a Hermite basis")
    eta = _generators(ctx.space, ctx.sign, [2])[0].array
    if ctx.W[0] != IntMatrix.identity(g) or tests[1] is None or not tests[1](eta):
        side = "plus" if ctx.sign > 0 else "minus"
        raise CacheIntegrityError(f"cache integrity check failed: W_0 is not M^{side}, or W_1 "
                                  f"does not hold its image under T_2 - 3 on the {side} side")
    if not 1 <= ctx.g_p <= g or (ctx.g_p >= 2) != merel_criterion(ctx.space.N, ctx.p):
        raise CacheIntegrityError(f"cache integrity check failed: g_p = {ctx.g_p} is not in "
                                  f"[1, {g}] or disagrees with Merel's criterion")


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
    ctx = EisensteinContext(space=space, p=p, **parts)
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
