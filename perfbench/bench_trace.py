"""Span tracing for the benchmark, installed from outside the package.

A span is recorded around each call that crosses a module boundary:
the benchmark replaces the name a calling module imported (for example
`eisenstein.hecke` or `harness.theta_element`) with a timing wrapper,
and puts the original back when the traced operation ends.  Nothing
under `src/` is changed.  Spans stay in memory as
[name, start, end, parent, op, count] and are written out at the end.

Span names are the defining module's dotted name, except
`modp.merel_matrices`, which is the Merel families the mod-p route
asks for (the exact route's are `modsym.merel_matrices`).
"""

import contextlib
import functools
import json
import sys
import time

# (module, attribute, span name, counter applied to the result or None)
SITES = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_context", "harness.load_context", None),
    ("cli", "sweep_even", "harness.sweep_even", None),
    ("cli", "report_to_csv", "harness.report_to_csv", None),
    ("harness", "even_row", "harness.even_row", None),
    ("harness", "field_profile", "quadfield.field_profile", None),
    ("harness", "theta_element", "modsym.theta_element", None),
    ("harness", "theta_valuation", "eisenstein.theta_valuation", None),
    ("harness", "selmer_rank", "selmer.selmer_rank", None),
    ("harness", "g_p_dimension", "eisenstein.g_p_dimension", None),
    ("harness", "save_context", "harness.save_context", None),
    ("modsym", "build_space", "modsym.build_space", None),
    ("modsym", "merel_matrices", "modsym.merel_matrices", len),
    ("modsym", "solve_left", "exact_linalg.solve_left", None),
    ("modsym", "snf", "exact_linalg.snf", None),
    ("modsym", "left_kernel", "exact_linalg.left_kernel", None),
    ("modsym", "unimodular_inverse", "exact_linalg.unimodular_inverse", None),
    ("eisenstein", "build_context", "eisenstein.build_context", None),
    ("eisenstein", "g_p_dimension", "eisenstein.g_p_dimension", None),
    ("eisenstein", "hecke", "modsym.hecke", None),
    ("eisenstein", "restrict_to_sign", "modsym.restrict_to_sign", None),
    ("eisenstein", "hnf", "exact_linalg.hnf", None),
    ("eisenstein", "snf", "exact_linalg.snf", None),
    ("eisenstein", "solve_left", "exact_linalg.solve_left", None),
    ("modp", "g_p_dimension_modp", "modp.g_p_dimension_modp", None),
    ("modp", "merel_matrices", "modp.merel_matrices", len),
)

ROOT = "bench.op"
SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(name for _, _, name, _ in SITES))

# solve_left is also reported per group of the spans that call it
SOLVE_LEFT_SCOPES = {
    "theta": ("modsym.theta_element", "eisenstein.theta_valuation"),
    "hecke": ("modsym.hecke",),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[5] = counter(result)
            return result
        return traced

    @contextlib.contextmanager
    def operation(self, package, op):
        """Trace one operation: replace every site's name with a traced
        wrapper and open the root span; put the originals back after.
        Sites whose name the package no longer has are skipped and
        reported."""
        saved = []
        try:
            for mod_name, attr, name, counter in SITES:
                mod = getattr(package, mod_name)
                orig = getattr(mod, attr, None)
                if orig is None:
                    print(f"trace: site {mod_name}.{attr} is missing", file=sys.stderr)
                    continue
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, name, counter))
            self.op = op
            root = self._open(ROOT)
            try:
                yield
            finally:
                self._close(root)
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "count": count}) + "\n")


def summarize(spans, n_ops):
    """Per-operation total seconds, self seconds and calls of each span
    name, plus solve_left by caller group and the counter sums.  Self
    time is a span's duration minus the durations of its children
    (calls are nested and serial, so children never overlap)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    stats = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}
    scoped = {scope: [0.0, 0] for scope in SOLVE_LEFT_SCOPES}
    counts = {}
    for i, (name, start, end, parent, _, count) in enumerate(spans):
        dur = end - start
        st = stats[name]
        st[0] += dur
        st[1] += dur - child[i]
        st[2] += 1
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        if name == "exact_linalg.solve_left":
            for scope, owners in SOLVE_LEFT_SCOPES.items():
                if spans[parent][0] in owners:
                    scoped[scope][0] += dur
                    scoped[scope][1] += 1
    out = {}
    for name, (total, self_s, calls) in stats.items():
        out[f"{name}.s"] = (total / n_ops, "s")
        out[f"{name}.self_s"] = (self_s / n_ops, "s")
        out[f"{name}.calls"] = (calls / n_ops, "count")
    for scope, (total, calls) in scoped.items():
        out[f"exact_linalg.solve_left.{scope}.s"] = (total / n_ops, "s")
        out[f"exact_linalg.solve_left.{scope}.calls"] = (calls / n_ops, "count")
    out["modsym.merel_family_size"] = (counts.get("modsym.merel_matrices", 0) / n_ops, "count")
    out["modp.merel_family_size"] = (counts.get("modp.merel_matrices", 0) / n_ops, "count")
    return out

