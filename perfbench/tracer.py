"""Spans at the layer boundaries of `wgl`, recorded from outside the package.

`Tracer.install()` runs in the child launcher after `wgl.cli` is imported and
before the command starts.  It wraps

- methods: `UEAElement.__mul__`, `__init__` and `__add__` (with `__radd__`,
  its alias), `SeriesElem.mul`, `SeriesMatrix.matmul`, and
  `GeneratorBasis.__init__`, `convert` and `poly_mul`;
- module functions, rebound in every `wgl` namespace that holds them (so
  `w_product` is replaced in `wgl.quotient` and `wgl.walgebra`, `build_L`
  in `wgl.walgebra` and `wgl.cli`, and so on).

The hottest internals, `Algebra._letter_mono` and
`GeneratorBasis._nf_letter_mono`, are not wrapped: they run millions of times
per command.  Their caches are read at exit instead.

A span is `[parent, name, start, end, extra]`; its id is its index in the
list and `parent` is -1 at the top.  `extra` holds the span's work counts.
Spans stay in memory and are written out with the child's report.  The
parent process turns them into per-layer figures with `aggregate`.
"""

from __future__ import annotations

import functools
import sys
import time

# The walgebra checks whose time excludes any L(z) build nested inside them.
CHECKS = {
    "yangian_check_L": "walgebra.yangian",
    "w_membership_check": "walgebra.membership",
    "main_lemma_check": "walgebra.main_lemma",
    "conjecture_check": "walgebra.conjecture",
    "relation_table_check": "walgebra.relations",
    "family_generators": "walgebra.family",
}


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self._stack = [-1]
        self._bases: list = []

    def wrap(self, name: str, fn, run=None):
        """`fn` recording one span per call; `run(fn, args, kwargs)` may
        replace the call and return `(result, extra)`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [stack[-1], name, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                if run is None:
                    result = fn(*args, **kwargs)
                else:
                    result, rec[4] = run(fn, args, kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            return result

        return wrapper

    def install(self) -> None:
        from wgl import cli, quotient, series, uea, walgebra

        U = uea.UEAElement
        U.__mul__ = self.wrap("uea.mul", U.__mul__, _run_mul)
        U.__init__ = self.wrap("uea.init", U.__init__, _run_init)
        U.__add__ = U.__radd__ = self.wrap("uea.add", U.__add__)
        S = series.SeriesElem
        S.mul = self.wrap("series.elem_mul", S.mul, _elem_mul_runner(series))
        M = series.SeriesMatrix
        M.matmul = self.wrap("series.matmul", M.matmul)
        G = walgebra.GeneratorBasis
        G.__init__ = self._capture_basis(G.__init__)
        G.convert = self.wrap("walgebra.basis.convert", G.convert)
        G.poly_mul = self.wrap("walgebra.basis.poly_mul", G.poly_mul, _run_poly_mul)

        functions = [
            (quotient, "w_product", "quotient.w_product", None),
            (quotient, "reduce_mod_I", "quotient.reduce", _run_reduce),
            (quotient, "ad_invariant_witness", "quotient.ad_witness", None),
            (quotient, "ucirc_mul", "quotient.ucirc", None),
            (series, "invert_matrix", "series.invert", _invert_runner(series)),
            (series, "quasideterminant", "series.quasidet", _run_quasidet),
            (series, "noncomm_det", "series.det", None),
            (series, "yangian_identity_check", "series.grid", None),
            (series, "inverse_mixed_identity_check", "series.grid", None),
            (walgebra, "build_L", "walgebra.build_L", None),
            (cli, "_emit", "cli.render", None),
        ]
        functions += [(walgebra, fn, name, None) for fn, name in CHECKS.items()]
        for module, attr, name, run in functions:
            orig = getattr(module, attr)
            _rebind(orig, self.wrap(name, orig, run))

    def _capture_basis(self, init):
        bases = self._bases

        @functools.wraps(init)
        def wrapper(basis, *args, **kwargs):
            init(basis, *args, **kwargs)
            bases.append(basis)

        return wrapper

    def dump(self) -> dict:
        """Spans and cache sizes, read once the command has finished."""
        from wgl.uea import Algebra

        algebras = list(Algebra._instances.values())
        return {
            "trace_id": self.trace_id,
            "spans": self.spans,
            "caches": {
                "uea.lm_cache.entries": sum(len(a._lm_cache) for a in algebras),
                "uea.comm_cache.entries": sum(len(a._comm_cache) for a in algebras),
                "walgebra.basis.nf_cache.entries":
                    sum(len(b._nf_cache) for b in self._bases),
                "walgebra.basis.eval_cache.entries":
                    sum(len(b._eval_cache) for b in self._bases),
            },
        }


def _rebind(orig, wrapper) -> None:
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "wgl" or mod_name.startswith("wgl.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


# -- work counts taken at the boundaries ---------------------------------------


def _run_mul(fn, args, kwargs):
    x, y = args
    cache = x.alg._lm_cache
    before = len(cache)
    out = fn(x, y)
    pairs = len(x.terms) * len(y.terms) if hasattr(y, "terms") else 0
    # the cache only shrinks when __mul__ drops it at its size cap
    return out, (pairs, len(out.terms), int(len(cache) < before))


def _run_init(fn, args, kwargs):
    fn(*args, **kwargs)
    return None, (len(args[2]),)


def _run_reduce(fn, args, kwargs):
    out = fn(*args, **kwargs)
    return out, (len(args[0].terms), len(out.terms))


def _run_poly_mul(fn, args, kwargs):
    out = fn(*args, **kwargs)
    return out, (len(out),)


def _elem_mul_runner(series):
    def run(fn, args, kwargs):
        se, other, *rest = args
        mul = (rest[0] if rest else kwargs.pop("mul", None)) or series._default_mul
        count = [0]

        def counted(x, y):
            count[0] += 1
            return mul(x, y)

        out = fn(se, other, counted, *rest[1:], **kwargs)
        return out, (count[0],)

    return run


def _invert_runner(series):
    def run(fn, args, kwargs):
        floor = args[1] if len(args) > 1 else kwargs.get("floor")
        return fn(*args, **kwargs), (series._floor2(floor),)

    return run


def _run_quasidet(fn, args, kwargs):
    out = fn(*args, **kwargs)
    floors = [e.floor2 for row in out.data for e in row if e.floor2 is not None]
    return out, (max(floors) if floors else None,)


# -- aggregation in the parent --------------------------------------------------


def _union_length(intervals: list) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def aggregate(spans: list, caches: dict):
    """Per-layer figures of one command, as (counts, times).

    Counts are deterministic work counts; times are seconds.  `name.s` is a
    span's inclusive time and `name.self_s` that time minus the union of its
    children's intervals.  Floors are doubled ints, None when never asked.
    """
    counts: dict = dict(caches)
    times: dict = {}
    children: dict = {}
    for sid, span in enumerate(spans):
        children.setdefault(span[0], []).append(sid)

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    check_names = set(CHECKS.values())
    floors_asked, floors_delivered = [], []
    for sid, (parent, name, start, end, extra) in enumerate(spans):
        kids = children.get(sid, ())
        dur = end - start
        add(counts, f"{name}.calls", 1)
        add(times, f"{name}.s", dur)
        add(times, f"{name}.self_s",
            dur - _union_length([(spans[k][2], spans[k][3]) for k in kids]))
        if name == "uea.mul":
            add(counts, "uea.mul.pairs", extra[0])
            add(counts, "uea.mul.terms_out", extra[1])
            add(counts, "uea.lm_cache.drops", extra[2])
        elif name == "uea.init":
            add(counts, "uea.init.terms", extra[0])
        elif name == "quotient.reduce":
            add(counts, "quotient.reduce.terms_in", extra[0])
            add(counts, "quotient.reduce.terms_out", extra[1])
        elif name == "series.elem_mul":
            add(counts, "series.elem_mul.coeff_products", extra[0])
        elif name == "walgebra.basis.poly_mul":
            add(counts, "walgebra.basis.poly_mul.terms_out", extra[0])
        elif name == "series.invert":
            add(counts, "series.invert.matmuls",
                sum(spans[k][1] == "series.matmul" for k in kids))
            floors_asked.append(extra[0])
        elif name == "series.quasidet":
            add(counts, "series.quasidet.inverts",
                sum(spans[k][1] == "series.invert" for k in kids))
            floors_delivered.append(extra[0])
        elif name == "walgebra.build_L":
            # charge this build to the nearest enclosing check, if any
            up = parent
            while up != -1 and spans[up][1] not in check_names:
                up = spans[up][0]
            if up != -1:
                add(times, f"{spans[up][1]}.nested_build_L_s", dur)
    for name in check_names:
        if f"{name}.s" in times:
            times[f"{name}.s"] -= times.pop(f"{name}.nested_build_L_s", 0.0)
    counts["series.invert.floor2_min"] = _min_floor(floors_asked)
    counts["series.quasidet.floor2_delivered"] = _min_floor(floors_delivered)
    return counts, times


def _min_floor(floors: list):
    floors = [f for f in floors if f is not None]
    return min(floors) if floors else None


def combine(parts: list) -> dict:
    """Sum per-command figures over a pass; floors take the deepest."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key.endswith(("floor2_min", "floor2_delivered")):
                out[key] = _min_floor([out.get(key), value])
            else:
                out[key] = out.get(key, 0) + value
    return out
