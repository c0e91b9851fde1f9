"""Per-layer tracing from outside the library.

The tracer rebinds isolab's public functions to wrappers: every name in
every ``isolab.*`` module that is bound to a traced function object is
replaced, because modules import functions by name (``mat_mul`` lives in
linalg but is also bound in isocrystal and dieudonne).  Methods are
replaced on their class.  ``uninstall`` restores every original binding.

Two kinds of wrapper:

* span wrappers record (name, start, end, parent span, op id) for the
  module-level functions of each layer; spans stay in memory until the
  run ends;
* count wrappers only count calls, for the scalar arithmetic that runs
  about a million times per run, plus the cache hit ratios.
"""

import sys
import time
from contextlib import contextmanager

#: layer -> functions recorded as spans (module-level names)
SPANS = {
    "linalg": ["charpoly", "mat_mul", "twisted_power", "row_echelon",
               "kernel_basis", "coords_in_column_span", "mat_inverse",
               "saturate_columns", "rat_rref", "rat_rank", "rat_solve"],
    "isocrystal": ["newton_slopes", "slope_split", "slope_part",
                   "internal_hom"],
    "dieudonne": ["dla_validate", "lower_central_series",
                  "minimal_slope_center_check", "span_basis", "in_span"],
    "bch": ["group_mul", "lattice_closure_check", "rho_defect"],
    "roots": ["coxeter_gate", "unipotent_nilpotency", "leaf_dimension",
              "adjoint_isocrystal", "adjoint_slope_cross_check"],
    "perfseries": ["ps_mul", "ps_pow", "ps_compose", "membership_restricted",
                   "rigidity_check"],
    "cli": ["main"],
}

#: counted only: (metric name, class name or None, attribute)
COUNTS = [
    ("padic.PadicScalar.__mul__", "PadicScalar", "__mul__"),
    ("padic.PadicScalar.__add__", "PadicScalar", "__add__"),
    ("padic.PadicScalar.invert", "PadicScalar", "invert"),
    ("padic.PadicScalar.sigma", "PadicScalar", "sigma"),
    ("padic.raw_inv_unit", "FieldSpec", "raw_inv_unit"),
    ("padic.apply_sigma_raw", "FieldSpec", "apply_sigma_raw"),
    ("padic.zq_mul", None, "zq_mul"),
]

RATIOS = ["padic.red_rows.hit_ratio", "padic.spec_intern.hit_ratio",
          "bch.bch_series.hit_ratio"]


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals.

    spans is a list of (name, start, end, parent index or -1, op id).
    Returns a list of self times in the same order.
    """
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], start), min(spans[c][2], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters for one traced run of one isolab import."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.lookups = {name: [0, 0] for name in RATIOS}  # [hits, total]
        self._undo = []
        self._bch = None

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "isolab"
                                   or modname.startswith("isolab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def install(self, isolab):
        import isolab.cli  # noqa: F401  (so that its bindings are rebound)
        from isolab import padic

        for layer, names in SPANS.items():
            mod = sys.modules["isolab." + layer]
            for name in names:
                original = getattr(mod, name)
                self._rebind_everywhere(original,
                                        self._span(f"{layer}.{name}", original))
        classes = {"PadicScalar": padic.PadicScalar,
                   "FieldSpec": padic.FieldSpec}
        for metric, cls, attr in COUNTS:
            if cls is None:
                original = getattr(sys.modules["isolab._speedups"], attr)
                self._rebind_everywhere(original, self._count(metric, original))
            else:
                original = classes[cls].__dict__[attr]
                self._patch_method(classes[cls], attr,
                                   self._count(metric, original))
        self._patch_method(padic.FieldSpec, "red_rows",
                           self._red_rows(padic.FieldSpec.red_rows))
        self._patch_method(padic.FieldSpec, "__new__", staticmethod(
            self._spec_new(padic.FieldSpec.__new__, padic._SPEC_CACHE)))
        self._bch = isolab.bch.bch_series
        self._bch_start = self._bch.cache_info()

    def uninstall(self):
        if self._bch is not None:
            info = self._bch.cache_info()
            hits = info.hits - self._bch_start.hits
            misses = info.misses - self._bch_start.misses
            self.lookups["bch.bch_series.hit_ratio"] = [hits, hits + misses]
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _red_rows(self, fn):
        cell = self.lookups["padic.red_rows.hit_ratio"]

        def red_rows(spec, pM):
            cell[0] += pM in spec._red
            cell[1] += 1
            return fn(spec, pM)

        return red_rows

    def _spec_new(self, fn, cache):
        cell = self.lookups["padic.spec_intern.hit_ratio"]

        def new(cls, p, f, N):
            cell[0] += (p, f, N) in cache
            cell[1] += 1
            return fn(cls, p, f, N)

        return new

    # -- recording -----------------------------------------------------------

    @contextmanager
    def op(self, op_id, name):
        """A root span around one op; its children are the layer spans."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = ("op." + name, start, end, -1, op_id)

    @contextmanager
    def excluded(self):
        """Discard whatever the block records (answer checks, digests)."""
        n_spans = len(self.spans)
        counts = dict(self.counts)
        lookups = {k: list(v) for k, v in self.lookups.items()}
        try:
            yield
        finally:
            del self.spans[n_spans:]
            self.counts.update(counts)
            for k, v in lookups.items():
                self.lookups[k][:] = v

    def metrics(self):
        """Per-layer metrics: calls and self time per span name, counts,
        and cache hit ratios (0 where the cache was never consulted)."""
        out = {}
        for layer, names in SPANS.items():
            for name in names:
                out[f"{layer}.{name}.calls"] = 0
                out[f"{layer}.{name}.self_s"] = 0.0
        for span, self_s in zip(self.spans, self_times(self.spans)):
            name = span[0]
            if name.startswith("op."):
                continue
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_s
        for name, value in self.counts.items():
            out[name + ".calls"] = value
        for name, (hits, total) in self.lookups.items():
            out[name] = hits / total if total else 0.0
        return out
