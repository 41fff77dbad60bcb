"""Per-layer spans and counts, recorded from outside the library.

A traced pass wraps the public entry points of each dialab module (the
layers) in spans.  The wrappers are installed on the module and class
attributes of a freshly imported dialab, so the library itself is never
edited.  Spans are kept in memory and summed per name; a call that re-enters
a span of the same name (recursion, or build_complex delegating to
build_cy_free) belongs to the outer span.
"""

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

_UNTRACED = contextlib.nullcontext()

# span names; each is reported as "<name>_s", its summed duration per pass
SPANS = (
    "trees.enumerate", "finalg.fixture", "homology.build", "homology.dsq",
    "homology.assemble", "homology.homotopy", "homology.diff_lin",
    "homology.contract", "freealg.dend_mul", "linalg.rank", "linalg.factor",
    "linalg.solve", "lincomb.check",
)
COUNTS = (
    "homology.basis_terms", "homology.dsq_terms", "homology.nnz",
    "freealg.dend_mul_calls", "linalg.rank_calls", "linalg.factor_cells",
    "linalg.solve_calls",
)


class _Span:
    __slots__ = ("tracer", "name", "start", "child")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.child = 0.0
        self.tracer._open.append(self)
        self.start = perf_counter()

    def __exit__(self, *exc):
        dur = perf_counter() - self.start
        tr = self.tracer
        tr._open.pop()
        tr.total[self.name] += dur
        tr.self_time[self.name] += dur - self.child
        if tr._open:
            tr._open[-1].child += dur


class Tracer:
    """Spans and counts of one pass.  A disabled tracer records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = Counter()
        # id -> matrix; holding the matrix keeps its id from being reused
        self.assembled = {}
        self.ranked = {}
        self._open = []

    def active(self, name):
        return any(s.name == name for s in self._open)

    def span(self, name):
        if not self.enabled or self.active(name):
            return _UNTRACED
        return _Span(self, name)

    def wrap(self, owner, attr, name, tally=None):
        """Replace owner.attr by a spanned call; `tally(tracer, args,
        result)` runs after each outermost call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.active(name):
                return fn(*args, **kwargs)
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if tally is not None:
                tally(self, args, result)
            return result

        setattr(owner, attr, traced)


def _basis_terms(tr, args, cx):
    tr.count["homology.basis_terms"] += sum(map(len, cx.terms.values()))


def _dsq_terms(tr, args, _):
    cx = args[0]
    tr.count["homology.dsq_terms"] += sum(
        len(ts) for n, ts in cx.terms.items() if n >= 2 and n - 1 in cx.terms)


def _nnz(tr, args, cols):
    if id(cols) not in tr.assembled:
        tr.assembled[id(cols)] = cols
        tr.count["homology.nnz"] += sum(map(len, cols))


def _rank(tr, args, _):
    tr.count["linalg.rank_calls"] += 1
    tr.ranked[id(args[0])] = args[0]


def _factor(tr, args, _):
    rows = args[1]
    n_cols = len(rows[0]) if rows else 0
    tr.count["linalg.factor_cells"] += len(rows) * (n_cols + len(rows))


def _calls(metric):
    def tally(tr, args, _):
        tr.count[metric] += 1
    return tally


def install(dl, tr):
    """Wrap the layer entry points of the imported package `dl`."""
    hom, cx_cls, solver = dl.homology, dl.homology.ChainComplex, \
        dl.linalg.FactoredSolver
    # modules that imported the enumerators by name hold their own binding
    for mod in (dl.trees, hom, dl.finalg):
        tr.wrap(mod, "enumerate_trees", "trees.enumerate")
    for mod in (dl.trees, hom):
        tr.wrap(mod, "all_permutations", "trees.enumerate")
    for attr in ("build_complex", "build_cy_free", "build_cdend_free"):
        tr.wrap(hom, attr, "homology.build", _basis_terms)
    tr.wrap(cx_cls, "verify_d_squared", "homology.dsq", _dsq_terms)
    tr.wrap(cx_cls, "matrix", "homology.assemble", _nnz)
    tr.wrap(cx_cls, "diff_lin", "homology.diff_lin")
    tr.wrap(hom, "homotopy_free_dialgebra", "homology.homotopy")
    tr.wrap(hom, "contraction_by_elimination", "homology.contract")
    tr.wrap(hom, "rank_of_columns", "linalg.rank", _rank)
    tr.wrap(solver, "__init__", "linalg.factor", _factor)
    tr.wrap(solver, "solve", "linalg.solve", _calls("linalg.solve_calls"))
    tr.wrap(dl.freealg, "dend_mul", "freealg.dend_mul",
            _calls("freealg.dend_mul_calls"))


def _hit_ratio(info):
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def layer_values(dl, tr):
    """Per-layer values of one traced pass (all but trace.overhead_s)."""
    face = dl.trees.face.cache_info()
    perm = dl.trees.perm_face.cache_info()
    out = {
        "trees.face_calls": face.hits + face.misses,
        "trees.face_hit_ratio": _hit_ratio(face),
        "trees.perm_face_calls": perm.hits + perm.misses,
        "trees.perm_face_hit_ratio": _hit_ratio(perm),
        "homology.contract_self_s": tr.self_time["homology.contract"],
        "linalg.rank_calls_per_matrix": (
            tr.count["linalg.rank_calls"] / len(tr.ranked)
            if tr.ranked else 0.0),
    }
    out.update((span + "_s", tr.total[span]) for span in SPANS)
    out.update((name, tr.count[name]) for name in COUNTS)
    return out
