"""Finite-dimensional algebras given by structure constants.

A FiniteAlgebra is a basis plus one table per product of its kind:

    kind         products
    dialgebra    left, right
    dendriform   prec, succ
    leibniz      bracket
    zinbiel      dot
    associative  mul

tables[product][i][j] is the coefficient vector of e_i o e_j in the basis.
The defining relations of each kind are written once, in RELATIONS, as
signed monomials; check_axioms evaluates them by brute force over all basis
triples with exact arithmetic, and operads.preset_quadratic reads its
relation vectors off the same rows.  Construction fails on a violation
unless checking is deferred.

Every algebra this module constructs, fixture or functor, comes out of one
builder, _algebra: a list of basis cells, a name for each, and one rule per
product giving the (cell, coefficient) pairs of a product of two cells.
The truncated free fixtures read their bases and products from
freealg.FREE.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction

from .errors import (
    AxiomFailure,
    IncompatibleAlgebras,
    MalformedInput,
    TooLarge,
    UnknownFixture,
)
from .lincomb import accumulate, from_json_cell, image_pairs, json_coeff
from .linalg import Echelon, in_row_space, solve_affine
from . import freealg
from .trees import enumerate_trees  # noqa: F401  bench/tracing.py wraps it

PRODUCTS = {
    "dialgebra": ("left", "right"),
    "dendriform": ("prec", "succ"),
    "leibniz": ("bracket",),
    "zinbiel": ("dot",),
    "associative": ("mul",),
}

DEFAULT_MAX_DIM = 64


def max_dimension():
    text = os.environ.get("DIALAB_MAX_DIM", DEFAULT_MAX_DIM)
    try:
        return int(text)
    except ValueError:
        raise MalformedInput(
            "DIALAB_MAX_DIM must be an integer, got %r" % (text,)) from None


def _refuse_oversize(k):
    if k > max_dimension():
        raise TooLarge("dimension %d exceeds cap %d" % (k, max_dimension()))


def _require_kind(alg, kind, op):
    if alg.kind != kind:
        raise IncompatibleAlgebras(
            "%s needs a %s algebra, got %s" % (op, kind, alg.kind))


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class FiniteAlgebra:
    """Structure-constant presentation of a finite-dimensional algebra."""

    def __init__(self, kind, basis, tables, check=True, name=""):
        if kind not in PRODUCTS:
            raise AxiomFailure("unknown algebra kind %r" % (kind,))
        self.kind = kind
        self.basis = tuple(str(b) for b in basis)
        self.name = name or kind
        k = len(self.basis)
        _refuse_oversize(k)
        self.tables = {}
        for prod in PRODUCTS[kind]:
            if prod not in tables:
                raise AxiomFailure("missing table %r" % (prod,))
            tab = tables[prod]
            if len(tab) != k or any(
                len(row) != k or any(len(v) != k for v in row) for row in tab
            ):
                raise AxiomFailure("table %r has wrong shape" % (prod,))
            self.tables[prod] = tuple(
                tuple(tuple(_frac(c) for c in vec) for vec in row)
                for row in tab
            )
        if check:
            report = check_axioms(self)
            if report != "pass":
                raise AxiomFailure(
                    "%s is not a %s: %s" % (self.name, kind, report[:3]))

    @property
    def dim(self):
        return len(self.basis)

    def zero(self):
        return tuple(Fraction(0) for _ in self.basis)

    def unit_vector(self, i):
        return tuple(
            Fraction(1) if j == i else Fraction(0) for j in range(self.dim))

    def mul(self, prod, x, y):
        """Bilinear product of two coefficient vectors."""
        tab = self.tables[prod]
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                vec = tab[i][j]
                f = xi * yj
                for t, c in enumerate(vec):
                    if c:
                        out[t] += f * c
        return tuple(out)

    def mul_basis(self, prod, i, j):
        return self.tables[prod][i][j]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.kind == other.kind
            and self.basis == other.basis
            and self.tables == other.tables
        )

    def __repr__(self):
        return "FiniteAlgebra(%s, dim=%d, %r)" % (
            self.kind, self.dim, self.name)

    # -- JSON wire format ---------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "kind": self.kind,
                "basis": list(self.basis),
                "tables": {
                    prod: [
                        [[json_coeff(c) for c in vec] for vec in row]
                        for row in tab
                    ]
                    for prod, tab in sorted(self.tables.items())
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text, check=True):
        try:
            doc = json.loads(text)
            tables = {
                prod: [[[from_json_cell(c) for c in vec] for vec in row]
                       for row in tab]
                for prod, tab in doc["tables"].items()
            }
            kind, basis = doc["kind"], doc["basis"]
            if not isinstance(basis, list):
                raise TypeError("basis is a %s, not a list"
                                % type(basis).__name__)
        except (ValueError, KeyError, TypeError, AttributeError,
                ZeroDivisionError) as exc:
            raise MalformedInput("not an algebra document: %s: %s" % (
                type(exc).__name__, exc)) from exc
        return cls(kind, basis, tables, check=check)


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

XYZ, XZY = (0, 1, 2), (0, 2, 1)
_L, _R, _P, _S = "left", "right", "prec", "succ"

# RELATIONS[kind][axiom id] lists the signed monomials (coeff, s, p, q,
# order) whose sum vanishes in every algebra of that kind.  s = 1 is
# x p (y q z) and s = 2 is (x p y) q z, the coordinates of
# operads.QuadraticData; `order` says which of x, y, z fills each slot, so
# XZY evaluates the monomial on (x, z, y).
RELATIONS = {
    "dialgebra": {
        # (x-|y)-|z = x-|(y|-z)
        "1": [(1, 2, _L, _L, XYZ), (-1, 1, _L, _R, XYZ)],
        # (x-|y)-|z = x-|(y-|z)
        "2": [(1, 2, _L, _L, XYZ), (-1, 1, _L, _L, XYZ)],
        # (x|-y)-|z = x|-(y-|z)
        "3": [(1, 2, _R, _L, XYZ), (-1, 1, _R, _L, XYZ)],
        # (x-|y)|-z = x|-(y|-z)
        "4": [(1, 2, _L, _R, XYZ), (-1, 1, _R, _R, XYZ)],
        # (x|-y)|-z = x|-(y|-z)
        "5": [(1, 2, _R, _R, XYZ), (-1, 1, _R, _R, XYZ)],
    },
    "dendriform": {
        # (x<y)<z = x<(y<z) + x<(y>z)
        "i": [(1, 2, _P, _P, XYZ), (-1, 1, _P, _P, XYZ),
              (-1, 1, _P, _S, XYZ)],
        # (x>y)<z = x>(y<z)
        "ii": [(1, 2, _S, _P, XYZ), (-1, 1, _S, _P, XYZ)],
        # (x<y)>z + (x>y)>z = x>(y>z)
        "iii": [(1, 2, _P, _S, XYZ), (1, 2, _S, _S, XYZ),
                (-1, 1, _S, _S, XYZ)],
    },
    "leibniz": {
        # [x,[y,z]] = [[x,y],z] - [[x,z],y]
        "leibniz": [(1, 1, "bracket", "bracket", XYZ),
                    (-1, 2, "bracket", "bracket", XYZ),
                    (1, 2, "bracket", "bracket", XZY)],
    },
    "zinbiel": {
        # (x.y).z = x.(y.z) + x.(z.y)
        "zinbiel": [(1, 2, "dot", "dot", XYZ), (-1, 1, "dot", "dot", XYZ),
                    (-1, 1, "dot", "dot", XZY)],
    },
    "associative": {
        "assoc": [(1, 2, "mul", "mul", XYZ), (-1, 1, "mul", "mul", XYZ)],
    },
}


def check_axioms(alg: FiniteAlgebra):
    """Brute-force check of RELATIONS[alg.kind] over all basis triples.

    Returns "pass" or a sorted list of (axiom id, (i, j, k)) witnesses.
    """
    sparse = {prod: [[[(t, c) for t, c in enumerate(vec) if c]
                      for vec in row] for row in tab]
              for prod, tab in alg.tables.items()}
    failures = []
    for axiom_id, monomials in RELATIONS[alg.kind].items():
        for triple in itertools.product(range(alg.dim), repeat=3):
            acc = {}
            for coeff, s, p, q, order in monomials:
                x, y, z = (triple[v] for v in order)
                if s == 1:
                    for t, c in sparse[q][y][z]:
                        accumulate(acc, sparse[p][x][t], coeff * c)
                else:
                    for t, c in sparse[p][x][y]:
                        accumulate(acc, sparse[q][t][z], coeff * c)
            if acc:
                failures.append((axiom_id, triple))
    return sorted(failures) or "pass"


# ---------------------------------------------------------------------------
# the one builder of finite algebras
# ---------------------------------------------------------------------------

def _algebra(kind, cells, label, products, name) -> FiniteAlgebra:
    """The algebra of `kind` on the basis `cells` (hashable), basis element
    u named label(u), where products[op](u, v) yields the (cell,
    coefficient) pairs of u op v.  The pairs are summed and the dense table
    written once; too many cells are refused before any product runs."""
    cells = list(cells)
    _refuse_oversize(len(cells))
    index = {u: t for t, u in enumerate(cells)}

    def dense(pairs):
        vec = [0] * len(cells)
        for u, c in accumulate({}, pairs).items():
            vec[index[u]] = c
        return vec

    tables = {op: [[dense(rule(u, v)) for v in cells] for u in cells]
              for op, rule in products.items()}
    return FiniteAlgebra(kind, map(label, cells), tables, name=name)


def _pairs(vec, scale=1):
    """The (index, coefficient) pairs of scale times a dense vector."""
    return ((t, scale * c) for t, c in enumerate(vec) if c)


def _times(alg, op, xs, ys):
    """The (index, coefficient) pairs of x op y, for x and y given by their
    (index, coefficient) pairs; ys is read once for every pair of xs."""
    for i, a in xs:
        for j, b in ys:
            yield from _pairs(alg.mul_basis(op, i, j), a * b)


# ---------------------------------------------------------------------------
# halos
# ---------------------------------------------------------------------------

class Halo:
    """The affine set of bar-units of a dialgebra: point + directions."""

    def __init__(self, point, directions):
        self.point = point
        self.directions = tuple(tuple(d) for d in directions)

    @property
    def is_empty(self):
        return self.point is None

    @property
    def affine_dim(self):
        return None if self.is_empty else len(self.directions)

    def contains(self, vec):
        if self.is_empty:
            return False
        delta = [Fraction(a) - b for a, b in zip(vec, self.point)]
        return in_row_space(self.directions, delta)

    def __repr__(self):
        if self.is_empty:
            return "Halo(empty)"
        return "Halo(point=%s, dim=%d)" % (self.point, len(self.directions))


def bar_units(alg: FiniteAlgebra) -> Halo:
    """Solve x -| e = x = e |- x for all basis x, exactly."""
    _require_kind(alg, "dialgebra", "bar_units")
    k = alg.dim
    rows, rhs = [], []
    for i in range(k):
        x = alg.unit_vector(i)
        # sum_j e_j * (x -| b_j) = x   and   sum_j e_j * (b_j |- x) = x
        left_cols = [alg.mul("left", x, alg.unit_vector(j)) for j in range(k)]
        right_cols = [alg.mul("right", alg.unit_vector(j), x) for j in range(k)]
        for t in range(k):
            rows.append([left_cols[j][t] for j in range(k)])
            rhs.append(x[t])
            rows.append([right_cols[j][t] for j in range(k)])
            rhs.append(x[t])
    sol = solve_affine(rows, rhs)
    if sol is None:
        return Halo(None, ())
    return Halo(*sol)


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------

def leibnizification(alg: FiniteAlgebra) -> FiniteAlgebra:
    """Bracket table [x, y] = x -| y - y |- x."""
    _require_kind(alg, "dialgebra", "leibnizification")

    def bracket(i, j):
        return itertools.chain(_pairs(alg.mul_basis("left", i, j)),
                               _pairs(alg.mul_basis("right", j, i), -1))

    return _algebra("leibniz", range(alg.dim), alg.basis.__getitem__,
                    {"bracket": bracket}, alg.name + "_leib")


def opposite(alg: FiniteAlgebra) -> FiniteAlgebra:
    """x -|' y = y |- x,  x |-' y = y -| x."""
    _require_kind(alg, "dialgebra", "opposite")
    return _algebra("dialgebra", range(alg.dim), alg.basis.__getitem__, {
        "left": lambda i, j: _pairs(alg.mul_basis("right", j, i)),
        "right": lambda i, j: _pairs(alg.mul_basis("left", j, i)),
    }, alg.name + "_op")


def as_dialgebra(alg: FiniteAlgebra, name="") -> FiniteAlgebra:
    """View an associative algebra as a dialgebra with equal products."""
    _require_kind(alg, "associative", "as_dialgebra")

    def mul(i, j):
        return _pairs(alg.mul_basis("mul", i, j))

    return _algebra("dialgebra", range(alg.dim), alg.basis.__getitem__,
                    {"left": mul, "right": mul}, name or alg.name + "_dias")


def as_dendriform(alg: FiniteAlgebra) -> FiniteAlgebra:
    """View a Zinbiel algebra as a dendriform one: x < y = x.y and
    x > y = y.x (the finite form of freealg.zinbiel_as_dendriform)."""
    _require_kind(alg, "zinbiel", "as_dendriform")
    return _algebra("dendriform", range(alg.dim), alg.basis.__getitem__, {
        "prec": lambda i, j: _pairs(alg.mul_basis("dot", i, j)),
        "succ": lambda i, j: _pairs(alg.mul_basis("dot", j, i)),
    }, alg.name + "_dend")


def associativization(alg: FiniteAlgebra):
    """Quotient by the ideal generated by all x -| y - x |- y.

    Returns (quotient FiniteAlgebra, projection) where projection maps a
    vector of the source onto quotient coordinates.  The ideal is saturated
    by alternating left/right multiplications until the rank stabilizes.
    """
    _require_kind(alg, "dialgebra", "associativization")
    k = alg.dim
    ideal = Echelon()
    pending = [accumulate(dict(_pairs(alg.mul_basis("left", i, j))),
                          _pairs(alg.mul_basis("right", i, j)), -1)
               for i in range(k) for j in range(k)]
    while pending:
        frontier = [v for v in pending if ideal.add(v)]
        pending = [accumulate({}, prod) for v in frontier for j in range(k)
                   for op in ("left", "right")
                   for prod in (_times(alg, op, v.items(), ((j, 1),)),
                                _times(alg, op, ((j, 1),), v.items()))]

    rows, pivots = ideal.reduced()
    pivot_set = set(pivots)
    keep = [i for i in range(k) if i not in pivot_set]

    def project(vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(rows, pivots):
            f = v[p]
            if f:
                for j, c in row.items():
                    v[j] -= f * c
        return tuple(v[i] for i in keep)

    quotient = _algebra(
        "associative", keep, alg.basis.__getitem__,
        {"mul": lambda i, j: zip(keep, project(alg.mul_basis("left", i, j)))},
        alg.name + "_as")
    return quotient, project


# ---------------------------------------------------------------------------
# fixture catalog
# ---------------------------------------------------------------------------

def _field_algebra() -> FiniteAlgebra:
    def one(u, v):
        return (("1", 1),)

    return _algebra("dialgebra", ["1"], str, {"left": one, "right": one},
                    "ground_field")


def group_algebra(n) -> FiniteAlgebra:
    """The group algebra of the cyclic group C_n, on g0..g(n-1)."""
    return _algebra("associative", range(n), "g%d".__mod__,
                    {"mul": lambda a, b: (((a + b) % n, 1),)}, "K[C_%d]" % n)


def monoid_double(n) -> FiniteAlgebra:
    """Dimonoid M x M with (m,a)(m',a') = (m, a m' a') / (m a m', a'),
    for M = C_n written additively."""
    return _algebra(
        "dialgebra", itertools.product(range(n), repeat=2), "(%d,%d)".__mod__,
        {"left": lambda x, y: (((x[0], (x[1] + y[0] + y[1]) % n), 1),),
         "right": lambda x, y: ((((x[0] + x[1] + y[0]) % n, y[1]), 1),)},
        "double_C_%d" % n)


def action_dimonoid(n) -> FiniteAlgebra:
    """Dimonoid X x G for G = C_n acting on itself by translation."""
    return _algebra(
        "dialgebra", itertools.product(range(n), repeat=2), "(%d;%d)".__mod__,
        {"left": lambda x, y: (((x[0], (x[1] + y[1]) % n), 1),),
         "right": lambda x, y: ((((x[1] + y[0]) % n, (x[1] + y[1]) % n), 1),)},
        "action_C_%d" % n)


def tensor_square(A: FiniteAlgebra) -> FiniteAlgebra:
    """A (x) A with a(x)b -| a'(x)b' = a (x) b a' b' and the mirror rule."""
    _require_kind(A, "associative", "tensor_square")

    def triple(x, y, z):
        return _times(A, "mul", _times(A, "mul", ((x, 1),), ((y, 1),)),
                      ((z, 1),))

    return _algebra(
        "dialgebra", itertools.product(range(A.dim), repeat=2),
        lambda u: "%s(x)%s" % (A.basis[u[0]], A.basis[u[1]]),
        {"left": lambda u, v: (((u[0], c), k)
                               for c, k in triple(u[1], v[0], v[1])),
         "right": lambda u, v: (((c, v[1]), k)
                                for c, k in triple(u[0], u[1], v[0]))},
        "tensor_square view of " + A.name)


def differential_dialgebra(A: FiniteAlgebra, d_matrix) -> FiniteAlgebra:
    """x -| y = x dy, x |- y = dx y for a differential (d^2=0, Leibniz) on A."""
    _require_kind(A, "associative", "differential_dialgebra")
    d = [[(t, _frac(c)) for t, c in enumerate(row) if c] for row in d_matrix]

    def left(i, j):
        return _times(A, "mul", ((i, 1),), d[j])

    def right(i, j):
        return _times(A, "mul", d[i], ((j, 1),))

    def apply_d(pairs):
        return ((s, c * w) for t, c in pairs for s, w in d[t])

    for i in range(A.dim):
        if accumulate({}, apply_d(d[i])):
            raise AxiomFailure("d^2 != 0 on basis element %d" % i)
    for i in range(A.dim):
        for j in range(A.dim):
            # d(xy) - (dx y + x dy)
            if accumulate(
                    accumulate({}, apply_d(_pairs(A.mul_basis("mul", i, j)))),
                    itertools.chain(left(i, j), right(i, j)), -1):
                raise AxiomFailure("d is not a derivation at (%d,%d)" % (i, j))
    return _algebra("dialgebra", range(A.dim), A.basis.__getitem__,
                    {"left": left, "right": right}, "differential " + A.name)


def upper_triangular_2() -> FiniteAlgebra:
    """The 3-dimensional algebra of upper-triangular 2x2 matrices."""
    return _algebra(
        "associative", [(0, 0), (0, 1), (1, 1)],
        lambda u: "e%d%d" % (u[0] + 1, u[1] + 1),
        {"mul": lambda u, v: (((u[0], v[1]), 1),) if u[1] == v[0] else ()},
        "upper_triangular_2")


def matrix_dialgebra(n, D: FiniteAlgebra) -> FiniteAlgebra:
    """n x n matrices over a dialgebra, entrywise basis (i, j, d)."""
    _require_kind(D, "dialgebra", "matrix_dialgebra")

    def entrywise(op):
        return lambda u, v: (
            (((u[0], v[1], c), k)
             for c, k in _pairs(D.mul_basis(op, u[2], v[2])))
            if u[1] == v[0] else ())

    return _algebra(
        "dialgebra", itertools.product(range(n), range(n), range(D.dim)),
        lambda u: "E%d%d.%s" % (u[0] + 1, u[1] + 1, D.basis[u[2]]),
        {op: entrywise(op) for op in ("left", "right")},
        "M_%d(%s)" % (n, D.name))


def vector_dialgebra(A: FiniteAlgebra, n) -> FiniteAlgebra:
    """A^n with (x -| y)_i = x_i (sum_j y_j), (x |- y)_i = (sum_j x_j) y_i."""
    _require_kind(A, "associative", "vector_dialgebra")

    def at_slot(slot):
        return lambda u, v: (
            ((slot(u, v), c), k)
            for c, k in _pairs(A.mul_basis("mul", u[1], v[1])))

    return _algebra(
        "dialgebra", itertools.product(range(n), range(A.dim)),
        lambda u: "%s@%d" % (A.basis[u[1]], u[0]),
        {"left": at_slot(lambda u, v: u[0]),
         "right": at_slot(lambda u, v: v[0])},
        "%s^%d" % (A.name, n))


# -- truncated free algebras ------------------------------------------------

def truncated_free(kind, dim_v, maxdeg) -> FiniteAlgebra:
    """The free algebra freealg.FREE[kind] on dim_v letters, modulo the
    terms of degree above maxdeg, on freealg.numbered_basis."""
    carrier = freealg.FREE[kind]

    def truncated(op):
        return lambda a, b: () if len(a) + len(b) > maxdeg else image_pairs(
            carrier.product(a, b, op))

    return _algebra(
        kind, freealg.numbered_basis(kind, dim_v, maxdeg), str,
        {op: truncated(op) for op in PRODUCTS[kind]},
        "free_%s(%d)<=%d" % (kind, dim_v, maxdeg))


FIXTURES = {
    "field": lambda: _field_algebra(),
    "monoid_algebra": lambda n=2: as_dialgebra(group_algebra(n)),
    "monoid_double": lambda n=2: monoid_double(n),
    "action_dimonoid": lambda n=2: action_dimonoid(n),
    "tensor_square": lambda n=2: tensor_square(group_algebra(n)),
    "diff_algebra": lambda: differential_dialgebra(
        upper_triangular_2(),
        # d = ad(e12): e11 -> -e12, e12 -> 0, e22 -> e12
        [[0, -1, 0], [0, 0, 0], [0, 1, 0]]),
    "matrix_dialgebra": lambda n=2, base="field": matrix_dialgebra(
        n, fixture(base)),
    "vector_dialgebra": lambda n=2, base=2: vector_dialgebra(
        group_algebra(base), n),
    "truncated_free_dialgebra": lambda dim_v=1, maxdeg=3:
        truncated_free("dialgebra", dim_v, maxdeg),
    "truncated_free_dendriform": lambda dim_v=1, maxdeg=2:
        truncated_free("dendriform", dim_v, maxdeg),
    "truncated_free_zinbiel": lambda dim_v=1, maxdeg=3:
        truncated_free("zinbiel", dim_v, maxdeg),
    "truncated_free_leibniz": lambda dim_v=1, maxdeg=3:
        truncated_free("leibniz", dim_v, maxdeg),
}


def fixture(name, **params) -> FiniteAlgebra:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise UnknownFixture(
            "unknown fixture %r (have: %s)" % (name, sorted(FIXTURES)))
    return builder(**params)
