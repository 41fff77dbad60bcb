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
unless checking is deferred.  The truncated free fixtures read their bases
and products from freealg.FREE.
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
        if k > max_dimension():
            raise TooLarge(
                "dimension %d exceeds cap %d" % (k, max_dimension()))
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
# halos and derived algebras
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


def leibnizification(alg: FiniteAlgebra) -> FiniteAlgebra:
    """Bracket table [x, y] = x -| y - y |- x."""
    _require_kind(alg, "dialgebra", "leibnizification")
    k = alg.dim
    tab = [
        [
            tuple(
                a - b
                for a, b in zip(
                    alg.mul_basis("left", i, j), alg.mul_basis("right", j, i))
            )
            for j in range(k)
        ]
        for i in range(k)
    ]
    return FiniteAlgebra(
        "leibniz", alg.basis, {"bracket": tab}, name=alg.name + "_leib")


def opposite(alg: FiniteAlgebra) -> FiniteAlgebra:
    """x -|' y = y |- x,  x |-' y = y -| x."""
    _require_kind(alg, "dialgebra", "opposite")
    k = alg.dim
    return FiniteAlgebra(
        "dialgebra",
        alg.basis,
        {
            "left": [[alg.mul_basis("right", j, i) for j in range(k)]
                     for i in range(k)],
            "right": [[alg.mul_basis("left", j, i) for j in range(k)]
                      for i in range(k)],
        },
        name=alg.name + "_op",
    )


def associativization(alg: FiniteAlgebra):
    """Quotient by the ideal generated by all x -| y - x |- y.

    Returns (quotient FiniteAlgebra, projection) where projection maps a
    vector of the source onto quotient coordinates.  The ideal is saturated
    by alternating left/right multiplications until the rank stabilizes.
    """
    _require_kind(alg, "dialgebra", "associativization")
    k = alg.dim
    ideal = Echelon()
    frontier = []
    for i in range(k):
        for j in range(k):
            vec = tuple(
                a - b
                for a, b in zip(
                    alg.mul_basis("left", i, j), alg.mul_basis("right", i, j))
            )
            if ideal.add(dict(enumerate(vec))):
                frontier.append(vec)
    while frontier:
        new_frontier = []
        for v in frontier:
            for j in range(k):
                e = alg.unit_vector(j)
                for prod in ("left", "right"):
                    for cand in (alg.mul(prod, v, e), alg.mul(prod, e, v)):
                        if ideal.add(dict(enumerate(cand))):
                            new_frontier.append(cand)
        frontier = new_frontier

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

    basis = [alg.basis[i] for i in keep]
    tab = [
        [
            project(alg.mul_basis("left", keep[i], keep[j]))
            for j in range(len(keep))
        ]
        for i in range(len(keep))
    ]
    quotient = FiniteAlgebra(
        "associative", basis, {"mul": tab}, name=alg.name + "_as")
    return quotient, project


def as_dialgebra(alg: FiniteAlgebra, name="") -> FiniteAlgebra:
    """View an associative algebra as a dialgebra with equal products."""
    _require_kind(alg, "associative", "as_dialgebra")
    k = alg.dim
    tab = [[alg.mul_basis("mul", i, j) for j in range(k)] for i in range(k)]
    return FiniteAlgebra(
        "dialgebra", alg.basis, {"left": tab, "right": tab},
        name=name or alg.name + "_dias")


# ---------------------------------------------------------------------------
# fixture catalog
# ---------------------------------------------------------------------------

def _table(dim, pairs_of):
    """Dense structure constants on a basis of size `dim`: the vector of
    basis pair (i, j) sums the sparse (index, coefficient) pairs of
    `pairs_of(i, j)`."""

    def dense(i, j):
        vec = [0] * dim
        for t, c in accumulate({}, pairs_of(i, j)).items():
            vec[t] = c
        return tuple(vec)

    return [[dense(i, j) for j in range(dim)] for i in range(dim)]


def _monoid_algebra_tables(elements, op):
    idx = {e: i for i, e in enumerate(elements)}
    return _table(len(elements), lambda i, j: (
        (idx[op(elements[i], elements[j])], 1),))


def cyclic_group(n):
    """Elements 0..n-1 under addition mod n."""
    return list(range(n)), lambda a, b: (a + b) % n


def _field_algebra() -> FiniteAlgebra:
    one = ((Fraction(1),),)
    return FiniteAlgebra(
        "dialgebra", ["1"], {"left": [[one[0]]], "right": [[one[0]]]},
        name="ground_field")


def group_algebra(n) -> FiniteAlgebra:
    els, op = cyclic_group(n)
    tab = _monoid_algebra_tables(els, op)
    return FiniteAlgebra(
        "associative", ["g%d" % e for e in els], {"mul": tab},
        name="K[C_%d]" % n)


def monoid_double(n) -> FiniteAlgebra:
    """Dimonoid M x M with (m,a)(m',a') = (m, a m' a') / (m a m', a')."""
    els, op = cyclic_group(n)
    pairs = list(itertools.product(els, els))

    def left(x, y):
        return (x[0], op(op(x[1], y[0]), y[1]))

    def right(x, y):
        return (op(op(x[0], x[1]), y[0]), y[1])

    return FiniteAlgebra(
        "dialgebra",
        ["(%d,%d)" % p for p in pairs],
        {
            "left": _monoid_algebra_tables(pairs, left),
            "right": _monoid_algebra_tables(pairs, right),
        },
        name="double_C_%d" % n,
    )


def action_dimonoid(n) -> FiniteAlgebra:
    """Dimonoid X x G for G = C_n acting on itself by translation."""
    els, op = cyclic_group(n)
    pairs = list(itertools.product(els, els))

    def left(x, y):
        return (x[0], op(x[1], y[1]))

    def right(x, y):
        return (op(x[1], y[0]), op(x[1], y[1]))

    return FiniteAlgebra(
        "dialgebra",
        ["(%d;%d)" % p for p in pairs],
        {
            "left": _monoid_algebra_tables(pairs, left),
            "right": _monoid_algebra_tables(pairs, right),
        },
        name="action_C_%d" % n,
    )


def tensor_square(A: FiniteAlgebra) -> FiniteAlgebra:
    """A (x) A with a(x)b -| a'(x)b' = a (x) b a' b' and the mirror rule."""
    _require_kind(A, "associative", "tensor_square")
    k = A.dim
    pairs = list(itertools.product(range(k), range(k)))
    index = {p: t for t, p in enumerate(pairs)}
    dim = len(pairs)

    def table(side):
        def pairs_of(s, t):
            (a, b), (a2, b2) = pairs[s], pairs[t]
            if side == "left":
                prod = A.mul(
                    "mul", A.mul("mul", A.unit_vector(b), A.unit_vector(a2)),
                    A.unit_vector(b2))
                return ((index[(a, c)], coeff)
                        for c, coeff in enumerate(prod))
            prod = A.mul(
                "mul", A.mul("mul", A.unit_vector(a), A.unit_vector(b)),
                A.unit_vector(a2))
            return ((index[(c, b2)], coeff) for c, coeff in enumerate(prod))

        return _table(dim, pairs_of)

    return FiniteAlgebra(
        "dialgebra",
        ["%s(x)%s" % (A.basis[a], A.basis[b]) for a, b in pairs],
        {"left": table("left"), "right": table("right")},
        name="tensor_square view of " + A.name,
    )


def differential_dialgebra(A: FiniteAlgebra, d_matrix) -> FiniteAlgebra:
    """x -| y = x dy, x |- y = dx y for a differential (d^2=0, Leibniz) on A."""
    _require_kind(A, "associative", "differential_dialgebra")
    k = A.dim
    d = [tuple(_frac(c) for c in row) for row in d_matrix]

    def apply_d(vec):
        out = [Fraction(0)] * k
        for i, c in enumerate(vec):
            if c:
                for t, w in enumerate(d[i]):
                    out[t] += c * w
        return tuple(out)

    for i in range(k):
        if any(apply_d(apply_d(A.unit_vector(i)))):
            raise AxiomFailure("d^2 != 0 on basis element %d" % i)
    for i in range(k):
        for j in range(k):
            x, y = A.unit_vector(i), A.unit_vector(j)
            lhs = apply_d(A.mul("mul", x, y))
            rhs = tuple(
                a + b
                for a, b in zip(
                    A.mul("mul", apply_d(x), y), A.mul("mul", x, apply_d(y))))
            if lhs != rhs:
                raise AxiomFailure("d is not a derivation at (%d,%d)" % (i, j))

    left = [[A.mul("mul", A.unit_vector(i), apply_d(A.unit_vector(j)))
             for j in range(k)] for i in range(k)]
    right = [[A.mul("mul", apply_d(A.unit_vector(i)), A.unit_vector(j))
              for j in range(k)] for i in range(k)]
    return FiniteAlgebra(
        "dialgebra", A.basis, {"left": left, "right": right},
        name="differential " + A.name)


def upper_triangular_2() -> FiniteAlgebra:
    """The 3-dimensional algebra of upper-triangular 2x2 matrices."""
    basis = ["e11", "e12", "e22"]
    units = {"e11": (0, 0), "e12": (0, 1), "e22": (1, 1)}

    def mul(a, b):
        (i, j), (p, q) = units[a], units[b]
        return basis[["e11", "e12", "e22"].index("e%d%d" % (i + 1, q + 1))] \
            if j == p else None

    def pairs_of(i, j):
        prod = mul(basis[i], basis[j])
        return () if prod is None else ((basis.index(prod), 1),)

    tab = _table(len(basis), pairs_of)
    return FiniteAlgebra(
        "associative", basis, {"mul": tab}, name="upper_triangular_2")


def matrix_dialgebra(n, D: FiniteAlgebra) -> FiniteAlgebra:
    """n x n matrices over a dialgebra, entrywise basis (i, j, d)."""
    _require_kind(D, "dialgebra", "matrix_dialgebra")
    cells = list(itertools.product(range(n), range(n), range(D.dim)))
    index = {c: t for t, c in enumerate(cells)}
    dim = len(cells)
    if dim > max_dimension():
        raise TooLarge("matrix dialgebra dimension %d over cap" % dim)

    def table(prod):
        def pairs_of(s, t):
            (i, kk, a), (k2, j, b) = cells[s], cells[t]
            if kk != k2:
                return ()
            return ((index[(i, j, c)], coeff)
                    for c, coeff in enumerate(D.mul_basis(prod, a, b)))

        return _table(dim, pairs_of)

    return FiniteAlgebra(
        "dialgebra",
        ["E%d%d.%s" % (i + 1, j + 1, D.basis[a]) for i, j, a in cells],
        {"left": table("left"), "right": table("right")},
        name="M_%d(%s)" % (n, D.name),
    )


def vector_dialgebra(A: FiniteAlgebra, n) -> FiniteAlgebra:
    """A^n with (x -| y)_i = x_i (sum_j y_j), (x |- y)_i = (sum_j x_j) y_i."""
    _require_kind(A, "associative", "vector_dialgebra")
    cells = list(itertools.product(range(n), range(A.dim)))
    index = {c: t for t, c in enumerate(cells)}
    dim = len(cells)

    def table(side):
        def pairs_of(s, t):
            (i, a), (j, b) = cells[s], cells[t]
            prod = A.mul("mul", A.unit_vector(a), A.unit_vector(b))
            slot = i if side == "left" else j
            return ((index[(slot, c)], coeff) for c, coeff in enumerate(prod))

        return _table(dim, pairs_of)

    return FiniteAlgebra(
        "dialgebra",
        ["%s@%d" % (A.basis[a], i) for i, a in cells],
        {"left": table("left"), "right": table("right")},
        name="%s^%d" % (A.name, n),
    )


# -- truncated free algebras ------------------------------------------------

def truncated_free(kind, dim_v, maxdeg) -> FiniteAlgebra:
    """The free algebra freealg.FREE[kind] on dim_v letters, modulo the
    terms of degree above maxdeg; the basis is in sort order."""
    carrier = freealg.FREE[kind]
    letters = ["x%d" % (i + 1) for i in range(dim_v)]
    basis = [w for n in range(1, maxdeg + 1)
             for w in sorted(carrier.basis(letters, n),
                             key=lambda w: w.sort_key())]
    index = {w: i for i, w in enumerate(basis)}

    def table(op):
        def pairs_of(i, j):
            a, b = basis[i], basis[j]
            if len(a) + len(b) > maxdeg:
                return ()
            return ((index[t], c)
                    for t, c in image_pairs(carrier.product(a, b, op)))

        return _table(len(basis), pairs_of)

    return FiniteAlgebra(
        kind, [str(w) for w in basis],
        {op: table(op) for op in PRODUCTS[kind]},
        name="free_%s(%d)<=%d" % (kind, dim_v, maxdeg))


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
