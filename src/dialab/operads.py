"""Binary quadratic data, its dual, Poincare series, tree composition, and
the relation generator for homotopy versions of two-product algebras.

Quadratic data lives in the 2 g^2-dimensional space spanned by the
coordinates (s, a, b) with g = number of generating binary operations:

    s = 1  <->  x a (y b z)          s = 2  <->  (x a y) b z

reading the two operation symbols left to right.  Relations with the
variables in a fixed order are all this library needs, so the dualization
pairing is the signed diagonal form (+1 on the s=1 block, -1 on the s=2
block) and the dual data is the annihilator of the relation span.  The
presets dias, dend and as are built from the rows of finalg.RELATIONS, the
one place where the relations of each algebra kind are written.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import (
    DegreeOutOfRange,
    MalformedInput,
    SlotOutOfRange,
    UnknownPreset,
)
from .finalg import PRODUCTS, RELATIONS
from .freealg import eval_tree_monomial
from .lincomb import Lin, json_coeff
from .linalg import nullspace, row_space_basis
from .trees import Tree, catalan, enumerate_trees, mirror, nested_subtrees


class QuadraticData:
    """Generators (labels of binary operations) plus a reduced relation basis."""

    def __init__(self, generators, relations):
        self.generators = tuple(generators)
        g = len(self.generators)
        self.ambient_dim = 2 * g * g
        rows = [list(map(Fraction, r)) for r in relations]
        for r in rows:
            if len(r) != self.ambient_dim:
                raise SlotOutOfRange(
                    "relation vectors live in dimension %d" % self.ambient_dim)
        self.relations = tuple(tuple(r) for r in row_space_basis(rows))

    @property
    def n_generators(self):
        return len(self.generators)

    @property
    def n_relations(self):
        return len(self.relations)

    def coord(self, s, a, b):
        """Index of the basis monomial (s, a, b); operations may be labels
        or positions."""
        g = self.n_generators
        if not isinstance(a, int):
            a = self.generators.index(a)
        if not isinstance(b, int):
            b = self.generators.index(b)
        if s not in (1, 2):
            raise SlotOutOfRange("parenthesization slot must be 1 or 2")
        return (s - 1) * g * g + a * g + b

    def vector(self, terms):
        """Relation vector from [(coeff, s, a, b), ...]."""
        v = [Fraction(0)] * self.ambient_dim
        for coeff, s, a, b in terms:
            v[self.coord(s, a, b)] += Fraction(coeff)
        return tuple(v)

    def spans_same_space(self, other) -> bool:
        """The relations are the reduced echelon basis of their span, which
        the span determines, so equal spans store equal relations."""
        return (self.n_generators == other.n_generators
                and self.relations == other.relations)

    def to_json_dict(self):
        return {
            "generators": list(self.generators),
            "relations": [[json_coeff(c) for c in r]
                          for r in self.relations],
        }

    @classmethod
    def from_json_dict(cls, doc):
        try:
            generators = list(doc["generators"])
            relations = [[Fraction(str(c)) for c in r]
                         for r in doc["relations"]]
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise MalformedInput("not a quadratic-data document: %s: %s" % (
                type(exc).__name__, exc)) from exc
        return cls(generators, relations)

    def __repr__(self):
        return "QuadraticData(%d generators, %d relations)" % (
            self.n_generators, self.n_relations)


# preset name -> (algebra kind, generator labels in the order of its
# products)
_PRESETS = {
    "dias": ("dialgebra", ["l", "r"]),
    "dend": ("dendriform", ["l", "r"]),
    "as": ("associative", ["m"]),
}


def preset_quadratic(name: str) -> QuadraticData:
    """The three relation presets used throughout: two-product associative
    (dias: 5 relations), its dual pair of half-products (dend: 3), and the
    one-operation associative case (as: 1), read off finalg.RELATIONS."""
    if name not in _PRESETS:
        raise UnknownPreset("unknown preset %r" % (name,))
    kind, labels = _PRESETS[name]
    ops = PRODUCTS[kind]
    q = QuadraticData(labels, [])
    return QuadraticData(labels, [
        q.vector((c, s, ops.index(a), ops.index(b))
                 for c, s, a, b, _ in monomials)
        for monomials in RELATIONS[kind].values()])


def quadratic_dual(q: QuadraticData) -> QuadraticData:
    """Annihilator of the relation span under the signed diagonal pairing."""
    g = q.n_generators
    dim = q.ambient_dim
    sign = [Fraction(1)] * (g * g) + [Fraction(-1)] * (g * g)
    rows = [[r[j] * sign[j] for j in range(dim)] for r in q.relations]
    return QuadraticData(q.generators, nullspace(rows, dim))


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------

class Series:
    """Truncated power series sum a_k x^k, 1 <= k <= order, no constant term."""

    def __init__(self, coeffs, order):
        cs = list(coeffs)[:order]
        cs += [Fraction(0)] * (order - len(cs))
        self.coeffs = [Fraction(c) for c in cs]
        self.order = order

    def __getitem__(self, k):
        return self.coeffs[k - 1] if 1 <= k <= self.order else Fraction(0)

    def __eq__(self, other):
        return self.order == other.order and self.coeffs == other.coeffs

    def mul(self, other):
        out = [Fraction(0)] * self.order
        for i, a in enumerate(self.coeffs, start=1):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, start=1):
                if i + j > self.order:
                    break
                if b:
                    out[i + j - 1] += a * b
        return Series(out, self.order)

    def compose(self, inner):
        """self(inner(x)); both series have no constant term."""
        out = [Fraction(0)] * self.order
        cur = inner  # inner^k as k advances
        for k in range(1, self.order + 1):
            a = self[k]
            if a:
                for idx, c in enumerate(cur.coeffs):
                    out[idx] += a * c
            if k < self.order:
                cur = cur.mul(inner)
        return Series(out, self.order)

    @staticmethod
    def identity(order):
        return Series([Fraction(1)], order)


def dias_series(order) -> Series:
    return Series([Fraction((-1) ** n * n) for n in range(1, order + 1)],
                  order)


def dend_series(order) -> Series:
    return Series(
        [Fraction((-1) ** n * catalan(n)) for n in range(1, order + 1)],
        order)


def _sqrt_1_plus_4x_coeffs(order):
    """Coefficients of sqrt(1+4x) = sum_k C(1/2, k) 4^k x^k, k = 0..order."""
    out = [Fraction(1)]
    binom = Fraction(1)
    half = Fraction(1, 2)
    for k in range(1, order + 1):
        binom = binom * (half - (k - 1)) / k
        out.append(binom * 4 ** k)
    return out


def dias_series_closed_form(order) -> Series:
    """-x/(1+x)^2 expanded: 1/(1+x)^2 = sum (-1)^k (k+1) x^k."""
    return Series(
        [-Fraction((-1) ** k * (k + 1)) for k in range(order)], order)


def dend_series_closed_form(order) -> Series:
    """(-1 - 2x + sqrt(1+4x)) / (2x), expanded."""
    root = _sqrt_1_plus_4x_coeffs(order + 1)
    num = list(root)
    num[0] -= 1
    num[1] -= 2
    assert num[0] == 0
    return Series([num[k + 1] / 2 for k in range(1, order + 1)], order)


def poincare_check(order=10):
    """Both series, their closed forms, and the inverse-composition verdict."""
    if not 1 <= order <= 20:
        raise DegreeOutOfRange("series order must be between 1 and 20")
    gd = dias_series(order)
    ge = dend_series(order)
    composed = ge.compose(gd)
    verdict = composed == Series.identity(order)
    return {
        "dias": gd,
        "dend": ge,
        "dias_closed_form_ok": gd == dias_series_closed_form(order),
        "dend_closed_form_ok": ge == dend_series_closed_form(order),
        "inverse_ok": verdict,
    }


# ---------------------------------------------------------------------------
# multilinear dimensions
# ---------------------------------------------------------------------------

def multilinear_dim_dias(n) -> int:
    """Count pointed words on n distinct letters (each used once): n!
    orderings times n pointer positions."""
    return n * factorial(n)


def multilinear_dim_dend(n) -> int:
    """Count (tree, permutation word) pairs: Catalan(n) trees times n!
    orderings."""
    return catalan(n) * factorial(n)


# ---------------------------------------------------------------------------
# composition of tree operations
# ---------------------------------------------------------------------------

def dend_compose(outer: Tree, slot: int, inner: Tree) -> Lin:
    """Substitution of the inner tree operation into slot i of the outer one.

    Evaluated in the free dendriform algebra on distinct letters; the result
    is the Lin combination of trees carrying the (necessarily interleaved)
    word.
    """
    k = outer.degree
    if not 1 <= slot <= k:
        raise SlotOutOfRange("slot %d not in 1..%d" % (slot, k))
    m = inner.degree
    letters_out = ["u%d" % i for i in range(1, k + 1)]
    letters_in = ["v%d" % i for i in range(1, m + 1)]
    inner_value = eval_tree_monomial(inner, letters_in)
    args = []
    for i, l in enumerate(letters_out, start=1):
        args.append(inner_value if i == slot else l)
    value = eval_tree_monomial(outer, args)
    expected_word = tuple(
        letters_out[:slot - 1] + letters_in + letters_out[slot:])
    assert all(t.word == expected_word for t in value.data), \
        "composition scrambled the letters"
    return Lin((t.tree, c) for t, c in value.data.items())


def nested_candidates(outer: Tree, slot: int, inner: Tree, mirrored=False):
    """Trees containing `inner` nested at the slot with quotient `outer`.

    mirrored=True asks the same question of the left-right reflections (the
    slot reflects to degree(outer) - slot + 1).
    """
    k, m = outer.degree, inner.degree
    if not 1 <= slot <= k:
        raise SlotOutOfRange("slot %d not in 1..%d" % (slot, k))
    total = k + m - 1
    found = []
    if mirrored:
        outer_m, inner_m = mirror(outer), mirror(inner)
        leaf = (k - slot + 1) - 1
        for y in enumerate_trees(total):
            if (leaf, inner_m, outer_m) in nested_subtrees(mirror(y)):
                found.append(y)
    else:
        leaf = slot - 1
        for y in enumerate_trees(total):
            if (leaf, inner, outer) in nested_subtrees(y):
                found.append(y)
    return found


def compose_report(outer: Tree, slot: int, inner: Tree):
    """Compare the substitution value with the nested-sub-tree description."""
    value = dend_compose(outer, slot, inner)
    oracle = sorted(t.name for t in value.support())
    plain = sorted(t.name for t in nested_candidates(outer, slot, inner))
    flipped = sorted(
        t.name for t in nested_candidates(outer, slot, inner, mirrored=True))
    return {
        "value": value,
        "coefficients_all_one": all(c == 1 for _, c in value.items()),
        "printed_orientation_matches": plain == oracle,
        "mirrored_orientation_matches": flipped == oracle,
    }


# ---------------------------------------------------------------------------
# relations of homotopy two-product algebras
# ---------------------------------------------------------------------------

class SHRelation:
    """The relation attached to one tree y of degree n.

    One term per nested sub-tree (i, sub, quotient) of y:

        +/- m_quotient(a_1, .., a_i, m_sub(a_{i+1}, .., a_{i+k}), .., a_n)

    with the sign exponent (k+1)(i+1) + k(n + |a_1| + ... + |a_k|) kept
    symbolic in the argument degrees |a_j|.
    """

    def __init__(self, tree: Tree):
        self.tree = tree
        n = tree.degree
        self.terms = []
        for (i, sub, quotient) in nested_subtrees(tree):
            k = sub.degree
            expo = "(%d)*(%d) + %d*(%d + %s)" % (
                k + 1, i + 1, k, n,
                " + ".join("|a%d|" % j for j in range(1, k + 1)) or "0")
            self.terms.append({
                "quotient": quotient,
                "position": i,
                "sub": sub,
                "sign_exponent": expo,
                "sign_data": (k + 1, i + 1, k, n),
            })

    def instantiate_sign(self, term, degrees):
        """Numeric sign for given argument degrees |a_1|, ..., |a_n|."""
        kp1, ip1, k, n = term["sign_data"]
        expo = kp1 * ip1 + k * (n + sum(degrees[:k]))
        return -1 if expo % 2 else 1

    def term_multiset(self):
        return sorted(
            (t["quotient"].name, t["position"], t["sub"].name)
            for t in self.terms
        )

    def to_json_dict(self):
        from .trees import format_name
        return {
            "tree": format_name(self.tree),
            "terms": [
                {
                    "quotient": format_name(t["quotient"]),
                    "position": t["position"],
                    "sub": format_name(t["sub"]),
                    "sign_exponent": t["sign_exponent"],
                }
                for t in self.terms
            ],
        }


def sh_relations(n: int):
    """One relation per tree of degree n, 1 <= n <= 6."""
    if not 1 <= n <= 6:
        raise DegreeOutOfRange("relations are generated for degrees 1..6")
    return [(y, SHRelation(y)) for y in enumerate_trees(n)]
