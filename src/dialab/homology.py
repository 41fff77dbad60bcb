"""Chain complexes of the two-product algebras and their exact homology.

Five theories are supported.  In homological degree n the chains are

    CY     K[Y_n]   (x) D^(x)n     D a dialgebra
    CS     K[S_n]   (x) D^(x)n     D a dialgebra, level trees as index
    CDend  K[{1..n}](x) E^(x)n     E dendriform
    CL     g^(x)n                  g a Leibniz algebra
    CZinb  R^(x)n                  R a Zinbiel algebra

All five are one construction, ChainComplex:  K[X_n] (x) A^(x)n  with
d = sum over face pairs (i, j), i < j, of (-1)^j face_(i,j) (x) mu, where
face (i, j) puts mu(a_i, a_j) in slot i and deletes slot j, through the
product that the index assigns to that face.  CY, CS, CDend and CZinb use
the adjacent pairs (i, i+1), the faces of a simplicial structure; CL uses
every pair i < j, with the bracket.  CL and CZinb index by a single point.
The source is either FiniteAlgebra structure constants, stored as ints over
one common denominator, or a weight-homogeneous piece of a free algebra
(finite-dimensional because the differential preserves the total number of
generator letters); either way the differential, the d^2 check and the
ranks run on integers.

Betti numbers come from exact ranks over the rationals, taken in one
ascending sweep that leaves out the rows d o d = 0 already decides
(`ChainComplex.rank`).  The module also houses the contracting homotopy of
the free-dialgebra complex, the degeneracies supplied by a bar-unit, and the
comparison chain maps between the theories.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple

from . import freealg
from .errors import (
    CaseDispatchFailure,
    DegreeOutOfRange,
    IncompatibleAlgebras,
    IndexOutOfRange,
    UnsupportedTheoryForSource,
)
from .finalg import FiniteAlgebra
from .freealg import PointedWord, Word, apply_perm_to_tuple, \
    leibniz_to_dialgebra
from .lincomb import Lin, accumulate, image_pairs
from .linalg import Echelon
from .linalg import rank_of_columns  # noqa: F401  bench/tracing.py wraps it
from .trees import (
    LEFT,
    RIGHT,
    Permutation,
    all_permutations,
    bifurcate,
    ends_in_cherry,
    enumerate_trees,
    face,
    insert_parallel_leaf,
    perm_degeneracy,
    perm_face,
    perm_to_tree,
    product_symbol,
)

THEORIES = ("CY", "CS", "CDend", "CL", "CZinb")

_THEORY_KIND = {
    "CY": "dialgebra",
    "CS": "dialgebra",
    "CDend": "dendriform",
    "CL": "leibniz",
    "CZinb": "zinbiel",
}


class IndexSet(NamedTuple):
    """The index sets X_n of a chain complex and the faces of its degree n.

    `points(n)` lists X_n in basis order and `pairs(n)` the faces of degree
    n as pairs (i, j), i < j: the adjacent pairs (i, i+1) by default, every
    pair for the Leibniz complex.  `face(x, i)` is the face of x (an element
    of X_{n-1}) under the face whose pair starts at i, and `symbol(x, i)`
    names the product that face applies, one of `symbols`.  A bare index set
    is a single point and its terms are bare entry tuples.
    """

    points: Callable
    face: Callable
    symbol: Callable
    symbols: tuple
    bare: bool = False
    pairs: Callable = lambda n: [(i, i + 1) for i in range(1, n)]


def cdend_symbol(i, r):
    """Product used when face i hits the component r: star away from r, succ
    just below, prec at r."""
    if i == r - 1:
        return "succ"
    if i == r:
        return "prec"
    return "star"


def cdend_face_index(i, r):
    return r - 1 if i <= r - 1 else r


def _level_side(s, i):
    # the level tree of s is read in the height coding (root level 1), so
    # leaf i points left exactly when s(i) < s(i+1)
    return LEFT if s(i) < s(i + 1) else RIGHT


# the enumerators are looked up when called, so that a wrapper installed on
# this module's names sees every call
_INDEX_SETS = {
    "CY": IndexSet(lambda n: enumerate_trees(n), face, product_symbol,
                   (LEFT, RIGHT)),
    "CS": IndexSet(lambda n: all_permutations(n), perm_face, _level_side,
                   (LEFT, RIGHT)),
    "CDend": IndexSet(lambda n: range(1, n + 1),
                      lambda r, i: cdend_face_index(i, r),
                      lambda r, i: cdend_symbol(i, r),
                      ("prec", "succ", "star")),
    "CL": IndexSet(lambda n: (None,), lambda x, i: None,
                   lambda x, i: "bracket", ("bracket",), bare=True,
                   pairs=lambda n: [(i, j) for j in range(2, n + 1)
                                    for i in range(1, j)]),
    "CZinb": IndexSet(lambda n: (None,), lambda x, i: None,
                      lambda x, i: "dot" if i == 1 else "star",
                      ("dot", "star"), bare=True),
}


class ChainComplex:
    """The chain complex  K[X_n] (x) A^(x)n  over the rationals, with

        d (x; a_1..a_n) = sum_{(i, j)} (-1)^j
              (face_i x; a_1..mu_{sym(x,i)}(a_i, a_j)..a_n without a_j)

    summed over the face pairs (i, j) of degree n.  Degrees run 1..n_max and
    `terms[n]` is the ordered basis in degree n.  `index` is an IndexSet;
    `products[symbol]` sends the packed pair a * B + b of basis ids of A to
    the pairs (c, coefficient) of  D * mu(a, b).  On the adjacent pairs
    (i, i+1) the sign is (-1)^(i+1), and the differential is the alternating
    sum of the faces: this is CY, CS, CDend and CZinb.  CL runs over every
    pair i < j with the bracket.

    Every term is keyed by one int, its code, which is its position in
    terms[n].  E_n is the ordered list of entry tuples of degree n, and the
    terms are ordered by x and then by E_n, so (x; e) has the code
    pos(x) * |E_n| + pos(e),  where pos(x) is the position of x in X_n (0
    for the bare CL and CZinb terms).  A face works on the packed entry code
    sum_k a_k * B^(n-k), with B = `radix` ids of A and a_k the id of entry
    k: divmod cuts it into head, a_i, middle, a_j and tail, and the product
    of a_i and a_j gives the packed code of the merged entries.  The source
    hands over `packing`, a mapping from each degree n to the pair
    (packed, position): packed[k] is the packed code of the k-th entry tuple
    and position[p] the position of the packed code p.  A finite source
    numbers its basis 0..dim-1, B = dim, and lists the entry tuples in
    `itertools.product` order, so both are the list 0..dim^n - 1 (a list,
    not a range: indexing it hands back a stored int, which keeps the d^2
    check as fast as plain codes); a free piece (FreePiece) lists its
    ascending packed codes and a {packed: position} dict, computed when a
    degree is first used.  So `_key` is two position lookups and a code
    decodes by indexing terms[n]; only `diff`, `diff_lin`, `face` and
    `verify_d_squared`'s message ever meet the term objects, while the faces,
    the d^2 check and the assembly of columns run on codes.  A term outside
    the basis raises IndexOutOfRange.  The first differential asked of
    degree n gives X_n integer tables: per point x and face pair (i, j), the
    code offset pos(face_i x) * |E_{n-1}|, the powers of B that cut a packed
    code into head, a_i, middle, a_j and tail, the product and the sign.

    Finite structure constants are stored as integer numerators over one
    common denominator D (`scale`), the lcm of all their denominators; free
    products are integral, with D = 1.  Every face applies exactly one
    product, so the stored differential is exactly D * d.  Hence
    (D d)^2 = D^2 d^2 vanishes exactly when d^2 does and rank(D d) = rank d:
    the d^2 check and `rank` run in integers on the sparse columns of D * d,
    which the rank sweep assembles once per degree and drops, and stay
    exact for rational structure constants, not only integral ones.
    `diff`, `diff_lin`, `face` and `matrix` divide by D.
    """

    def __init__(self, theory, terms, index, products, radix, packing,
                 scale=1, label=""):
        self.theory = theory
        self.terms = {n: tuple(ts) for n, ts in terms.items()}
        self.label = label
        self.scale = scale
        self.radix = radix
        self._ix = index
        self._products = products
        self._packing = packing
        self._points = {}
        self._faces = {}
        self._encoders = {}
        self._columns_cache = {}
        self._matrix_cache = {}
        self._rank_cache = {}
        self._sweep = 1, frozenset()

    @property
    def n_max(self):
        return max(self.terms) if self.terms else 0

    def dim(self, n):
        return len(self.terms.get(n, ()))

    def _points_of(self, n):
        """X_n and the position of each of its points."""
        X = self._points.get(n)
        if X is None:
            pts = tuple(self._ix.points(n))
            X = self._points[n] = pts, {x: j for j, x in enumerate(pts)}
        return X

    def _require(self, n):
        if n not in self.terms:
            raise IndexOutOfRange("degree %d not in 1..%d" % (n, self.n_max))

    def _encoder(self, n):
        """The positions of X_n and of E_n, and |E_n|; E_n is read off the
        first |E_n| terms, those of the first point."""
        enc = self._encoders.get(n)
        if enc is None:
            self._require(n)
            size = len(self._packing[n][0])
            first = self.terms[n][:size]
            enc = self._encoders[n] = self._points_of(n)[1], {
                e if self._ix.bare else e[1]: k
                for k, e in enumerate(first)}, size
        return enc

    def _key(self, n, term):
        """The code of a degree-n basis term, its position in terms[n]."""
        pos, entries, size = self._encoder(n)
        try:
            x, e = (None, term) if self._ix.bare else term
            return pos[x] * size + entries[e]
        except (KeyError, TypeError, ValueError):
            raise IndexOutOfRange("%r is not a basis term of degree %d"
                                  % (term, n)) from None

    def _term(self, n, code):
        """The degree-n term of a code."""
        return self.terms[n][code]

    def _lin(self, n, image):
        """The Lin over degree-n terms of an encoded image of D * d."""
        if not image:
            return Lin()
        scale, terms = self.scale, self.terms[n]
        return Lin.wrap({
            terms[k]: c if scale == 1 else Fraction(c, scale)
            for k, c in image.items()})

    def _face_table(self, n):
        """|E_n|, the packed codes of E_n, per point x of X_n the row
        (pos(face_i x) * |E_{n-1}|, B^(n-j), B^(j-i+1), B^(n-i), B^(n-1-i),
        split, product, sign) of each face pair (i, j) of degree n, in the
        order of `pairs(n)`, and the positions of the packed codes of
        E_{n-1}; split is B^(j-i) for a pair with a middle, 0 for an
        adjacent one."""
        table = self._faces.get(n)
        if table is None:
            self._require(n)
            ix, products, B = self._ix, self._products, self.radix
            packed = self._packing[n][0]
            below, where = self._packing[n - 1] if n > 1 else ((), None)
            pos = self._points_of(n - 1)[1] if n > 1 else {}
            pairs = ix.pairs(n)
            table = self._faces[n] = len(packed), packed, [
                tuple((pos[ix.face(x, i)] * len(below), B ** (n - j),
                       B ** (j - i + 1), B ** (n - i), B ** (n - 1 - i),
                       B ** (j - i) if j > i + 1 else 0,
                       products[ix.symbol(x, i)], -1 if j % 2 else 1)
                      for i, j in pairs)
                for x in self._points_of(n)[0]], where
        return table

    def _idiff(self, n, code):
        """D * d of one encoded term, as a {code: coefficient} dict."""
        size, packed, rows, where = self._face_table(n)
        x, e = divmod(code, size)
        return accumulate({}, _apply_faces(packed[e], rows[x], self.radix,
                                           where))

    def face(self, n, term, i):
        """The face (i, i+1) of one degree-n basis term, as a Lin over
        degree n-1 terms (without the sign of d)."""
        if not 1 <= i < n:
            raise IndexOutOfRange("face %d not in 1..%d" % (i, n - 1))
        code = self._key(n, term)
        size, packed, rows, where = self._face_table(n)
        x, e = divmod(code, size)
        row = rows[x][self._ix.pairs(n).index((i, i + 1))]
        return self._lin(n - 1, accumulate({}, _apply_faces(
            packed[e], [row[:-1] + (1,)], self.radix, where)))

    def diff(self, n, term):
        return self._lin(n - 1, self._idiff(n, self._key(n, term)))

    def diff_lin(self, n, x: Lin) -> Lin:
        """d of a Lin over degree-n terms, summed in one pass; the zero Lin
        goes to zero without the face table of degree n."""
        if not x.data:
            return Lin()
        size, packed, rows, where = self._face_table(n)
        radix, acc = self.radix, {}
        for t, c in x.data.items():
            p, e = divmod(self._key(n, t), size)
            accumulate(acc, _apply_faces(packed[e], rows[p], radix, where), c)
        return self._lin(n - 1, acc)

    def matrix(self, n):
        """Sparse columns of d_n : C_n -> C_{n-1}, assembled once and kept."""
        cols = self._columns_cache.get(n)
        if cols is None:
            cols = self._columns_cache[n] = list(self._assembled(n))
        scale = self.scale
        if scale == 1:
            return cols
        mat = self._matrix_cache.get(n)
        if mat is None:
            mat = self._matrix_cache[n] = [
                {i: Fraction(c, scale) for i, c in col.items()}
                for col in cols]
        return mat

    def _assembled(self, n):
        """The sparse columns of D * d_n in basis order: the list `matrix`
        keeps, or else each column as it is computed.  A code is the row
        number already."""
        cols = self._columns_cache.get(n)
        if cols is not None:
            return cols
        return (self._idiff(n, code) for code in range(self.dim(n)))

    def verify_d_squared(self):
        """Check d o d = 0 exactly on every basis term; (D * d)^2 is
        checked, which vanishes exactly when d^2 does."""
        for n in sorted(self.terms):
            if n < 2 or (n - 1) not in self.terms:
                continue
            memo = {}
            for code in range(self.dim(n)):
                acc = {}
                for u, c in self._idiff(n, code).items():
                    du = memo.get(u)
                    if du is None:
                        du = memo[u] = self._idiff(n - 1, u)
                    accumulate(acc, du.items(), c)
                if acc:
                    raise AssertionError("d^2 != 0 at degree %d on %r"
                                         % (n, self._term(n, code)))
        return True

    def rank(self, n):
        """rank d_n, exactly, from one ascending sweep with clearing.

        Eliminate the rows of d_m, as vectors over C_m, and let Q_m be the
        leading indices (the least index of each echelon row).  A row
        combination y d_m led by q in Q_m has  y d_m d_{m+1} = 0  when
        d o d = 0, so row q of d_{m+1} is a combination of the rows of
        d_{m+1} with a larger index; by descending induction on q, the rows
        outside Q_m span the row space of d_{m+1}.  Hence rank d_{m+1} is
        the rank of those rows alone, and in an acyclic degree no row is
        reduced to zero.  The lemma holds over Q, so also for the integer
        D * d.  The sweep ranks every uncached degree 2..n in order,
        starting from Q_1 = {} (d_1 = 0); it keeps each rank and only the
        last Q_m, and it drops each transposed d_m once ranked, so only
        `matrix` keeps columns.

        The precondition d o d = 0 holds for the free pieces and for every
        axiom-checked finite source (`verify_d_squared` certifies it); a
        table built with check=False that is no algebra of its kind gets no
        guarantee.
        """
        if n not in self.terms or n <= 1:
            return 0
        m, cleared = self._sweep
        while n not in self._rank_cache:
            m += 1
            rows = defaultdict(dict)
            for j, col in enumerate(self._assembled(m)):
                for i, c in col.items():
                    if i not in cleared:
                        rows[i][j] = c
            ech = Echelon(rows.pop(i) for i in sorted(rows))
            self._rank_cache[m] = ech.rank
            cleared = frozenset(ech.leads)
        self._sweep = m, cleared
        return self._rank_cache[n]

    def betti(self, n):
        """dim H_n = dim C_n - rank d_n - rank d_{n+1}; requires degree n+1
        to be part of the complex (or n to be the top degree of a complex
        that is zero above).  The ranks come from the sweep of `rank`, so
        the number is exact when d o d = 0, the precondition stated
        there."""
        if n not in self.terms:
            return 0
        return self.dim(n) - self.rank(n) - self.rank(n + 1)

    def betti_table(self, up_to):
        return {n: self.betti(n) for n in range(1, up_to + 1)}


def _apply_faces(e, rows, radix, where):
    """The (code, coefficient) pairs of sign * (face position; e with
    mu(e_i, e_j) in slot i and slot j deleted) over the face rows of
    `_face_table`, on the packed entry code e.  The face (i, j) cuts e into
    head, a_i, middle, a_j and tail (the middle is empty for an adjacent
    pair) and gives, per product output c, the packed code
    head * B^(n-i) + c * B^(n-1-i) + middle * B^(n-j) + tail, whose
    position `where` gives, after the code offset of the face point."""
    for offset, tail_w, block_w, head_w, c_w, split, mul, sign in rows:
        hi, tail = divmod(e, tail_w)
        head, ab = divmod(hi, block_w)
        base = head * head_w + tail
        if split:
            a, rest = divmod(ab, split)
            middle, b = divmod(rest, radix)
            ab = a * radix + b
            base += middle * tail_w
        for c, k in mul(ab):
            yield offset + where[base + c * c_w], sign * k


# ---------------------------------------------------------------------------
# finite sources
# ---------------------------------------------------------------------------

def _tuples(dim, n):
    return itertools.product(range(dim), repeat=n)


def _product_vector(alg, symbol, a, b):
    """Dense product of basis elements a, b for a face symbol: a product of
    `alg`, or star, the sum of the two half-products (dendriform) or the
    symmetrized product (Zinbiel)."""
    if symbol != "star":
        return alg.mul_basis(symbol, a, b)
    if alg.kind == "zinbiel":
        u, v = alg.mul_basis("dot", a, b), alg.mul_basis("dot", b, a)
    else:
        u, v = alg.mul_basis("prec", a, b), alg.mul_basis("succ", a, b)
    return tuple(x + y for x, y in zip(u, v))


def _finite(theory, alg, n_max):
    index = _INDEX_SETS[theory]
    # the product of (a, b) sits at a * dim + b, the packed pair
    pairs = list(itertools.product(range(alg.dim), repeat=2))
    vectors = {sym: [_product_vector(alg, sym, *ab) for ab in pairs]
               for sym in index.symbols}
    scale = lcm(*(c.denominator for vecs in vectors.values()
                  for vec in vecs for c in vec))
    products = {
        sym: tuple(tuple((b, c.numerator * (scale // c.denominator))
                         for b, c in enumerate(vec) if c)
                   for vec in vecs).__getitem__
        for sym, vecs in vectors.items()
    }
    terms = {
        n: list(_tuples(alg.dim, n)) if index.bare else
        [(x, e) for x in index.points(n) for e in _tuples(alg.dim, n)]
        for n in range(1, n_max + 1)
    }
    packing = {n: (list(range(alg.dim ** n)),) * 2 for n in terms}
    return ChainComplex(theory, terms, index, products, alg.dim, packing,
                        scale, label="%s(%s)" % (theory, alg.name))


def build_complex(theory, source, n_max, weight=None):
    """Chain complex of a finite or free algebra.

    For a FiniteAlgebra source every theory matching the algebra kind is
    available.  For free sources pass source=("free", dim_v) together with
    `weight`; this builds the single weight-homogeneous piece (supported for
    CY and CDend, where the vanishing theorems live).
    """
    if isinstance(source, FiniteAlgebra):
        want = _THEORY_KIND.get(theory)
        if want is None:
            raise UnsupportedTheoryForSource("unknown theory %r" % (theory,))
        if source.kind != want:
            raise UnsupportedTheoryForSource(
                "%s needs a %s source, got %s" % (theory, want, source.kind))
        return _finite(theory, source, n_max)
    if isinstance(source, tuple) and source and source[0] == "free":
        if weight is None:
            raise UnsupportedTheoryForSource(
                "free sources need an explicit weight")
        dim_v = source[1]
        if theory == "CY":
            return build_cy_free(dim_v, weight)
        if theory == "CDend":
            return build_cdend_free(dim_v, weight)
        raise UnsupportedTheoryForSource(
            "free pieces are supported for CY and CDend only")
    raise UnsupportedTheoryForSource("unusable source %r" % (source,))


# ---------------------------------------------------------------------------
# weight-homogeneous pieces of free algebras
# ---------------------------------------------------------------------------

def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class _WordProducts(dict):
    """One product of a free algebra on word ids: the packed pair
    id a * len(words) + id b -> ((id c, coefficient), ...), each entry
    computed from the word objects on first use."""

    def __init__(self, product, op, words, ids):
        super().__init__()
        self._product, self._op = product, op
        self._words, self._ids = words, ids

    def __missing__(self, ab):
        a, b = divmod(ab, len(self._words))
        pairs = self[ab] = tuple(
            (self._ids[c], k) for c, k in image_pairs(self._product(
                self._words[a], self._words[b], self._op)))
        return pairs


def _id_tuples(by_length, weight, n):
    """The word-id tuples of the entry tuples of degree n of the weight
    piece, in basis order; by_length[l] is the range of the ids of the words
    of length l."""
    return sorted(combo for comp in _compositions(weight, n)
                  for combo in itertools.product(
                      *(by_length[l] for l in comp)))


class _Packing(dict):
    """The packing of a free piece: degree n -> (the ascending packed codes
    of E_n, {packed code: position}), each degree computed on first use."""

    def __init__(self, by_length, weight, radix):
        super().__init__()
        self._by_length, self._weight, self._radix = by_length, weight, radix

    def __missing__(self, n):
        powers = [self._radix ** (n - k) for k in range(1, n + 1)]
        packed = [sum(map(operator.mul, c, powers))
                  for c in _id_tuples(self._by_length, self._weight, n)]
        pair = self[n] = packed, dict(zip(packed, range(len(packed))))
        return pair


class FreePiece(ChainComplex):
    """The weight-w piece of the chain complex of the free algebra on
    dim_v generators, freealg.FREE of the theory's algebra kind (free
    dialgebra for CY, free dendriform algebra for CDend): terms
    (x; w_1..w_n) with x in X_n and words w_i whose lengths sum to w,
    ordered by x and then by the words.

    The words of lengths 1..w are numbered once, in their sort order, so
    B = len(words) and the entry tuple (w_1..w_n) has the packed code
    sum_k (id w_k) * B^(n-k).  Packed codes sort as the entry tuples do but
    are sparse, since most id tuples are not words of total length w; the
    piece hands the kernel the ascending packed codes of each degree and a
    {packed: position} dict (`_Packing`, built on the first use of the
    degree, so a degree that is only listed costs nothing more), and a
    term's code is its position in terms[n] as for every ChainComplex.
    Each product of the free algebra becomes an int table
    (id a) * B + (id b) -> ((id c, coefficient), ...) that fills on first
    use.

    Ranks go through the multilinear piece.  A face merges two neighbouring
    words by a product that concatenates their letters and never reorders
    them, so the letter sequence of w_1..w_n, read left to right, is the
    same on every term of d(x; w_1..w_n).  The piece is thus the direct sum,
    over the dim_v^w letter sequences, of the subcomplexes spanned by the
    terms with that sequence, and each of them is the dim_v = 1 piece with
    its single letter renamed letter by letter.  Hence
    rank d_n = dim_v^w * rank d_n(dim_v = 1); the dim_v = 1 piece is built
    on the first `rank` call.  `terms`, `diff` and `matrix` still describe
    the full piece.
    """

    def __init__(self, theory, dim_v, weight):
        if dim_v < 1 or weight < 1:
            raise DegreeOutOfRange(
                "free pieces need dim_v >= 1 and weight >= 1, got dim_v=%d, "
                "weight=%d" % (dim_v, weight))
        kind = _THEORY_KIND[theory]
        carrier = freealg.FREE[kind]
        letters = ["x%d" % (i + 1) for i in range(dim_v)]
        # the sort key of a word starts with its length, so the ids of each
        # length form a range
        words, by_length = [], [()]
        for l in range(1, weight + 1):
            block = sorted(carrier.basis(letters, l),
                           key=lambda w: w.sort_key())
            by_length.append(range(len(words), len(words) + len(block)))
            words += block
        index, B = _INDEX_SETS[theory], len(words)
        terms = {}
        for n in range(1, weight + 1):
            entries = [tuple(map(words.__getitem__, c))
                       for c in _id_tuples(by_length, weight, n)]
            terms[n] = [(x, e) for x in index.points(n) for e in entries]
        super().__init__(theory, terms, index, {}, B,
                         _Packing(by_length, weight, B),
                         label="%s(free %s dim V=%d), weight %d"
                               % (theory, kind, dim_v, weight))
        ids = {w: i for i, w in enumerate(words)}
        for sym in index.symbols:
            self._products[sym] = _WordProducts(
                carrier.product, sym, words, ids).__getitem__
        self.dim_v = dim_v
        self.weight = weight
        self._multilinear = None

    def rank(self, n):
        if self.dim_v == 1:
            return super().rank(n)
        if self._multilinear is None:
            self._multilinear = FreePiece(self.theory, 1, self.weight)
        return self.dim_v ** self.weight * self._multilinear.rank(n)


def build_cy_free(dim_v, weight) -> ChainComplex:
    """Weight-homogeneous piece of the free-dialgebra complex."""
    return FreePiece("CY", dim_v, weight)


def build_cdend_free(dim_v, weight) -> ChainComplex:
    """Weight-homogeneous piece of the free-dendriform complex."""
    return FreePiece("CDend", dim_v, weight)


# ---------------------------------------------------------------------------
# bicomplex splits
# ---------------------------------------------------------------------------

def cy_bidegree(term):
    y = term[0]
    return (y.left.degree, y.right.degree)


def cy_split_diff(cx: ChainComplex, n, term):
    """(horizontal, vertical) parts of the CY differential on one term.

    A face either lowers the left-of-root degree (horizontal) or the
    right-of-root degree (vertical); the two parts square to zero and
    anticommute.
    """
    p, q = cy_bidegree(term)

    def part(t):
        bpq = cy_bidegree(t)
        if bpq == (p - 1, q):
            return 0
        if bpq == (p, q - 1):
            return 1
        raise AssertionError("face escaped the bicomplex at %r" % (t,))

    return _split(cx.diff(n, term), part)


def cdend_split_diff(cx: ChainComplex, n, term):
    """(horizontal, vertical) parts for CDend: faces below the component
    index lower it (horizontal), the others keep it (vertical)."""
    r = term[0]

    def part(t):
        if t[0] == r - 1 and r > 1:
            return 0
        if t[0] == r:
            return 1
        raise AssertionError("face escaped the bicomplex at %r" % (t,))

    return _split(cx.diff(n, term), part)


def _split(total: Lin, part):
    """(horizontal, vertical) Lins of `total`, term t going to part(t)."""
    halves = ({}, {})
    for t, c in total.data.items():
        halves[part(t)][t] = c
    return Lin.wrap(halves[0]), Lin.wrap(halves[1])


# ---------------------------------------------------------------------------
# bar-unit degeneracies on CY
# ---------------------------------------------------------------------------

def cy_degeneracy(term, i, unit_vec):
    """s_i: bifurcate leaf i and insert the bar-unit after entry i."""
    y, entries = term
    sy = bifurcate(y, i)
    return Lin({(sy, entries[:i] + (b,) + entries[i:]): c
                for b, c in enumerate(unit_vec) if c})


# ---------------------------------------------------------------------------
# contracting homotopy of the free-dialgebra complex
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _trees_named(n):
    """{name: tree} over the trees of degree n, the objects enumerate_trees
    lists, so that later lookups meet them by identity."""
    return {y.name: y for y in enumerate_trees(n)}


@functools.lru_cache(maxsize=None)
def _tree_moves(y):
    """The trees the homotopy can send a degree-n tree y to, and whether it
    ends in a cherry: (s_n y, p_n y, s_{n-1} y, p_{n-1} y, cherry), with
    p_{n-1} y = None for n = 1."""
    n = y.degree
    named = _trees_named(n + 1)
    return (named[bifurcate(y, n).name],
            named[insert_parallel_leaf(y, n).name],
            named[bifurcate(y, n - 1).name],
            named[insert_parallel_leaf(y, n - 1).name] if n > 1 else None,
            ends_in_cherry(y))


def _peel(word):
    """(word minus its last letter u, repointed to its new last letter when
    the mark sat on u, or None for a single letter; u^; whether the mark
    sat on u)."""
    letters = word.letters
    last = len(letters) - 1
    if not last:  # a single letter is u^ itself
        return None, word, True
    on_last = word.pointer == last
    return (PointedWord(letters[:-1], last - 1 if on_last else word.pointer),
            PointedWord(letters[-1:], 0), on_last)


def _homotopy_pairs(x: Lin):
    """The (term, coefficient) pairs of h on the terms of x, read off the
    tree table `_tree_moves` and the word peel `_peel`."""
    for term, c in x.data.items():
        y, entries = term
        n = y.degree
        if n % 2 == 0:
            c = -c
        s_n, p_n, s_prev, p_prev, cherry = _tree_moves(y)
        rest, u, on_last = _peel(entries[-1])
        if rest is not None:  # (a), (b)
            yield (p_n if on_last else s_n, entries[:-1] + (rest, u)), c
            continue
        if cherry:  # (c)
            continue
        if n < 2:
            raise CaseDispatchFailure("degree-1 term with a single letter "
                                      "and no cherry: %r" % (term,))
        rest, v, on_last = _peel(entries[-2])
        if rest is None:  # (f)
            continue
        # (d), (e); the last entry is u^ itself
        rest = entries[:-2] + (rest, v, entries[-1])
        yield (p_n, rest), c
        yield (p_prev if on_last else s_prev, rest), -c


def homotopy_free_dialgebra(term_or_lin) -> Lin:
    """Contracting homotopy h_n : CY_n -> CY_{n+1} of the free complex.

    Dispatch on the last entries of x = (y; w_1..w_n):

    (a) |w_n| >= 2, mark not on its last letter u:
            (s_n(y); ..., w_n - u, u^)
    (b) |w_n| >= 2, mark on u:
            (p_n(y); ..., (w_n - u)^last, u^)
    (c) w_n = u^ and y ends in a cherry:                       0
    (d) w_n = u^, y ends parallel, |w_{n-1}| >= 2, mark of w_{n-1} not on
        its last letter v:
            (p_n(y) - s_{n-1}(y); ..., w_{n-1} - v, v^, u^)
    (e) as (d) but mark on v:
            (p_n(y) - p_{n-1}(y); ..., (w_{n-1} - v)^last, v^, u^)
    (f) w_n = u^, y ends parallel, |w_{n-1}| = 1:              0

    Here s_j bifurcates leaf j and p_j adds a parallel leaf left of leaf j.
    The overall sign (-1)^(n+1) makes  d h + h d = id  hold in every degree
    n >= 2 of every weight piece through weight 4, for one, two and three
    generators (checked exactly by the test suite).  The dispatch reads the
    trees of y from a table per tree and peels the last letters off the
    words, and it sums the images of a Lin in one pass.

    Validity boundary: the dispatch peels at most one letter away from the
    last two entries, so on terms with two or more trailing bare pointed
    letters whose tree ends parallel but with the second-to-last leaf
    attached below the top of the right seam (first reachable at weight 5,
    e.g. ([3,1,2,4]; x^, x^ x, x^, x^)) the identity needs longer
    corrections than any two-tree case can provide.  On one generator the
    identity fails on 2 basis terms at weight 5 and 20 at weight 6, on two
    generators on 64 at weight 5; `betti` certifies the vanishing exactly at
    those weights instead.
    """
    if not isinstance(term_or_lin, Lin):
        term_or_lin = Lin.term(term_or_lin)
    return Lin.wrap(accumulate({}, _homotopy_pairs(term_or_lin)))


def contraction_by_elimination(cx: ChainComplex, n_top=None):
    """Exact contracting homotopy of an acyclic based complex, by solving.

    Returns h as {n: {term: Lin over degree n+1 terms}} with
    d h + h d = id in degrees 2..n_top, built degree by degree: given
    h_{n-1}, the residual g = id - h_{n-1} d lies in the image of d_{n+1}
    (this is exactness), and h_n(term) is the preimage of g(term) whose
    free coordinates are zero, read off a FactoredSolver built once per
    degree on the cached sparse columns of d_{n+1}.  Works at any weight,
    unlike the combinatorial five-case operator whose validity boundary is
    documented above; the price is that the values are basis-dependent.
    """
    from .linalg import FactoredSolver

    n_top = n_top or cx.n_max
    h = {n: {} for n in range(1, n_top + 1)}

    for n in range(1, n_top + 1):
        cols = cx.terms.get(n + 1, ())
        solver = FactoredSolver(cx.matrix(n + 1), cx.dim(n))
        for term in cx.terms[n]:
            g = Lin.term(term)
            if n >= 2:
                g = g - cx.diff(n, term).map_terms(h[n - 1].get)
            x = solver.solve({cx._key(n, u): c for u, c in g.data.items()})
            if x is None:
                raise AssertionError("complex is not exact at degree %d" % n)
            h[n][term] = Lin({cols[j]: c for j, c in x.items()})
    return h


# ---------------------------------------------------------------------------
# comparison chain maps
# ---------------------------------------------------------------------------

def epsilon_map(n, entries) -> Lin:
    """Antisymmetrization CL_n -> CS_n:
    sum over sigma of sgn(sigma) (sigma ; sigma^{-1}-permuted entries)."""
    return Lin(((s, apply_perm_to_tuple(s.inverse(), entries)), s.sign())
               for s in all_permutations(n))


def psi_chain_map(term) -> Lin:
    """Forget levels: CS -> CY on one term.

    CS carries its levels in the height coding, so forgetting them is the
    height surjection onto trees; this is what makes the map commute with
    the differentials.
    """
    s, entries = term
    return Lin.term((perm_to_tree(s, "height"), entries))


def theta_coefficients(n, r):
    """The signed permutations of the comparison map CDend -> CZinb.

    Returned as a list of (Permutation, sign); the map sends the component
    r tensor (x_1..x_n) to the signed sum of the permuted tuples.  Extracted
    from the free-Leibniz-to-free-dialgebra map: a summand with its mark at
    position r and letter arrangement alpha contributes sgn(alpha) times its
    own coefficient, acting by the inverse arrangement.
    """
    if not 1 <= r <= n:
        raise IndexOutOfRange("component %d not in 1..%d" % (r, n))
    image = leibniz_to_dialgebra(Word(["%d" % i for i in range(1, n + 1)]))
    out = []
    for pw, c in image.items():
        if pw.pointer != r - 1:
            continue
        alpha = Permutation([int(l) for l in pw.letters])
        out.append((alpha, alpha.sign() * c))
    out.sort(key=lambda sc: sc[0].sort_key())
    return out


def theta_map(term) -> Lin:
    """CDend_n -> CZinb_n on one finite-source term (r, entries)."""
    r, entries = term
    return Lin((apply_perm_to_tuple(s, entries), c)
               for s, c in theta_coefficients(len(entries), r))


def chain_map(kind, term_or_lin):
    """epsilon / psi / theta on a term or a Lin of terms."""
    if isinstance(term_or_lin, Lin):
        return term_or_lin.map_terms(lambda t: chain_map(kind, t))
    if kind == "epsilon":
        return epsilon_map(len(term_or_lin), term_or_lin)
    if kind == "psi":
        return psi_chain_map(term_or_lin)
    if kind == "theta":
        return theta_map(term_or_lin)
    raise IncompatibleAlgebras("unknown chain map %r" % (kind,))


# ---------------------------------------------------------------------------
# the ad(y) operator and its homotopy on CS
# ---------------------------------------------------------------------------

def ad_operator(alg, y_vec, term) -> Lin:
    """ad(y) on a CS term: sum over slots of x_i -| y - y |- x_i."""
    s, entries = term

    def ad(e):
        x = alg.unit_vector(e)
        return zip(alg.mul("left", x, y_vec), alg.mul("right", y_vec, x))

    return Lin(((s, entries[:i] + (b,) + entries[i + 1:]), xy - yx)
               for i, e in enumerate(entries)
               for b, (xy, yx) in enumerate(ad(e)))


def ad_homotopy(alg, y_vec, term) -> Lin:
    """h(y) on a CS term: insert y in every slot with alternating signs and
    the matching degeneracy of the level tree."""
    s, entries = term
    slots = [(i, perm_degeneracy(s, i), (-1) ** i)
             for i in range(len(entries) + 1)]
    return Lin(((ds, entries[:i] + (b,) + entries[i:]), sign * c)
               for i, ds, sign in slots for b, c in enumerate(y_vec))
