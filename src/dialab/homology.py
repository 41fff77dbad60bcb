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

Betti numbers come from exact ranks over the rationals.  The module also
houses the contracting homotopy of the free-dialgebra complex, the
degeneracies supplied by a bar-unit, and the comparison chain maps between
the theories.
"""

from __future__ import annotations

import itertools
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
from .linalg import rank_of_columns
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

    Every term is keyed by one int, its code: with B = `radix` ids of A,
    (x; a_1..a_n) has the code  pos(x) * B^n + sum_k a_k * B^(n-k),  where
    pos(x) is the position of x in X_n (0 for the bare CL and CZinb terms)
    and a_k the id of entry k.  A finite source numbers its basis 0..dim-1,
    B = dim, and its terms are ordered by x and then in `itertools.product`
    order, so the code of a term *is* its position in terms[n].  A free
    piece numbers its words and passes them as `words`, the decode list,
    with B = len(words); its codes are sparse and rows are found through a
    {code: position} map.  `_key` encodes a term and `_term` decodes a code,
    so only `diff`, `diff_lin`, `face` and `verify_d_squared`'s message
    ever meet the term objects; the faces, the d^2 check and the assembly
    of columns run on codes.  The first differential asked of degree n
    gives X_n integer tables: per point x and face pair (i, j), the code
    offset of face_i x, the powers of B that cut a code into head, a_i,
    middle, a_j and tail, the product and the sign.

    Finite structure constants are stored as integer numerators over one
    common denominator D (`scale`), the lcm of all their denominators; free
    products are integral, with D = 1.  Every face applies exactly one
    product, so the stored differential is exactly D * d.  Hence
    (D d)^2 = D^2 d^2 vanishes exactly when d^2 does and rank(D d) = rank d:
    the d^2 check and `rank` run in integers on the sparse columns of D * d,
    assembled once per degree, and stay exact for rational structure
    constants, not only integral ones.  `diff`, `diff_lin`, `face` and
    `matrix` divide by D.
    """

    def __init__(self, theory, terms, index, products, radix, scale=1,
                 label="", words=None):
        self.theory = theory
        self.terms = {n: tuple(ts) for n, ts in terms.items()}
        self.label = label
        self.scale = scale
        self.radix = radix
        self._ix = index
        self._products = products
        self._words = words
        self._word_ids = (None if words is None else
                          {w: i for i, w in enumerate(words)})
        self._points = {}
        self._faces = {}
        self._last_codes = None, None
        self._columns_cache = {}
        self._matrix_cache = {}
        self._rank_cache = {}

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

    def _key(self, n, term):
        """The code of a degree-n term."""
        if self._ix.bare:
            code, entries = 0, term
        else:
            x, entries = term
            code = self._points_of(n)[1][x]
        if self._word_ids is not None:
            entries = map(self._word_ids.__getitem__, entries)
        radix = self.radix
        for a in entries:
            code = code * radix + a
        return code

    def _term(self, n, code):
        """The degree-n term of a code."""
        if self._words is None:
            return self.terms[n][code]
        radix, words = self.radix, self._words
        entries = [None] * n
        for k in range(n - 1, -1, -1):
            code, a = divmod(code, radix)
            entries[k] = words[a]
        entries = tuple(entries)
        return entries if self._ix.bare else (self._points_of(n)[0][code],
                                              entries)

    def _codes(self, n):
        """The codes of terms[n], in basis order.  Degree n is the columns
        of d_n and the rows of d_{n+1}; keeping the last degree asked lets an
        ascending sweep encode each basis once without holding them all."""
        if self._words is None:
            return range(self.dim(n))
        if self._last_codes[0] != n:
            self._last_codes = n, [self._key(n, t)
                                   for t in self.terms.get(n, ())]
        return self._last_codes[1]

    def _lin(self, n, image):
        """The Lin over degree-n terms of an encoded image of D * d."""
        scale = self.scale
        return Lin.wrap({
            self._term(n, k): c if scale == 1 else Fraction(c, scale)
            for k, c in image.items()})

    def _face_table(self, n):
        """B^n and, per point x of X_n, the row (code offset of face_i x,
        B^(n-j), B^(j-i+1), B^(n-i), B^(n-1-i), split, product, sign) of
        each face pair (i, j) of degree n, in the order of `pairs(n)`;
        split is B^(j-i) for a pair with a middle, 0 for an adjacent one."""
        table = self._faces.get(n)
        if table is None:
            ix, products, B = self._ix, self._products, self.radix
            pos = self._points_of(n - 1)[1] if n > 1 else {}
            pairs = ix.pairs(n)
            table = self._faces[n] = B ** n, [
                tuple((pos[ix.face(x, i)] * B ** (n - 1), B ** (n - j),
                       B ** (j - i + 1), B ** (n - i), B ** (n - 1 - i),
                       B ** (j - i) if j > i + 1 else 0,
                       products[ix.symbol(x, i)], -1 if j % 2 else 1)
                      for i, j in pairs)
                for x in self._points_of(n)[0]]
        return table

    def _idiff(self, n, code):
        """D * d of one encoded term, as a {code: coefficient} dict."""
        power, rows = self._face_table(n)
        x, e = divmod(code, power)
        return accumulate({}, _apply_faces(e, rows[x], self.radix))

    def face(self, n, term, i):
        """The face (i, i+1) of one degree-n basis term, as a Lin over
        degree n-1 terms (without the sign of d)."""
        if not 1 <= i < n:
            raise IndexOutOfRange("face %d not in 1..%d" % (i, n - 1))
        power, rows = self._face_table(n)
        x, e = divmod(self._key(n, term), power)
        row = rows[x][self._ix.pairs(n).index((i, i + 1))]
        return self._lin(n - 1, accumulate(
            {}, _apply_faces(e, [row[:-1] + (1,)], self.radix)))

    def diff(self, n, term):
        return self._lin(n - 1, self._idiff(n, self._key(n, term)))

    def diff_lin(self, n, x: Lin) -> Lin:
        acc = {}
        for t, c in x.data.items():
            accumulate(acc, self._idiff(n, self._key(n, t)).items(), c)
        return self._lin(n - 1, acc)

    def matrix(self, n):
        """Sparse columns of d_n : C_n -> C_{n-1}."""
        cols = self._columns(n)
        scale = self.scale
        if scale == 1:
            return cols
        mat = self._matrix_cache.get(n)
        if mat is None:
            mat = self._matrix_cache[n] = [
                {i: Fraction(c, scale) for i, c in col.items()}
                for col in cols]
        return mat

    def _columns(self, n):
        """Sparse columns of D * d_n, assembled on the first call.  For a
        finite source the codes are the row numbers already."""
        cols = self._columns_cache.get(n)
        if cols is not None:
            return cols
        if n <= 1 or not self.terms.get(n):
            cols = [{} for _ in self.terms.get(n, ())]
        elif self._words is None:
            cols = [self._idiff(n, code) for code in range(self.dim(n))]
        else:
            rows = {k: i for i, k in enumerate(self._codes(n - 1))}
            cols = [{rows[k]: c for k, c in self._idiff(n, code).items()}
                    for code in self._codes(n)]
        self._columns_cache[n] = cols
        return cols

    def verify_d_squared(self):
        """Check d o d = 0 exactly on every basis term; (D * d)^2 is
        checked, which vanishes exactly when d^2 does."""
        for n in sorted(self.terms):
            if n < 2 or (n - 1) not in self.terms:
                continue
            memo = {}
            for code in self._codes(n):
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
        if n not in self.terms or n <= 1:
            return 0
        r = self._rank_cache.get(n)
        if r is None:
            r = self._rank_cache[n] = rank_of_columns(
                self._columns(n), nrows=self.dim(n - 1))
        return r

    def betti(self, n):
        """dim H_n; requires degree n+1 to be part of the complex (or n to
        be the top degree of a complex that is zero above)."""
        if n not in self.terms:
            return 0
        return self.dim(n) - self.rank(n) - self.rank(n + 1)

    def betti_table(self, up_to):
        return {n: self.betti(n) for n in range(1, up_to + 1)}


def _apply_faces(e, rows, radix):
    """The (code, coefficient) pairs of sign * (face position; e with
    mu(e_i, e_j) in slot i and slot j deleted) over the face rows of
    `_face_table`, on the entry part e of a code.  The face (i, j) cuts e
    into head, a_i, middle, a_j and tail (the middle is empty for an
    adjacent pair) and gives, per product output c, the code
    offset + head * B^(n-i) + c * B^(n-1-i) + middle * B^(n-j) + tail."""
    for offset, tail_w, block_w, head_w, c_w, split, mul, sign in rows:
        hi, tail = divmod(e, tail_w)
        head, ab = divmod(hi, block_w)
        base = offset + head * head_w + tail
        if split:
            a, rest = divmod(ab, split)
            middle, b = divmod(rest, radix)
            ab = a * radix + b
            base += middle * tail_w
        for c, k in mul(ab):
            yield base + c * c_w, sign * k


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
    return ChainComplex(theory, terms, index, products, alg.dim, scale,
                        label="%s(%s)" % (theory, alg.name))


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


class FreePiece(ChainComplex):
    """The weight-w piece of the chain complex of the free algebra on
    dim_v generators, freealg.FREE of the theory's algebra kind (free
    dialgebra for CY, free dendriform algebra for CDend): terms
    (x; w_1..w_n) with x in X_n and words w_i whose lengths sum to w,
    ordered by x and then by the words.

    The words of lengths 1..w are numbered once, in their sort order, and
    passed to ChainComplex as its decode list, so B = len(words) and a term
    is keyed by the code  pos(x) * B^n + sum_k (id w_k) * B^(n-k).  Codes
    sort as the terms do but are sparse: most id tuples are not words of
    total length w, so rows are found through a {code: position} map of
    one degree at a time.  Each product of the free algebra becomes an int
    table (id a) * B + (id b) -> ((id c, coefficient), ...) that fills on
    first use.

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
        index = _INDEX_SETS[theory]
        terms = {}
        for n in range(1, weight + 1):
            combos = sorted(combo for comp in _compositions(weight, n)
                            for combo in itertools.product(
                                *(by_length[l] for l in comp)))
            entries = [tuple(map(words.__getitem__, c)) for c in combos]
            terms[n] = [(x, e) for x in index.points(n) for e in entries]
        super().__init__(theory, terms, index, {}, len(words), words=words,
                         label="%s(free %s dim V=%d), weight %d"
                               % (theory, kind, dim_v, weight))
        for sym in index.symbols:
            self._products[sym] = _WordProducts(
                carrier.product, sym, words, self._word_ids).__getitem__
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

def _drop_last(word: PointedWord, repoint):
    """Remove the last letter; repoint=True moves the mark to the new last
    letter (used when the mark sat on the dropped letter)."""
    letters = word.letters[:-1]
    if repoint:
        return PointedWord(letters, len(letters) - 1)
    return PointedWord(letters, word.pointer)


def homotopy_free_dialgebra(term_or_lin, n=None) -> Lin:
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
    n >= 2 of every weight piece through weight 4 (checked exactly by the
    test suite, for one and two generators).

    Validity boundary: the dispatch peels at most one letter away from the
    last two entries, so on terms with two or more trailing bare pointed
    letters whose tree ends parallel but with the second-to-last leaf
    attached below the top of the right seam (first reachable at weight 5,
    e.g. ([3,1,2,4]; x^, x^ x, x^, x^)) the identity needs longer
    corrections than any two-tree case can provide; `betti` certifies the
    vanishing exactly at those weights instead.
    """
    if isinstance(term_or_lin, Lin):
        return term_or_lin.map_terms(homotopy_free_dialgebra)

    y, entries = term_or_lin
    n = y.degree
    sign = (-1) ** (n + 1)
    w_last = entries[-1]
    u = PointedWord(w_last.letters[-1:], 0)

    if len(w_last) >= 2:
        if w_last.pointer != len(w_last) - 1:  # (a)
            rest = entries[:-1] + (_drop_last(w_last, False), u)
            return Lin.term((bifurcate(y, n), rest), sign)
        rest = entries[:-1] + (_drop_last(w_last, True), u)  # (b)
        return Lin.term((insert_parallel_leaf(y, n), rest), sign)

    if ends_in_cherry(y):  # (c)
        return Lin.zero()
    if n < 2:
        raise CaseDispatchFailure("degree-1 term with a single letter "
                                  "and no cherry: %r" % (term_or_lin,))
    w_prev = entries[-2]
    if len(w_prev) == 1:  # (f)
        return Lin.zero()
    v = PointedWord(w_prev.letters[-1:], 0)
    if w_prev.pointer != len(w_prev) - 1:  # (d)
        rest = entries[:-2] + (_drop_last(w_prev, False), v, u)
        second = bifurcate(y, n - 1)
    else:  # (e)
        rest = entries[:-2] + (_drop_last(w_prev, True), v, u)
        second = insert_parallel_leaf(y, n - 1)
    first = insert_parallel_leaf(y, n)
    return Lin.term((first, rest), sign) + Lin.term((second, rest), -sign)


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
        rows = {t: i for i, t in enumerate(cx.terms[n])}
        solver = FactoredSolver(cx.matrix(n + 1), len(rows))
        for term in cx.terms[n]:
            g = Lin.term(term)
            if n >= 2:
                g = g - cx.diff(n, term).map_terms(h[n - 1].get)
            x = solver.solve({rows[u]: c for u, c in g.data.items()})
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
