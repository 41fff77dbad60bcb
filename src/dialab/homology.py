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
ascending sweep that leaves out the rows d o d = 0 already decides and reads
each row it keeps off the cofaces of its term, without assembling a column
(`ChainComplex.rank`).  The module also houses the contracting homotopy of
the free-dialgebra complex, the degeneracies supplied by a bar-unit, and the
comparison chain maps between the theories.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left, bisect_right
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


class IndexSet(NamedTuple):
    """One theory: the index sets X_n of its chain complex, the faces of
    degree n, and the algebra kind its coefficients must have.

    `points(n)` lists X_n in basis order and `pairs(n)` the faces of degree
    n as pairs (i, j), i < j: the adjacent pairs (i, i+1) by default, every
    pair for the Leibniz complex.  `face(x, i)` is the face of x (an element
    of X_{n-1}) under the face whose pair starts at i, and `symbol(x, i)`
    names the product that face applies, one of `symbols`, a product of
    `kind` (finalg.PRODUCTS) or star.  A bare index set is a single point
    and its terms are bare entry tuples.
    """

    points: Callable
    face: Callable
    symbol: Callable
    symbols: tuple
    kind: str
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
                   (LEFT, RIGHT), "dialgebra"),
    "CS": IndexSet(lambda n: all_permutations(n), perm_face, _level_side,
                   (LEFT, RIGHT), "dialgebra"),
    "CDend": IndexSet(lambda n: range(1, n + 1),
                      lambda r, i: cdend_face_index(i, r),
                      lambda r, i: cdend_symbol(i, r),
                      ("prec", "succ", "star"), "dendriform"),
    "CL": IndexSet(lambda n: (None,), lambda x, i: None,
                   lambda x, i: "bracket", ("bracket",), "leibniz",
                   bare=True, pairs=lambda n: [(i, j) for j in range(2, n + 1)
                                               for i in range(1, j)]),
    "CZinb": IndexSet(lambda n: (None,), lambda x, i: None,
                      lambda x, i: "dot" if i == 1 else "star",
                      ("dot", "star"), "zinbiel", bare=True),
}

THEORIES = tuple(_INDEX_SETS)


class ChainComplex:
    """The chain complex  K[X_n] (x) A^(x)n  over the rationals, with

        d (x; a_1..a_n) = sum_{(i, j)} (-1)^j
              (face_i x; a_1..mu_{sym(x,i)}(a_i, a_j)..a_n without a_j)

    summed over the face pairs (i, j) of degree n, for n in 1..n_max.  On
    the adjacent pairs (i, i+1) the sign is (-1)^(i+1), and the differential
    is the alternating sum of the faces: this is CY, CS, CDend and CZinb.
    CL runs over every pair i < j with the bracket.

    A source hands over its numbered `basis` of A (range(dim) for a
    FiniteAlgebra, the sorted words for a FreePiece), B = len(basis) ids;
    `products[symbol]`, which sends the packed pair a * B + b of ids to the
    pairs (c, coefficient) of  D * mu(a, b);  and `entries(n)`, E_n, the id
    tuples of degree n in ascending order.  The index set X_n, its faces
    and their product symbols come from `theory` (`_INDEX_SETS`).  The
    constructor builds `terms[n]`, the ordered basis in degree n: (x; e)
    for x in X_n and then e in E_n, each entry tuple made once from
    `basis` and shared by every point (CL and CZinb index by a single
    point and their terms are the bare entry tuples); a degree whose E_n is
    empty, as for a 0-dimensional algebra, lists no points.

    Every term is keyed by one int, its code, which is its position in
    terms[n]:  pos(x) * |E_n| + pos(e).  A face works on the packed entry
    code sum_k a_k * B^(n-k) of e: divmod cuts it into head, a_i, middle,
    a_j and tail, and the product of a_i and a_j gives the packed code of
    the merged entries.  On the first use of degree n the kernel packs E_n,
    in ascending order, and keeps a {packed: position} dict, so `_key` is
    two position lookups and a code decodes by indexing terms[n].  Only
    `diff`, `diff_lin`, `face` and `verify_d_squared`'s message meet the
    term objects; the faces, the d^2 check, the assembly of columns and the
    rows of the rank sweep run on codes.  A term outside the basis raises
    IndexOutOfRange.  The first column asked of degree n gives X_n integer
    tables: per point x and face pair (i, j), the code offset
    pos(face_i x) * |E_{n-1}|, the powers of B that cut a packed code into
    head, a_i, middle, a_j and tail (made once per pair), the product and
    the sign.  The rank sweep reads rows instead, off the cofaces of each
    point of X_{n-1} and the inverted products (`_rows`).

    Finite structure constants are stored as integer numerators over one
    common denominator D (`scale`), the lcm of all their denominators; free
    products are integral, with D = 1.  Every face applies exactly one
    product, so the stored differential is exactly D * d.  Hence
    (D d)^2 = D^2 d^2 vanishes exactly when d^2 does and rank(D d) = rank d:
    the d^2 check runs in integers, sending the faces of each entry tuple,
    made once per face pair and product and shared by the points, onto the
    columns of D * d_{n-1}, and `rank` on the rows of D * d, which the sweep
    reads one at a time and drops; both stay exact for rational structure
    constants, not only integral ones.
    `diff`, `diff_lin`, `face` and `matrix` divide by D.
    """

    def __init__(self, theory, basis, products, entries, n_max, scale=1):
        self.theory = theory
        self.n_max = max(n_max, 0)
        self.scale = scale
        self._ix = ix = _INDEX_SETS[theory]
        self._radix = len(basis)
        self._products = products
        self._entries = entries
        self.terms = {}
        for n in range(1, n_max + 1):
            E = [tuple(map(basis.__getitem__, ids)) for ids in entries(n)]
            self.terms[n] = tuple(E) if ix.bare or not E else tuple(
                (x, e) for x in ix.points(n) for e in E)
        self._points = {}
        self._packings = {}
        self._faces = {}
        self._encoders = {}
        self._rank_cache = {}
        self._sweep = 1, frozenset()

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

    def _packing(self, n):
        """The packed codes of E_n, ascending, and the position of each."""
        packing = self._packings.get(n)
        if packing is None:
            powers = [self._radix ** (n - k) for k in range(1, n + 1)]
            packed = [sum(map(operator.mul, ids, powers))
                      for ids in self._entries(n)]
            packing = self._packings[n] = packed, dict(
                zip(packed, range(len(packed))))
        return packing

    def _encoder(self, n):
        """The positions of X_n and of E_n, and |E_n|; E_n is read off the
        first |E_n| terms, those of the first point."""
        enc = self._encoders.get(n)
        if enc is None:
            self._require(n)
            size = len(self._packing(n)[0])
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
            ix, products, B = self._ix, self._products, self._radix
            packed = self._packing(n)[0]
            below, where = self._packing(n - 1) if n > 1 else ((), None)
            pos = self._points_of(n - 1)[1] if n > 1 else {}
            # the powers of B and the sign of each pair, made once per pair
            pairs = [(i, (B ** (n - j), B ** (j - i + 1), B ** (n - i),
                          B ** (n - 1 - i), B ** (j - i) if j > i + 1 else 0),
                      -1 if j % 2 else 1) for i, j in ix.pairs(n)]
            table = self._faces[n] = len(packed), packed, [
                tuple((pos[ix.face(x, i)] * len(below),) + cuts
                      + (products[ix.symbol(x, i)], sign)
                      for i, cuts, sign in pairs)
                for x in self._points_of(n)[0]], where
        return table

    def _idiff(self, n, code):
        """D * d of one encoded term, as a {code: coefficient} dict."""
        size, packed, rows, where = self._face_table(n)
        x, e = divmod(code, size)
        return accumulate({}, _apply_faces(packed[e], rows[x], self._radix,
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
            packed[e], [row[:-1] + (1,)], self._radix, where)))

    def diff(self, n, term):
        return self._lin(n - 1, self._idiff(n, self._key(n, term)))

    def diff_lin(self, n, x: Lin) -> Lin:
        """d of a Lin over degree-n terms, summed in one pass; the zero Lin
        goes to zero without the face table of degree n."""
        if not x.data:
            return Lin()
        size, packed, rows, where = self._face_table(n)
        radix, acc = self._radix, {}
        for t, c in x.data.items():
            p, e = divmod(self._key(n, t), size)
            accumulate(acc, _apply_faces(packed[e], rows[p], radix, where), c)
        return self._lin(n - 1, acc)

    def matrix(self, n):
        """Sparse columns of d_n : C_n -> C_{n-1}, assembled afresh on each
        call; a code is the row number already."""
        scale = self.scale
        columns = map(functools.partial(self._idiff, n), range(self.dim(n)))
        if scale == 1:
            return list(columns)
        return [{i: Fraction(c, scale) for i, c in col.items()}
                for col in columns]

    def verify_d_squared(self):
        """Check d o d = 0 exactly on every basis term; (D * d)^2 is
        checked, which vanishes exactly when d^2 does.

        Per degree n the columns of D * d_{n-1} are computed once.  The
        entry part of a face depends on its pair and product only, not on
        the point, so the face rows of X_n are keyed by these kinds, and
        each entry tuple e of E_n gets the images of every kind from one
        pass of `_apply_faces` (kind m carries the offset m * |E_{n-1}|).
        Each point then sends the images of its kinds, shifted by its code
        offsets, onto the columns of D * d_{n-1}, summed in one dict.  Entry
        tuples come in the outer loop; once point x fails, later ones visit
        only the points below x, so the least failing code is named, once
        the degree is done."""
        for n in filter(self.dim, range(2, self.n_max + 1)):
            below = [tuple(self._idiff(n - 1, u).items())
                     for u in range(self.dim(n - 1))]
            size, packed, rows, where = self._face_table(n)
            radix, wide, kinds = self._radix, len(where), {}
            # per point its rows as (code offset, kind m); kind m's row is
            # the first row of its pair and product, with offset m * wide
            plan = [tuple((row[0], kinds.setdefault((p, row[6]), (
                len(kinds) * wide,) + row[1:])[0] // wide)
                for p, row in enumerate(point)) for point in rows]
            first = self.dim(n)
            for e, code in enumerate(packed):
                images = {}
                for w, k in _apply_faces(code, kinds.values(), radix, where):
                    images.setdefault(w // wide, []).append((w % wide, k))
                for x in range(first // size if images else 0):
                    acc = {}
                    get = acc.get
                    for offset, m in plan[x]:
                        for u, k in images.get(m, ()):
                            for v, c in below[offset + u]:
                                acc[v] = get(v, 0) + k * c
                    if any(acc.values()):
                        first = x * size + e
                        break
            if first < self.dim(n):
                raise AssertionError("d^2 != 0 at degree %d on %r"
                                     % (n, self._term(n, first)))
        return True

    def _rows(self, n, skip):
        """The rows of D * d_n whose codes are not in `skip`, in ascending
        order, each a {column code: coefficient} dict without zeros.

        Row u = (z; e') is read off its cofaces: for each face (pair,
        symbol) reaching z, the entries e of E_n whose face hits e', placed
        in the columns of every point of X_n with that face.  The entries
        depend on the face and e' only, so they are made once per row and
        face; a skipped row costs one set lookup.
        """
        if n < 2:
            return
        plans, below, where = self._coface_plans(n)
        # one int object per column, shared by every row that meets it
        columns = list(range(self.dim(n)))
        for z, plan in enumerate(plans):
            for q, code in enumerate(below):
                if z * len(below) + q in skip:
                    continue
                row = {}
                get = row.get
                for cut, inverse, offsets, store in plan:
                    part = store[q] if store else None
                    if part is None:
                        part = _coface_entries(code, cut, inverse,
                                               self._radix, where)
                        if store:
                            store[q] = part
                    for off in offsets:
                        for e, k in part:
                            col = columns[off + e]
                            row[col] = get(col, 0) + k
                if 0 in row.values():
                    row = {col: k for col, k in row.items() if k}
                yield row

    def _coface_plans(self, n):
        """Per point z of X_{n-1}, a (cut, inverse, offsets, store) for
        each face (pair (i, j), symbol) with which some x of X_n has
        face_i x = z; the packed codes of E_{n-1}; the positions of E_n's.

        `cut` is the pair's powers of B and sign (`_coface_entries`),
        `offsets` the code offsets pos(x) * |E_n| of the points x.
        `inverse` sends c to [a * B + b, k, ...], the pairs (a, b) met in
        E_n at a face with the symbol whose product has k * c among its
        terms; each (head, a, middle, b, tail) is taken to lie in E_n, as
        for all tuples (finite sources) and for the tuples of one weight
        (free pieces).  When the points outnumber the faces, each face
        reaches many z, and `store`, shared by them, keeps the entries of
        each e'; else it is empty.
        """
        self._require(n)
        ix, B = self._ix, self._radix
        packed, where = self._packing(n)
        below = self._packing(n - 1)[0]
        pts, pairs, symbols = self._points_of(n)[0], ix.pairs(n), ix.symbols
        zpos = self._points_of(n - 1)[1]
        ids = {sym: k for k, sym in enumerate(symbols)}
        # per face pair: pos(z) * |symbols| + symbol -> the offsets
        cofaces = []
        for i, j in pairs:
            by = defaultdict(list)
            for k, x in enumerate(pts):
                by[zpos[ix.face(x, i)] * len(symbols)
                   + ids[ix.symbol(x, i)]].append(k * len(packed))
            cofaces.append(by)
        # per symbol, the packed pairs a * B + b met at its faces in E_n
        met = defaultdict(set)
        for (i, j), by in zip(pairs, cofaces):
            a_w, b_w = B ** (n - i), B ** (n - j)
            ab = {e // a_w % B * B + e // b_w % B for e in packed}
            for s in {key % len(symbols) for key in by}:
                met[s] |= ab
        inverse = {}
        for s, abs_ in met.items():
            inv = inverse[s] = defaultdict(list)
            for ab in sorted(abs_):
                for c, k in self._products[symbols[s]](ab):
                    inv[c] += ab, k
        keep = len(pts) > len(pairs) * len(symbols)
        plans = [[] for _ in zpos]
        for (i, j), by in zip(pairs, cofaces):
            cut = (B ** (n - j), B ** (j - i - 1) if j > i + 1 else 0,
                   B ** (n - j + 1), B ** (n - i + 1), B ** (n - i),
                   -1 if j % 2 else 1)
            stores = defaultdict(lambda: [None] * len(below) if keep else [])
            for key in sorted(by):
                z, s = divmod(key, len(symbols))
                plans[z].append((cut, inverse[s], tuple(by[key]), stores[s]))
        return plans, below, where

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
        last Q_m.  The rows of d_m outside Q_{m-1} are read one at a time
        off their cofaces (`_rows`), in ascending order, so no column of
        d_m is assembled and the rows in Q_{m-1} are never built; the
        packing of E_{m-1} is dropped once d_m is ranked.  When C_{m-1} is
        empty, d_m has no rows and rank 0, and no coface is looked up.

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
            ech = Echelon(self._rows(m, cleared) if self.dim(m - 1) else ())
            self._rank_cache[m] = ech.rank
            cleared = frozenset(ech.leads)
            self._packings.pop(m - 1, None)
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


def _coface_entries(code, cut, inverse, radix, where):
    """The (position, sign * k) pairs of the entry tuples e of E_n whose
    face hits the packed code of e' with coefficient k, for one face pair
    and symbol of `ChainComplex._rows`: the pair's powers of B cut e' into
    head, c, middle and tail, and each a * B + b that `inverse` lists under
    c gives  e = head * B^(n-i+1) + a * B^(n-i) + middle * B^(n-j+1)
    + b * B^(n-j) + tail."""
    tail_w, split, mid_w, head_w, a_w, sign = cut
    hi, tail = divmod(code, tail_w)
    if split:
        hi, middle = divmod(hi, split)
        tail += middle * mid_w
    head, c = divmod(hi, radix)
    pairs = inverse.get(c)
    if pairs is None:
        return ()
    base = head * head_w + tail
    pairs = iter(pairs)
    if split:
        return [(where[base + ab // radix * a_w + ab % radix * tail_w],
                 sign * k) for ab, k in zip(pairs, pairs)]
    return [(where[base + ab * tail_w], sign * k)
            for ab, k in zip(pairs, pairs)]


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
    # the product of (a, b) sits at a * dim + b, the packed pair
    pairs = list(itertools.product(range(alg.dim), repeat=2))
    vectors = {sym: [_product_vector(alg, sym, *ab) for ab in pairs]
               for sym in _INDEX_SETS[theory].symbols}
    scale = lcm(*(c.denominator for vecs in vectors.values()
                  for vec in vecs for c in vec))
    products = {
        sym: tuple(tuple((b, c.numerator * (scale // c.denominator))
                         for b, c in enumerate(vec) if c)
                   for vec in vecs).__getitem__
        for sym, vecs in vectors.items()
    }
    basis = range(alg.dim)
    return ChainComplex(
        theory, basis, products,
        lambda n: itertools.product(basis, repeat=n), n_max, scale)


def build_complex(theory, source, n_max, weight=None):
    """Chain complex of a finite or free algebra in degrees 1..n_max.

    For a FiniteAlgebra source every theory whose `_INDEX_SETS` kind is the
    algebra's kind is available.  For free sources pass
    source=("free", dim_v) together with `weight`; this builds the single
    weight-homogeneous piece in degrees 1..min(n_max, weight), above which
    it is zero (supported for CY and CDend, where the vanishing theorems
    live).
    """
    if isinstance(source, FiniteAlgebra):
        ix = _INDEX_SETS.get(theory)
        if ix is None:
            raise UnsupportedTheoryForSource("unknown theory %r" % (theory,))
        if source.kind != ix.kind:
            raise UnsupportedTheoryForSource(
                "%s needs a %s source, got %s" % (theory, ix.kind,
                                                  source.kind))
        return _finite(theory, source, n_max)
    if isinstance(source, tuple) and source and source[0] == "free":
        if weight is None:
            raise UnsupportedTheoryForSource(
                "free sources need an explicit weight")
        if theory not in ("CY", "CDend"):
            raise UnsupportedTheoryForSource(
                "free pieces are supported for CY and CDend only")
        return FreePiece(theory, source[1], weight, n_max)
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


class FreePiece(ChainComplex):
    """The weight-w piece of the chain complex of the free algebra on
    dim_v generators, freealg.FREE of the theory's algebra kind (free
    dialgebra for CY, free dendriform algebra for CDend), in degrees
    1..min(n_max, w): terms (x; w_1..w_n) with x in X_n and words w_i whose
    lengths sum to w, ordered by x and then by the words.  The piece is zero
    above degree w, so n_max >= w gives all of it.

    The piece hands ChainComplex the words of lengths 1..w, numbered in
    sort order (freealg.numbered_basis), as its basis; the id tuples whose
    word lengths sum to w as the entry tuples of each degree; and each
    product of the free algebra as an int table
    (id a) * B + (id b) -> ((id c, coefficient), ...) that fills on first
    use.  Packed codes sort as the entry tuples do but are sparse, since
    most id tuples are not words of total length w; the kernel's
    {packed: position} dict maps them to positions all the same.

    Ranks go through the multilinear piece.  A face merges two neighbouring
    words by a product that concatenates their letters and never reorders
    them, so the letter sequence of w_1..w_n, read left to right, is the
    same on every term of d(x; w_1..w_n).  The piece is thus the direct sum,
    over the dim_v^w letter sequences, of the subcomplexes spanned by the
    terms with that sequence, and each of them is the dim_v = 1 piece with
    its single letter renamed letter by letter.  Hence
    rank d_n = dim_v^w * rank d_n(dim_v = 1); the dim_v = 1 piece, with
    the same degrees, is built on the first `rank` call.  `terms`, `diff`
    and `matrix` still describe the full piece.
    """

    def __init__(self, theory, dim_v, weight, n_max):
        if dim_v < 1 or weight < 1:
            raise DegreeOutOfRange(
                "free pieces need dim_v >= 1 and weight >= 1, got dim_v=%d, "
                "weight=%d" % (dim_v, weight))
        ix = _INDEX_SETS[theory]
        words = freealg.numbered_basis(ix.kind, dim_v, weight)
        # the words of each length are consecutive, so their ids form a range
        lengths = [len(w) for w in words]
        by_length = [range(bisect_left(lengths, l), bisect_right(lengths, l))
                     for l in range(weight + 1)]
        ids = {w: i for i, w in enumerate(words)}
        product = freealg.FREE[ix.kind].product
        super().__init__(
            theory, words,
            {sym: _WordProducts(product, sym, words, ids).__getitem__
             for sym in ix.symbols},
            functools.partial(_id_tuples, by_length, weight),
            min(n_max, weight))
        self.dim_v = dim_v
        self.weight = weight
        self._multilinear = None

    def rank(self, n):
        if self.dim_v == 1:
            return super().rank(n)
        if self._multilinear is None:
            self._multilinear = FreePiece(self.theory, 1, self.weight,
                                          self.n_max)
        return self.dim_v ** self.weight * self._multilinear.rank(n)


def build_cy_free(dim_v, weight) -> ChainComplex:
    """Weight-homogeneous piece of the free-dialgebra complex."""
    return FreePiece("CY", dim_v, weight, weight)


def build_cdend_free(dim_v, weight) -> ChainComplex:
    """Weight-homogeneous piece of the free-dendriform complex."""
    return FreePiece("CDend", dim_v, weight, weight)


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
def _tree_moves(y):
    """The trees the homotopy can send a degree-n tree y to, and whether it
    ends in a cherry: (s_n y, p_n y, s_{n-1} y, p_{n-1} y, cherry), with
    p_{n-1} y = None for n = 1."""
    n = y.degree
    return (bifurcate(y, n), insert_parallel_leaf(y, n), bifurcate(y, n - 1),
            insert_parallel_leaf(y, n - 1) if n > 1 else None,
            ends_in_cherry(y))


@functools.lru_cache(maxsize=None)
def _peel(word):
    """(word minus its last letter u, repointed to its new last letter when
    the mark sat on u, or None for a single letter; u^; whether the mark
    sat on u), kept per word as `_tree_moves` keeps its trees per tree."""
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


def contraction_by_elimination(cx: ChainComplex):
    """Exact contracting homotopy of an acyclic based complex, by solving.

    Returns h as {n: {term: Lin over degree n+1 terms}} with
    d h + h d = id in degrees 2..cx.n_max, built degree by degree: given
    h_{n-1}, the residual g = id - h_{n-1} d lies in the image of d_{n+1}
    (this is exactness), and h_n(term) is the preimage of g(term) whose
    free coordinates are zero, read off a FactoredSolver built once per
    degree on the rows of D * d_{n+1} that the rank sweep reads (`_rows`),
    or on dim(n) empty rows at the top degree, where d_{n+1} = 0.  A
    solution x of D d x = g gives h_n(term) = D x.  Works at any weight,
    unlike the combinatorial five-case operator whose validity boundary is
    documented above; the price is that the values are basis-dependent.
    """
    from .linalg import FactoredSolver

    h = {n: {} for n in range(1, cx.n_max + 1)}

    for n in range(1, cx.n_max + 1):
        cols = cx.terms.get(n + 1, ())
        rows = list(cx._rows(n + 1, ())) if cols else [
            {} for _ in range(cx.dim(n))]
        solver = FactoredSolver(rows, len(cols))
        for term in cx.terms[n]:
            g = Lin.term(term)
            if n >= 2:
                g = g - cx.diff(n, term).map_terms(h[n - 1].get)
            x = solver.solve({cx._key(n, u): c for u, c in g.data.items()})
            if x is None:
                raise AssertionError("complex is not exact at degree %d" % n)
            h[n][term] = Lin({cols[j]: c * cx.scale for j, c in x.items()})
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
