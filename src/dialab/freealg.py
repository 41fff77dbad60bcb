"""Arithmetic in the free two-product algebras over exact rationals.

Carriers and their bases:

* free dialgebra   -- pointed words  x1 x2^ x3  (one marked middle letter);
  the left product keeps the left factor's pointer, the right product the
  right factor's, letters concatenate.
* free dendriform  -- pairs (tree; word) with |word| = degree(tree); the
  half-products are driven by the recursive tree products below.
* free Zinbiel     -- plain words with the half-shuffle product.
* free Leibniz     -- plain words with the left-iterated bracket.

All products are bilinear over Lin combinations with exact int or Fraction
coefficients.  FREE[kind] describes each of the four free algebras once:
its basis in each degree and its basis-level products by name, which the
Lin products lift.  The truncated free fixtures of finalg and the free
chain-complex pieces of homology both read it.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Callable, NamedTuple

from . import trees
from .errors import IndexOutOfRange, MalformedInput, UndefinedOnUnit
from .lincomb import (Lin, accumulate, bilinear, int_str_limit,
                      printable)
from .trees import (
    LEAF,
    LEFT,
    RIGHT,
    CHERRY,
    Permutation,
    Tree,
    format_name,
    graft,
    mirror,
    parse_name,
    perm_to_tree,
    tree_fiber,
)


# ---------------------------------------------------------------------------
# basis terms
# ---------------------------------------------------------------------------

class PointedWord:
    """A word of generators with one marked (middle) letter.  As for trees,
    there is one object per value (a PointedWord keyed by (letters,
    pointer), a Word by its letters, a DendTerm by (tree, word)), so
    equality is identity and the hash is `object`'s."""

    __slots__ = ("letters", "pointer")

    def __new__(cls, letters, pointer):
        letters = tuple(letters)
        self = _POINTED_WORDS.get((letters, pointer))
        if self is None:
            if not letters:
                raise IndexOutOfRange("pointed words are nonempty")
            if not 0 <= pointer < len(letters):
                raise IndexOutOfRange(
                    "pointer %d not in 0..%d" % (pointer, len(letters) - 1))
            self = _POINTED_WORDS[letters, pointer] = super().__new__(cls)
            self.letters, self.pointer = letters, pointer
        return self

    def __reduce__(self):
        return PointedWord, (self.letters, self.pointer)

    def __len__(self):
        return len(self.letters)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (len(self.letters), self.letters, self.pointer)

    def __str__(self):
        return " ".join(
            l + "^" if i == self.pointer else l
            for i, l in enumerate(self.letters)
        )

    __repr__ = __str__


class Word:
    """A nonempty word of generators (free Zinbiel / Leibniz basis); one
    object per word."""

    __slots__ = ("letters",)

    def __new__(cls, letters):
        letters = tuple(letters)
        self = _WORDS.get(letters)
        if self is None:
            if not letters:
                raise IndexOutOfRange("words are nonempty")
            self = _WORDS[letters] = super().__new__(cls)
            self.letters = letters
        return self

    def __reduce__(self):
        return Word, (self.letters,)

    def __len__(self):
        return len(self.letters)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (len(self.letters), self.letters)

    def __str__(self):
        return " ".join(self.letters)

    __repr__ = __str__


class DendTerm:
    """A basis term (tree; word) of the free dendriform algebra; one object
    per term."""

    __slots__ = ("tree", "word")

    def __new__(cls, tree, word=()):
        word = tuple(word)
        self = _DEND_TERMS.get((tree, word))
        if self is None:
            if len(word) != tree.degree:
                raise IndexOutOfRange("word length %d != tree degree %d"
                                      % (len(word), tree.degree))
            self = _DEND_TERMS[tree, word] = super().__new__(cls)
            self.tree, self.word = tree, word
        return self

    def __reduce__(self):
        return DendTerm, (self.tree, self.word)

    def __len__(self):
        return len(self.word)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (self.tree.degree, self.tree.name, self.word)

    def __str__(self):
        if self.tree.is_leaf:
            return "([0];)"
        return "(%s; %s)" % (format_name(self.tree), " ".join(self.word))

    __repr__ = __str__


# the one object of each value: key -> term
_POINTED_WORDS, _WORDS, _DEND_TERMS = {}, {}, {}

DEND_UNIT = DendTerm(LEAF, ())


# ---------------------------------------------------------------------------
# dimonoid monomials and their middles
# ---------------------------------------------------------------------------

class MonomialLeaf:
    __slots__ = ("generator",)

    def __init__(self, generator):
        self.generator = generator

    def leaves(self):
        return (self.generator,)


class MonomialNode:
    """An internal vertex labelled by the left or right product symbol."""

    __slots__ = ("symbol", "left", "right")

    def __init__(self, symbol, left, right):
        assert symbol in (LEFT, RIGHT)
        self.symbol = symbol
        self.left = left
        self.right = right

    def leaves(self):
        return self.left.leaves() + self.right.leaves()


def normalize_monomial(m) -> PointedWord:
    """Middle of a fully parenthesized two-product monomial.

    Starting at the root, follow the pointer side of every product symbol
    (left for the left product, right for the right one); the letter reached
    is the middle, and the monomial equals the pointed word of its leaves.
    """
    letters = m.leaves()
    idx = 0
    node = m
    while isinstance(node, MonomialNode):
        if node.symbol == LEFT:
            node = node.left
        else:
            idx += len(node.left.leaves())
            node = node.right
    return PointedWord(letters, idx)


def eval_monomial(m) -> Lin:
    """Evaluate a monomial by plain product recursion; an independent check
    of the pointer-chasing normal form."""
    if isinstance(m, MonomialLeaf):
        return Lin.term(PointedWord((m.generator,), 0))
    side = m.symbol
    return dias_mul(eval_monomial(m.left), eval_monomial(m.right), side)


# ---------------------------------------------------------------------------
# free dialgebra products
# ---------------------------------------------------------------------------

def _dias_left(a: PointedWord, b: PointedWord):
    return PointedWord(a.letters + b.letters, a.pointer)


def _dias_right(a: PointedWord, b: PointedWord):
    return PointedWord(a.letters + b.letters, len(a.letters) + b.pointer)


def fusion(x: Lin) -> Lin:
    return x.map_terms(lambda pw: Word(pw.letters))


def leibniz_to_dialgebra(word: Word) -> Lin:
    """Image of a free-Leibniz word under the unique bracket-preserving map
    into the free dialgebra extending the identity on generators.

    The word v1...vn stands for the left-iterated bracket
    [[..[v1,v2],..],vn]; its image is the alternating sum whose monomials
    carry the mark on the letter coming from v1.
    """
    letters = word.letters
    n = len(letters)
    # track positions: start with (0,), sign +; each step appends k or
    # prepends k with a sign flip.
    acc = {(0,): 1}
    for k in range(1, n):
        appended = accumulate({}, ((p + (k,), c) for p, c in acc.items()))
        acc = accumulate(appended, (((k,) + p, c) for p, c in acc.items()), -1)
    return Lin((PointedWord(tuple(letters[p] for p in positions),
                            positions.index(0)), sign)
               for positions, sign in acc.items())


def gamma_tensor(word: Word) -> Lin:
    """Same alternating sum inside the tensor algebra (no mark)."""
    return fusion(leibniz_to_dialgebra(word))


# ---------------------------------------------------------------------------
# free dendriform: recursive tree products
# ---------------------------------------------------------------------------

def _tree_prec(y: Tree, z: Tree) -> Lin:
    if y.is_leaf and z.is_leaf:
        raise UndefinedOnUnit("[0] < [0] is not defined")
    if z.is_leaf:
        return Lin.term(y)
    if y.is_leaf:
        return Lin.zero()
    return _tree_star(y.right, z).map_terms(lambda t: graft(y.left, t))


def _tree_succ(y: Tree, z: Tree) -> Lin:
    if y.is_leaf and z.is_leaf:
        raise UndefinedOnUnit("[0] > [0] is not defined")
    if y.is_leaf:
        return Lin.term(z)
    if z.is_leaf:
        return Lin.zero()
    return _tree_star(y, z.left).map_terms(lambda t: graft(t, z.right))


def _tree_star(y: Tree, z: Tree) -> Lin:
    if y.is_leaf:
        return Lin.term(z)
    if z.is_leaf:
        return Lin.term(y)
    return _tree_prec(y, z) + _tree_succ(y, z)


tree_prec = bilinear(_tree_prec)
tree_succ = bilinear(_tree_succ)
tree_star = bilinear(_tree_star)


# name reversal [i1..in] -> [in..i1]; an algebra involution for star
tree_involution = mirror


def _on_dend_terms(tree_product):
    """The product of dendriform terms whose trees multiply by
    `tree_product` and whose words concatenate."""

    def product(a: DendTerm, b: DendTerm) -> Lin:
        word = a.word + b.word
        return tree_product(a.tree, b.tree).map_terms(
            lambda t: DendTerm(t, word))

    return product


def eval_tree_monomial(y: Tree, args) -> Lin:
    """Value of the two-product monomial encoded by y on the given arguments.

    The i-th argument sits between leaves i-1 and i.  Writing y = y1 v y2,
    the monomial is (m(y1) > x) < m(y2) with the evident one-sided cases, x
    being the argument at the root.  `args` entries may be generator names
    or Lin combinations of DendTerms.
    """
    args = list(args)
    if len(args) != y.degree or y.is_leaf:
        raise IndexOutOfRange("need exactly degree(y) >= 1 arguments")

    def as_lin(a):
        if isinstance(a, Lin):
            return a
        return Lin.term(DendTerm(CHERRY, (a,)))

    def rec(t, vals):
        p = t.left.degree
        mid = as_lin(vals[p])
        acc = mid
        if p:
            acc = dend_mul(rec(t.left, vals[:p]), acc, "succ")
        if t.right.degree:
            acc = dend_mul(acc, rec(t.right, vals[p + 1:]), "prec")
        return acc

    return rec(y, args)


# ---------------------------------------------------------------------------
# graded algebra on permutations: shuffles
# ---------------------------------------------------------------------------

def shuffles(p, q):
    """All (p,q)-shuffles of {1..p+q} as Permutations."""
    out = []
    for spots in itertools.combinations(range(p + q), p):
        vals = [0] * (p + q)
        rest = [i for i in range(p + q) if i not in spots]
        for v, pos in enumerate(spots, start=1):
            vals[pos] = v
        for v, pos in enumerate(rest, start=p + 1):
            vals[pos] = v
        out.append(Permutation(vals))
    return out


def _perm_shuffle_star(s: Permutation, t: Permutation) -> Lin:
    """sum over (n,m)-shuffles applied to the juxtaposition s x t."""
    n, m = s.n, t.n
    juxt = Permutation(list(s.values) + [n + v for v in t.values])
    return Lin((sh.compose(juxt), 1) for sh in shuffles(n, m))


perm_shuffle_star = bilinear(_perm_shuffle_star)


def perms_to_trees(x: Lin, coding: str = "depth") -> Lin:
    """Linear extension of the depth coding to combinations of permutations."""
    return x.map_terms(lambda s: perm_to_tree(s, coding))


# ---------------------------------------------------------------------------
# free Zinbiel and free Leibniz
# ---------------------------------------------------------------------------

def _word_shuffle(u, v):
    """All shuffles of two letter tuples, as a Lin of Words (multiplicities
    add when letters repeat)."""
    p, q = len(u), len(v)

    def merged(spots):
        ui = iter(u)
        vi = iter(v)
        return Word(next(ui) if i in spots else next(vi)
                    for i in range(p + q))

    return Lin((merged(set(spots)), 1)
               for spots in itertools.combinations(range(p + q), p))


def _zinb_dot(a: Word, b: Word) -> Lin:
    """Half-shuffle: first letter of a stays first, the rest shuffles with b."""
    head = a.letters[0]
    tail = a.letters[1:]
    return _word_shuffle(tail, b.letters).map_terms(
        lambda w: Word((head,) + w.letters))


def _zinb_sym(a: Word, b: Word) -> Lin:
    return _zinb_dot(a, b) + _zinb_dot(b, a)


def _leib_term(a: Word, b: Word) -> Lin:
    """[a, b] for the left-iterated bracket b = [h, l], l its last letter,
    by the Leibniz identity [a, [h, l]] = [[a, h], l] - [[a, l], h]."""
    if len(b) == 1:
        return Lin.term(Word(a.letters + b.letters))
    head, last = Word(b.letters[:-1]), b.letters[-1:]
    return (_leib_term(a, head).map_terms(lambda t: Word(t.letters + last))
            - _leib_term(Word(a.letters + last), head))


# ---------------------------------------------------------------------------
# the free carriers, by algebra kind
# ---------------------------------------------------------------------------

class FreeCarrier(NamedTuple):
    """A free algebra: `basis(letters, n)` yields its basis terms of degree
    n on the generators `letters`, and `products[op]` is its basis-level
    product named `op`, (a, b) -> Lin | term.  Every basis term measures
    its degree with `len`."""

    basis: Callable
    products: dict

    def product(self, a, b, op):
        """The product named `op` of the basis terms a and b."""
        try:
            mul = self.products[op]
        except KeyError:
            raise IndexOutOfRange("op must be one of %s, not %r"
                                  % (", ".join(self.products), op)) from None
        return mul(a, b)


def _pointed_words(letters, n):
    for ltrs in itertools.product(letters, repeat=n):
        for p in range(n):
            yield PointedWord(ltrs, p)


def _dend_terms(letters, n):
    words = list(itertools.product(letters, repeat=n))  # shared by the trees
    # looked up when called, so that a wrapper installed on trees sees it
    for t in trees.enumerate_trees(n):
        for ltrs in words:
            yield DendTerm(t, ltrs)


def _words(letters, n):
    return (Word(ltrs) for ltrs in itertools.product(letters, repeat=n))


# the products by name: "left"/"right" (dialgebra), "prec"/"succ" and their
# sum "star" (dendriform), "dot" and its symmetrization (Zinbiel), "bracket"
# (Leibniz)
FREE = {
    "dialgebra": FreeCarrier(_pointed_words,
                             {LEFT: _dias_left, RIGHT: _dias_right}),
    "dendriform": FreeCarrier(_dend_terms, {
        "prec": _on_dend_terms(_tree_prec),
        "succ": _on_dend_terms(_tree_succ),
        "star": _on_dend_terms(_tree_star)}),
    "zinbiel": FreeCarrier(_words,
                           {"dot": _zinb_dot, "symmetrized": _zinb_sym}),
    "leibniz": FreeCarrier(_words, {"bracket": _leib_term}),
}

# the Lin lifts of the products, by their names
dias_term = FREE["dialgebra"].product
dias_mul = bilinear(dias_term)
dend_mul = bilinear(FREE["dendriform"].product)
leib_bracket_free = bilinear(_leib_term)


def zinb_mul(a: Lin, b: Lin, mode: str = "dot") -> Lin:
    return bilinear(FREE["zinbiel"].product)(a, b, mode)


def numbered_basis(kind, dim_v, max_len):
    """The basis terms of lengths 1..max_len of FREE[kind] on the letters
    x1..x<dim_v>, in sort order, which numbers them.  A sort key starts
    with the length, so the terms of each length are consecutive."""
    letters = ["x%d" % (i + 1) for i in range(dim_v)]
    return sorted((w for n in range(1, max_len + 1)
                   for w in FREE[kind].basis(letters, n)),
                  key=lambda w: w.sort_key())


# ---------------------------------------------------------------------------
# generic bracket over any carrier with left/right products
# ---------------------------------------------------------------------------

def bracket(a, b, left_mul, right_mul):
    """[a, b] = a -| b  -  b |- a  for any pair of bilinear products."""
    return left_mul(a, b) - right_mul(b, a)


def dias_bracket(a: Lin, b: Lin) -> Lin:
    return bracket(
        a, b,
        lambda x, y: dias_mul(x, y, LEFT),
        lambda x, y: dias_mul(x, y, RIGHT),
    )


# ---------------------------------------------------------------------------
# dendriform -> Zinbiel comparison
# ---------------------------------------------------------------------------

def apply_perm_to_tuple(sigma: Permutation, items):
    """Place item i in position sigma(i)."""
    items = tuple(items)
    out = [None] * len(items)
    for i, x in enumerate(items, start=1):
        out[sigma(i) - 1] = x
    return tuple(out)


def dendriform_to_zinbiel(x: Lin) -> Lin:
    """(y; x1..xn) -> sum of sigma-permuted words over the height-coding
    fiber of y; a homomorphism onto the free Zinbiel algebra viewed as a
    dendriform algebra."""

    def on_term(t: DendTerm):
        return Lin((Word(apply_perm_to_tuple(s, t.word)), 1)
                   for s in tree_fiber(t.tree, "height"))

    return x.map_terms(on_term)


# the dendriform structure of the Zinbiel product: x < y = x.y, x > y = y.x
zinbiel_as_dendriform = bilinear(FreeCarrier(_words, {
    "prec": _zinb_dot,
    "succ": lambda a, b: _zinb_dot(b, a),
    "star": _zinb_sym}).product)


# ---------------------------------------------------------------------------
# element grammar (CLI wire format)
# ---------------------------------------------------------------------------

# a chunk that is so far the mantissa of a number and the e of its exponent
_MANTISSA = re.compile(r"[0-9_.]*[0-9][0-9_.]*[eE]")


def _split_terms(text):
    """Split a linear combination on top-level +/-, keeping signs.  A sign
    between the e of a number and a digit is the sign of its exponent, so
    2e-1*x is one term."""
    s = text.strip()
    if not s:
        raise IndexOutOfRange("empty element")
    chunks = []
    sign = 1
    depth = 0
    cur = ""
    for k, ch in enumerate(s):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth or ch not in "+-" or (
                s[k + 1:k + 2].isdigit() and _MANTISSA.fullmatch(cur.strip())):
            cur += ch
        elif cur.strip():
            chunks.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
        else:
            sign = sign * (1 if ch == "+" else -1)
    if not cur.strip():
        raise MalformedInput("dangling sign in %r" % (text,))
    chunks.append((sign, cur.strip()))
    return chunks


def _coeff_and_body(chunk):
    if "*" in chunk:
        head, body = chunk.split("*", 1)
        return head.strip(), body.strip()
    return None, chunk


def parse_pointed_word(text) -> PointedWord:
    letters = []
    pointer = None
    for tok in text.split():
        if tok.endswith("^"):
            if pointer is not None:
                raise IndexOutOfRange("two pointers in %r" % (text,))
            pointer = len(letters)
            tok = tok[:-1]
        letters.append(tok)
    if pointer is None:
        raise IndexOutOfRange("no pointer in %r" % (text,))
    return PointedWord(letters, pointer)


def parse_word(text) -> Word:
    return Word(text.split())


def parse_dend_term(text) -> DendTerm:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")) or ";" not in s:
        raise IndexOutOfRange("dendriform terms look like ([..]; x y): %r"
                              % (text,))
    name, word = s[1:-1].split(";", 1)
    return DendTerm(parse_name(name.strip()), tuple(word.split()))


# the exponent that ends a coefficient such as 1.5e3
_EXPONENT = re.compile(r"[eE]([-+]?[0-9][0-9_]*)\s*$")


def _coefficient(coeff, text) -> Fraction:
    """The exact value of the coefficient `coeff` of the element `text`.

    A value whose numerator or denominator has more digits than the
    interpreter converts to text (lincomb.printable) is malformed input.
    Fraction multiplies by 10**|exponent| before it reduces, so an exponent
    past that limit plus the length of `coeff`, which makes any nonzero
    value pass it, is refused before the power is built.
    """
    limit = int_str_limit()
    exponent = _EXPONENT.search(coeff)
    try:
        huge = limit and exponent and (
            abs(int(exponent.group(1))) > limit + len(coeff))
        value = None if huge else Fraction(coeff)
    except (ValueError, ZeroDivisionError):
        raise MalformedInput("bad coefficient %r in %r"
                             % (coeff, text)) from None
    if value is None or not printable(value):
        raise MalformedInput("coefficient %r in %r passes the %d-digit limit"
                             % (coeff, text, limit))
    return value


def parse_lincomb(text, parse_term) -> Lin:
    def pair(sign, chunk):
        coeff, body = _coeff_and_body(chunk)
        term = parse_term(body)
        if coeff is not None:
            sign *= _coefficient(coeff, text)
        return term, sign

    return Lin(pair(*chunk) for chunk in _split_terms(text))
