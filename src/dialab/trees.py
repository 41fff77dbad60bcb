"""Planar binary trees, their integer names, and permutation codings.

A tree is either the leaf | or a graft Node(left, right); the degree is the
number of internal vertices, so a degree-n tree has n+1 leaves (labelled
0..n from left to right) and n vertices (labelled 1..n, vertex i sitting
between leaves i-1 and i).

Every tree has a *name* [a_1, ..., a_n]: a_i is the height of vertex i when
the tree is drawn with the leaves on a line and all edges at 45 degrees.
Names multiply under grafting by  name(y1 v y2) = name(y1) + [n] + name(y2)
and a sequence is a valid name iff its maximum equals its length, occurs
once, and both flanks are themselves valid names (or empty).

The module also houses permutations, the surjections from permutations onto
trees given by depth / height coding, the face and degeneracy maps of both
trees and level trees, and nested sub-trees with their quotients.
"""

from __future__ import annotations

import functools
import itertools
from math import factorial

from .errors import (
    BidegreeOfLeaf,
    FaceOfLeaf,
    IndexOutOfRange,
    InvalidName,
    MalformedInput,
    SplitOfLeaf,
)

LEFT = "left"    # product symbol -|  (leaf oriented toward the left)
RIGHT = "right"  # product symbol |-  (leaf oriented toward the right)


class Tree:
    """Immutable planar binary tree, one object per tree: `Tree(l, r)` hands
    back the tree first built on the (already unique) children l and r, so
    equality is identity and the hash is `object`'s."""

    __slots__ = ("left", "right", "degree", "name")

    def __new__(cls, left=None, right=None):
        self = _TREES.get((left, right))
        if self is None:
            self = super().__new__(cls)
            self.left, self.right = left, right
            if left is None:
                assert right is None
                self.degree, self.name = 0, ()
            else:
                self.degree = left.degree + right.degree + 1
                self.name = left.name + (self.degree,) + right.name
            _TREES[left, right] = self
        return self

    def __reduce__(self):
        return Tree, (self.left, self.right)

    @property
    def is_leaf(self):
        return self.left is None

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (self.degree, self.name)

    def __repr__(self):
        return "Tree(%s)" % (format_name(self),)

    def __str__(self):
        return format_name(self)


# the one object of each value: (left, right) -> tree, values -> permutation
_TREES, _PERMUTATIONS = {}, {}
LEAF = Tree()
CHERRY = Tree(LEAF, LEAF)  # the unique degree-1 tree [1]


def graft(y1: Tree, y2: Tree) -> Tree:
    """Join two trees below a new root: degree adds up plus one."""
    return Tree(y1, y2)


def split(y: Tree):
    """Inverse of graft; the decomposition under the root is unique."""
    if y.is_leaf:
        raise SplitOfLeaf("the tree [0] has no root vertex to split at")
    return y.left, y.right


def bidegree(y: Tree):
    """(degree of left part, degree of right part) under the root."""
    if y.is_leaf:
        raise BidegreeOfLeaf("bidegree requires degree >= 1")
    return y.left.degree, y.right.degree


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

def format_name(y: Tree) -> str:
    if y.is_leaf:
        return "[0]"
    return "[%s]" % ",".join(str(a) for a in y.name)


def tree_from_name(entries) -> Tree:
    """Build the tree called [a_1,...,a_n]; raise InvalidName otherwise."""
    entries = tuple(int(a) for a in entries)
    if entries == (0,):
        return LEAF
    if any(a <= 0 for a in entries):
        raise InvalidName("name entries must be positive: %r" % (entries,))
    y = _standardize_to_name(entries)
    if y.name != entries:
        raise InvalidName("%r is not the name of a tree" % (list(entries),))
    return y


def parse_name(text: str) -> Tree:
    """Parse "[1,3,1]"; a contiguous digit string "[131]" is accepted too."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise InvalidName("tree names are bracketed: %r" % (text,))
    body = s[1:-1].strip()
    if not body:
        raise InvalidName("empty name: %r" % (text,))
    if "," in body or " " in body:
        parts = body.replace(",", " ").split()
    else:
        parts = list(body)  # single digits only
    try:
        entries = [int(p) for p in parts]
    except ValueError:
        raise InvalidName("non-integer entry in %r" % (text,))
    return tree_from_name(entries)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def catalan(n: int) -> int:
    """Number of degree-n trees."""
    if n < 0:
        raise IndexOutOfRange("tree degree must be >= 0")
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


@functools.lru_cache(maxsize=None)
def enumerate_trees(n: int):
    """All degree-n trees, ordered lexicographically by name."""
    if n < 0:
        raise IndexOutOfRange("tree degree must be >= 0")
    if n == 0:
        return (LEAF,)
    out = []
    for p in range(n):
        for l in enumerate_trees(p):
            for r in enumerate_trees(n - 1 - p):
                out.append(Tree(l, r))
    out.sort(key=lambda t: t.name)
    return tuple(out)


# ---------------------------------------------------------------------------
# faces, degeneracies, parallel insertions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def face(y: Tree, i: int) -> Tree:
    """Delete the i-th leaf, 0 <= i <= degree(y)."""
    if y.is_leaf:
        raise FaceOfLeaf("cannot delete a leaf of [0]")
    n = y.degree
    if not 0 <= i <= n:
        raise IndexOutOfRange("leaf index %d not in 0..%d" % (i, n))
    l, r = y.left, y.right
    p = l.degree
    if i <= p:
        if l.is_leaf:          # i == 0: the root collapses
            return r
        return Tree(face(l, i), r)
    if r.is_leaf:              # i == n: symmetric collapse
        return l
    return Tree(l, face(r, i - p - 1))


def bifurcate(y: Tree, i: int) -> Tree:
    """Replace the i-th leaf by a cherry (the degeneracy s_i)."""
    n = y.degree
    if not 0 <= i <= n:
        raise IndexOutOfRange("leaf index %d not in 0..%d" % (i, n))
    if y.is_leaf:
        return CHERRY
    l, r = y.left, y.right
    p = l.degree
    if i <= p:
        return Tree(bifurcate(l, i), r)
    return Tree(l, bifurcate(r, i - p - 1))


def insert_parallel_leaf(y: Tree, j: int) -> Tree:
    """Add a new leaf immediately left of leaf j, parallel to it (1 <= j <= n).

    The new leaf copies the orientation of leaf j and becomes leaf j of the
    result, so deleting leaf j of the result restores y; this is the
    companion of `bifurcate` used by the contracting homotopy of the
    free-dialgebra complex.
    """
    n = y.degree
    if not 1 <= j <= n:
        raise IndexOutOfRange("leaf index %d not in 1..%d" % (j, n))
    l, r = y.left, y.right
    p = l.degree
    if j <= p:
        return Tree(insert_parallel_leaf(l, j), r)
    if j >= p + 2:
        return Tree(l, insert_parallel_leaf(r, j - p - 1))
    # j == p + 1: insertion at the root seam
    if r.is_leaf:
        return Tree(y, LEAF)
    return Tree(l, Tree(LEAF, r))


def expand(y: Tree, i: int, mode: str = "bifurcate") -> Tree:
    """Grow a tree by one leaf.

    mode="bifurcate": split leaf i into a cherry (inverse of face at i).
    mode="parallel_last": add a leaf left of, and parallel to, the last
    leaf; the index i is ignored and degree(y) >= 1 is required.
    """
    if mode == "bifurcate":
        return bifurcate(y, i)
    if mode == "parallel_last":
        if y.is_leaf:
            raise IndexOutOfRange("parallel_last requires degree >= 1")
        return insert_parallel_leaf(y, y.degree)
    raise IndexOutOfRange("unknown expand mode %r" % (mode,))


@functools.lru_cache(maxsize=None)
def product_symbol(y: Tree, i: int) -> str:
    """Orientation of leaf i, encoded as the left/right product symbol.

    LEFT when a_i > a_{i+1} (the leaf points left), RIGHT when a_i < a_{i+1}.
    Defined for 1 <= i <= degree(y) - 1.
    """
    n = y.degree
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange("symbol index %d not in 1..%d" % (i, n - 1))
    a = y.name
    return LEFT if a[i - 1] > a[i] else RIGHT


def ends_in_cherry(y: Tree) -> bool:
    """True when the last two leaves meet at a common vertex (a_n == 1)."""
    if y.is_leaf:
        raise FaceOfLeaf("no last two leaves on [0]")
    return y.name[-1] == 1


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

class Permutation:
    """A bijection of {1..n} in one-line notation [s(1), ..., s(n)]; one
    object per permutation, keyed by its values."""

    __slots__ = ("values",)

    def __new__(cls, values):
        vals = tuple(int(v) for v in values)
        self = _PERMUTATIONS.get(vals)
        if self is None:
            n = len(vals)
            if sorted(vals) != list(range(1, n + 1)):
                raise IndexOutOfRange(
                    "not a permutation of 1..%d: %r" % (n, vals))
            self = _PERMUTATIONS[vals] = super().__new__(cls)
            self.values = vals
        return self

    def __reduce__(self):
        return Permutation, (self.values,)

    @property
    def n(self):
        return len(self.values)

    def __call__(self, i):
        return self.values[i - 1]

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (len(self.values), self.values)

    def __repr__(self):
        return "Permutation(%s)" % (list(self.values),)

    def __str__(self):
        return "[%s]" % ",".join(str(v) for v in self.values)

    def compose(self, other):
        """(self . other)(i) = self(other(i))."""
        return Permutation(tuple(self.values[v - 1] for v in other.values))

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self):
        inv = [0] * len(self.values)
        for i, v in enumerate(self.values, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def sign(self):
        vals = self.values
        inversions = sum(
            1
            for i in range(len(vals))
            for j in range(i + 1, len(vals))
            if vals[i] > vals[j]
        )
        return -1 if inversions % 2 else 1

    @staticmethod
    def identity(n):
        return Permutation(range(1, n + 1))

    @staticmethod
    def omega(n):
        """The order-reversing permutation [n, ..., 2, 1]."""
        return Permutation(range(n, 0, -1))


def parse_permutation(text: str) -> Permutation:
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    parts = s.replace(",", " ").split()
    if not parts:
        raise IndexOutOfRange("empty permutation: %r" % (text,))
    if len(parts) == 1 and len(parts[0]) > 1:
        parts = list(parts[0])
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise MalformedInput("non-integer entry in %r" % (text,)) from None
    return Permutation(values)


def all_permutations(n):
    return tuple(
        Permutation(p) for p in itertools.permutations(range(1, n + 1))
    )


# ---------------------------------------------------------------------------
# permutations -> trees (depth and height codings)
# ---------------------------------------------------------------------------

def _standardize_to_name(seq) -> Tree:
    """Turn a sequence of distinct-maximum integers into a tree.

    Replace the (unique) largest entry of the interval by the interval
    length, then recurse on both flanks.  Applied to a permutation this is
    the depth coding; applied to a contiguous slice of a valid name it
    produces the nested sub-tree supported on that slice.
    """
    seq = tuple(seq)
    if not seq:
        return LEAF

    def rec(lo, hi):  # work on seq[lo:hi]
        if lo == hi:
            return LEAF
        m = max(seq[lo:hi])
        hits = [p for p in range(lo, hi) if seq[p] == m]
        if len(hits) != 1:
            raise InvalidName("maximum %d must appear exactly once in %r"
                              % (m, list(seq[lo:hi])))
        p = hits[0]
        return Tree(rec(lo, p), rec(p + 1, hi))

    return rec(0, len(seq))


def perm_to_tree(sigma: Permutation, coding: str = "depth") -> Tree:
    """Forget the levels of the level tree of sigma.

    coding="depth" reads sigma(i) as the level of vertex i with the root
    carrying the largest level; coding="height" is the variant obtained by
    reversing all levels first (it sends [1,2] to [2,1]).
    """
    if coding == "depth":
        return _standardize_to_name(sigma.values)
    if coding == "height":
        flipped = Permutation.omega(sigma.n).compose(sigma)
        return _standardize_to_name(flipped.values)
    raise IndexOutOfRange("unknown coding %r" % (coding,))


def tree_fiber(y: Tree, coding: str = "depth"):
    """All permutations mapping onto y under the chosen coding."""
    return tuple(
        s for s in all_permutations(y.degree)
        if perm_to_tree(s, coding) == y
    )


def level_tree(sigma: Permutation) -> Tree:
    """Tree built directly from levels: root at the largest level, recurse.

    Same answer as perm_to_tree(sigma, "depth"); kept as an independent
    construction for cross-checks.
    """
    vals = sigma.values

    def rec(positions):
        if not positions:
            return LEAF
        root = max(positions, key=lambda p: vals[p])
        i = positions.index(root)
        return Tree(rec(positions[:i]), rec(positions[i + 1:]))

    return rec(list(range(sigma.n)))


# ---------------------------------------------------------------------------
# faces and degeneracies of level trees
# ---------------------------------------------------------------------------

def _standardize_levels(vals):
    ranks = {v: i + 1 for i, v in enumerate(sorted(vals))}
    return tuple(ranks[v] for v in vals)


@functools.lru_cache(maxsize=None)
def perm_face(sigma: Permutation, i: int) -> Permutation:
    """Delete leaf i of the level tree of sigma and renormalize the levels.

    Levels are read with the root at level 1 and growing toward the leaves
    (the height coding), so leaf i hangs from whichever adjacent vertex has
    the larger level; that vertex disappears and the remaining levels are
    standardized to {1..n-1}.
    """
    n = sigma.n
    if not 0 <= i <= n:
        raise IndexOutOfRange("leaf index %d not in 0..%d" % (i, n))
    if n == 0:
        raise FaceOfLeaf("cannot delete a leaf of the empty level tree")
    vals = sigma.values
    if i == 0:
        gone = 1
    elif i == n:
        gone = n
    else:
        gone = i if vals[i - 1] > vals[i] else i + 1
    rest = vals[:gone - 1] + vals[gone:]
    return Permutation(_standardize_levels(rest))


def perm_degeneracy(sigma: Permutation, i: int) -> Permutation:
    """Bifurcate leaf i of the level tree; the new vertex is leafmost, so in
    the height coding it receives the new top level n+1."""
    n = sigma.n
    if not 0 <= i <= n:
        raise IndexOutOfRange("leaf index %d not in 0..%d" % (i, n))
    vals = list(sigma.values)
    vals.insert(i, n + 1)
    return Permutation(vals)


# ---------------------------------------------------------------------------
# nested sub-trees
# ---------------------------------------------------------------------------

def nested_subtrees(y: Tree):
    """All nested sub-trees of y with their quotients.

    Returns a list of triples (i, sub, quotient): the sub-tree `sub` spans
    the consecutive leaves {i, ..., i + degree(sub)} of y and the quotient
    is obtained by deleting the interior leaves of that span.  The list
    contains (0, y, [1]) and, for each leaf seam, a copy of ([1], y).
    """
    if y.is_leaf:
        raise FaceOfLeaf("nested sub-trees require degree >= 1")
    n = y.degree
    a = y.name
    out = []
    for k in range(1, n + 1):
        for i in range(0, n - k + 1):
            segment = a[i:i + k]
            sub = _standardize_to_name(segment)
            quotient = _standardize_to_name(
                a[:i] + (max(segment),) + a[i + k:])
            out.append((i, sub, quotient))
    return out


def mirror(y: Tree) -> Tree:
    """Left-right reflection; on names this reverses the sequence."""
    if y.is_leaf:
        return y
    return Tree(mirror(y.right), mirror(y.left))
