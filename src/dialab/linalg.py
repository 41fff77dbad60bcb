"""Exact linear algebra over the rationals.

One engine does all elimination: `Echelon` keeps the span of sparse rows
{index: value} (int or Fraction values) as primitive integer rows keyed by
their leading index.  Denominators are cleared row by row and every update
is fraction-free, which changes nothing about the row space, so ranks and
membership tests never touch a Fraction; `reduced()` back-substitutes once
and gives the reduced row echelon form, which a row space determines
uniquely.  Ranks, row spaces, kernels, affine solutions and the factored
[A | I] solver are all read off it.  Its `leads`, the least index of each
echelon row, depend only on the row space; the ranks of a chain complex
use them for clearing: when d_n d_{n+1} = 0, each lead q of the rows of
d_n marks a row q of d_{n+1} that lies in the span of its rows of larger
index, so `homology.ChainComplex.rank` leaves those rows out of the
elimination of d_{n+1}.  The lemma needs d o d = 0; `rank_of_columns`
ranks any matrix on its own.  The dense helpers (rref, row spaces,
nullspace, solve_affine) take and return dense Fraction rows for the small
systems of halos, ideals and quadratic duals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .lincomb import accumulate


def _int_row(row):
    """Clear denominators and divide by the content; {} for a zero row."""
    ints = {k: v for k, v in row.items() if v}
    if not ints:
        return {}
    if not all(type(v) is int for v in ints.values()):
        items = {k: Fraction(v) for k, v in ints.items()}
        denom = lcm(*(v.denominator for v in items.values()))
        ints = {k: int(v * denom) for k, v in items.items()}
    g = gcd(*ints.values())
    return {k: v // g for k, v in ints.items()} if g > 1 else ints


def _combine(row, piv, k):
    """The primitive part of b*row - a*piv, where a and b are the entries
    of row and piv at k; it has no entry at k."""
    a, b = row[k], piv[k]
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    new = accumulate({j: b * v for j, v in row.items()}, piv.items(), -a)
    g = gcd(*new.values())
    return {j: v // g for j, v in new.items()} if g > 1 else new


class Echelon:
    """Span of sparse rational rows, kept in fraction-free echelon form."""

    def __init__(self, rows=()):
        self._pivots = {}  # leading index -> primitive integer row
        for row in rows:
            self.add(row)

    def _reduce(self, row):
        """The integer remainder of `row` modulo the pivot rows: {} when
        the row lies in the span, else a row whose lead is no pivot."""
        pivots = self._pivots
        row = _int_row(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            row = _combine(row, piv, lead)
        return row

    def add(self, row):
        """Insert a row; True when it enlarged the span."""
        row = self._reduce(row)
        if row:
            self._pivots[min(row)] = row
        return bool(row)

    def contains(self, row):
        return not self._reduce(row)

    @property
    def rank(self):
        return len(self._pivots)

    @property
    def leads(self):
        """The leading indices of the echelon rows, one per unit of rank."""
        return self._pivots.keys()

    def reduced(self):
        """(rows, pivots): the reduced row echelon form, as sparse Fraction
        rows with leading entry 1, in ascending order of their pivots."""
        pivots = sorted(self._pivots)
        done = {}
        for p in reversed(pivots):
            row = self._pivots[p]
            # a finished row has no entry at any other pivot, so clearing
            # one pivot entry never brings back another
            for k in [k for k in row if k in done]:
                row = _combine(row, done[k], k)
            done[p] = row
        return [{k: Fraction(v, done[p][p]) for k, v in done[p].items()}
                for p in pivots], pivots


def rank_of_rows(rows):
    """Rank of the span of sparse rational rows, exactly."""
    return Echelon(rows).rank


def rank_of_columns(cols, nrows=None):
    """Rank of a matrix given as sparse columns; transposes to rows first
    when that side is smaller."""
    cols = [c for c in cols if c]
    if not cols:
        return 0
    if nrows is None:
        nrows = 1 + max(k for c in cols for k in c)
    if len(cols) <= nrows:
        return rank_of_rows(cols)
    return rank_of_rows(_transpose(cols, nrows))


def _transpose(cols, nrows):
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


# ---------------------------------------------------------------------------
# dense views (small systems: halos, ideals, annihilators)
# ---------------------------------------------------------------------------

def _dense_reduced(rows):
    return Echelon(dict(enumerate(r)) for r in rows).reduced()


def rref(rows):
    """Reduced row-echelon form of dense rational rows.

    Returns (reduced nonzero rows as Fraction lists, pivot column list).
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced, pivots = _dense_reduced(rows)
    return [[row.get(j, Fraction(0)) for j in range(ncols)]
            for row in reduced], pivots


def row_space_basis(rows):
    basis, _ = rref(rows)
    return basis


def _kernel(reduced, pivots, ncols):
    """Kernel basis of the first ncols columns of a reduced echelon form
    with no pivot beyond them: one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row.get(f, Fraction(0))
        basis.append(tuple(vec))
    return basis


def nullspace(rows, ncols):
    """Basis of the right kernel of a dense rational matrix."""
    return _kernel(*_dense_reduced(rows), ncols)


def solve_affine(rows, rhs):
    """All solutions of A x = b: (particular, kernel basis) or None.

    `rows` are dense rational rows of A, `rhs` the right-hand entries.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    reduced, pivots = _dense_reduced(
        list(r) + [b] for r, b in zip(rows, rhs))
    if pivots and pivots[-1] == ncols:
        return None  # 0 = 1: inconsistent
    # without a pivot in the b column, the reduced rows restricted to A are
    # the reduced echelon form of A; free coordinates are left at zero
    particular = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        particular[p] = row.get(ncols, Fraction(0))
    return tuple(particular), _kernel(reduced, pivots, ncols)


def in_row_space(rows, vec):
    return Echelon(dict(enumerate(r)) for r in rows).contains(
        dict(enumerate(vec)))


class FactoredSolver:
    """Reusable exact solver for A x = b with many right-hand sides.

    A is given by its sparse columns and its number of rows.  The
    augmented rows [A | I] are reduced once; the identity block then holds
    the row transform T, and a solve is the sparse product T b.  Pivots
    inside the A-block give the coordinates of the solution whose free
    coordinates are zero; pivots in the identity block mark the rows of
    T b that must vanish for the system to be consistent.
    """

    def __init__(self, cols, n_rows):
        self.n_cols = n_cols = len(cols)
        rows = _transpose(cols, n_rows)
        for i, row in enumerate(rows):
            row[n_cols + i] = 1
        reduced, pivots = Echelon(rows).reduced()
        # the columns of T: right-hand index -> [(pivot, entry)]
        self._transform = [[] for _ in range(n_rows)]
        for row, p in zip(reduced, pivots):
            for k, v in row.items():
                if k >= n_cols:
                    self._transform[k - n_cols].append((p, v))

    def solve(self, rhs):
        """The solution of A x = rhs with zero free coordinates, as a
        sparse {column: Fraction} dict, or None when inconsistent.  `rhs`
        is a sparse {row: value} dict."""
        x = {}
        for i, b in rhs.items():
            if b:
                accumulate(x, self._transform[i], b)
        n_cols = self.n_cols
        if any(p >= n_cols for p in x):
            return None
        return x
