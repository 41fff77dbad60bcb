"""Exact linear algebra over the rationals.

Vectors are tuples of Fractions; sparse matrices are lists of {index:
value} dictionaries.  Ranks are computed by fraction-free elimination on
integer rows (denominators are cleared row-wise, which changes nothing
about row spaces), eliminating along whichever dimension is smaller.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def _reduce_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def rank_of_rows(rows):
    """Rank of the span of sparse rational rows, exactly."""
    pivots = {}  # leading index -> integer row
    rank = 0
    for raw in rows:
        row = _int_row(raw)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                rank += 1
                break
            a, b = row[lead], piv[lead]
            new = {}
            for k, v in row.items():
                new[k] = b * v
            for k, v in piv.items():
                w = new.get(k, 0) - a * v
                if w:
                    new[k] = w
                elif k in new:
                    del new[k]
            row = _reduce_content(new)
    return rank


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
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rank_of_rows(rows)


# ---------------------------------------------------------------------------
# dense reduced row echelon form (small systems: halos, ideals, annihilators)
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row-echelon form of dense Fraction rows.

    Returns (reduced nonzero rows, pivot column list).
    """
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def row_space_basis(rows):
    basis, _ = rref(rows)
    return basis


def same_row_space(rows_a, rows_b):
    return row_space_basis(rows_a) == row_space_basis(rows_b)


def nullspace(rows, ncols):
    """Basis of the right kernel of a dense rational matrix."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def solve_affine(rows, rhs):
    """All solutions of A x = b: (particular, kernel basis) or None.

    `rows` are dense rational rows of A, `rhs` the right-hand entries.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None  # 0 = 1: inconsistent
    particular = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        particular[p] = row[ncols]
    hom = nullspace([r[:ncols] for r in rows], ncols)
    return tuple(particular), hom


def in_row_space(rows, vec):
    base = row_space_basis(rows)
    probe = row_space_basis(base + [list(vec)])
    return len(probe) == len(base)


class FactoredSolver:
    """Reusable exact solver for A x = b with many right-hand sides.

    Reduces the augmented system [A | I] once; each solve is then a row
    transform plus back-substitution.
    """

    def __init__(self, rows):
        self.n_rows = len(rows)
        self.n_cols = len(rows[0]) if rows else 0
        aug = [
            [Fraction(x) for x in r]
            + [Fraction(1 if i == j else 0) for j in range(self.n_rows)]
            for i, r in enumerate(rows)
        ]
        reduced, pivots = rref(aug)
        # pivots inside the A-block are true pivots; anything beyond marks
        # a row exposing an inconsistency certificate
        self.pivots = [p for p in pivots if p < self.n_cols]
        self.reduced = reduced[:len(self.pivots)]
        self.checks = reduced[len(self.pivots):]

    def solve(self, rhs):
        """One solution of A x = rhs, or None when inconsistent."""
        nonzero = [(self.n_cols + i, Fraction(x))
                   for i, x in enumerate(rhs) if x]

        def transformed(row):
            return sum((row[k] * x for k, x in nonzero), Fraction(0))

        for row in self.checks:
            if transformed(row):
                return None
        # in reduced echelon form the free columns can be left at zero
        x = [Fraction(0)] * self.n_cols
        for row, p in zip(self.reduced, self.pivots):
            x[p] = transformed(row)
        return tuple(x)


class SubspaceBuilder:
    """Incrementally grown subspace of Q^n kept in reduced echelon form."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []          # reduced rows
        self.pivots = []        # pivot column of each row

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the space."""
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            return False
        inv = 1 / v[lead]
        v = [x * inv for x in v]
        for i, (row, p) in enumerate(zip(self.rows, self.pivots)):
            if row[lead]:
                f = row[lead]
                self.rows[i] = [a - f * b for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(lead)
        order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return True

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)
