"""Exact linear algebra: ranks, echelon forms, solvers, subspaces."""

import random
from fractions import Fraction

from dialab.linalg import (
    Echelon,
    FactoredSolver,
    in_row_space,
    nullspace,
    rank_of_columns,
    rref,
    solve_affine,
)


def random_matrix(rng, rows, cols, density=0.6):
    return [
        [Fraction(rng.randrange(-4, 5)) if rng.random() < density
         else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def reference_rref(mat):
    """Dense Gauss-Jordan elimination over Fractions: (rows, pivots)."""
    mat = [[Fraction(x) for x in r] for r in mat]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def rank_oracle(mat):
    return len(reference_rref(mat)[1])


def reference_solve(mat, rhs, cols):
    """The solution of A x = rhs with zero free coordinates, or None."""
    reduced, pivots = reference_rref(
        [list(r) + [b] for r, b in zip(mat, rhs)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, p in zip(reduced, pivots):
        x[p] = row[cols]
    return tuple(x)


def sparse(mat):
    return [{j: v for j, v in enumerate(r) if v} for r in mat]


def test_rank_matches_dense_oracle():
    rng = random.Random(6)
    for _ in range(40):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = random_matrix(rng, rows, cols)
        sparse_rows = [
            {j: v for j, v in enumerate(r) if v} for r in mat]
        sparse_cols = [
            {i: mat[i][j] for i in range(rows) if mat[i][j]}
            for j in range(cols)
        ]
        expect = rank_oracle(mat)
        assert Echelon(sparse_rows).rank == expect
        assert rank_of_columns(sparse_cols, nrows=rows) == expect


def test_rank_with_fractions():
    independent = [{0: Fraction(1, 2), 1: Fraction(1, 3)},
                   {0: Fraction(3, 2), 1: Fraction(2)}]
    assert Echelon(independent).rank == 2
    first = {0: Fraction(1, 2), 1: Fraction(1, 3)}
    scaled = {k: 3 * v for k, v in first.items()}
    assert Echelon([first, scaled]).rank == 1


def test_nullspace_and_row_space():
    mat = [[Fraction(1), Fraction(2), Fraction(3)],
           [Fraction(2), Fraction(4), Fraction(6)]]
    null = nullspace(mat, 3)
    assert len(null) == 2
    for vec in null:
        assert sum(a * b for a, b in zip(mat[0], vec)) == 0
    assert in_row_space(mat, [Fraction(3), Fraction(6), Fraction(9)])
    assert not in_row_space(mat, [Fraction(1), Fraction(0), Fraction(0)])


def test_solve_affine_consistent_and_inconsistent():
    mat = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    point, hom = solve_affine(mat, [Fraction(3), Fraction(1)])
    assert point == (Fraction(2), Fraction(1)) and hom == []
    singular = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_affine(singular, [Fraction(1), Fraction(3)]) is None
    point, hom = solve_affine(singular, [Fraction(1), Fraction(2)])
    assert len(hom) == 1


def test_factored_solver_agrees_with_direct_solve():
    rng = random.Random(13)
    for _ in range(30):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = random_matrix(rng, rows, cols)
        given = sparse(mat)
        solver = FactoredSolver(given, cols)
        assert given == sparse(mat)  # the identity block is not written in
        for _ in range(4):
            rhs = [Fraction(rng.randrange(-3, 4)) for _ in range(rows)]
            direct = solve_affine(mat, rhs)
            fast = solver.solve(dict(enumerate(rhs)))
            if direct is None:
                assert fast is None
            else:
                assert fast is not None
                dense = tuple(fast.get(j, Fraction(0)) for j in range(cols))
                assert dense == direct[0]
                for i in range(rows):
                    assert sum(mat[i][j] * dense[j]
                               for j in range(cols)) == rhs[i]


def test_echelon_views_match_dense_reference():
    rng = random.Random(29)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                if rng.random() < 0.5 else Fraction(0)
                for _ in range(cols)] for _ in range(rows)]
        mat[rng.randrange(rows)] = [Fraction(0)] * cols
        zero_col = rng.randrange(cols)
        for r in mat:
            r[zero_col] = Fraction(0)
        reduced, pivots = reference_rref(mat)
        assert rref(mat) == (reduced, pivots)
        kernel = []
        for f in (c for c in range(cols) if c not in pivots):
            vec = [Fraction(0)] * cols
            vec[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                vec[p] = -row[f]
            kernel.append(tuple(vec))
        assert nullspace(mat, cols) == kernel
        solver = FactoredSolver(sparse(mat), cols)
        for _ in range(3):
            rhs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                   for _ in range(rows)]
            if rng.random() < 0.5:  # a consistent right-hand side
                x = [Fraction(rng.randrange(-2, 3)) for _ in range(cols)]
                rhs = [sum(a * b for a, b in zip(r, x)) for r in mat]
            expect = reference_solve(mat, rhs, cols)
            direct = solve_affine(mat, rhs)
            fast = solver.solve(dict(enumerate(rhs)))
            if expect is None:
                assert direct is None and fast is None
            else:
                assert direct == (expect, kernel)
                assert fast == {j: v for j, v in enumerate(expect) if v}


def test_subspace_builder():
    sb = Echelon()
    assert sb.add({0: 1, 2: 1})
    assert sb.add({1: 1})
    assert not sb.add({0: 1, 1: 1, 2: 1})
    assert sb.rank == 2
    assert sb.contains({0: 2, 1: -3, 2: 2})
    assert not sb.contains({2: 1})
