"""Chain complexes, exact Betti numbers, contracting homotopies, chain maps."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from dialab.errors import (
    CaseDispatchFailure,
    IndexOutOfRange,
    UnsupportedTheoryForSource,
)
from dialab.finalg import FiniteAlgebra, bar_units, fixture, leibnizification
from dialab.freealg import DendTerm, PointedWord, dend_mul, dias_term
from dialab.homology import (
    ad_homotopy,
    ad_operator,
    build_cdend_free,
    build_complex,
    build_cy_free,
    cdend_face_index,
    cdend_split_diff,
    cdend_symbol,
    chain_map,
    cy_bidegree,
    cy_degeneracy,
    cy_split_diff,
    epsilon_map,
    homotopy_free_dialgebra,
    theta_coefficients,
)
from dialab.linalg import rank_of_columns
from dialab.lincomb import Lin
from dialab.trees import (
    Tree,
    all_permutations,
    bifurcate,
    catalan,
    ends_in_cherry,
    enumerate_trees,
    face,
    insert_parallel_leaf,
    parse_name,
    parse_permutation,
    perm_face,
)


def zinbiel_as_dendriform_algebra(R):
    k = R.dim
    prec = [[R.mul_basis("dot", i, j) for j in range(k)] for i in range(k)]
    succ = [[R.mul_basis("dot", j, i) for j in range(k)] for i in range(k)]
    return FiniteAlgebra("dendriform", R.basis,
                         {"prec": prec, "succ": succ},
                         name=R.name + "_dend")


DIALGEBRA_FIXTURES = [
    "field", "monoid_algebra", "monoid_double", "action_dimonoid",
    "tensor_square", "diff_algebra", "matrix_dialgebra",
    "vector_dialgebra", "truncated_free_dialgebra",
]


# ---------------------------------------------------------------------------
# d^2 = 0 and simplicial structure
# ---------------------------------------------------------------------------

def test_d_squared_zero_cy_cs_all_fixtures():
    for name in DIALGEBRA_FIXTURES:
        alg = fixture(name)
        n_max = 5 if alg.dim <= 2 else 4
        for theory in ("CY", "CS"):
            build_complex(theory, alg, n_max).verify_d_squared()


def test_d_squared_zero_cy_cs_degree_5_four_dimensional():
    # the degree-5 piece of the 4-dimensional fixture, checked exactly
    alg = fixture("tensor_square")
    for theory in ("CY", "CS"):
        cx = build_complex(theory, alg, 5)
        for t in cx.terms[5]:
            assert not cx.diff_lin(4, cx.diff(5, t))


def test_d_squared_zero_other_theories():
    build_complex(
        "CDend", fixture("truncated_free_dendriform", dim_v=1, maxdeg=2),
        5).verify_d_squared()
    build_complex(
        "CDend",
        zinbiel_as_dendriform_algebra(
            fixture("truncated_free_zinbiel", dim_v=1, maxdeg=3)),
        5).verify_d_squared()
    build_complex(
        "CL", fixture("truncated_free_leibniz", dim_v=1, maxdeg=3),
        5).verify_d_squared()
    for name in ("tensor_square", "diff_algebra"):
        build_complex(
            "CL", leibnizification(fixture(name)), 5).verify_d_squared()
    build_complex(
        "CZinb", fixture("truncated_free_zinbiel", dim_v=1, maxdeg=3),
        5).verify_d_squared()


def _rescaled(alg, lam):
    """The isomorphic algebra in the basis lam_i e_i."""
    k = range(alg.dim)
    tables = {
        prod: [[[lam[i] * lam[j] * tab[i][j][t] / lam[t] for t in k]
                for j in k] for i in k]
        for prod, tab in alg.tables.items()
    }
    return FiniteAlgebra(alg.kind, alg.basis, tables, name=alg.name + "~")


def _reference_diff(theory, alg, n, term):
    """d on one basis term, written out face by face from the structure
    constants, with Lin arithmetic over the rationals."""
    if theory == "CL":
        # the bracket of every pair i < j, in slot i, deleting slot j
        out = Lin()
        for j in range(2, n + 1):
            for i in range(1, j):
                vec = alg.mul_basis("bracket", term[i - 1], term[j - 1])
                for c, coeff in enumerate(vec):
                    if coeff:
                        merged = (term[:i - 1] + (c,) + term[i:j - 1]
                                  + term[j:])
                        out = out + Lin.term(merged, (-1) ** j * coeff)
        return out
    x, entries = (None, term) if theory == "CZinb" else term
    out = Lin()
    for i in range(1, n):
        a, b = entries[i - 1], entries[i]
        if theory == "CY":
            fx = face(x, i)
            side = "left" if x.name[i - 1] > x.name[i] else "right"
            vec = alg.mul_basis(side, a, b)
        elif theory == "CS":
            fx = perm_face(x, i)
            side = "left" if x(i) < x(i + 1) else "right"
            vec = alg.mul_basis(side, a, b)
        elif theory == "CDend":
            fx = x - 1 if i < x else x
            op = cdend_symbol(i, x)
            vec = alg.mul_basis(op, a, b) if op != "star" else [
                u + v for u, v in zip(alg.mul_basis("prec", a, b),
                                      alg.mul_basis("succ", a, b))]
        else:
            vec = alg.mul_basis("dot", a, b)
            if i > 1:
                vec = [u + v for u, v in zip(vec, alg.mul_basis("dot", b, a))]
        for c, coeff in enumerate(vec):
            if coeff:
                merged = entries[:i - 1] + (c,) + entries[i + 1:]
                out = out + Lin.term(
                    merged if theory == "CZinb" else (fx, merged),
                    (-1) ** (i + 1) * coeff)
    return out


# three-dimensional sources with integer structure constants
KERNEL_SOURCES = [
    ("CY", "diff_algebra", {}), ("CS", "diff_algebra", {}),
    ("CDend", "truncated_free_dendriform", {"dim_v": 1, "maxdeg": 2}),
    ("CZinb", "truncated_free_zinbiel", {"dim_v": 1, "maxdeg": 3}),
    ("CL", "truncated_free_leibniz", {"dim_v": 1, "maxdeg": 3}),
]


@pytest.mark.parametrize("theory,name,params", KERNEL_SOURCES)
def test_faced_kernel_matches_reference_differential(theory, name, params):
    # the rescaled copy has rational constants, stored over a common D > 1
    integral = fixture(name, **params)
    lam = [Fraction(2), Fraction(-1, 3), Fraction(3, 2)]
    for alg in (integral, _rescaled(integral, lam)):
        cx = build_complex(theory, alg, 4)
        assert (cx.scale == 1) == (alg is integral)
        for n in range(1, 5):
            for t in cx.terms[n]:
                assert cx.diff(n, t) == _reference_diff(theory, alg, n, t)


def _assert_diff_lin_is_linear(cx):
    """diff_lin(n, sum c t) == sum c diff(n, t) over each whole basis, for
    int and for Fraction coefficients; past the top degree the zero Lin
    goes to zero without a face table."""
    for n in range(1, cx.n_max + 1):
        terms = cx.terms[n]
        for coeffs in ([k % 5 - 2 for k in range(len(terms))],
                       [Fraction(k % 7 - 3, k % 4 + 1)
                        for k in range(len(terms))]):
            expected = Lin((u, c * a) for t, c in zip(terms, coeffs)
                           for u, a in cx.diff(n, t).data.items())
            assert cx.diff_lin(n, Lin(zip(terms, coeffs))) == expected
    top = cx.n_max + 1
    assert cx.diff_lin(top, Lin()) == Lin()
    assert top not in cx._faces


@pytest.mark.parametrize("theory,name,params", KERNEL_SOURCES)
def test_diff_lin_is_linear_over_a_common_denominator(theory, name, params):
    cx = build_complex(theory, _rescaled(fixture(name, **params), _LAM), 4)
    assert cx.scale > 1
    _assert_diff_lin_is_linear(cx)


@pytest.mark.parametrize("build", [build_cy_free, build_cdend_free])
def test_free_piece_diff_lin_and_codes(build):
    # a term's code is its basis position, and decoding hands back the
    # basis terms themselves, not equal copies
    for dim_v, weight in ((1, 5), (2, 4)):
        cx = build(dim_v, weight)
        _assert_diff_lin_is_linear(cx)
        for n in range(1, weight + 1):
            for code, t in enumerate(cx.terms[n]):
                assert cx._key(n, t) == code
                assert cx._term(n, code) is t


def _outside_the_basis():
    """(complex, degree 2, term) triples whose term is no basis term; each
    was once accepted or failed with a bare KeyError or IndexError."""
    cy = build_complex("CY", fixture("tensor_square"), 3)
    cl = build_complex("CL", leibnizification(fixture("tensor_square")), 3)
    y = parse_name("[2,1]")
    out = [(cy, (y, e)) for e in ((0, 7), (0, -1), (0,))] + [(cl, (0, 5))]
    for build in (build_cy_free, build_cdend_free):
        cx = build(1, 3)
        out += [(cx, build(1, 2).terms[2][0]), (cx, (3, 4))]
    return out


def test_terms_outside_the_basis_are_refused():
    for cx, term in _outside_the_basis():
        for apply in (lambda: cx.diff(2, term),
                      lambda: cx.diff_lin(2, Lin.term(term)),
                      lambda: cx.face(2, term, 1)):
            with pytest.raises(IndexOutOfRange, match="not a basis term"):
                apply()
    cy = build_complex("CY", fixture("tensor_square"), 3)
    with pytest.raises(IndexOutOfRange, match="degree 4 not in 1..3"):
        cy.diff(4, cy.terms[3][0])


def _perturbed(alg, product, i, j, t, delta):
    """alg with delta added to the e_t coefficient of e_i * e_j, unchecked."""
    tables = {p: [[list(v) for v in row] for row in tab]
              for p, tab in alg.tables.items()}
    tables[product][i][j][t] += delta
    return FiniteAlgebra(alg.kind, alg.basis, tables, check=False)


def _assert_names_a_witness(cx, message):
    """A failed d^2 check must print one decoded basis term of the complex,
    not its int code, and d^2 of that term must be nonzero."""
    n = int(re.match(r"d\^2 != 0 at degree (\d+) on ", message).group(1))
    named = [t for t in cx.terms[n]
             if message == "d^2 != 0 at degree %d on %r" % (n, t)]
    assert len(named) == 1, message
    assert cx.diff_lin(n - 1, cx.diff(n, named[0]))


def test_d_squared_check_catches_a_perturbed_rational_table():
    lam = [Fraction(2), Fraction(-1, 3), Fraction(3, 2)]
    good = _rescaled(fixture("diff_algebra"), lam)
    good_leib = leibnizification(good)
    good_dend = _rescaled(
        fixture("truncated_free_dendriform", dim_v=1, maxdeg=2), lam)
    good_zinb = _rescaled(
        fixture("truncated_free_zinbiel", dim_v=1, maxdeg=3), lam)
    bad = _perturbed(good, "left", 1, 2, 0, Fraction(1, 7))
    cases = [
        ("CY", good, bad), ("CS", good, bad),
        ("CL", good_leib,
         _perturbed(good_leib, "bracket", 1, 2, 0, Fraction(1, 7))),
        ("CDend", good_dend,
         _perturbed(good_dend, "prec", 0, 0, 0, Fraction(1, 7))),
        ("CZinb", good_zinb,
         _perturbed(good_zinb, "dot", 0, 0, 0, Fraction(1, 7))),
    ]
    for theory, ok, broken in cases:
        build_complex(theory, ok, 3).verify_d_squared()
        cx = build_complex(theory, broken, 3)
        assert cx.scale > 1
        with pytest.raises(AssertionError, match="d\\^2 != 0") as err:
            cx.verify_d_squared()
        _assert_names_a_witness(cx, str(err.value))


@pytest.mark.parametrize("name", ["tensor_square", "vector_dialgebra"])
def test_integer_ranks_match_fraction_ranks(name):
    # rank runs on the integer columns of D * d; the Fraction view of d_n
    # must rank the same and hold the values of d itself
    alg = _rescaled(fixture(name), [Fraction(2), Fraction(-1, 3),
                                    Fraction(3, 2), Fraction(-4, 5)])
    for theory, src in (("CY", alg), ("CS", alg),
                        ("CL", leibnizification(alg))):
        cx = build_complex(theory, src, 4)
        # vector_dialgebra has x -| y = y |- x, so its bracket is zero and
        # is stored over D = 1
        assert (cx.scale > 1) != (theory == "CL"
                                  and name == "vector_dialgebra")
        for n in range(2, 5):
            mat = cx.matrix(n)
            rows = {u: i for i, u in enumerate(cx.terms[n - 1])}
            assert mat == [{rows[u]: c for u, c in cx.diff(n, t).data.items()}
                           for t in cx.terms[n]]
            assert all(type(c) is Fraction
                       for col in mat for c in col.values())
            assert cx.rank(n) == rank_of_columns(mat, nrows=cx.dim(n - 1))


def _free_reference_diff(theory, term):
    """d on one free-piece term, written out face by face from the products
    of the free algebra, with Lin arithmetic on the word objects."""
    x, words = term
    out = Lin()
    for i in range(1, len(words)):
        a, b = words[i - 1], words[i]
        if theory == "CY":
            fx = face(x, i)
            side = "left" if x.name[i - 1] > x.name[i] else "right"
            merged = Lin.term(dias_term(a, b, side))
        else:
            fx = cdend_face_index(i, x)
            op = cdend_symbol(i, x)
            ops = ("prec", "succ") if op == "star" else (op,)
            merged = Lin()
            for o in ops:
                merged = merged + dend_mul(Lin.term(a), Lin.term(b), o)
        for m, c in merged.data.items():
            out = out + Lin.term(
                (fx, words[:i - 1] + (m,) + words[i + 1:]),
                (-1) ** (i + 1) * c)
    return out


@pytest.mark.parametrize("theory", ["CY", "CDend"])
def test_free_piece_terms_come_back_as_words(theory):
    # the kernel runs on word ids; diff and diff_lin must hand back the
    # terms of the free algebra, equal to the face-by-face reference
    build = build_cy_free if theory == "CY" else build_cdend_free
    word_type = PointedWord if theory == "CY" else DendTerm
    index_type = Tree if theory == "CY" else int
    for dim_v in (1, 2):
        for weight in range(1, 5):
            cx = build(dim_v, weight)
            for n in range(1, weight + 1):
                total, expected = Lin(), Lin()
                for k, t in enumerate(cx.terms[n]):
                    ref = _free_reference_diff(theory, t)
                    assert cx.diff(n, t) == ref
                    assert cx.diff_lin(n, Lin.term(t)) == ref
                    total = total + Lin.term(t, k + 1)
                    expected = expected + (k + 1) * ref
                image = cx.diff_lin(n, total)
                assert image == expected
                for x, words in image.data:
                    assert type(x) is index_type
                    assert all(type(w) is word_type for w in words)


@pytest.mark.parametrize("build", [build_cy_free, build_cdend_free])
def test_free_pieces_square_to_zero(build):
    for dim_v in (1, 2):
        for weight in range(1, 6):
            assert build(dim_v, weight).verify_d_squared()


def test_theory_source_mismatch():
    with pytest.raises(UnsupportedTheoryForSource):
        build_complex("CY", fixture("truncated_free_zinbiel"), 3)
    with pytest.raises(UnsupportedTheoryForSource):
        build_complex("CL", ("free", 1), 3, weight=2)


def test_cy_chain_dimensions_over_the_field():
    cx = build_complex("CY", fixture("field"), 5)
    assert [cx.dim(n) for n in range(1, 6)] == [1, 2, 5, 14, 42]


def test_cy_bottom_differential_is_the_pair_of_products():
    alg = fixture("tensor_square")
    cx = build_complex("CY", alg, 2)
    left_tree = parse_name("[2,1]")
    right_tree = parse_name("[1,2]")
    for i in range(4):
        for j in range(4):
            out_left = cx.diff(2, (left_tree, (i, j)))
            vec = alg.mul_basis("left", i, j)
            assert out_left == Lin(
                {(parse_name("[1]"), (b,)): c
                 for b, c in enumerate(vec) if c})
            out_right = cx.diff(2, (right_tree, (i, j)))
            vec = alg.mul_basis("right", i, j)
            assert out_right == Lin(
                {(parse_name("[1]"), (b,)): c
                 for b, c in enumerate(vec) if c})


def test_cl_bottom_differential_is_the_bracket():
    alg = leibnizification(fixture("tensor_square"))
    cx = build_complex("CL", alg, 2)
    for i in range(4):
        for j in range(4):
            out = cx.diff(2, (i, j))
            vec = alg.mul_basis("bracket", i, j)
            assert out == Lin({(b,): c for b, c in enumerate(vec) if c})


def test_simplicial_face_relations_on_chains():
    alg = fixture("tensor_square")
    cx = build_complex("CY", alg, 4)
    for n in (3, 4):
        for y in enumerate_trees(n):
            for entries in itertools.islice(
                    itertools.product(range(4), repeat=n), 0, None, 11):
                term = (y, entries)
                for j in range(2, n):
                    for i in range(1, j):
                        lhs = Lin()
                        for t, c in cx.face(n, term, j).data.items():
                            lhs = lhs + c * cx.face(n - 1, t, i)
                        rhs = Lin()
                        for t, c in cx.face(n, term, i).data.items():
                            rhs = rhs + c * cx.face(n - 1, t, j - 1)
                        assert lhs == rhs
    for i in (0, 4):
        with pytest.raises(IndexOutOfRange):
            cx.face(4, cx.terms[4][0], i)


def test_simplicial_face_relations_on_cdend_chains():
    for alg in (fixture("truncated_free_dendriform", dim_v=1, maxdeg=2),
                zinbiel_as_dendriform_algebra(
                    fixture("truncated_free_zinbiel", dim_v=1, maxdeg=2))):
        k = alg.dim
        cx = build_complex("CDend", alg, 4)
        for n in (3, 4):
            for r in range(1, n + 1):
                for entries in itertools.islice(
                        itertools.product(range(k), repeat=n), 0, None, 5):
                    term = (r, entries)
                    for j in range(2, n):
                        for i in range(1, j):
                            lhs = Lin()
                            for t, c in cx.face(n, term, j).data.items():
                                lhs = lhs + c * cx.face(n - 1, t, i)
                            rhs = Lin()
                            for t, c in cx.face(n, term, i).data.items():
                                rhs = rhs + c * cx.face(n - 1, t, j - 1)
                            assert lhs == rhs


# ---------------------------------------------------------------------------
# bicomplex splits
# ---------------------------------------------------------------------------

def test_cy_bicomplex():
    alg = fixture("monoid_double")
    cx = build_complex("CY", alg, 4)
    # Y_{p,q} examples
    assert sorted(
        y.name for y in enumerate_trees(3) if cy_bidegree((y, ())) == (0, 2)
    ) == [(3, 1, 2), (3, 2, 1)]
    for n in (2, 3, 4):
        for term in cx.terms[n][::7]:
            h, v = cy_split_diff(cx, n, term)
            assert h + v == cx.diff(n, term)
    # d^h d^h = 0, d^v d^v = 0, d^h d^v + d^v d^h = 0
    def parts(n, x, which):
        out = Lin()
        for t, c in x.data.items():
            out = out + c * cy_split_diff(cx, n, t)[which]
        return out
    for n in (3, 4):
        for term in cx.terms[n][::13]:
            h, v = cy_split_diff(cx, n, term)
            assert not parts(n - 1, h, 0)
            assert not parts(n - 1, v, 1)
            assert parts(n - 1, h, 1) + parts(n - 1, v, 0) == Lin()


def test_cdend_bicomplex():
    alg = fixture("truncated_free_dendriform", dim_v=1, maxdeg=2)
    cx = build_complex("CDend", alg, 4)
    def parts(n, x, which):
        out = Lin()
        for t, c in x.data.items():
            out = out + c * cdend_split_diff(cx, n, t)[which]
        return out
    for n in (3, 4):
        for term in cx.terms[n][::17]:
            h, v = cdend_split_diff(cx, n, term)
            assert h + v == cx.diff(n, term)
            assert not parts(n - 1, h, 0)
            assert not parts(n - 1, v, 1)
            assert parts(n - 1, h, 1) + parts(n - 1, v, 0) == Lin()


# ---------------------------------------------------------------------------
# degeneracies from a bar-unit
# ---------------------------------------------------------------------------

def test_bar_unit_degeneracy_identities():
    seen_nonempty = 0
    for name in DIALGEBRA_FIXTURES:
        alg = fixture(name)
        halo = bar_units(alg)
        if halo.is_empty:
            continue
        seen_nonempty += 1
        e = halo.point
        k = alg.dim
        cx = build_complex("CY", alg, 4)
        for n in (2, 3):
            samples = list(itertools.product(
                enumerate_trees(n),
                itertools.islice(itertools.product(range(k), repeat=n),
                                 0, None, 3)))
            for term in samples:
                for j in range(n + 1):
                    s_j = cy_degeneracy(term, j, e)
                    # d_j s_j = id = d_{j+1} s_j (whenever the face exists)
                    if 1 <= j <= n:
                        assert _faces(cx, s_j, j) == Lin.term(term)
                    if j + 1 <= n:
                        assert _faces(cx, s_j, j + 1) == Lin.term(term)
                for j in range(n + 1):
                    for i in range(1, n):
                        s_j = cy_degeneracy(term, j, e)
                        if i < j:
                            expect = Lin()
                            for t, c in cx.face(n, term, i).data.items():
                                expect = expect + c * cy_degeneracy(
                                    t, j - 1, e)
                            assert _faces(cx, s_j, i) == expect
                        elif i > j + 1:
                            expect = Lin()
                            for t, c in cx.face(n, term, i - 1).data.items():
                                expect = expect + c * cy_degeneracy(t, j, e)
                            assert _faces(cx, s_j, i) == expect
                # s_i s_j = s_{j+1} s_i for i < j; equality fails at i = j
                for j in range(n + 1):
                    for i in range(j):
                        lhs = _degens(cy_degeneracy(term, j, e), i, e)
                        rhs = _degens(cy_degeneracy(term, i, e), j + 1, e)
                        assert lhs == rhs
    assert seen_nonempty >= 4  # the catalog has several bar-unital members


def _faces(cx, x: Lin, i) -> Lin:
    out = Lin()
    for t, c in x.data.items():
        out = out + c * cx.face(len(t[1]), t, i)
    return out


def _degens(x: Lin, j, e) -> Lin:
    out = Lin()
    for t, c in x.data.items():
        out = out + c * cy_degeneracy(t, j, e)
    return out


def test_documented_degeneracy_failure_on_trees():
    from dialab.trees import LEAF, bifurcate
    assert bifurcate(bifurcate(LEAF, 0), 0) != bifurcate(bifurcate(LEAF, 0), 1)


def test_bar_unit_gives_contractible_complex():
    # h = (-1)^(n+1) s_n contracts the complex of a bar-unital algebra
    alg = fixture("tensor_square")
    e = bar_units(alg).point
    cx = build_complex("CY", alg, 4)
    for n in (1, 2, 3):
        for term in cx.terms[n][::5]:
            h_n = ((-1) ** (n + 1)) * cy_degeneracy(term, n, e)
            dh = cx.diff_lin(n + 1, h_n)
            hd = Lin()
            for t, c in cx.diff(n, term).data.items():
                hd = hd + (c * ((-1) ** n)) * cy_degeneracy(t, n - 1, e)
            assert dh + hd == Lin.term(term)


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------

def test_weight_grading_preserved_and_free_cy_dims():
    cx = build_cy_free(2, 4)
    assert cx.dim(4) == catalan(4) * 2 ** 4
    for n in range(2, 5):
        for term in cx.terms[n][::23]:
            img = cx.diff(n, term)
            for t, _ in img.data.items():
                assert sum(len(w) for w in t[1]) == 4


def test_free_dialgebra_homology_vanishes():
    for dim_v in (1, 2):
        for weight in range(1, 5):
            cx = build_cy_free(dim_v, weight)
            betti = cx.betti_table(weight)
            expect = {n: 0 for n in range(1, weight + 1)}
            if weight == 1:
                expect[1] = dim_v
            assert betti == expect


@pytest.mark.parametrize("theory,dim_v,weights", [
    ("CY", 2, range(1, 6)), ("CY", 3, range(1, 4)), ("CDend", 2, range(1, 5)),
])
def test_ranks_through_the_multilinear_piece(theory, dim_v, weights):
    # rank scales the dim_v = 1 piece by dim_v^weight; the right-hand side
    # ranks the full matrix of the piece
    build = build_cy_free if theory == "CY" else build_cdend_free
    for weight in weights:
        cx = build(dim_v, weight)
        for n in range(1, weight + 1):
            assert cx.rank(n) == rank_of_columns(
                cx.matrix(n), nrows=cx.dim(n - 1))


def _homotopy_residuals(cx):
    """The basis terms x of degrees 2..top of a free CY piece with
    d h x + h d x != x."""
    out = []
    for n in range(2, cx.n_max + 1):
        for term in cx.terms[n]:
            x = Lin.term(term)
            dhx = cx.diff_lin(n + 1, homotopy_free_dialgebra(x))
            hdx = homotopy_free_dialgebra(cx.diff_lin(n, x))
            if dhx + hdx != x:
                out.append(term)
    return out


def test_contracting_homotopy_identity_matrixwise():
    for dim_v in (1, 2, 3):
        for weight in range(2, 5):
            assert _homotopy_residuals(build_cy_free(dim_v, weight)) == []


@pytest.mark.parametrize("dim_v,weight,count", [
    (1, 5, 2), (1, 6, 20), (2, 5, 64)])
def test_homotopy_residuals_at_the_validity_boundary(dim_v, weight, count):
    # the number of basis terms where the five-case identity first fails
    assert len(_homotopy_residuals(build_cy_free(dim_v, weight))) == count


def _drop_last(word, repoint):
    letters = word.letters[:-1]
    if repoint:
        return PointedWord(letters, len(letters) - 1)
    return PointedWord(letters, word.pointer)


def _reference_homotopy(term):
    """The five-case dispatch on one term, written on the tree and word
    objects: the reference for the table-driven operator."""
    y, entries = term
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
        return Lin()
    if n < 2:
        raise CaseDispatchFailure(term)
    w_prev = entries[-2]
    if len(w_prev) == 1:  # (f)
        return Lin()
    v = PointedWord(w_prev.letters[-1:], 0)
    if w_prev.pointer != len(w_prev) - 1:  # (d)
        rest = entries[:-2] + (_drop_last(w_prev, False), v, u)
        second = bifurcate(y, n - 1)
    else:  # (e)
        rest = entries[:-2] + (_drop_last(w_prev, True), v, u)
        second = insert_parallel_leaf(y, n - 1)
    first = insert_parallel_leaf(y, n)
    return Lin.term((first, rest), sign) + Lin.term((second, rest), -sign)


@pytest.mark.parametrize("dim_v,max_weight", [(1, 5), (2, 5), (3, 4)])
def test_homotopy_matches_the_object_level_dispatch(dim_v, max_weight):
    # on every basis term, and on each whole basis summed with signed
    # coefficients, so that images meeting in the one-pass sum cancel
    for weight in range(1, max_weight + 1):
        cx = build_cy_free(dim_v, weight)
        for n in range(1, weight + 1):
            total, expected = {}, Lin()
            for k, term in enumerate(cx.terms[n]):
                ref = _reference_homotopy(term)
                assert homotopy_free_dialgebra(Lin.term(term)) == ref
                assert homotopy_free_dialgebra(term) == ref
                total[term] = (-1) ** k * (k % 3 + 1)
                expected = expected + total[term] * ref
            assert homotopy_free_dialgebra(Lin(total)) == expected


def test_homotopy_case_values():
    # a cherry-ended tree with a bare pointed last letter contracts to zero
    x = PointedWord(("x1",), 0)
    term = (parse_name("[2,1]"), (x, x))
    assert not homotopy_free_dialgebra(Lin.term(term))
    # splitting the last letter off a long entry bifurcates the last leaf
    long = PointedWord(("x1", "x1"), 0)
    term = (parse_name("[1]"), (long,))
    out = homotopy_free_dialgebra(Lin.term(term))
    assert out == Lin.term(
        (parse_name("[2,1]"), (x, x)), 1)


def test_bar_unital_homology_vanishes():
    cx = build_complex("CY", fixture("field"), 6)
    assert cx.betti_table(5) == {n: 0 for n in range(1, 6)}


def test_abelian_leibniz_homology_is_one_dimensional():
    ab = FiniteAlgebra("leibniz", ["e"], {"bracket": [[(Fraction(0),)]]})
    cx = build_complex("CL", ab, 6)
    assert cx.betti_table(5) == {n: 1 for n in range(1, 6)}


def test_free_dendriform_homology_vanishes():
    for weight in range(1, 5):
        cx = build_cdend_free(1, weight)
        betti = cx.betti_table(weight)
        expect = {n: 0 for n in range(1, weight + 1)}
        if weight == 1:
            expect[1] = 1
        assert betti == expect


@pytest.mark.parametrize("build", [build_cy_free, build_cdend_free])
def test_free_homology_vanishes_at_weight_eight(build):
    assert build(1, 8).betti_table(8) == {n: 0 for n in range(1, 9)}


_LAM = [Fraction(2), Fraction(-1, 3), Fraction(3, 2)]

# complexes with d != 0 in every degree from 2 up, and their Betti tables
# as ranked by eliminating each d_n on its own (nonzero for the finite
# sources, through degree 4 of the degree-5 complexes)
_SWEPT = {
    "CY(diff_algebra)": (
        lambda: build_complex("CY", fixture("diff_algebra"), 5),
        {1: 2, 2: 7, 3: 32, 4: 166}),
    "CS(diff_algebra)": (
        lambda: build_complex("CS", fixture("diff_algebra"), 5),
        {1: 2, 2: 7, 3: 40, 4: 314}),
    "CY(diff_algebra~)": (
        lambda: build_complex("CY", _rescaled(fixture("diff_algebra"), _LAM),
                              5),
        {1: 2, 2: 7, 3: 32, 4: 166}),
    "CS(diff_algebra~)": (
        lambda: build_complex("CS", _rescaled(fixture("diff_algebra"), _LAM),
                              5),
        {1: 2, 2: 7, 3: 40, 4: 314}),
    "CDend(free_dendriform<=2)": (
        lambda: build_complex(
            "CDend", fixture("truncated_free_dendriform"), 5),
        {1: 1, 2: 5, 3: 15, 4: 41}),
    "CDend(free_dendriform<=2~)": (
        lambda: build_complex(
            "CDend", _rescaled(fixture("truncated_free_dendriform"), _LAM), 5),
        {1: 1, 2: 5, 3: 15, 4: 41}),
    "CZinb(free_zinbiel<=3)": (
        lambda: build_complex("CZinb", fixture("truncated_free_zinbiel"), 5),
        {1: 1, 2: 1, 3: 1, 4: 1}),
    "CL(free_leibniz<=3)": (
        lambda: build_complex("CL", fixture("truncated_free_leibniz"), 5),
        {1: 1, 2: 1, 3: 1, 4: 1}),
    "free CY dim_v=1 weight 6": (
        lambda: build_cy_free(1, 6), {n: 0 for n in range(1, 7)}),
    "free CY dim_v=2 weight 4": (
        lambda: build_cy_free(2, 4), {n: 0 for n in range(1, 5)}),
    "free CDend dim_v=1 weight 6": (
        lambda: build_cdend_free(1, 6), {n: 0 for n in range(1, 7)}),
    "free CDend dim_v=2 weight 4": (
        lambda: build_cdend_free(2, 4), {n: 0 for n in range(1, 5)}),
}


@pytest.mark.parametrize("name", sorted(_SWEPT))
def test_rank_sweep_in_every_call_order(name):
    # rank sweeps up from degree 2 and skips the rows of d_{n+1} that
    # d_n o d_{n+1} = 0 decides; each order of asking must give the rank of
    # the whole matrix of d_n, and the sweep must assemble its own columns
    # (a fresh complex, never one whose `matrix` was read first)
    build, betti = _SWEPT[name]
    ref = build()
    if name.endswith("~)"):
        assert ref.scale > 1
    degrees = range(1, ref.n_max + 2)
    expect = {n: rank_of_columns(ref.matrix(n), nrows=ref.dim(n - 1))
              for n in degrees}
    assert all(expect[n] for n in range(2, ref.n_max + 1))
    for order in (degrees, reversed(degrees)):
        cx = build()
        assert {n: cx.rank(n) for n in order} == expect
    for n in degrees:
        assert build().rank(n) == expect[n]
    assert build().betti_table(len(betti)) == betti
# ---------------------------------------------------------------------------

def test_epsilon_low_degrees():
    assert epsilon_map(1, ("x",)) == Lin.term((parse_permutation("[1]"),
                                               ("x",)))
    expected = Lin({
        (parse_permutation("[1,2]"), ("x", "y")): 1,
        (parse_permutation("[2,1]"), ("y", "x")): -1,
    })
    assert epsilon_map(2, ("x", "y")) == expected


def test_epsilon_is_a_chain_map():
    D = fixture("tensor_square")
    cs = build_complex("CS", D, 4)
    cl = build_complex("CL", leibnizification(D), 4)
    for n in range(2, 5):
        for entries in itertools.islice(
                itertools.product(range(4), repeat=n), 0, None, 5):
            lhs = cs.diff_lin(n, epsilon_map(n, entries))
            rhs = chain_map("epsilon", cl.diff(n, entries))
            assert lhs == rhs


def test_level_forgetting_is_a_chain_map():
    D = fixture("tensor_square")
    cs = build_complex("CS", D, 4)
    cy = build_complex("CY", D, 4)
    rng = random.Random(3)
    for n in range(2, 5):
        perms = all_permutations(n)
        for _ in range(25):
            s = rng.choice(perms)
            entries = tuple(rng.randrange(4) for _ in range(n))
            lhs = cy.diff_lin(n, chain_map("psi", (s, entries)))
            rhs = chain_map("psi", cs.diff(n, (s, entries)))
            assert lhs == rhs


def test_composite_realizes_the_coding_map():
    # psi after epsilon sends x to  sum sgn(s) htree(s) (x) s^{-1}-tuple
    D = fixture("tensor_square")
    cl = build_complex("CL", leibnizification(D), 3)
    cy = build_complex("CY", D, 3)
    for entries in itertools.islice(
            itertools.product(range(4), repeat=3), 0, None, 9):
        comp = chain_map("psi", epsilon_map(3, entries))
        lhs = cy.diff_lin(3, comp)
        rhs = chain_map("psi", chain_map(
            "epsilon", cl.diff(3, entries)))
        assert lhs == rhs
    got = chain_map("psi", epsilon_map(2, ("a", "b")))
    assert got == Lin({
        (parse_name("[2,1]"), ("a", "b")): 1,
        (parse_name("[1,2]"), ("b", "a")): -1,
    })


def test_ad_identities():
    D = fixture("tensor_square")
    cs = build_complex("CS", D, 4)
    cl = build_complex("CL", leibnizification(D), 4)
    rng = random.Random(7)
    for n in range(1, 4):
        perms = all_permutations(n)
        for _ in range(30):
            s = rng.choice(perms)
            entries = tuple(rng.randrange(4) for _ in range(n))
            y = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(4))
            term = (s, entries)
            # epsilon intertwines the slotwise operator
            ad_cl = Lin()
            for i, e in enumerate(entries):
                vec = tuple(
                    a - b for a, b in zip(
                        D.mul("left", D.unit_vector(e), y),
                        D.mul("right", y, D.unit_vector(e))))
                for b, c in enumerate(vec):
                    if c:
                        ad_cl = ad_cl + Lin.term(
                            entries[:i] + (b,) + entries[i + 1:], c)
            lhs = chain_map("epsilon", ad_cl)
            rhs = Lin()
            for t, c in epsilon_map(n, entries).data.items():
                rhs = rhs + c * ad_operator(D, y, t)
            assert lhs == rhs
            # the slotwise operator is null-homotopic:
            # d h(y) + h(y) d = -ad(y) with the printed insertion signs
            hy = ad_homotopy(D, y, term)
            dh = cs.diff_lin(n + 1, hy)
            hd = Lin()
            for t, c in cs.diff(n, term).data.items():
                hd = hd + c * ad_homotopy(D, y, t)
            assert dh + hd == -1 * ad_operator(D, y, term)
            # the antisymmetrization of a lengthened tuple
            b = rng.randrange(4)
            lhs = epsilon_map(n + 1, entries + (b,))
            rhs = Lin()
            for t, c in epsilon_map(n, entries).data.items():
                rhs = rhs + c * ad_homotopy(D, D.unit_vector(b), t)
            assert lhs == ((-1) ** n) * rhs
    zero = D.zero()
    term = (all_permutations(2)[0], (0, 1))
    assert not ad_operator(D, zero, term)
    assert not ad_homotopy(D, zero, term)


def test_bracket_complex_last_slot_recursion():
    # d(x_1..x_n, y) = (d(x_1..x_n), y) + (-1)^(n+1) ad(y)(x_1..x_n):
    # the last-slot block of the bracket differential carries (-1)^(n+1)
    g = leibnizification(fixture("tensor_square"))
    cl = build_complex("CL", g, 5)
    for n in (2, 3):
        for entries in itertools.islice(
                itertools.product(range(4), repeat=n + 1), 0, None, 7):
            x, y = entries[:n], entries[n]
            lhs = cl.diff(n + 1, entries)
            rhs = Lin()
            for t, c in cl.diff(n, x).data.items():
                rhs = rhs + Lin.term(t + (y,), c)
            for i in range(n):
                vec = g.mul_basis("bracket", x[i], y)
                for b, c in enumerate(vec):
                    if c:
                        rhs = rhs + Lin.term(
                            x[:i] + (b,) + x[i + 1:],
                            ((-1) ** (n + 1)) * c)
            assert lhs == rhs


def test_contracting_homotopy_weight_five_boundary():
    # beyond the validated weight range the case dispatch still contracts
    # every term with at most one trailing bare pointed letter; terms with
    # longer trailing runs over low-attached parallel trees are the
    # documented boundary of the five-case formula (see the operator's
    # docstring), and the vanishing itself is certified by exact ranks
    cx = build_cy_free(1, 5)
    residuals = _homotopy_residuals(cx)
    for y, entries in residuals:
        run = 0
        for w in reversed(entries):
            if len(w) > 1:
                break
            run += 1
        assert run >= 2 and not y.name[-1] == 1
    known = (parse_name("[3,1,2,4]"), parse_name("[4,2,1,3,5]"))
    assert {y for y, _ in residuals} == set(known)
    assert cx.betti_table(5) == {n: 0 for n in range(1, 6)}


def test_elimination_contraction_beyond_the_case_operator():
    # the solver-built homotopy contracts every weight piece, including the
    # weight-5 configurations outside the five-case dispatch
    from dialab.homology import contraction_by_elimination
    for builder, weight in ((build_cy_free, 5), (build_cdend_free, 3),
                            (build_cy_free, 6), (build_cdend_free, 5)):
        cx = builder(1, weight)
        h = contraction_by_elimination(cx)
        for n in range(2, weight + 1):
            for term in cx.terms[n]:
                ht = h[n].get(term, Lin())
                dht = cx.diff_lin(n + 1, ht) if ht else Lin()
                hd = Lin()
                for u, c in cx.diff(n, term).data.items():
                    hd = hd + c * h[n - 1].get(u, Lin())
                assert dht + hd == Lin.term(term)


def test_theta_values_and_chain_map():
    # component 1 is the identity, component n the reversal up to sign
    for n in range(1, 6):
        (s1, c1), = theta_coefficients(n, 1)
        assert s1.values == tuple(range(1, n + 1)) and c1 == 1
        (sn, cn), = theta_coefficients(n, n)
        assert sn.values == tuple(range(n, 0, -1)) and abs(cn) == 1
    R = fixture("truncated_free_zinbiel", dim_v=1, maxdeg=4)
    E = zinbiel_as_dendriform_algebra(R)
    cd = build_complex("CDend", E, 4)
    cz = build_complex("CZinb", R, 4)
    for n in range(2, 5):
        for r in range(1, n + 1):
            for entries in itertools.product(range(R.dim), repeat=n):
                lhs = cz.diff_lin(n, chain_map("theta", (r, entries)))
                rhs = chain_map("theta", cd.diff(n, (r, entries)))
                assert lhs == rhs
