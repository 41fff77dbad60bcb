"""Acceptance gate: one test per criterion, exact tolerances, one line each.

Every comparison below is exact rational arithmetic; the stated wall-clock
budgets are asserted where the criterion carries one.  Run with -s to see
the per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction


from dialab.finalg import (
    as_dendriform,
    check_axioms,
    fixture,
    leibnizification,
)
from dialab.freealg import (
    DendTerm,
    MonomialLeaf,
    MonomialNode,
    PointedWord,
    Word,
    dend_mul,
    dendriform_to_zinbiel,
    dias_mul,
    eval_monomial,
    leib_bracket_free,
    normalize_monomial,
    parse_dend_term,
    parse_word,
    tree_prec,
    tree_star,
    tree_succ,
    zinb_mul,
    zinbiel_as_dendriform,
)
from dialab.homology import (
    build_cdend_free,
    build_complex,
    build_cy_free,
    ad_homotopy,
    ad_operator,
    chain_map,
    epsilon_map,
    homotopy_free_dialgebra,
)
from dialab.lincomb import Lin
from dialab.operads import (
    poincare_check,
    preset_quadratic,
    quadratic_dual,
    sh_relations,
)
from dialab.trees import (
    LEFT,
    RIGHT,
    all_permutations,
    enumerate_trees,
)


def report(number, text):
    print("ACCEPTANCE %2d PASS: %s" % (number, text))


# ---------------------------------------------------------------------------

def test_criterion_01_catalan_counts():
    t0 = time.time()
    sizes = [len(enumerate_trees(n)) for n in range(7)]
    assert sizes == [1, 1, 2, 5, 14, 42, 132]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "tree counts 1,1,2,5,14,42,132 for degrees 0..6 "
              "(%.3fs)" % elapsed)


def test_criterion_02_middle_calculus():
    g = MonomialLeaf
    worked = MonomialNode(
        LEFT,
        MonomialNode(RIGHT,
                     MonomialNode(LEFT, g("x1"), g("x2")),
                     MonomialNode(LEFT, g("x3"), g("x4"))),
        MonomialNode(RIGHT, g("x5"), g("x6")))
    assert str(normalize_monomial(worked)) == "x1 x2 x3^ x4 x5 x6"

    def random_monomial(rng, leaves):
        if leaves == 1:
            return MonomialLeaf("x%d" % rng.randrange(1, 5))
        cut = rng.randrange(1, leaves)
        return MonomialNode(rng.choice([LEFT, RIGHT]),
                            random_monomial(rng, cut),
                            random_monomial(rng, leaves - cut))

    rng = random.Random(1729)
    for _ in range(100):
        m = random_monomial(rng, rng.randrange(1, 7))
        assert eval_monomial(m) == Lin.term(normalize_monomial(m))
    report(2, "pointer-chase middle agrees with full product expansion "
              "on the worked example and 100 random monomials")


def test_criterion_03_axiom_suites():
    t0 = time.time()
    # two-product axioms, exhaustively on singletons over two generators
    # and on every catalog fixture
    singles = [Lin.term(PointedWord((l,), 0)) for l in ("x", "y")]
    l_ = lambda a, b: dias_mul(a, b, LEFT)
    r_ = lambda a, b: dias_mul(a, b, RIGHT)
    for x, y, z in itertools.product(singles, repeat=3):
        assert l_(l_(x, y), z) == l_(x, r_(y, z)) == l_(x, l_(y, z))
        assert l_(r_(x, y), z) == r_(x, l_(y, z))
        assert r_(l_(x, y), z) == r_(x, r_(y, z)) == r_(r_(x, y), z)
    for name in ("field", "monoid_algebra", "monoid_double",
                 "action_dimonoid", "tensor_square", "diff_algebra",
                 "matrix_dialgebra", "vector_dialgebra",
                 "truncated_free_dialgebra"):
        assert check_axioms(fixture(name)) == "pass"

    # dendriform axioms and star associativity on tree triples, total
    # degree <= 6
    triples = 0
    for p in range(1, 5):
        for q in range(1, 6 - p):
            for r in range(1, 7 - p - q):
                for a0 in enumerate_trees(p):
                    for b0 in enumerate_trees(q):
                        for c0 in enumerate_trees(r):
                            a, b, c = (Lin.term(t) for t in (a0, b0, c0))
                            assert tree_prec(tree_prec(a, b), c) == \
                                tree_prec(a, tree_star(b, c))
                            assert tree_prec(tree_succ(a, b), c) == \
                                tree_succ(a, tree_prec(b, c))
                            assert tree_succ(tree_star(a, b), c) == \
                                tree_succ(a, tree_succ(b, c))
                            assert tree_star(tree_star(a, b), c) == \
                                tree_star(a, tree_star(b, c))
                            triples += 1

    # half-shuffle and bracket identities up to total length 6
    words = [Lin.term(Word(w))
             for n in (1, 2)
             for w in itertools.product("xy", repeat=n)]
    for x, y, z in itertools.product(words, repeat=3):
        assert zinb_mul(zinb_mul(x, y), z) == \
            zinb_mul(x, zinb_mul(y, z)) + zinb_mul(x, zinb_mul(z, y))
        lhs = leib_bracket_free(x, leib_bracket_free(y, z))
        rhs = leib_bracket_free(leib_bracket_free(x, y), z) - \
            leib_bracket_free(leib_bracket_free(x, z), y)
        assert lhs == rhs
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(3, "axiom suites (two-product, half-product x %d triples, "
              "half-shuffle, bracket) all exact (%.1fs)" % (triples, elapsed))


def test_criterion_04_d_squared_all_theories_all_fixtures():
    cases = [
        ("CY", "field"), ("CS", "field"),
        ("CY", "monoid_algebra"), ("CS", "monoid_algebra"),
        ("CY", "diff_algebra"), ("CS", "diff_algebra"),
        ("CY", "monoid_double"), ("CS", "monoid_double"),
        ("CY", "action_dimonoid"), ("CS", "action_dimonoid"),
        ("CY", "tensor_square"), ("CS", "tensor_square"),
        ("CY", "matrix_dialgebra"), ("CS", "matrix_dialgebra"),
        ("CY", "vector_dialgebra"), ("CS", "vector_dialgebra"),
    ]
    checked = 0
    for theory, name in cases:
        cx = build_complex(theory, fixture(name), 5)
        cx.verify_d_squared()
        checked += 1
    small_free = fixture("truncated_free_dialgebra", dim_v=1, maxdeg=2)
    for theory in ("CY", "CS"):
        build_complex(theory, small_free, 5).verify_d_squared()
        checked += 1
    for theory, alg in [
        ("CDend", fixture("truncated_free_dendriform", dim_v=1, maxdeg=2)),
        ("CDend", as_dendriform(fixture("truncated_free_zinbiel",
                                        dim_v=1, maxdeg=3))),
        ("CL", fixture("truncated_free_leibniz", dim_v=1, maxdeg=3)),
        ("CL", leibnizification(fixture("tensor_square"))),
        ("CL", leibnizification(fixture("diff_algebra"))),
        ("CZinb", fixture("truncated_free_zinbiel", dim_v=1, maxdeg=3)),
    ]:
        build_complex(theory, alg, 5).verify_d_squared()
        checked += 1
    report(4, "d o d = 0 exactly through degree 5 for %d theory/fixture "
              "pairs across all five theories" % checked)


def test_criterion_05_free_complex_contracts():
    t0 = time.time()
    for dim_v in (1, 2):
        for weight in range(1, 5):
            cx = build_cy_free(dim_v, weight)
            betti = cx.betti_table(weight)
            expect = {n: 0 for n in range(1, weight + 1)}
            if weight == 1:
                expect[1] = dim_v
            assert betti == expect
            for n in range(2, min(weight, 4) + 1):
                for term in cx.terms[n]:
                    ht = homotopy_free_dialgebra(Lin.term(term))
                    dht = cx.diff_lin(n + 1, ht)
                    hdt = homotopy_free_dialgebra(
                        cx.diff_lin(n, Lin.term(term)))
                    assert dht + hdt == Lin.term(term)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(5, "free two-product complex: homology vanishes above degree 1, "
              "degree-1 homology = generators, and d h + h d = id "
              "matrixwise in degrees 2..4 (%.1fs)" % elapsed)


def test_criterion_06_bar_unital_vanishing():
    cx = build_complex("CY", fixture("field"), 6)
    assert cx.betti_table(5) == {n: 0 for n in range(1, 6)}
    big = build_complex("CY", fixture("tensor_square"), 5)
    assert big.betti_table(4) == {1: 0, 2: 0, 3: 0, 4: 0}
    report(6, "bar-unital vanishing: ground field degrees 1..5 and the "
              "4-dimensional tensor-square fixture degrees 1..4, all zero")


def test_criterion_07_free_dendriform_vanishing():
    for weight in range(1, 5):
        cx = build_cdend_free(1, weight)
        betti = cx.betti_table(weight)
        expect = {n: 0 for n in range(1, weight + 1)}
        if weight == 1:
            expect[1] = 1
        assert betti == expect
    report(7, "free dendriform homology: zero above degree 1; weight-1 "
              "piece of degree 1 is one-dimensional")


def test_criterion_08_chain_maps_and_identities():
    D = fixture("tensor_square")
    DL = leibnizification(D)
    cs = build_complex("CS", D, 5)
    cl = build_complex("CL", DL, 5)
    cy = build_complex("CY", D, 5)
    rng = random.Random(99)
    # epsilon and the level-forgetting map commute with differentials
    for n in range(2, 5):
        for entries in itertools.islice(
                itertools.product(range(4), repeat=n), 0, None, 3):
            lhs = cs.diff_lin(n, epsilon_map(n, entries))
            rhs = chain_map("epsilon", cl.diff(n, entries))
            assert lhs == rhs
        for _ in range(40):
            s = rng.choice(all_permutations(n))
            entries = tuple(rng.randrange(4) for _ in range(n))
            lhs = cy.diff_lin(n, chain_map("psi", (s, entries)))
            rhs = chain_map("psi", cs.diff(n, (s, entries)))
            assert lhs == rhs
    # theta on a truncated free half-shuffle algebra
    R = fixture("truncated_free_zinbiel", dim_v=1, maxdeg=4)
    cd = build_complex("CDend", as_dendriform(R), 4)
    cz = build_complex("CZinb", R, 4)
    for n in range(2, 5):
        for r in range(1, n + 1):
            for entries in itertools.product(range(R.dim), repeat=n):
                lhs = cz.diff_lin(n, chain_map("theta", (r, entries)))
                rhs = chain_map("theta", cd.diff(n, (r, entries)))
                assert lhs == rhs
    # the slotwise-operator identities; the homotopy identity holds with
    # the sign bundle fixed by the chain-map property (ledger entry)
    for n in range(1, 4):
        for _ in range(40):
            s = rng.choice(all_permutations(n))
            entries = tuple(rng.randrange(4) for _ in range(n))
            y = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(4))
            term = (s, entries)
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
            assert chain_map("epsilon", ad_cl) == _apply(
                lambda t: ad_operator(D, y, t), epsilon_map(n, entries))
            hy = ad_homotopy(D, y, term)
            dh = cs.diff_lin(n + 1, hy)
            hd = _apply(lambda t: ad_homotopy(D, y, t), cs.diff(n, term))
            assert dh + hd == -1 * ad_operator(D, y, term)
            b = rng.randrange(4)
            lhs = epsilon_map(n + 1, entries + (b,))
            rhs = _apply(lambda t: ad_homotopy(D, D.unit_vector(b), t),
                         epsilon_map(n, entries))
            assert lhs == ((-1) ** n) * rhs
    report(8, "comparison chain maps commute with d through degree 4; "
              "slotwise-operator identities hold exactly "
              "(homotopy form: d h(y) + h(y) d = -ad(y))")


def _apply(fn, x: Lin) -> Lin:
    out = Lin()
    for t, c in x.data.items():
        out = out + c * fn(t)
    return out


def test_criterion_09_quadratic_duality():
    t0 = time.time()
    dias = preset_quadratic("dias")
    dend = preset_quadratic("dend")
    dual = quadratic_dual(dias)
    assert dual.relations == dend.relations  # equal reduced bases
    assert quadratic_dual(dual).relations == dias.relations
    assert dias.n_relations + dual.n_relations == 8
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(9, "annihilator of the five two-product relations is exactly "
              "the three half-product relations; double dual returns "
              "(%.3fs)" % elapsed)


def test_criterion_10_series_inversion():
    rep = poincare_check(10)
    assert rep["dias_closed_form_ok"]
    assert rep["dend_closed_form_ok"]
    assert rep["inverse_ok"]
    report(10, "series composition is the identity through degree 10 and "
               "both series match their closed forms term by term")


def test_criterion_11_dendriform_to_zinbiel():
    table = {
        "[3,2,1]": {"x y z": 1},
        "[3,1,2]": {"x z y": 1},
        "[1,3,1]": {"y x z": 1, "y z x": 1},
        "[2,1,3]": {"z x y": 1},
        "[1,2,3]": {"z y x": 1},
    }
    for name, words in table.items():
        got = dendriform_to_zinbiel(
            Lin.term(parse_dend_term("(%s; x y z)" % name)))
        assert got == Lin({parse_word(w): c for w, c in words.items()})
    pool = [DendTerm(t, tuple("abcd"[i] for i in range(t.degree)))
            for n in range(1, 4) for t in enumerate_trees(n)]
    pairs = 0
    for a in pool:
        for b in pool:
            if a.tree.degree + b.tree.degree > 4:
                continue
            A, B = Lin.term(a), Lin.term(b)
            pa, pb = dendriform_to_zinbiel(A), dendriform_to_zinbiel(B)
            assert dendriform_to_zinbiel(dend_mul(A, B, "prec")) == \
                zinbiel_as_dendriform(pa, pb, "prec")
            assert dendriform_to_zinbiel(dend_mul(A, B, "succ")) == \
                zinbiel_as_dendriform(pa, pb, "succ")
            pairs += 1
    report(11, "all five degree-3 comparison values reproduced; the map is "
               "a half-product homomorphism on %d pairs up to total "
               "degree 4" % pairs)


def test_criterion_12_low_degree_relation_lists():
    rels = {n: sh_relations(n) for n in (1, 2, 3)}
    assert [len(rels[n]) for n in (1, 2, 3)] == [1, 2, 5]
    assert rels[1][0][1].term_multiset() == [((1,), 0, (1,))]
    expected2 = {
        (1, 2): [((1,), 0, (1, 2)), ((1, 2), 0, (1,)), ((1, 2), 1, (1,))],
        (2, 1): [((1,), 0, (2, 1)), ((2, 1), 0, (1,)), ((2, 1), 1, (1,))],
    }
    for y, rel in rels[2]:
        assert rel.term_multiset() == expected2[y.name]
    expected3 = {
        (1, 2, 3): {((1, 2), 0, (1, 2)), ((1, 2), 1, (1, 2))},
        (2, 1, 3): {((1, 2), 0, (2, 1)), ((1, 2), 1, (1, 2))},
        (1, 3, 1): {((2, 1), 0, (1, 2)), ((1, 2), 1, (2, 1))},
        (3, 1, 2): {((2, 1), 0, (2, 1)), ((2, 1), 1, (1, 2))},
        (3, 2, 1): {((2, 1), 0, (2, 1)), ((2, 1), 1, (2, 1))},
    }
    for y, rel in rels[3]:
        terms = rel.term_multiset()
        quadratic = {t for t in terms if len(t[2]) == 2}
        assert quadratic == expected3[y.name]
        assert ((1,), 0, y.name) in terms
        assert sorted(t[1] for t in terms if t[2] == (1,)) == [0, 1, 2]
        assert len(terms) == 6
    report(12, "relation lists in degrees 1, 2, 3 (1 + 2 + 5 relations) "
               "match the displayed term multisets and operation labels")


def test_criterion_13_mixed_tensor_bracket():
    D = fixture("truncated_free_dialgebra", dim_v=1, maxdeg=2)
    E = fixture("truncated_free_dendriform", dim_v=1, maxdeg=2)
    pairs = list(itertools.product(range(D.dim), range(E.dim)))
    index = {p: i for i, p in enumerate(pairs)}

    def bracket(x, y):
        out = {}
        for (d1, e1), c1 in x.items():
            for (d2, e2), c2 in y.items():
                for dvec, evec, s in (
                    (D.mul_basis("left", d1, d2),
                     E.mul_basis("prec", e1, e2), 1),
                    (D.mul_basis("right", d2, d1),
                     E.mul_basis("succ", e2, e1), -1),
                    (D.mul_basis("left", d2, d1),
                     E.mul_basis("prec", e2, e1), -1),
                    (D.mul_basis("right", d1, d2),
                     E.mul_basis("succ", e1, e2), 1),
                ):
                    for dt, dc in enumerate(dvec):
                        if not dc:
                            continue
                        for et, ec in enumerate(evec):
                            if not ec:
                                continue
                            key = (dt, et)
                            out[key] = out.get(key, 0) + s * c1 * c2 * dc * ec
        return Lin(out)

    rng = random.Random(4242)

    def rand_elt():
        out = Lin()
        for _ in range(2):
            out = out + Fraction(rng.randrange(-3, 4)) * Lin.term(
                rng.choice(pairs))
        return out

    for _ in range(100):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert bracket(x, y) == -1 * bracket(y, x)
        assert not (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                    + bracket(z, bracket(x, y)))
    report(13, "mixed tensor bracket is antisymmetric and satisfies the "
               "Jacobi identity on 100 random triples, exactly")
