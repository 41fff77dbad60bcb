"""Free-algebra arithmetic: pointed words, tree terms, words, and the maps
between the carriers."""

import itertools
import random
from fractions import Fraction

import pytest

from dialab.errors import IndexOutOfRange, UndefinedOnUnit
from dialab.freealg import (
    FREE,
    DendTerm,
    MonomialLeaf,
    MonomialNode,
    PointedWord,
    Word,
    dend_mul,
    dendriform_to_zinbiel,
    dias_bracket,
    dias_mul,
    eval_monomial,
    eval_tree_monomial,
    fusion,
    gamma_tensor,
    leib_bracket_free,
    leibniz_to_dialgebra,
    normalize_monomial,
    parse_dend_term,
    parse_lincomb,
    parse_pointed_word,
    parse_word,
    perm_shuffle_star,
    perms_to_trees,
    shuffles,
    tree_involution,
    tree_prec,
    tree_star,
    tree_succ,
    zinb_mul,
    zinbiel_as_dendriform,
)
from dialab.homology import _INDEX_SETS
from dialab.lincomb import Lin, bilinear, image_pairs
from dialab.trees import (
    LEAF,
    CHERRY,
    LEFT,
    RIGHT,
    Permutation,
    all_permutations,
    enumerate_trees,
    parse_name,
)


def lw(text):
    return Lin.term(parse_word(text))


def lpw(text):
    return Lin.term(parse_pointed_word(text))


def ldt(text):
    return Lin.term(parse_dend_term(text))


# ---------------------------------------------------------------------------
# pointed words: the two-product calculus
# ---------------------------------------------------------------------------

def test_middle_of_worked_monomial():
    g = MonomialLeaf
    m = MonomialNode(
        LEFT,
        MonomialNode(RIGHT,
                     MonomialNode(LEFT, g("x1"), g("x2")),
                     MonomialNode(LEFT, g("x3"), g("x4"))),
        MonomialNode(RIGHT, g("x5"), g("x6")))
    assert str(normalize_monomial(m)) == "x1 x2 x3^ x4 x5 x6"


def test_middle_trivial_cases():
    assert str(normalize_monomial(MonomialLeaf("x"))) == "x^"
    m = MonomialNode(RIGHT, MonomialLeaf("x"), MonomialLeaf("y"))
    assert str(normalize_monomial(m)) == "x y^"


def _random_monomial(rng, leaves):
    if leaves == 1:
        return MonomialLeaf("x%d" % rng.randrange(1, 4))
    cut = rng.randrange(1, leaves)
    return MonomialNode(
        rng.choice([LEFT, RIGHT]),
        _random_monomial(rng, cut),
        _random_monomial(rng, leaves - cut))


def test_middle_agrees_with_product_expansion():
    # oracle: evaluate the monomial with the free products themselves
    rng = random.Random(2024)
    for _ in range(100):
        m = _random_monomial(rng, rng.randrange(1, 7))
        assert eval_monomial(m) == Lin.term(normalize_monomial(m))


def test_product_formulas():
    a, b = lpw("x1 x2^"), lpw("x3^ x4")
    assert dias_mul(a, b, LEFT).format() == "x1 x2^ x3 x4"
    assert dias_mul(a, b, RIGHT).format() == "x1 x2 x3^ x4"
    assert dias_mul(lpw("x^"), lpw("y^"), LEFT).format() == "x^ y"


def _pointed_words_upto(letters, max_len):
    for n in range(1, max_len + 1):
        for ltrs in itertools.product(letters, repeat=n):
            for p in range(n):
                yield PointedWord(ltrs, p)


def _check_two_product_axioms(x, y, z):
    l = lambda a, b: dias_mul(a, b, LEFT)
    r = lambda a, b: dias_mul(a, b, RIGHT)
    assert l(l(x, y), z) == l(x, r(y, z))
    assert l(l(x, y), z) == l(x, l(y, z))
    assert l(r(x, y), z) == r(x, l(y, z))
    assert r(l(x, y), z) == r(x, r(y, z))
    assert r(r(x, y), z) == r(x, r(y, z))


def test_two_product_axioms_exhaustive_short():
    words = [Lin.term(w) for w in _pointed_words_upto(["x", "y"], 1)]
    for x, y, z in itertools.product(words, repeat=3):
        _check_two_product_axioms(x, y, z)


def test_two_product_axioms_random():
    rng = random.Random(5)
    pool = list(_pointed_words_upto(["x", "y", "z"], 4))
    for _ in range(200):
        x, y, z = (Lin.term(rng.choice(pool)) for _ in range(3))
        _check_two_product_axioms(x, y, z)


def test_bracket_on_pointed_words():
    out = dias_bracket(lpw("x^"), lpw("y^"))
    assert out == Lin({parse_pointed_word("x^ y"): 1,
                       parse_pointed_word("y x^"): -1})
    # Leibniz identity on short pointed words
    pool = [Lin.term(w) for w in _pointed_words_upto(["x", "y"], 1)]
    rng = random.Random(17)
    many = list(_pointed_words_upto(["x", "y"], 2))
    for _ in range(100):
        x, y, z = (Lin.term(rng.choice(many)) for _ in range(3))
        lhs = dias_bracket(x, dias_bracket(y, z))
        rhs = dias_bracket(dias_bracket(x, y), z) \
            - dias_bracket(dias_bracket(x, z), y)
        assert lhs == rhs
    for x, y, z in itertools.product(pool, repeat=3):
        lhs = dias_bracket(x, dias_bracket(y, z))
        rhs = dias_bracket(dias_bracket(x, y), z) \
            - dias_bracket(dias_bracket(x, z), y)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the free Leibniz bracket and the comparison square
# ---------------------------------------------------------------------------

def test_free_bracket_examples():
    assert leib_bracket_free(lw("v"), lw("w")).format() == "v w"
    assert leib_bracket_free(lw("v"), lw("w u")) == \
        lw("v w u") - lw("v u w")
    assert leib_bracket_free(lw("x y"), lw("v")).format() == "x y v"


def _words_upto(letters, max_len):
    for n in range(1, max_len + 1):
        for ltrs in itertools.product(letters, repeat=n):
            yield Word(ltrs)


def test_free_leibniz_identity_total_length_6():
    words1 = [Lin.term(w) for w in _words_upto(["x", "y"], 1)]
    words2 = [Lin.term(w) for w in _words_upto(["x", "y"], 2)]
    for x, y, z in itertools.product(words2, repeat=3):
        lhs = leib_bracket_free(x, leib_bracket_free(y, z))
        rhs = leib_bracket_free(leib_bracket_free(x, y), z) \
            - leib_bracket_free(leib_bracket_free(x, z), y)
        assert lhs == rhs
    # a couple of longer mixed-length shapes
    for x in [lw("x y z"), lw("x x x x")]:
        for y in words1:
            for z in words2:
                lhs = leib_bracket_free(x, leib_bracket_free(y, z))
                rhs = leib_bracket_free(leib_bracket_free(x, y), z) \
                    - leib_bracket_free(leib_bracket_free(x, z), y)
                assert lhs == rhs


def test_iterated_bracket_map_values():
    assert leibniz_to_dialgebra(parse_word("v1")) == lpw("v1^")
    assert leibniz_to_dialgebra(parse_word("v1 v2")) == \
        lpw("v1^ v2") - lpw("v2 v1^")
    expected = (lpw("v1^ v2 v3") - lpw("v2 v1^ v3")
                - lpw("v3 v1^ v2") + lpw("v3 v2 v1^"))
    assert leibniz_to_dialgebra(parse_word("v1 v2 v3")) == expected


def test_fusion_forgets_the_mark():
    assert fusion(lpw("x y^ z")).format() == "x y z"


def test_comparison_square_commutes():
    # fusion after the pointed map equals the unpointed alternating sum
    for n in range(1, 6):
        for ltrs in itertools.product(["x", "y"], repeat=n):
            w = Word(ltrs)
            assert fusion(leibniz_to_dialgebra(w)) == gamma_tensor(w)


def test_iterated_bracket_is_a_bracket_morphism():
    # the map intertwines the free bracket with the pointed-word bracket
    words = list(_words_upto(["x", "y"], 2))
    for a, b in itertools.product(words, repeat=2):
        lhs = Lin()
        for t, c in leib_bracket_free(Lin.term(a), Lin.term(b)).data.items():
            lhs = lhs + c * leibniz_to_dialgebra(t)
        rhs = dias_bracket(leibniz_to_dialgebra(a), leibniz_to_dialgebra(b))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# half-shuffles
# ---------------------------------------------------------------------------

def _shuffle_words_oracle(u, v):
    """Enumerate shuffles positionally (independent of the product code)."""
    p, q = len(u), len(v)
    out = {}
    for spots in itertools.combinations(range(p + q), p):
        merged = [None] * (p + q)
        ui, vi = iter(u), iter(v)
        for k in range(p + q):
            merged[k] = next(ui) if k in spots else next(vi)
        w = Word(merged)
        out[w] = out.get(w, 0) + 1
    return Lin(out)


def test_half_shuffle_examples():
    assert zinb_mul(lw("x"), lw("y")).format() == "x y"
    assert zinb_mul(lw("x y"), lw("z")) == lw("x y z") + lw("x z y")
    # oracle comparison: x0 * sh(rest, right)
    rng = random.Random(3)
    for _ in range(50):
        a = Word([rng.choice("xy") for _ in range(rng.randrange(1, 4))])
        b = Word([rng.choice("xy") for _ in range(rng.randrange(1, 4))])
        expected = _shuffle_words_oracle(a.letters[1:], b.letters).map_terms(
            lambda w: Word((a.letters[0],) + w.letters))
        assert zinb_mul(Lin.term(a), Lin.term(b)) == expected


def test_half_shuffle_identity_total_length_6():
    words = list(_words_upto(["x", "y"], 2))
    for x, y, z in itertools.product(words, repeat=3):
        X, Y, Z = Lin.term(x), Lin.term(y), Lin.term(z)
        lhs = zinb_mul(zinb_mul(X, Y), Z)
        rhs = zinb_mul(X, zinb_mul(Y, Z)) + zinb_mul(X, zinb_mul(Z, Y))
        assert lhs == rhs


def test_symmetrized_product_is_commutative_associative():
    words = list(_words_upto(["x", "y"], 2))
    for x, y in itertools.product(words, repeat=2):
        X, Y = Lin.term(x), Lin.term(y)
        assert zinb_mul(X, Y, "symmetrized") == zinb_mul(Y, X, "symmetrized")
    for x, y, z in itertools.product(words, repeat=3):
        X, Y, Z = Lin.term(x), Lin.term(y), Lin.term(z)
        assert zinb_mul(zinb_mul(X, Y, "symmetrized"), Z, "symmetrized") == \
            zinb_mul(X, zinb_mul(Y, Z, "symmetrized"), "symmetrized")


# ---------------------------------------------------------------------------
# dendriform structure on trees and tree terms
# ---------------------------------------------------------------------------

def test_tree_half_products():
    c = Lin.term(CHERRY)
    assert tree_prec(c, c) == Lin.term(parse_name("[2,1]"))
    assert tree_succ(c, c) == Lin.term(parse_name("[1,2]"))
    assert tree_prec(Lin.term(parse_name("[2,1]")), c) == \
        Lin.term(parse_name("[3,2,1]")) + Lin.term(parse_name("[3,1,2]"))


def test_unit_cases():
    c = Lin.term(CHERRY)
    l = Lin.term(LEAF)
    assert tree_prec(c, l) == c
    assert tree_succ(l, c) == c
    assert not tree_succ(c, l)
    assert not tree_prec(l, c)
    with pytest.raises(UndefinedOnUnit):
        tree_prec(l, l)
    with pytest.raises(UndefinedOnUnit):
        tree_succ(l, l)
    assert tree_star(l, c) == c == tree_star(c, l)
    assert tree_star(l, l) == l


def _tree_triples(max_total):
    for p in range(1, max_total - 1):
        for q in range(1, max_total - p):
            for r in range(1, max_total - p - q + 1):
                for a in enumerate_trees(p):
                    for b in enumerate_trees(q):
                        for c in enumerate_trees(r):
                            yield Lin.term(a), Lin.term(b), Lin.term(c)


def test_dendriform_axioms_on_trees_total_degree_6():
    for a, b, c in _tree_triples(6):
        assert tree_prec(tree_prec(a, b), c) == \
            tree_prec(a, tree_star(b, c))
        assert tree_prec(tree_succ(a, b), c) == \
            tree_succ(a, tree_prec(b, c))
        assert tree_succ(tree_star(a, b), c) == \
            tree_succ(a, tree_succ(b, c))


def test_star_associative_total_degree_6():
    for a, b, c in _tree_triples(6):
        assert tree_star(tree_star(a, b), c) == tree_star(a, tree_star(b, c))


def test_dendriform_axioms_on_labelled_terms():
    rng = random.Random(23)
    pool = [
        DendTerm(t, tuple(rng.choice("uv") for _ in range(t.degree)))
        for n in range(1, 4) for t in enumerate_trees(n)
    ]
    for _ in range(60):
        a, b, c = (Lin.term(rng.choice(pool)) for _ in range(3))
        star = lambda x, y: dend_mul(x, y, "star")
        assert dend_mul(dend_mul(a, b, "prec"), c, "prec") == \
            dend_mul(a, star(b, c), "prec")
        assert dend_mul(dend_mul(a, b, "succ"), c, "prec") == \
            dend_mul(a, dend_mul(b, c, "prec"), "succ")
        assert dend_mul(star(a, b), c, "succ") == \
            dend_mul(a, dend_mul(b, c, "succ"), "succ")


def test_involution_reverses_names_and_respects_star():
    assert tree_involution(parse_name("[1,2]")) == parse_name("[2,1]")
    for n in range(4):
        for m in range(4):
            for a in enumerate_trees(n):
                for b in enumerate_trees(m):
                    lhs = tree_star(Lin.term(a), Lin.term(b)).map_terms(
                        tree_involution)
                    rhs = tree_star(Lin.term(tree_involution(b)),
                                    Lin.term(tree_involution(a)))
                    assert lhs == rhs


def test_shuffle_star_and_coding_homomorphism_in_bidegree_1_1():
    one = Lin.term(Permutation([1]))
    two = perm_shuffle_star(one, one)
    assert two == Lin.term(Permutation([1, 2])) + \
        Lin.term(Permutation([2, 1]))
    assert perms_to_trees(two) == tree_star(Lin.term(CHERRY),
                                            Lin.term(CHERRY))


def test_shuffle_star_mass_obstruction_in_bidegree_1_2():
    # The shuffle product always has binomial(3,1) = 3 terms in bidegree
    # (1,2), but the recursive tree product of the images of [1] and [2,1]
    # has only 2, so no coefficient-1 coding of permutations by trees can
    # intertwine the two products beyond bidegree (1,1); see the decisions
    # ledger.
    one = Lin.term(Permutation([1]))
    for t in all_permutations(2):
        sh = perm_shuffle_star(one, Lin.term(t))
        assert sum(c for _, c in sh.items()) == 3
        trees = tree_star(Lin.term(CHERRY),
                          Lin.term(perm_to_tree_depth(t)))
        assert perms_to_trees(sh) != trees
    heavy = tree_star(Lin.term(CHERRY),
                      Lin.term(perm_to_tree_depth(Permutation([2, 1]))))
    assert sum(c for _, c in heavy.items()) == 2


def perm_to_tree_depth(s):
    from dialab.trees import perm_to_tree
    return perm_to_tree(s, "depth")


def test_shuffle_count():
    assert len(shuffles(2, 2)) == 6
    assert len(shuffles(0, 3)) == 1


def test_eval_tree_monomial_is_the_inverse_isomorphism():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            args = ["x%d" % i for i in range(1, n + 1)]
            assert eval_tree_monomial(t, args) == \
                Lin.term(DendTerm(t, tuple(args)))


def test_eval_tree_monomial_rewrites():
    # (x>y)<z = x>(y<z) both produce the mid-graft tree
    x, y, z = (Lin.term(DendTerm(CHERRY, (l,))) for l in "xyz")
    lhs = dend_mul(dend_mul(x, y, "succ"), z, "prec")
    rhs = dend_mul(x, dend_mul(y, z, "prec"), "succ")
    assert lhs == rhs == Lin.term(
        DendTerm(parse_name("[1,3,1]"), ("x", "y", "z")))


# ---------------------------------------------------------------------------
# dendriform -> half-shuffle comparison
# ---------------------------------------------------------------------------

def test_comparison_values_degree_2_3():
    assert dendriform_to_zinbiel(ldt("([2,1]; x y)")) == lw("x y")
    table3 = {
        "[3,2,1]": [("x y z", 1)],
        "[3,1,2]": [("x z y", 1)],
        "[1,3,1]": [("y x z", 1), ("y z x", 1)],
        "[2,1,3]": [("z x y", 1)],
        "[1,2,3]": [("z y x", 1)],
    }
    for name, words in table3.items():
        out = dendriform_to_zinbiel(ldt("(%s; x y z)" % name))
        assert out == Lin({parse_word(w): c for w, c in words})


def test_comparison_is_a_half_product_homomorphism():
    # phi(a < b) = phi(a) . phi(b)  and  phi(a > b) = phi(b) . phi(a)
    pool = []
    for n in range(1, 4):
        for t in enumerate_trees(n):
            pool.append(DendTerm(
                t, tuple("abcd"[i] for i in range(t.degree))))
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


# ---------------------------------------------------------------------------
# mixed-carrier bracket
# ---------------------------------------------------------------------------

def test_tensor_bracket_antisymmetric_jacobi():
    # D (x) E for truncated pointed words and tree terms, degree cap 2
    dias_pool = list(_pointed_words_upto(["u"], 2))
    dend_pool = [DendTerm(t, ("u",) * n)
                 for n in range(1, 3) for t in enumerate_trees(n)]
    pairs = [(d, e) for d in dias_pool for e in dend_pool]

    def bracket(x, y):
        out = {}
        for (d1, e1), c1 in x.items():
            for (d2, e2), c2 in y.items():
                if len(d1) + len(d2) > 2 or \
                        e1.tree.degree + e2.tree.degree > 2:
                    continue
                for dprod, eprod, s in (
                    (dias_mul(Lin.term(d1), Lin.term(d2), LEFT),
                     dend_mul(Lin.term(e1), Lin.term(e2), "prec"), 1),
                    (dias_mul(Lin.term(d2), Lin.term(d1), RIGHT),
                     dend_mul(Lin.term(e2), Lin.term(e1), "succ"), -1),
                    (dias_mul(Lin.term(d2), Lin.term(d1), LEFT),
                     dend_mul(Lin.term(e2), Lin.term(e1), "prec"), -1),
                    (dias_mul(Lin.term(d1), Lin.term(d2), RIGHT),
                     dend_mul(Lin.term(e1), Lin.term(e2), "succ"), 1),
                ):
                    for dt, dc in dprod.data.items():
                        for et, ec in eprod.data.items():
                            key = (dt, et)
                            out[key] = out.get(key, 0) + s * c1 * c2 * dc * ec
        return Lin(out)

    rng = random.Random(41)

    def rand_elt():
        out = Lin()
        for _ in range(2):
            c = Fraction(rng.randrange(-3, 4))
            out = out + c * Lin.term(rng.choice(pairs))
        return out

    for _ in range(100):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert bracket(x, y) == -1 * bracket(y, x)
        jac = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + \
            bracket(z, bracket(x, y))
        assert not jac


# ---------------------------------------------------------------------------
# the product tables of the free carriers
# ---------------------------------------------------------------------------

# the Lin product of each carrier, taking the product's name
_LIFTS = {
    "dialgebra": dias_mul,
    "dendriform": dend_mul,
    "zinbiel": zinb_mul,
    "leibniz": lambda a, b, op: leib_bracket_free(a, b),
}

# the theories whose faces multiply in each carrier
_FACE_THEORIES = {"dialgebra": ("CY", "CS"), "dendriform": ("CDend",)}


@pytest.mark.parametrize("kind", sorted(FREE))
def test_named_products_of_each_free_carrier(kind):
    carrier = FREE[kind]
    terms = [t for n in (1, 2) for t in carrier.basis(["x", "y"], n)]
    for op, mul in carrier.products.items():
        for a, b in itertools.product(terms, repeat=2):
            value = Lin(image_pairs(mul(a, b)))
            assert Lin(image_pairs(carrier.product(a, b, op))) == value
            assert _LIFTS[kind](Lin.term(a), Lin.term(b), op) == value
    a = terms[0]
    with pytest.raises(IndexOutOfRange):
        carrier.product(a, a, "nonesuch")
    with pytest.raises(IndexOutOfRange):
        bilinear(carrier.product)(Lin.term(a), Lin.term(a), "nonesuch")
    # a free piece asks its carrier for the products its faces name
    for theory in _FACE_THEORIES.get(kind, ()):
        assert set(carrier.products) == set(_INDEX_SETS[theory].symbols)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_lincomb_grammar():
    x = parse_lincomb("2*x1 x2^ + 1/3*x3^ - x1 x2^", parse_pointed_word)
    assert x.coeff(parse_pointed_word("x1 x2^")) == 1
    assert x.coeff(parse_pointed_word("x3^")) == Fraction(1, 3)
    t = parse_dend_term("([1,3,1]; x y z)")
    assert t.tree == parse_name("[1,3,1]") and t.word == ("x", "y", "z")