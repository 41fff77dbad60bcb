"""Tree combinatorics: names, enumeration, faces, codings, nested sub-trees."""

import random
from math import factorial

import pytest

from dialab.errors import (
    BidegreeOfLeaf,
    FaceOfLeaf,
    IndexOutOfRange,
    InvalidName,
    SplitOfLeaf,
)
from dialab.trees import (
    LEAF,
    CHERRY,
    LEFT,
    RIGHT,
    Permutation,
    all_permutations,
    bidegree,
    bifurcate,
    catalan,
    enumerate_trees,
    expand,
    face,
    format_name,
    graft,
    insert_parallel_leaf,
    level_tree,
    mirror,
    nested_subtrees,
    parse_name,
    parse_permutation,
    perm_degeneracy,
    perm_face,
    perm_to_tree,
    product_symbol,
    split,
    tree_fiber,
    tree_from_name,
)


# ---------------------------------------------------------------------------
# names and the grafting calculus
# ---------------------------------------------------------------------------

def test_name_worked_examples():
    assert format_name(graft(CHERRY, CHERRY)) == "[1,3,1]"
    assert format_name(graft(LEAF, LEAF)) == "[1]"
    assert format_name(graft(CHERRY, LEAF)) == "[1,2]"
    assert format_name(graft(LEAF, CHERRY)) == "[2,1]"
    assert format_name(
        graft(parse_name("[1,3,1]"), parse_name("[2,1]"))) == "[1,3,1,6,2,1]"


def test_parse_accepts_contiguous_digits():
    assert parse_name("[131]") == parse_name("[1,3,1]")
    assert parse_name("[0]") is LEAF or parse_name("[0]") == LEAF


def test_invalid_names_rejected():
    with pytest.raises(InvalidName):
        parse_name("[2,2]")
    with pytest.raises(InvalidName):
        parse_name("[1,1]")
    with pytest.raises(InvalidName):
        tree_from_name([3, 1, 2, 1])  # maximum 3 != length 4
    with pytest.raises(InvalidName):
        tree_from_name([2, 3, 2])  # flanks [2], [2] are not names
    assert tree_from_name([1, 4, 1, 2]).degree == 4  # flanks [1] and [1,2]


def test_roundtrip_names_up_to_degree_6():
    for n in range(7):
        for t in enumerate_trees(n):
            assert parse_name(format_name(t)) == t


def test_catalan_counts_exact():
    # oracle: the closed formula (2n)!/(n!(n+1)!)
    for n in range(9):
        oracle = factorial(2 * n) // (factorial(n) * factorial(n + 1))
        assert catalan(n) == oracle
        assert len(enumerate_trees(n)) == oracle
    assert [len(enumerate_trees(n)) for n in range(7)] == [
        1, 1, 2, 5, 14, 42, 132]


def test_enumeration_is_name_sorted_and_duplicate_free():
    for n in range(6):
        names = [t.name for t in enumerate_trees(n)]
        assert names == sorted(names)
        assert len(set(names)) == len(names)


def test_graft_split_inverse():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            l, r = split(t)
            assert graft(l, r) == t
            assert l.degree + r.degree + 1 == t.degree
    with pytest.raises(SplitOfLeaf):
        split(LEAF)


def test_bidegree():
    assert bidegree(parse_name("[321]")) == (0, 2)
    assert bidegree(parse_name("[312]")) == (0, 2)
    assert bidegree(parse_name("[131]")) == (1, 1)
    assert bidegree(parse_name("[213]")) == (2, 0)
    assert bidegree(parse_name("[123]")) == (2, 0)
    assert bidegree(CHERRY) == (0, 0)
    with pytest.raises(BidegreeOfLeaf):
        bidegree(LEAF)


# ---------------------------------------------------------------------------
# faces, degeneracies, product symbols
# ---------------------------------------------------------------------------

def test_face_worked_examples():
    y = parse_name("[2,1,3]")
    assert [format_name(face(y, i)) for i in range(4)] == [
        "[1,2]", "[1,2]", "[1,2]", "[2,1]"]
    assert face(CHERRY, 0) == LEAF
    with pytest.raises(FaceOfLeaf):
        face(LEAF, 0)
    with pytest.raises(IndexOutOfRange):
        face(y, 4)


def test_expand_worked_examples():
    assert expand(LEAF, 0) == CHERRY
    assert format_name(expand(CHERRY, 0)) == "[1,2]"
    assert format_name(expand(CHERRY, 1)) == "[2,1]"
    assert format_name(expand(parse_name("[2,1]"), 0, "parallel_last")) \
        == "[3,1,2]"
    with pytest.raises(IndexOutOfRange):
        expand(LEAF, 0, "parallel_last")


def test_face_expand_inverse():
    for n in range(5):
        for t in enumerate_trees(n):
            for i in range(n + 1):
                assert face(expand(t, i), i) == t


def test_simplicial_face_identity():
    # d_i d_j = d_{j-1} d_i for i < j, on all trees of degree <= 5
    for n in range(2, 6):
        for t in enumerate_trees(n):
            for j in range(1, n + 1):
                for i in range(j):
                    assert face(face(t, j), i) == face(face(t, i), j - 1)


def test_almost_simplicial_identities_on_trees():
    # the standard mixed relations hold; s_i s_i = s_{i+1} s_i fails
    for n in range(5):
        for t in enumerate_trees(n):
            for j in range(n + 1):
                for i in range(n + 2):
                    s = bifurcate(t, j)
                    if i < j:
                        assert face(s, i) == bifurcate(face(t, i), j - 1)
                    elif i in (j, j + 1):
                        assert face(s, i) == t
                    else:
                        assert face(s, i) == bifurcate(face(t, i - 1), j)
            for j in range(n + 1):
                for i in range(j):
                    assert bifurcate(bifurcate(t, j), i) == \
                        bifurcate(bifurcate(t, i), j + 1)
    # the documented failure
    assert format_name(bifurcate(bifurcate(LEAF, 0), 0)) == "[1,2]"
    assert format_name(bifurcate(bifurcate(LEAF, 0), 1)) == "[2,1]"


def test_deleting_the_parallel_leaf_restores_the_tree():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            for j in range(1, n + 1):
                grown = insert_parallel_leaf(t, j)
                assert grown.degree == n + 1
                assert face(grown, j) == t
                if j < n:
                    # the new leaf j points the way leaf j of t did
                    assert product_symbol(grown, j) == product_symbol(t, j)
    with pytest.raises(IndexOutOfRange):
        insert_parallel_leaf(CHERRY, 0)


def test_product_symbol_table():
    table = {
        "[1,2]": {1: RIGHT},
        "[2,1]": {1: LEFT},
        "[1,2,3]": {1: RIGHT, 2: RIGHT},
        "[2,1,3]": {1: LEFT, 2: RIGHT},
        "[1,3,1]": {1: RIGHT, 2: LEFT},
        "[3,1,2]": {1: LEFT, 2: RIGHT},
        "[3,2,1]": {1: LEFT, 2: LEFT},
    }
    for name, expect in table.items():
        y = parse_name(name)
        for i, sym in expect.items():
            assert product_symbol(y, i) == sym
    with pytest.raises(IndexOutOfRange):
        product_symbol(CHERRY, 1)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_permutation_basics():
    s = parse_permutation("[3,1,2]")
    assert s.inverse().values == (2, 3, 1)
    assert Permutation.omega(4).values == (4, 3, 2, 1)
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 7)
        a = Permutation(rng.sample(range(1, n + 1), n))
        b = Permutation(rng.sample(range(1, n + 1), n))
        assert (a * b).sign() == a.sign() * b.sign()
        assert (a * a.inverse()) == Permutation.identity(n)


# ---------------------------------------------------------------------------
# depth and height codings
# ---------------------------------------------------------------------------

def test_depth_coding_worked_example():
    s = parse_permutation("[3,4,1,6,5,2]")
    assert format_name(perm_to_tree(s)) == "[1,3,1,6,2,1]"


def test_depth_coding_low_dimension_table():
    table = {
        "[1,2]": "[1,2]", "[2,1]": "[2,1]",
        "[1,2,3]": "[1,2,3]", "[2,1,3]": "[2,1,3]",
        "[1,3,2]": "[1,3,1]", "[2,3,1]": "[1,3,1]",
        "[3,1,2]": "[3,1,2]", "[3,2,1]": "[3,2,1]",
    }
    for perm, name in table.items():
        assert format_name(perm_to_tree(parse_permutation(perm))) == name


def test_height_coding_examples():
    assert format_name(
        perm_to_tree(parse_permutation("[1,2]"), "height")) == "[2,1]"
    assert format_name(
        perm_to_tree(parse_permutation("[2,1]"), "height")) == "[1,2]"


def test_codings_are_surjective_and_fibers_partition():
    for coding in ("depth", "height"):
        for n in range(1, 6):
            total = 0
            for t in enumerate_trees(n):
                fib = tree_fiber(t, coding)
                assert fib, (coding, t)
                total += len(fib)
            assert total == factorial(n)


def test_fiber_examples():
    fib = tree_fiber(parse_name("[1,3,1]"))
    assert sorted(str(p) for p in fib) == ["[1,3,2]", "[2,3,1]"]
    assert [str(p) for p in tree_fiber(parse_name("[1,2,3]"))] == ["[1,2,3]"]
    fib_h = tree_fiber(parse_name("[1,3,1]"), "height")
    assert sorted(str(p) for p in fib_h) == ["[2,1,3]", "[3,1,2]"]


def test_level_tree_construction_agrees_with_interval_algorithm():
    # two independent constructions of the depth coding
    for n in range(1, 6):
        for s in all_permutations(n):
            assert level_tree(s) == perm_to_tree(s, "depth")


def test_height_is_depth_after_level_reversal():
    for n in range(1, 6):
        omega = Permutation.omega(n)
        for s in all_permutations(n):
            assert perm_to_tree(s, "height") == \
                perm_to_tree(omega.compose(s), "depth")


def test_perm_faces_commute_with_height_coding():
    for n in range(2, 6):
        for s in all_permutations(n):
            t = perm_to_tree(s, "height")
            for i in range(n + 1):
                assert perm_to_tree(perm_face(s, i), "height") == face(t, i)


def test_perm_degeneracy_sections():
    for n in range(1, 5):
        for s in all_permutations(n):
            for i in range(n + 1):
                d = perm_degeneracy(s, i)
                assert perm_face(d, i) == s
                assert perm_face(d, i + 1) == s
                assert perm_to_tree(d, "height") == \
                    bifurcate(perm_to_tree(s, "height"), i)


# ---------------------------------------------------------------------------
# nested sub-trees
# ---------------------------------------------------------------------------

def test_nested_subtrees_worked_example():
    y = parse_name("[1,3,1,6,1,2]")
    entries = nested_subtrees(y)
    hit = [(i, sub, quo) for (i, sub, quo) in entries
           if i == 1 and sub.degree == 4]
    assert len(hit) == 1
    i, sub, quo = hit[0]
    assert format_name(sub) == "[2,1,4,1]"
    assert format_name(quo) == "[1,3,1]"


def test_nested_subtrees_extremes():
    for n in range(1, 6):
        for y in enumerate_trees(n):
            entries = nested_subtrees(y)
            assert (0, y, CHERRY) in entries
            assert sum(1 for (i, s, q) in entries
                       if s == CHERRY and q == y) == n
            assert len(entries) == n * (n + 1) // 2


def test_nested_quotient_replays_leaf_removal():
    # oracle: the quotient is what repeatedly deleting the interior leaves
    # of the span produces, and the sub-tree is what trimming the outside
    # leaves produces
    for n in range(1, 6):
        for y in enumerate_trees(n):
            for (i, sub, quo) in nested_subtrees(y):
                k = sub.degree
                replay = y
                for _ in range(k - 1):
                    replay = face(replay, i + 1)
                assert replay == quo
                trimmed = y
                for _ in range(i):
                    trimmed = face(trimmed, 0)
                for _ in range(n - k - i):
                    trimmed = face(trimmed, trimmed.degree)
                assert trimmed == sub
                assert sub.degree + quo.degree == y.degree + 1


def test_mirror_is_name_reversal_involution():
    for n in range(6):
        for y in enumerate_trees(n):
            assert mirror(y).name == tuple(reversed(y.name))
            assert mirror(mirror(y)) == y
