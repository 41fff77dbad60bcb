"""Parsers invert the printers: tree names, pointed words, dendriform terms
and the JSON wire format of finite algebras, as properties.  Trees,
permutations, words and dendriform terms keep one object per value, so every
route to a value, copies and pickles included, gives back the same object."""

import copy
import pickle
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dialab.errors import IndexOutOfRange, InvalidName  # noqa: E402
from dialab.finalg import PRODUCTS, FiniteAlgebra  # noqa: E402
from dialab.freealg import (  # noqa: E402
    DEND_UNIT,
    DendTerm,
    PointedWord,
    Word,
    parse_dend_term,
    parse_pointed_word,
    parse_word,
)
from dialab.trees import (  # noqa: E402
    CHERRY,
    LEAF,
    Permutation,
    Tree,
    bifurcate,
    enumerate_trees,
    face,
    format_name,
    graft,
    insert_parallel_leaf,
    mirror,
    parse_name,
    parse_permutation,
    split,
    tree_from_name,
)

laws = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)

# letters as the CLI reads them: no whitespace or control character, and
# none of the characters its grammar gives a meaning
letters = st.text(
    st.characters(exclude_categories=("Z", "C"),
                  exclude_characters="^+-*[](){};"),
    min_size=1, max_size=4)


@st.composite
def trees(draw, max_degree=11):
    def grow(n):
        if n == 0:
            return LEAF
        p = draw(st.integers(0, n - 1))
        return Tree(grow(p), grow(n - 1 - p))

    return grow(draw(st.integers(0, max_degree)))


@laws
@given(trees())
def test_tree_names_round_trip(y):
    assert parse_name(format_name(y)) is y
    assert tree_from_name(y.name) is y
    assert mirror(mirror(y)) is y
    if not y.is_leaf:
        assert graft(*split(y)) is y


def _member(y):
    """The object enumerate_trees lists for the tree named like y."""
    return {t.name: t for t in enumerate_trees(y.degree)}[y.name]


@laws
@given(trees(max_degree=6), st.data())
def test_tree_moves_meet_the_enumerated_trees(y, data):
    i = data.draw(st.integers(0, y.degree))
    assert bifurcate(y, i) is _member(bifurcate(y, i))
    if not y.is_leaf:
        assert face(y, i) is _member(face(y, i))
        j = data.draw(st.integers(1, y.degree))
        assert insert_parallel_leaf(y, j) is _member(
            insert_parallel_leaf(y, j))


@laws
@given(st.lists(letters, min_size=1, max_size=5), st.data())
def test_pointed_words_round_trip(word, data):
    pointer = data.draw(st.integers(0, len(word) - 1))
    w = PointedWord(word, pointer)
    assert parse_pointed_word(str(w)) is w
    assert PointedWord(list(word), pointer) is PointedWord(tuple(word),
                                                           pointer)


@laws
@given(st.lists(letters, min_size=1, max_size=5))
def test_words_round_trip(word):
    w = Word(word)
    assert parse_word(str(w)) is w
    assert Word(list(word)) is Word(tuple(word))


@laws
@given(st.integers(1, 7).flatmap(
    lambda n: st.permutations(range(1, n + 1))))
def test_permutations_round_trip(values):
    s = Permutation(values)
    assert parse_permutation(str(s)) is s
    assert Permutation(list(values)) is s
    assert s.compose(s.inverse()) is Permutation.identity(s.n)


@laws
@given(trees(max_degree=6), st.data())
def test_dendriform_terms_round_trip(y, data):
    word = data.draw(st.lists(letters, min_size=y.degree,
                              max_size=y.degree))
    t = DendTerm(y, word)
    assert parse_dend_term(str(t)) is t
    assert DendTerm(y, tuple(word)) is t


def test_the_dendriform_leaf_round_trips():
    leaf = DendTerm(LEAF, ())
    assert str(leaf) == "([0];)"
    assert parse_dend_term("([0];)") is leaf is DEND_UNIT


@pytest.mark.parametrize("value", [
    LEAF, CHERRY, parse_name("[2,1]"), parse_name("[1,3,1]"),
    Permutation((2, 3, 1)), PointedWord(("x",), 0),
    PointedWord(("x", "y"), 1), Word(("x", "y")),
    DendTerm(parse_name("[2,1]"), ("x", "y")), DEND_UNIT,
], ids=repr)
def test_copies_and_pickles_are_the_same_object(value):
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value, (value,)])[1][0] is value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) is value
    assert LEAF.name == () and LEAF.is_leaf
    assert CHERRY.name == (1,)


@pytest.mark.parametrize("build, error", [
    (lambda: tree_from_name([1, 1]), InvalidName),
    (lambda: parse_name("[2,2,1]"), InvalidName),
    (lambda: Permutation((1, 1)), IndexOutOfRange),
    (lambda: Permutation((0, 1)), IndexOutOfRange),
    (lambda: PointedWord((), 0), IndexOutOfRange),
    (lambda: PointedWord(("x", "y"), 2), IndexOutOfRange),
    (lambda: Word(()), IndexOutOfRange),
    (lambda: DendTerm(CHERRY, ("x", "y")), IndexOutOfRange),
])
def test_invalid_values_are_refused_every_time(build, error):
    for _ in range(2):  # nothing half built is kept by the first refusal
        with pytest.raises(error):
            build()


cells = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))


@st.composite
def algebras(draw):
    kind = draw(st.sampled_from(sorted(PRODUCTS)))
    basis = draw(st.lists(letters, min_size=1, max_size=3, unique=True))
    k = len(basis)
    cube = st.lists(st.lists(st.lists(cells, min_size=k, max_size=k),
                             min_size=k, max_size=k), min_size=k, max_size=k)
    tables = {p: draw(cube) for p in PRODUCTS[kind]}
    return FiniteAlgebra(kind, basis, tables, check=False)


@laws
@given(algebras())
def test_algebra_json_round_trips(alg):
    text = alg.to_json()
    again = FiniteAlgebra.from_json(text, check=False)
    assert again == alg
    assert again.to_json() == text
