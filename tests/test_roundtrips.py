"""Parsers invert the printers: tree names, pointed words, dendriform terms
and the JSON wire format of finite algebras, as properties."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dialab.finalg import PRODUCTS, FiniteAlgebra  # noqa: E402
from dialab.freealg import (  # noqa: E402
    DendTerm,
    PointedWord,
    parse_dend_term,
    parse_pointed_word,
)
from dialab.trees import LEAF, Tree, format_name, parse_name  # noqa: E402

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
    assert parse_name(format_name(y)) == y


@laws
@given(st.lists(letters, min_size=1, max_size=5), st.data())
def test_pointed_words_round_trip(word, data):
    pointer = data.draw(st.integers(0, len(word) - 1))
    w = PointedWord(word, pointer)
    assert parse_pointed_word(str(w)) == w


@laws
@given(trees(max_degree=6), st.data())
def test_dendriform_terms_round_trip(y, data):
    word = data.draw(st.lists(letters, min_size=y.degree,
                              max_size=y.degree))
    t = DendTerm(y, word)
    assert parse_dend_term(str(t)) == t


def test_the_dendriform_leaf_round_trips():
    leaf = DendTerm(LEAF, ())
    assert str(leaf) == "([0];)"
    assert parse_dend_term("([0];)") == leaf


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
