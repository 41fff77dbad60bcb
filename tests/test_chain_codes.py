"""The term codes of ChainComplex, as a property.

The kernel keys every term by one int, its position in the basis, for a
finite source and a free piece alike, and decoding a code hands back the
basis term itself."""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dialab.finalg import PRODUCTS, FiniteAlgebra  # noqa: E402
from dialab.homology import (  # noqa: E402
    THEORIES,
    _INDEX_SETS,
    build_cdend_free,
    build_complex,
    build_cy_free,
)

laws = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)


@functools.lru_cache(maxsize=None)
def _finite(theory, dim):
    # the codes depend on the basis size only, so the zero algebra of the
    # theory's kind stands for every algebra of that dimension
    kind = _INDEX_SETS[theory].kind
    zero = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    alg = FiniteAlgebra(kind, [str(i) for i in range(dim)],
                        {p: zero for p in PRODUCTS[kind]})
    return build_complex(theory, alg, 5)


@functools.lru_cache(maxsize=None)
def _free(theory, dim_v, weight):
    build = build_cy_free if theory == "CY" else build_cdend_free
    return build(dim_v, weight)


def _assert_code_is_the_basis_position(cx, data):
    n = data.draw(st.integers(1, cx.n_max))
    k = data.draw(st.integers(0, cx.dim(n) - 1))
    assert cx._key(n, cx.terms[n][k]) == k


@pytest.mark.parametrize("theory", THEORIES)
@laws
@given(st.integers(1, 3), st.data())
def test_finite_code_is_the_basis_position(theory, dim, data):
    _assert_code_is_the_basis_position(_finite(theory, dim), data)


@pytest.mark.parametrize("theory", ["CY", "CDend"])
@laws
@given(st.integers(1, 2), st.integers(1, 5), st.data())
def test_free_codes_decode_to_their_terms(theory, dim_v, weight, data):
    _assert_code_is_the_basis_position(_free(theory, dim_v, weight), data)
