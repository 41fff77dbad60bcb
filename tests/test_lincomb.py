"""Vector-space laws of Lin and the linearity of its lifts, as properties."""

from fractions import Fraction
from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dialab.lincomb import Lin, bilinear  # noqa: E402

laws = settings(max_examples=50, deadline=None, derandomize=True,
                database=None)

terms = st.sampled_from("abcdef")
scalars = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=6))
pairs = st.lists(st.tuples(terms, scalars), max_size=8)
lins = pairs.map(Lin)


@laws
@given(lins, lins, lins)
def test_addition_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + Lin.zero() == a


@laws
@given(scalars, scalars, lins, lins)
def test_scalars_distribute(r, s, a, b):
    assert r * (a + b) == r * a + r * b
    assert (r + s) * a == r * a + s * a
    assert r * (s * a) == (r * s) * a
    assert a - b == a + (-1) * b


@laws
@given(lins)
def test_a_minus_a_is_zero(a):
    assert a - a == Lin.zero()
    assert not (a - a).data
    assert a + (-a) == Lin()


@laws
@given(pairs)
def test_pairs_sum_like_the_terms(ps):
    total = reduce(lambda x, y: x + y, (Lin.term(t, c) for t, c in ps),
                   Lin())
    assert Lin(ps) == total
    assert Lin(ps) == Lin(dict(Lin(ps).data))
    assert all(c for c in Lin(ps).data.values())


images = st.dictionaries(terms, st.one_of(st.none(), terms, lins))


@laws
@given(images, scalars, lins, lins)
def test_map_terms_is_linear(table, r, a, b):
    def f(x):
        return x.map_terms(table.get)

    assert f(r * a + b) == r * f(a) + f(b)
    assert f(Lin.zero()) == Lin.zero()
    assert a.map_terms(lambda t: t) == a
    assert a.map_terms(Lin.term) == a


@laws
@given(st.dictionaries(st.tuples(terms, terms), lins), scalars, lins, lins,
       lins)
def test_bilinear_is_linear_in_each_argument(table, r, a, b, c):
    mul = bilinear(lambda s, t: table.get((s, t)))
    assert mul(r * a + b, c) == r * mul(a, c) + mul(b, c)
    assert mul(a, r * b + c) == r * mul(a, b) + mul(a, c)
    term_mul = bilinear(lambda s, t: s if s <= t else None)
    assert term_mul(a + b, c) == term_mul(a, c) + term_mul(b, c)
    assert bilinear(lambda s, t: s)(a, Lin.term("z", r)) == r * a


@laws
@given(terms, st.integers(-50, 50), lins)
def test_int_and_fraction_coefficients_compare_and_hash_equal(t, n, a):
    as_int = Lin.term(t, n)
    as_frac = Lin.term(t, Fraction(n))
    assert as_int == as_frac
    assert hash(as_int) == hash(as_frac)
    assert a + as_int == a + as_frac
    assert hash(a + as_int) == hash(a + as_frac)
    if n:
        # integer arithmetic stays in int, a Fraction stays a Fraction
        assert type(as_int.data[t]) is int
        assert type((as_int + as_int - 3 * as_int).data[t]) is int
        assert type(as_frac.data[t]) is Fraction


def test_coefficient_types():
    assert Lin.term("a", "1/2") == Lin({"a": Fraction(1, 2)})
    assert type(Lin.term("a").data["a"]) is int
    for bad in (0.5, 1.0, 0.0):
        with pytest.raises(TypeError):
            Lin.term("a", bad)
        with pytest.raises(TypeError):
            Lin({"a": 1, "b": bad})
        with pytest.raises(TypeError):
            bad * Lin.term("a")
