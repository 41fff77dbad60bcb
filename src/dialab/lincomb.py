"""Formal linear combinations with exact rational coefficients.

A Lin is a finite map {basis term -> nonzero coefficient}.  A coefficient
is an exact `int` or `Fraction` and stays the type it was computed as:
integer arithmetic never passes through `Fraction`, and since
`2 == Fraction(2)` with equal hashes, equality and hashing of Lins do not
depend on which of the two a coefficient is.  A `str` is parsed to a
`Fraction`; a float is never accepted.  Basis terms only need to be
hashable and mutually orderable through their `sort_key`.  Trees,
permutations, words and dendriform terms keep one object per value, so
they, and tuples of them, hash and compare by identity, in C.  Addition,
scaling and linear extension of basis-level maps are written once here,
and `accumulate` is the one loop that sums coefficients into a dict.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def _coeff(c):
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError("coefficient must be int, str or Fraction, got %r" % (c,))


def accumulate(acc, items, scale=1):
    """Add scale * c into the dict `acc` for every (term, c) of `items`, in
    place; a term whose coefficient cancels to zero is removed."""
    for t, c in items:
        s = acc.get(t, 0) + scale * c
        if s:
            acc[t] = s
        elif t in acc:
            del acc[t]
    return acc


def json_coeff(c):
    """An exact coefficient as a JSON cell: the int, or the string "p/q"."""
    return int(c) if c.denominator == 1 else "%d/%d" % (c.numerator,
                                                        c.denominator)


def int_str_limit():
    """The interpreter's limit on the digits of an int converted to text
    (sys.get_int_max_str_digits()); 0, also on an interpreter without the
    limit, means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def printable(c):
    """Whether the exact coefficient c converts to text: neither its
    numerator nor its denominator has more digits than int_str_limit()."""
    limit = int_str_limit()
    return not limit or max(abs(c.numerator), c.denominator) < 10 ** limit


def from_json_cell(c):
    """The exact coefficient of a JSON cell: an int, or a string such as
    "p/q".  A float or a bool is refused with TypeError: a float need not be
    the number its text shows, and a bool is no coefficient."""
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise TypeError("a cell is an int or a \"p/q\" string, got %r"
                        % (c,))
    return Fraction(c)


def _key(term):
    k = getattr(term, "sort_key", None)
    if k is not None:
        return k() if callable(k) else k
    return term


class Lin:
    """Finite formal sum of basis terms over the rationals.

    `data` is a {term: int | Fraction} dict; `Lin(pairs)` sums the
    coefficients of repeated terms.  Zero coefficients are never stored,
    so equality of Lin objects is equality of the represented vectors.
    """

    __slots__ = ("data",)

    def __init__(self, data=None):
        if isinstance(data, dict):
            data = data.items()
        self.data = accumulate({}, ((t, _coeff(c)) for t, c in data or ()))

    @classmethod
    def term(cls, term, coeff=1):
        coeff = _coeff(coeff)
        return cls.wrap({term: coeff} if coeff else {})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def wrap(cls, data):
        """The Lin of a {term: coefficient} dict holding no zero
        coefficient, taking the dict over without a copy."""
        res = cls.__new__(cls)
        res.data = data
        return res

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        if not isinstance(other, Lin):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(frozenset(self.data.items()))

    def __add__(self, other):
        return Lin.wrap(accumulate(dict(self.data), other.data.items()))

    def __sub__(self, other):
        return Lin.wrap(accumulate(dict(self.data), other.data.items(), -1))

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        scalar = _coeff(scalar)
        if not scalar:
            return Lin()
        return Lin.wrap({t: scalar * c for t, c in self.data.items()})

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __iter__(self):
        return iter(self.items())

    def items(self):
        """Terms in the canonical (sort_key) order."""
        return sorted(self.data.items(), key=lambda tc: _key(tc[0]))

    def coeff(self, term):
        return self.data.get(term, Fraction(0))

    def map_terms(self, fn):
        """Linear extension of a basis-level map `term -> Lin | term | None`."""
        acc = {}
        for t, c in self.data.items():
            accumulate(acc, image_pairs(fn(t)), c)
        return Lin.wrap(acc)

    def support(self):
        return set(self.data)

    def __repr__(self):
        return "Lin(%s)" % (self.format(),)

    def format(self, render=str):
        """Human form: `2*a + 1/3*b - c` with terms in canonical order."""
        if not self.data:
            return "0"
        parts = []
        for t, c in self.items():
            mag = abs(c)
            body = render(t) if mag == 1 else "%s*%s" % (mag, render(t))
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def image_pairs(img):
    """The (term, coefficient) pairs of a basis-level image
    `Lin | term | None`."""
    if img is None:
        return ()
    if isinstance(img, Lin):
        return img.data.items()
    return ((img, 1),)


def bilinear(fn):
    """Lift a basis-level product `(s, t) -> Lin | term | None` to Lin x Lin."""

    def lifted(a, b, *args, **kwargs):
        acc = {}
        for s, cs in a.data.items():
            for t, ct in b.data.items():
                accumulate(acc, image_pairs(fn(s, t, *args, **kwargs)),
                           cs * ct)
        return Lin.wrap(acc)

    return lifted
