"""Exception hierarchy shared by every dialab module.

All domain errors derive from DialabError so callers (and the CLI) can
distinguish bad mathematical input (exit code 1) from usage errors (2).
"""


class DialabError(ValueError):
    """Base class for all domain errors raised by this library."""


class InvalidName(DialabError):
    """A sequence of integers is not the name of a planar binary tree."""


class SplitOfLeaf(DialabError):
    """The trivial tree | cannot be split as a graft of two trees."""


class FaceOfLeaf(DialabError):
    """Face maps are undefined on the degree-0 tree."""


class BidegreeOfLeaf(DialabError):
    """The bidegree is only defined for trees of degree >= 1."""


class IndexOutOfRange(DialabError):
    """A leaf or position index is outside its allowed range."""


class UndefinedOnUnit(DialabError):
    """The dendriform half-products are not defined on two unit factors."""


class UnknownFixture(DialabError):
    """No finite-algebra fixture with that name exists."""


class UnknownPreset(DialabError):
    """No quadratic-data preset with that name exists."""


class TooLarge(DialabError):
    """A requested finite algebra exceeds the dimension cap, a listing of
    trees its degree cap, or a result has a coefficient too long to convert
    to text."""


class AxiomFailure(DialabError):
    """A structure-constant table violates the axioms of its declared kind."""


class UnsupportedTheoryForSource(DialabError):
    """The requested chain theory cannot be built from the given source."""


class IncompatibleAlgebras(DialabError):
    """An algebra is of the wrong kind for the requested operation: a chain
    map between complexes over unrelated algebras, or a construction given
    an algebra of another kind than it is defined on."""


class CaseDispatchFailure(DialabError):
    """A chain term matched no case of the contracting homotopy."""


class SlotOutOfRange(DialabError):
    """A composition slot index is outside 1..degree(outer)."""


class MalformedInput(DialabError):
    """An input file, argument or environment setting is not in its
    documented format, or an input file cannot be read as UTF-8 text."""


class DegreeOutOfRange(DialabError):
    """A degree, weight, series order or generator count is outside the
    supported range."""
