"""The three workloads: their seeded inputs, timed work and oracle checks.

Each workload is a function `(dl, seed, toy, tracer) -> [Case]` that does the
set-up of one pass: it builds the seeded inputs and the basis of every
complex, using only the public API of the freshly imported package `dl`.
`Case.run` is the timed work; `Case.check(result, deep)` compares the result
with the oracles and returns a list of mismatches.  `deep` asks for the
costlier rank certificate, which the runner requests once per run.

Sizes were chosen so that one pass takes a few seconds on a 2-core machine;
`toy` shrinks every case to a fraction of a second for the self-check.
"""

import random
from fractions import Fraction
from typing import Callable, NamedTuple

import oracles

# The seed draws a diagonal rescaling e_i -> lambda_i e_i of each dim-4
# fixture from these values, with random signs.  They all have small height,
# so every seed costs about the same Fraction arithmetic.
SCALES = tuple(Fraction(p, q) for p, q in (
    (2, 1), (3, 1), (1, 2), (1, 3), (3, 2), (2, 3), (5, 4), (4, 5)))


class Case(NamedTuple):
    name: str
    terms: int                  # basis terms of the complexes it works on
    run: Callable[[], object]
    check: Callable[[object, bool], list]


def rescaled(dl, alg, rng):
    """The isomorphic algebra in the basis lambda_i e_i, axiom-checked."""
    lam = [rng.choice((1, -1)) * s for s in rng.sample(SCALES, alg.dim)]
    k = range(alg.dim)
    tables = {
        prod: [[[lam[i] * lam[j] * tab[i][j][t] / lam[t] for t in k]
                for j in k] for i in k]
        for prod, tab in alg.tables.items()
    }
    return dl.FiniteAlgebra(alg.kind, alg.basis, tables, check=True,
                            name=alg.name + " rescaled")


def _total(cx):
    return sum(map(len, cx.terms.values()))


def _size_mismatches(cx, expected):
    return ["dim C_%d = %d, expected %d" % (n, len(cx.terms.get(n, ())), e)
            for n, e in expected.items() if len(cx.terms.get(n, ())) != e]


def _rank_certificate(cx, degrees):
    """rank d_n + rank d_{n+1} = dim C_n modulo P in each listed degree."""
    if not degrees:
        return []
    rank = {n: oracles.rank_mod_p(cx.matrix(n))
            for n in range(1, max(degrees) + 2)}
    return ["rank d_%d + rank d_%d = %d mod P, dim C_%d = %d"
            % (n, n + 1, rank[n] + rank[n + 1], n, cx.dim(n))
            for n in degrees if rank[n] + rank[n + 1] != cx.dim(n)]


# ---------------------------------------------------------------------------
# dsq: d o d = 0 certificates
# ---------------------------------------------------------------------------

def _dsq_case(dl, theory, name, alg, degree):
    cx = dl.homology.build_complex(theory, alg, degree)
    sizes = {n: oracles.finite_basis_size(theory, alg.dim, n)
             for n in range(1, degree + 1)}

    def check(verdict, deep):
        bad = _size_mismatches(cx, sizes)
        return bad if verdict is True else bad + ["verdict %r" % (verdict,)]

    return Case("%s(%s) degree %d" % (theory, name, degree), _total(cx),
                cx.verify_d_squared, check)


def dsq(dl, seed, toy, tracer):
    """verify_d_squared on integer and rescaled rational dialgebras (CY, CS)
    and on the small CDend, CL and CZinb fixtures."""
    rng = random.Random(seed)
    big, small = (3, 3) if toy else (4, 5)
    with tracer.span("finalg.fixture"):
        dias = [
            ("monoid_double", dl.fixture("monoid_double")),
            ("matrix_dialgebra~",
             rescaled(dl, dl.fixture("matrix_dialgebra"), rng)),
            ("vector_dialgebra~",
             rescaled(dl, dl.fixture("vector_dialgebra"), rng)),
        ]
        others = [
            ("CDend", "free_dendriform<=2",
             dl.fixture("truncated_free_dendriform", dim_v=1, maxdeg=2)),
            ("CL", "free_leibniz<=3",
             dl.fixture("truncated_free_leibniz", dim_v=1, maxdeg=3)),
            ("CZinb", "free_zinbiel<=3",
             dl.fixture("truncated_free_zinbiel", dim_v=1, maxdeg=3)),
        ]
    cases = [_dsq_case(dl, theory, name, alg, big)
             for name, alg in dias for theory in ("CY", "CS")]
    cases += [_dsq_case(dl, theory, name, alg, small)
              for theory, name, alg in others]
    return cases


# ---------------------------------------------------------------------------
# betti: Betti tables of free pieces and of a bar-unital dialgebra
# ---------------------------------------------------------------------------

def _betti_case(name, cx, sizes, top, expected):
    acyclic = [n for n, b in expected.items() if not b]

    def check(table, deep):
        bad = _size_mismatches(cx, sizes)
        if table != expected:
            bad.append("betti %r, expected %r" % (table, expected))
        if deep:
            bad += _rank_certificate(cx, acyclic)
        return bad

    return Case(name, _total(cx), lambda: cx.betti_table(top), check)


def _free_betti_case(dl, theory, dim_v, weight):
    build = {"CY": dl.homology.build_cy_free,
             "CDend": dl.homology.build_cdend_free}[theory]
    sizes = {n: oracles.free_basis_size(theory, dim_v, weight, n)
             for n in range(1, weight + 1)}
    return _betti_case(
        "free %s dim_v=%d weight %d" % (theory, dim_v, weight),
        build(dim_v, weight), sizes, weight,
        oracles.free_betti(dim_v, weight))


def _bar_unital_betti_case(dl, name, alg, degree):
    sizes = {n: oracles.finite_basis_size("CY", alg.dim, n)
             for n in range(1, degree + 1)}
    top = degree - 1            # H_top needs d_{top+1}
    return _betti_case(
        "CY(%s) degree %d" % (name, degree),
        dl.homology.build_complex("CY", alg, degree), sizes, top,
        oracles.bar_unital_betti(top))


def betti(dl, seed, toy, tracer):
    """Betti tables through the top degree: sparse assembly plus exact rank,
    on multilinear (dim_v=1) and non-multilinear (dim_v=2) free pieces."""
    rng = random.Random(seed)
    with tracer.span("finalg.fixture"):
        alg = rescaled(dl, dl.fixture("tensor_square"), rng)
    free = ([("CY", 1, 4), ("CDend", 1, 3), ("CY", 2, 3), ("CDend", 2, 3)]
            if toy else
            [("CY", 1, 7), ("CDend", 1, 6), ("CY", 2, 5), ("CDend", 2, 4)])
    cases = [_free_betti_case(dl, *spec) for spec in free]
    cases.append(_bar_unital_betti_case(dl, "tensor_square~", alg,
                                        3 if toy else 4))
    return cases


# ---------------------------------------------------------------------------
# contract: contracting homotopies of the free CY complex
# ---------------------------------------------------------------------------

def _five_case_identity(dl, cx, weight, tracer):
    """Basis terms x in degrees 2..weight with d h x + h d x != x."""
    Lin, h = dl.Lin, dl.homology.homotopy_free_dialgebra
    bad = 0
    for n in range(2, weight + 1):
        for t in cx.terms[n]:
            x = Lin.term(t)
            dhx = cx.diff_lin(n + 1, h(x))
            hdx = h(cx.diff_lin(n, x))
            with tracer.span("lincomb.check"):
                bad += dhx + hdx != x
    return bad


def _elimination_identity(dl, cx, weight, tracer):
    """Solve for h, then count basis terms with d h x + h d x != x."""
    Lin = dl.Lin
    h = dl.homology.contraction_by_elimination(cx)
    bad = 0
    for n in range(2, weight + 1):
        for t in cx.terms[n]:
            x = Lin.term(t)
            dhx = cx.diff_lin(n + 1, h[n][t])
            dx = cx.diff_lin(n, x)
            with tracer.span("lincomb.check"):
                hdx = Lin()
                for u, c in dx.data.items():
                    hdx = hdx + c * h[n - 1][u]
                bad += dhx + hdx != x
    return bad


def _contract_case(dl, label, identity, dim_v, weight, tracer):
    cx = dl.homology.build_cy_free(dim_v, weight)
    sizes = {n: oracles.free_basis_size("CY", dim_v, weight, n)
             for n in range(1, weight + 1)}

    def check(failures, deep):
        bad = _size_mismatches(cx, sizes)
        if failures:
            bad.append("d h + h d != id on %d basis terms" % failures)
        return bad

    return Case("%s free CY dim_v=%d weight %d" % (label, dim_v, weight),
                _total(cx), lambda: identity(dl, cx, weight, tracer), check)


def contract(dl, seed, toy, tracer):
    """d h + h d = id on every basis term, for the five-case operator and
    for the homotopy solved by dense elimination.  The free complexes have
    no coefficients to rescale, so the seed does not change this workload."""
    five = [(2, 2), (2, 3)] if toy else [
        (dim_v, w) for dim_v in (2, 3) for w in (2, 3, 4)]
    solved = [(1, 3)] if toy else [(1, 4), (2, 3)]
    return (
        [_contract_case(dl, "five-case", _five_case_identity, dim_v, w,
                        tracer) for dim_v, w in five]
        + [_contract_case(dl, "elimination", _elimination_identity, dim_v,
                          w, tracer) for dim_v, w in solved])


WORKLOADS = {"dsq": dsq, "betti": betti, "contract": contract}
