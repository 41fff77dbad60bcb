"""Structure-constant algebras: axioms, fixtures, halos, quotients."""

import hashlib
from fractions import Fraction

import pytest

from dialab import finalg
from dialab.errors import (
    AxiomFailure,
    IncompatibleAlgebras,
    TooLarge,
    UnknownFixture,
)
from dialab.finalg import (
    FIXTURES,
    PRODUCTS,
    FiniteAlgebra,
    as_dendriform,
    as_dialgebra,
    associativization,
    bar_units,
    check_axioms,
    differential_dialgebra,
    fixture,
    group_algebra,
    leibnizification,
    matrix_dialgebra,
    opposite,
    tensor_square,
    upper_triangular_2,
)


def one_dim(left, right):
    return FiniteAlgebra(
        "dialgebra", ["e"],
        {"left": [[(Fraction(left),)]], "right": [[(Fraction(right),)]]},
        check=False)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

def test_every_fixture_passes_its_axioms():
    for name in FIXTURES:
        alg = fixture(name)
        assert check_axioms(alg) == "pass", name


def test_broken_algebra_reports_witness():
    broken = one_dim(1, 0)  # left = multiplication, right = 0
    report = check_axioms(broken)
    assert report != "pass"
    # the bar-side axiom x -| (y -| z) = x -| (y |- z) fails at (e, e, e)
    assert ("1", (0, 0, 0)) in report
    # the two one-sided associativities hold
    assert all(axiom not in ("2", "5") for axiom, _ in report)


def _perturbed(alg, cells):
    """alg with 1 added to the coefficient of e_t in e_i prod e_j, for each
    cell (prod, i, j, t)."""
    tables = {p: [[list(vec) for vec in row] for row in tab]
              for p, tab in alg.tables.items()}
    for prod, i, j, t in cells:
        tables[prod][i][j][t] += 1
    return FiniteAlgebra(alg.kind, alg.basis, tables, check=False)


def _b_squared_is_a(kind):
    """The algebra on a, b whose every product has b o b = a and is 0 on
    the other basis pairs."""
    zero = (0, 0)
    return FiniteAlgebra(kind, ["a", "b"], {
        prod: [[zero, zero], [zero, (1, 0)]] for prod in PRODUCTS[kind]})


# one perturbed table per kind and its witness list; the Leibniz and
# Zinbiel lists change when the x z y monomial of their relation is read
# as x y z
@pytest.mark.parametrize("base, cells, witnesses", [
    (lambda: fixture("monoid_algebra"),
     [("left", 0, 1, 0), ("right", 1, 0, 1)],
     [("1", (0, 1, 0)), ("1", (0, 1, 1)), ("1", (1, 1, 0)), ("1", (1, 1, 1)),
      ("2", (0, 0, 1)), ("2", (0, 1, 1)), ("2", (1, 0, 1)), ("2", (1, 1, 1)),
      ("3", (1, 0, 1)), ("3", (1, 1, 1)),
      ("4", (0, 1, 0)), ("4", (0, 1, 1)), ("4", (1, 1, 0)), ("4", (1, 1, 1)),
      ("5", (1, 0, 0)), ("5", (1, 0, 1)), ("5", (1, 1, 0)),
      ("5", (1, 1, 1))]),
    (lambda: _b_squared_is_a("dendriform"),
     [("prec", 0, 0, 0), ("succ", 0, 0, 0)],
     [("i", (0, 0, 0)), ("i", (0, 1, 1)), ("i", (1, 1, 0)),
      ("ii", (0, 1, 1)), ("ii", (1, 1, 0)),
      ("iii", (0, 0, 0)), ("iii", (0, 1, 1)), ("iii", (1, 1, 0))]),
    (lambda: _b_squared_is_a("leibniz"), [("bracket", 1, 0, 1)],
     [("leibniz", (1, 0, 1)), ("leibniz", (1, 1, 0)),
      ("leibniz", (1, 1, 1))]),
    (lambda: _b_squared_is_a("zinbiel"), [("dot", 1, 0, 1)],
     [("zinbiel", (1, 0, 0)), ("zinbiel", (1, 1, 0)),
      ("zinbiel", (1, 1, 1))]),
    (lambda: group_algebra(2), [("mul", 0, 0, 0)],
     [("assoc", (0, 0, 1)), ("assoc", (0, 1, 1)), ("assoc", (1, 0, 0)),
      ("assoc", (1, 1, 0))]),
], ids=["dialgebra", "dendriform", "leibniz", "zinbiel", "associative"])
def test_perturbed_table_witnesses(base, cells, witnesses):
    assert check_axioms(_perturbed(base(), cells)) == witnesses


def test_construction_fails_fast_unless_deferred():
    with pytest.raises(AxiomFailure):
        FiniteAlgebra(
            "dialgebra", ["e"],
            {"left": [[(Fraction(1),)]], "right": [[(Fraction(0),)]]})


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("DIALAB_MAX_DIM", "3")
    with pytest.raises(TooLarge):
        fixture("tensor_square")
    monkeypatch.delenv("DIALAB_MAX_DIM")
    assert fixture("tensor_square").dim == 4


def test_oversize_algebra_is_refused_before_any_product(monkeypatch):
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return ((u, 1),)

    monkeypatch.setenv("DIALAB_MAX_DIM", "3")
    with pytest.raises(TooLarge):
        finalg._algebra("associative", range(4), str, {"mul": counted}, "x")
    assert calls == []
    # the tensor square of C_9 has 81 cells, over the default cap of 64
    monkeypatch.delenv("DIALAB_MAX_DIM")
    with pytest.raises(TooLarge):
        fixture("tensor_square", n=9)


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixture("no_such_thing")


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def test_monoid_double_products():
    # (m,n) -| (m',n') = (m, n m' n') and (m,n) |- (m',n') = (m n m', n')
    # on the additively written cyclic group of order 2
    alg = fixture("monoid_double")
    idx = {b: i for i, b in enumerate(alg.basis)}
    x = alg.unit_vector(idx["(0,1)"])
    y = alg.unit_vector(idx["(0,0)"])
    out = alg.mul("left", x, y)
    assert out[idx["(0,1)"]] == 1 and sum(out) == 1
    out = alg.mul("right", x, y)
    assert out[idx["(1,0)"]] == 1 and sum(out) == 1


def test_differential_fixture_rejects_non_differential():
    A = upper_triangular_2()
    with pytest.raises(AxiomFailure):
        differential_dialgebra(A, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_truncated_free_dialgebra_dimensions():
    assert fixture("truncated_free_dialgebra", dim_v=1, maxdeg=3).dim == 6
    assert fixture("truncated_free_dialgebra", dim_v=2, maxdeg=2).dim == 10


def test_matrix_dialgebra_axioms_over_base_fixtures():
    for base in ("field", "monoid_algebra"):
        alg = matrix_dialgebra(2, fixture(base))
        assert check_axioms(alg) == "pass"


def test_opposite_is_an_involution():
    for name in ("tensor_square", "diff_algebra", "monoid_double"):
        alg = fixture(name)
        assert opposite(opposite(alg)) == alg


def test_as_dendriform_reads_the_zinbiel_product_both_ways():
    R = fixture("truncated_free_zinbiel", dim_v=2, maxdeg=3)
    E = as_dendriform(R)
    assert E.kind == "dendriform" and E.name == R.name + "_dend"
    assert E.basis == R.basis and check_axioms(E) == "pass"
    for i in range(R.dim):
        for j in range(R.dim):
            assert E.mul_basis("prec", i, j) == R.mul_basis("dot", i, j)
            assert E.mul_basis("succ", i, j) == R.mul_basis("dot", j, i)
    with pytest.raises(IncompatibleAlgebras):
        as_dendriform(fixture("field"))


# sha256 of to_json() + name, computed before the fixtures and functors were
# put on one builder; a change to any table, basis name or algebra name of
# these shows here
_PINNED = [
    ("field", lambda: fixture("field"),
     "695d02bb0c1ca898a9e08c8215d0f2737d5016c1d1b8fe1e7542bd686407a036"),
    ("monoid_algebra", lambda: fixture("monoid_algebra"),
     "032064ddb69f0afe5ec594e339736c41c91352ed964e83f90dbb597db8e44e1a"),
    ("monoid_double", lambda: fixture("monoid_double"),
     "38e0d5dfad2cf20ab268c9d44d752b17ca176f3cca1bbe947ffe058a36e72c81"),
    ("action_dimonoid", lambda: fixture("action_dimonoid"),
     "46d3014cbfd53441b2a556ae51051bc7dd7b7f93294103dc2a0272992780aa27"),
    ("tensor_square", lambda: fixture("tensor_square"),
     "3a4713d3dfea78fb24058dadc9ac93e1dc1f6c867d9b7357638e88e9c3b68177"),
    ("diff_algebra", lambda: fixture("diff_algebra"),
     "6d0757df917bbe9a18d8f6dc6550962458789767638208e4542123ac303f68bb"),
    ("matrix_dialgebra", lambda: fixture("matrix_dialgebra"),
     "a1cd3291ab864fbd137f02e1b4fc267b8fa5cb4cf640428f32c1f4ac3c3ee243"),
    ("vector_dialgebra", lambda: fixture("vector_dialgebra"),
     "ba21539e332fea23f549526e0499a57c440c59ce085c40d707490e4ef8faa1e5"),
    ("truncated_free_dialgebra", lambda: fixture("truncated_free_dialgebra"),
     "c4308bd1f0ff438e50bc85a25a7fdc860a34665a357cf2eff529e3a579793cb7"),
    ("truncated_free_dendriform",
     lambda: fixture("truncated_free_dendriform"),
     "b5cf93799f11f51c0e850ca620c0de36188490f085ce7037dbdf6ac35d3a9d80"),
    ("truncated_free_zinbiel", lambda: fixture("truncated_free_zinbiel"),
     "d218863a149a4d0a732ce56e1aeb7e01728b163cd34003179573ea60fe27bac3"),
    ("truncated_free_leibniz", lambda: fixture("truncated_free_leibniz"),
     "e41e7f1f3183cd596186048a26a27498851d9c7635aba9f32aafc627b098c75d"),
    ("monoid_double n=3", lambda: fixture("monoid_double", n=3),
     "ffb94a72c6b2152495b9053d3e80873fee5bcad8719c8b903ffd25a4660dbbdd"),
    ("action_dimonoid n=3", lambda: fixture("action_dimonoid", n=3),
     "ff923f8c7af5c0064260db3704c09b54d9064a5aad5b19ccece0acb9d7406ed6"),
    ("tensor_square n=3", lambda: fixture("tensor_square", n=3),
     "16c21df44c1987b17c9bc02152b24ceb9ba5177f5b8c62bfafba261a4af63126"),
    ("matrix_dialgebra base=monoid_double",
     lambda: fixture("matrix_dialgebra", base="monoid_double"),
     "e631627694f4986b46dce15554c7b21ebb1dcd976b8e58af000e4c9fb43a9150"),
    ("vector_dialgebra n=3 base=3",
     lambda: fixture("vector_dialgebra", n=3, base=3),
     "f63375c0e55800c043be2f3bc427b4c18315dc81eca7515ea45bc91e3703bf98"),
    ("truncated_free_dialgebra dim_v=2 maxdeg=2",
     lambda: fixture("truncated_free_dialgebra", dim_v=2, maxdeg=2),
     "6cdb44907b912fe90c9cc2ba25c09a38587b25058332d03c646fcc5861dcf697"),
    ("truncated_free_dendriform maxdeg=3",
     lambda: fixture("truncated_free_dendriform", dim_v=1, maxdeg=3),
     "79779bdce331ab71f0a7b44d4b57cf16526bc43346f4a194d310058481daff0b"),
    ("leibnizification of tensor_square",
     lambda: leibnizification(fixture("tensor_square")),
     "6fb5ab370470a5759e8592882b84b1b7ea38c00fa970c0e51a3fa27ea1c1de1e"),
    ("opposite of action_dimonoid",
     lambda: opposite(fixture("action_dimonoid")),
     "beaa713ca3d6a7e548e0256cf6ccfe54416d78ce3bb579e53e470b02d437ca7d"),
    ("as_dialgebra of K[C_3]", lambda: as_dialgebra(group_algebra(3)),
     "55ab7dad17a90cc6ac1296331d262326342a049bb5070bb74a15a5ea2b571d05"),
    ("associativization of truncated_free_dialgebra",
     lambda: associativization(fixture("truncated_free_dialgebra"))[0],
     "f528c9a020b9de0558811ad6bd3c9f89a1ef49c829badaca8928873990955869"),
]


@pytest.mark.parametrize("build, digest", [
    pytest.param(build, digest, id=label) for label, build, digest in _PINNED])
def test_tables_and_names_are_pinned(build, digest):
    alg = build()
    text = alg.to_json() + alg.name
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# halos
# ---------------------------------------------------------------------------

def test_halo_of_the_ground_field():
    halo = bar_units(fixture("field"))
    assert halo.point == (Fraction(1),)
    assert halo.affine_dim == 0


def test_halo_of_tensor_square():
    alg = fixture("tensor_square")
    halo = bar_units(alg)
    idx = {b: i for i, b in enumerate(alg.basis)}
    one = [0] * 4
    one[idx["g0(x)g0"]] = 1
    gg = [0] * 4
    gg[idx["g1(x)g1"]] = 1
    assert halo.contains(one)
    assert halo.contains(gg)  # g = g^{-1} in the order-2 group
    assert not halo.contains([0, 0, 0, 0])


def test_zero_algebra_has_empty_halo():
    assert bar_units(one_dim(0, 0)).is_empty


def test_halo_points_are_bar_units():
    alg = fixture("tensor_square")
    halo = bar_units(alg)
    points = [halo.point] + [
        tuple(p + d for p, d in zip(halo.point, direction))
        for direction in halo.directions
    ]
    for e in points:
        for i in range(alg.dim):
            x = alg.unit_vector(i)
            assert alg.mul("left", x, e) == x
            assert alg.mul("right", e, x) == x


# ---------------------------------------------------------------------------
# derived constructions
# ---------------------------------------------------------------------------

def test_associativization_of_equal_products_is_identity_like():
    alg = fixture("monoid_algebra")
    quotient, _ = associativization(alg)
    assert quotient.dim == alg.dim


def test_associativization_of_truncated_free():
    D = fixture("truncated_free_dialgebra", dim_v=1, maxdeg=2)
    quotient, project = associativization(D)
    assert quotient.dim == 2
    # the ideal is weight-homogeneous: one class per word length survives
    lengths = sorted(len(b.split()) for b in quotient.basis)
    assert lengths == [1, 2]
    # the projection kills left-minus-right products
    for i in range(D.dim):
        for j in range(D.dim):
            diff = tuple(
                a - b for a, b in zip(D.mul_basis("left", i, j),
                                      D.mul_basis("right", i, j)))
            assert not any(project(diff))


def test_associativization_kills_everything_when_forced():
    quotient, _ = associativization(one_dim(1, 0))
    assert quotient.dim == 0


def test_associativization_idempotent():
    for name in ("tensor_square", "diff_algebra"):
        q1, _ = associativization(fixture(name))
        q2, _ = associativization(as_dialgebra(q1))
        assert q2.dim == q1.dim


def test_leibnizification():
    for name in ("tensor_square", "diff_algebra", "vector_dialgebra"):
        L = leibnizification(fixture(name))
        assert check_axioms(L) == "pass"
    zero = leibnizification(one_dim(0, 0))
    assert all(
        not any(zero.mul_basis("bracket", i, j))
        for i in range(1) for j in range(1))


def test_commutator_square_for_equal_products():
    # when both products agree, the bracket is the plain commutator
    alg = fixture("monoid_algebra", n=3)
    L = leibnizification(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            x, y = alg.unit_vector(i), alg.unit_vector(j)
            comm = tuple(
                a - b for a, b in zip(alg.mul("left", x, y),
                                      alg.mul("left", y, x)))
            assert L.mul_basis("bracket", i, j) == comm


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def test_json_round_trip_bit_exact():
    for name in ("tensor_square", "diff_algebra",
                  "truncated_free_dendriform", "truncated_free_zinbiel"):
        alg = fixture(name)
        again = FiniteAlgebra.from_json(alg.to_json())
        assert again == alg
        assert again.to_json() == alg.to_json()


def test_json_round_trip_with_fractions():
    half = Fraction(1, 2)
    alg = FiniteAlgebra(
        "associative", ["e"], {"mul": [[(half,)]]}, check=False)
    again = FiniteAlgebra.from_json(alg.to_json(), check=False)
    assert again.mul_basis("mul", 0, 0) == (half,)
