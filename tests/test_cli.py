"""Command-line interface: worked examples, JSON stability, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from dialab import homology, trees
from dialab.cli import main
from dialab.finalg import fixture
from dialab.homology import build_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tree_count(capsys):
    code, out = run_cli(capsys, "trees", "--n", "3", "--count")
    assert code == 0 and out.strip() == "5"


def test_tree_count_answers_without_enumerating(capsys):
    code, out = run_cli(capsys, "trees", "--n", "40", "--count", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 40, "count": 2622127042276492108820}
    code, out = run_cli(capsys, "trees", "--n", "-1", "--count", "--json")
    assert code == 1 and json.loads(out)["error"] == "IndexOutOfRange"


def test_tree_count_past_4300_digits_is_too_large(capsys, monkeypatch):
    # Cat_7152 has 4,300 digits and Cat_7153 has 4,301; the refusal is
    # decided from N before anything is computed
    assert 10 ** 4299 <= trees.catalan(7152) < 10 ** 4300 <= trees.catalan(
        7153)
    code, out = run_cli(capsys, "trees", "--n", "7152", "--count", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 7152, "count": trees.catalan(7152)}
    monkeypatch.setattr(trees, "catalan", lambda n: pytest.fail(str(n)))
    for n in ("7153", "10000", "100000000"):
        code, out = run_cli(capsys, "trees", "--n", n, "--count", "--json")
        assert code == 1 and json.loads(out)["error"] == "TooLarge"


def test_tree_count_past_a_lowered_int_str_limit_is_too_large(capsys):
    # under a lowered limit Cat_7152 is counted but cannot be printed, so it
    # is refused after counting with one error document, while a count the
    # interpreter still prints is given
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code, out = run_cli(capsys, "trees", "--n", "7152", "--count",
                            "--json")
        doc = json.loads(out)  # one document: the error alone
        assert code == 1 and doc["error"] == "TooLarge"
        assert set(doc) == {"error", "message"}
        code, out = run_cli(capsys, "trees", "--n", "100", "--count",
                            "--json")
        assert code == 0
        assert json.loads(out) == {"n": 100, "count": trees.catalan(100)}
    finally:
        sys.set_int_max_str_digits(limit)


def test_tree_enumeration(capsys):
    code, out = run_cli(capsys, "trees", "--n", "2", "--json")
    assert json.loads(out) == {"n": 2, "trees": ["[1,2]", "[2,1]"]}


def test_tree_listing_past_degree_eleven_is_too_large(capsys, monkeypatch):
    # the listing of degree 12 peaked at 140 MB and 13 at 467 MB; it is
    # refused before a tree is built, while counting goes on to degree 7152
    listed = []
    monkeypatch.setattr(trees, "enumerate_trees",
                        lambda n: listed.append(n) or [])
    for n in ("12", "40", "10000"):
        code, out = run_cli(capsys, "trees", "--n", n, "--json")
        assert code == 1 and json.loads(out)["error"] == "TooLarge"
    assert listed == []
    code, out = run_cli(capsys, "trees", "--n", "12", "--count", "--json")
    assert code == 0 and json.loads(out) == {"n": 12, "count": 208012}
    code, out = run_cli(capsys, "trees", "--n", "11", "--json")
    assert code == 0 and listed == [11]


def test_tree_editing(capsys):
    _, out = run_cli(capsys, "trees", "--graft", "[1]", "[1]")
    assert out.strip() == "[1,3,1]"
    _, out = run_cli(capsys, "trees", "--face", "[2,1,3]", "--i", "0")
    assert out.strip() == "[1,2]"
    _, out = run_cli(capsys, "trees", "--expand", "[2,1]",
                     "--mode", "parallel_last")
    assert out.strip() == "[3,1,2]"
    _, out = run_cli(capsys, "trees", "--parse", "[131]")
    assert out.strip() == "[1,3,1]"


def test_coding_worked_example(capsys):
    code, out = run_cli(capsys, "psi", "--perm", "[3,4,1,6,5,2]")
    assert code == 0 and out.strip() == "[1,3,1,6,2,1]"
    _, out = run_cli(capsys, "psi", "--perm", "[1,2]", "--prime")
    assert out.strip() == "[2,1]"
    _, out = run_cli(capsys, "psi", "--fiber", "[1,3,1]", "--json")
    assert json.loads(out)["fiber"] == ["[1,3,2]", "[2,3,1]"]


def test_products(capsys):
    _, out = run_cli(capsys, "dias-mul", "--op", "left",
                     "x1 x2^", "x3^ x4")
    assert out.strip() == "x1 x2^ x3 x4"
    _, out = run_cli(capsys, "dend-mul", "--op", "prec",
                     "([2,1]; x y)", "([1]; z)")
    assert out.strip() == "([3,1,2]; x y z) + ([3,2,1]; x y z)"
    _, out = run_cli(capsys, "zinb-mul", "x y", "z")
    assert out.strip() == "x y z + x z y"
    _, out = run_cli(capsys, "bracket", "x^", "y^")
    assert out.strip() == "x^ y - y x^"


def test_poincare_inverse_line(capsys):
    code, out = run_cli(capsys, "poincare", "--preset", "dias",
                        "--degree", "10", "--check-inverse")
    assert code == 0
    assert "OK: g_Dend(g_Dias(x)) = x mod x^11" in out


def test_algebra_files_round_trip(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(fixture("tensor_square").to_json(), encoding="utf-8")

    code, out = run_cli(capsys, "axioms", "--file", str(path))
    assert code == 0 and out.strip() == "pass"

    code, out = run_cli(capsys, "halo", "--file", str(path), "--json")
    halo = json.loads(out)
    assert halo["point"] == [1, 0, 0, 0]

    code, out = run_cli(capsys, "assoc", "--file", str(path), "--json")
    assert code == 0
    quotient = tmp_path / "as.json"
    quotient.write_text(out, encoding="utf-8")

    code, out = run_cli(capsys, "homology", "--file", str(quotient),
                        "--theory", "CY", "--max-degree", "3", "--json")
    assert code == 0
    assert json.loads(out) == {
        "betti": {"1": 0, "2": 0, "3": 0}, "theory": "CY"}


def test_homology_other_theories(tmp_path, capsys):
    from dialab.finalg import leibnizification
    leib = tmp_path / "leib.json"
    leib.write_text(leibnizification(fixture("tensor_square")).to_json(),
                    encoding="utf-8")
    code, out = run_cli(capsys, "homology", "--file", str(leib),
                        "--theory", "CL", "--max-degree", "2", "--json")
    assert code == 0 and "betti" in json.loads(out)
    zinb = tmp_path / "zinb.json"
    zinb.write_text(
        fixture("truncated_free_zinbiel", dim_v=1, maxdeg=2).to_json(),
        encoding="utf-8")
    code, out = run_cli(capsys, "homology", "--file", str(zinb),
                        "--theory", "CZinb", "--max-degree", "2", "--json")
    assert code == 0 and "betti" in json.loads(out)
    # theory/kind mismatch is a domain error
    code, out = run_cli(capsys, "homology", "--file", str(zinb),
                        "--theory", "CL", "--max-degree", "2", "--json")
    assert code == 1
    assert json.loads(out)["error"] == "UnsupportedTheoryForSource"


def test_homology_free_piece(capsys):
    code, out = run_cli(capsys, "homology", "--free", "--theory", "CY",
                        "--dimv", "1", "--weight", "3",
                        "--max-degree", "3", "--json")
    assert json.loads(out) == {
        "betti": {"1": 0, "2": 0, "3": 0}, "theory": "CY", "weight": 3}
    code, out = run_cli(capsys, "homology", "--free", "--theory", "CDend",
                        "--dimv", "1", "--weight", "1",
                        "--max-degree", "1", "--json")
    assert json.loads(out)["betti"] == {"1": 1}
    # on k letters the CLI scales the one-letter Betti numbers by k^weight;
    # they must be those of the whole piece
    for theory in ("CY", "CDend"):
        for dimv, weight in ((2, 1), (3, 1), (2, 3), (3, 2)):
            code, out = run_cli(capsys, "homology", "--free", "--theory",
                                theory, "--dimv", str(dimv), "--weight",
                                str(weight), "--max-degree", "4", "--json")
            whole = build_complex(theory, ("free", dimv), 4, weight=weight)
            assert json.loads(out)["betti"] == {
                str(n): b for n, b in whole.betti_table(weight).items()}


def test_empty_free_pieces_are_refused(capsys):
    for theory in ("CY", "CDend"):
        for dimv, weight in (("-1", "3"), ("0", "3"), ("1", "0")):
            code, out = run_cli(capsys, "homology", "--free", "--theory",
                                theory, "--dimv", dimv, "--weight", weight,
                                "--json")
            assert code == 1
            assert json.loads(out)["error"] == "DegreeOutOfRange"


def test_oversize_finite_complex_is_refused_before_it_is_built(
        tmp_path, capsys, monkeypatch):
    # on the 4-dimensional tensor_square, degree 7 of CS has 7! * 4^7 =
    # 82,575,360 terms and of CY Cat_7 * 4^7 = 7,028,736; CS through degree
    # 6 has 3,078,564 terms in all and is built.  A 0-dimensional algebra
    # has no terms, but its complex enumerates the Cat_15 = 9,694,845 trees
    # of degree 15
    path, zero = tmp_path / "alg.json", tmp_path / "zero.json"
    path.write_text(fixture("tensor_square").to_json(), encoding="utf-8")
    zero.write_text(json.dumps({"kind": "dialgebra", "basis": [], "tables": {
        "left": [], "right": []}}), encoding="utf-8")

    def build(*args):
        raise RuntimeError("build_complex reached")

    monkeypatch.setattr(homology, "build_complex", build)
    for source, theory, top in ((path, "CS", "6"), (path, "CY", "6"),
                                (zero, "CY", "14"), (zero, "CY", "20000")):
        code, out = run_cli(capsys, "homology", "--file", str(source),
                            "--theory", theory, "--max-degree", top, "--json")
        doc = json.loads(out)  # one document: the error alone
        assert code == 1 and doc["error"] == "TooLarge"
        assert set(doc) == {"error", "message"}
    with pytest.raises(RuntimeError, match="build_complex reached"):
        main(["homology", "--file", str(path), "--theory", "CS",
              "--max-degree", "5", "--json"])


def test_zero_dimensional_source_lists_no_trees(tmp_path, capsys,
                                                monkeypatch):
    # the complex of a 0-dimensional algebra has no terms, so neither its
    # basis nor its rank sweep may enumerate X_n: through degree 14 that
    # would be 3.6 million trees
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"kind": "dialgebra", "basis": [], "tables": {
        "left": [], "right": []}}), encoding="utf-8")

    def enumerate_trees(n):
        raise RuntimeError("Y_%d enumerated" % n)

    monkeypatch.setattr(trees, "enumerate_trees", enumerate_trees)
    monkeypatch.setattr(homology, "enumerate_trees", enumerate_trees)
    code, out = run_cli(capsys, "homology", "--file", str(zero), "--theory",
                        "CY", "--max-degree", "13", "--json")
    assert code == 0
    assert json.loads(out) == {
        "theory": "CY", "betti": {str(n): 0 for n in range(1, 14)}}


@pytest.mark.parametrize("source", ["free", "file"])
def test_negative_max_degree_is_refused(source, tmp_path, capsys):
    if source == "free":
        argv = ("--free", "--dimv", "1", "--weight", "3")
    else:
        path = tmp_path / "alg.json"
        path.write_text(fixture("tensor_square").to_json(), encoding="utf-8")
        argv = ("--file", str(path))
    code, out = run_cli(capsys, "homology", *argv, "--theory", "CY",
                        "--max-degree", "-2", "--json")
    assert code == 1
    assert json.loads(out)["error"] == "DegreeOutOfRange"


_MALFORMED_ALGEBRAS = {
    "not-json": "not json",
    "no-tables": '{"kind": "dialgebra", "basis": ["1"]}',
    "cell-x": json.dumps({"kind": "dialgebra", "basis": ["1"],
                          "tables": {"left": [[["x"]]], "right": [[[1]]]}}),
    "basis-string": json.dumps({"kind": "dialgebra", "basis": "1",
                                "tables": {"left": [[[1]]],
                                           "right": [[[1]]]}}),
    # cells are exact: an int or a "p/q" string, never a float or a bool
    "cell-float": json.dumps({"kind": "dialgebra", "basis": ["1"],
                              "tables": {"left": [[[1.0]]],
                                         "right": [[[1]]]}}),
    "cell-bool": json.dumps({"kind": "dialgebra", "basis": ["1"],
                             "tables": {"left": [[[True]]],
                                        "right": [[[1]]]}}),
}


@pytest.mark.parametrize("command, text, max_dim", [
    pytest.param(command, text, None, id="%s-%s" % (command, name))
    for command in ("homology", "halo", "axioms")
    for name, text in _MALFORMED_ALGEBRAS.items()
] + [
    pytest.param("koszul-dual", "not json", None, id="koszul-dual-not-json"),
    pytest.param("koszul-dual", '{"generators": ["m"]}', None,
                 id="koszul-dual-no-relations"),
    pytest.param("koszul-dual",
                 '{"generators": ["m"], "relations": [[1, -0.5]]}', None,
                 id="koszul-dual-cell-float"),
    pytest.param("koszul-dual",
                 '{"generators": ["m"], "relations": [[1, true]]}', None,
                 id="koszul-dual-cell-bool"),
    # a well-formed algebra, built when the test runs so that a fixture
    # failing its axioms fails this case and not the module's collection
    pytest.param("homology", lambda: fixture("field").to_json(), "abc",
                 id="homology-max-dim-abc"),
])
def test_malformed_input_is_a_domain_error(command, text, max_dim, tmp_path,
                                           monkeypatch, capsys):
    if callable(text):
        text = text()
    if max_dim is not None:
        monkeypatch.setenv("DIALAB_MAX_DIM", max_dim)
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(capsys, command, "--file", str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"] == "MalformedInput"


@pytest.mark.parametrize("command", ["halo", "assoc"])
def test_wrong_algebra_kind_is_a_domain_error(command, tmp_path, capsys):
    # both commands are defined on dialgebras only
    path = tmp_path / "zinb.json"
    path.write_text(fixture("truncated_free_zinbiel").to_json(),
                    encoding="utf-8")
    code, out = run_cli(capsys, command, "--file", str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"] == "IncompatibleAlgebras"


def test_degree_guards_raise_degree_out_of_range(capsys):
    for argv in (("poincare", "--degree", "-3", "--json"),
                 ("sh-relations", "--n", "0", "--json"),
                 ("sh-relations", "--n", "7", "--json")):
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"] == "DegreeOutOfRange"


def test_koszul_dual_cli(capsys):
    code, out = run_cli(capsys, "koszul-dual", "--preset", "dias", "--json")
    doc = json.loads(out)
    assert len(doc["relations"]) == 3


# koszul-dual --json outputs: dias and dend are each other's duals, and as
# is self-dual
_DIAS = ('{"generators": ["l", "r"], "relations": [[1, 0, 0, 0, -1, 0, 0, 0], '
         '[0, 1, 0, 0, -1, 0, 0, 0], [0, 0, 1, 0, 0, 0, -1, 0], '
         '[0, 0, 0, 1, 0, 0, 0, -1], [0, 0, 0, 0, 0, 1, 0, -1]]}')
_DEND = ('{"generators": ["l", "r"], "relations": [[1, 1, 0, 0, -1, 0, 0, 0], '
         '[0, 0, 1, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, -1, 0, -1]]}')
_AS = '{"generators": ["m"], "relations": [[1, -1]]}'


@pytest.mark.parametrize("preset, dual, dual_of_dual", [
    ("dias", _DEND, _DIAS), ("dend", _DIAS, _DEND), ("as", _AS, _AS)])
def test_koszul_dual_json_is_pinned(capsys, tmp_path, preset, dual,
                                    dual_of_dual):
    code, out = run_cli(capsys, "koszul-dual", "--preset", preset, "--json")
    assert code == 0 and out == dual + "\n"
    path = tmp_path / "dual.json"
    path.write_text(out, encoding="utf-8")
    code, out = run_cli(capsys, "koszul-dual", "--file", str(path), "--json")
    assert code == 0 and out == dual_of_dual + "\n"


def test_compose_cli(capsys):
    code, out = run_cli(capsys, "compose", "--outer", "[2,1]", "--pos", "1",
                        "--inner", "[2,1]", "--json")
    doc = json.loads(out)
    assert doc["result"] == [[1, "[3,1,2]"], [1, "[3,2,1]"]]
    assert doc["printed_orientation_matches"]


def test_sh_relations_cli(capsys):
    code, out = run_cli(capsys, "sh-relations", "--n", "1", "--json")
    doc = json.loads(out)
    assert doc["relations"][0]["tree"] == "[1]"
    assert len(doc["relations"][0]["terms"]) == 1


def test_zinb_map_cli(capsys):
    code, out = run_cli(capsys, "zinb-map", "--tree", "[1,3,1]",
                        "--letters", "x y z")
    assert out.strip() == "y x z + y z x"


def test_domain_error_exit_code(capsys):
    code, out = run_cli(capsys, "trees", "--parse", "[2,2]", "--json")
    assert code == 1
    assert json.loads(out)["error"] == "InvalidName"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "dialab", "trees", "--no-such-flag"],
        capture_output=True)
    assert proc.returncode == 2


def test_missing_flag_is_a_usage_error(capsys):
    assert main(["trees"]) == 2
    capsys.readouterr()
    assert main(["psi"]) == 2
    capsys.readouterr()
    assert main(["homology", "--free", "--theory", "CY"]) == 2
    capsys.readouterr()


def test_json_outputs_are_byte_stable(capsys):
    runs = []
    for _ in range(2):
        _, out = run_cli(capsys, "sh-relations", "--n", "3", "--json")
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out = run_cli(capsys, "psi", "--fiber", "[1,3,1]", "--json")
        runs.append(out)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ("homology", "--file", "{file}", "--theory", "CY", "--max-degree", "3"),
    ("homology", "--free", "--theory", "CY", "--dimv", "2", "--weight", "5",
     "--max-degree", "5"),
    ("homology", "--free", "--theory", "CDend", "--dimv", "2", "--weight",
     "5", "--max-degree", "5"),
    ("dias-mul", "--op", "right", "x1 x2^ + 2*x2^ x1", "x3^ - x1 x3^"),
    ("dend-mul", "--op", "star", "([2,1]; x y) + ([1,2]; y x)",
     "([1]; z) - ([1,2]; z x)"),
    ("koszul-dual", "--preset", "dias"),
    ("sh-relations", "--n", "4"),
], ids=lambda argv: "-".join(a for a in argv[:4] if "{" not in a))
def test_output_does_not_depend_on_hash_seed(argv, tmp_path):
    """Terms hash by object identity, so set and dict orders may differ
    from run to run; what the CLI prints must not."""
    path = tmp_path / "alg.json"
    path.write_text(fixture("tensor_square").to_json(), encoding="utf-8")
    argv = [a.format(file=path) for a in argv] + ["--json"]
    outs = [subprocess.run([sys.executable, "-m", "dialab", *argv],
                           capture_output=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
            for seed in ("0", "1")]
    assert outs[0] and outs[0] == outs[1]


# ---------------------------------------------------------------------------
# argument grid: every subcommand, valid and malformed arguments
# ---------------------------------------------------------------------------

# "{name}" stands for a file that the test writes: an algebra, a quadratic
# datum, bytes that are not UTF-8, text that is not JSON, a directory and a
# path that does not exist
_GRID = {
    "trees": [
        (), ("--n", "3"), ("--n", "3", "--count"), ("--n", "-1"),
        ("--count",), ("--n", "x"), ("--parse", "[1,3,1]"),
        ("--parse", "[2,2]"), ("--parse", ""), ("--parse", "[a]"),
        ("--graft", "[1]", "[2,1]"), ("--graft", "[1]", "x"),
        ("--graft", "[1]"), ("--split", "[1,3,1]"), ("--split", "[0]"),
        ("--face", "[2,1]", "--i", "0"), ("--face", "[2,1]", "--i", "9"),
        ("--face", "[0]"), ("--expand", "[2,1]", "--i", "1"),
        ("--expand", "[2,1]", "--i", "-5"),
        ("--expand", "[2,1]", "--mode", "sideways"), ("--n", "12"),
        ("--n", "10000", "--count"), ("--n", "100000000", "--count"),
    ],
    "psi": [
        (), ("--perm", "[3,1,2]"), ("--perm", "[3,1,2]", "--prime"),
        ("--perm", "[a,b]"), ("--perm", "[1,1]"), ("--perm", ""),
        ("--perm", "[0,1]"), ("--fiber", "[1,3,1]"), ("--fiber", "[2,2]"),
        ("--fiber", "x"),
    ],
    "dias-mul": [
        ("--op", "left", "x^ y", "2*z^ - x^"), ("--op", "right", "x^", "y^"),
        ("--op", "left", "x^ +", "y^"), ("--op", "left", "x^", "-"),
        ("--op", "left", "a*y^", "x^"), ("--op", "right", "2/0*y^", "x^"),
        ("--op", "left", "x y", "z^"), ("--op", "left", "x^ y^", "z^"),
        ("--op", "left", "", "z^"), ("--op", "up", "x^", "y^"),
        ("x^", "y^"), ("--op", "left", "1e5000*x^", "y^"),
        ("--op", "left", "1e999999999*x^", "y^"),
    ],
    "dend-mul": [
        ("--op", "prec", "([2,1]; x y)", "([1]; z)"),
        ("--op", "star", "1/2*([1]; x)", "([0];)"),
        ("--op", "succ", "([0];)", "([0];)"),
        ("--op", "prec", "([2,1]; x)", "([1]; z)"),
        ("--op", "prec", "([2,2]; x y)", "([1]; z)"),
        ("--op", "prec", "[1]; x", "([1]; z)"),
        ("--op", "prec", "a*([1]; x)", "([1]; z)"),
        ("--op", "succ", "([1]; x) +", "([1]; z)"),
        ("--op", "over", "([1]; x)", "([1]; z)"),
    ],
    "zinb-mul": [
        ("x y", "z"), ("--mode", "symmetrized", "x", "y - 3*z"),
        ("x", ""), ("x +", "y"), ("a*x", "y"), ("2/0*x", "y"),
        ("--mode", "twisted", "x", "y"), ("1e2200*x", "1e2200*y"),
        ("2e-1*x", "y"), ("1e-4299*x", "y"),
    ],
    "bracket": [
        ("x^", "y^"), ("x^ y", "-1/3*y^"), ("x", "y^"), ("x^", "y^ -"),
        ("x^/y", "y^"), ("a*x^", "y^"), ("x^", "1/0*y^"),
    ],
    "axioms": [
        ("--file", "{algebra}"), ("--file", "{not_json}"),
        ("--file", "{not_utf8}"), ("--file", "{directory}"),
        ("--file", "{missing}"), ("--file", "{quadratic}"), (),
    ],
    "halo": [
        ("--file", "{algebra}"), ("--file", "{not_json}"),
        ("--file", "{not_utf8}"), ("--file", "{directory}"),
        ("--file", "{missing}"),
    ],
    "assoc": [
        ("--file", "{algebra}"), ("--file", "{not_json}"),
        ("--file", "{not_utf8}"), ("--file", "{directory}"),
        ("--file", "{missing}"),
    ],
    "homology": [
        ("--file", "{algebra}", "--max-degree", "2"),
        ("--file", "{algebra}", "--theory", "CS", "--max-degree", "2"),
        ("--file", "{algebra}", "--theory", "CL", "--max-degree", "2"),
        ("--file", "{algebra}", "--max-degree", "-1"),
        ("--file", "{algebra}", "--theory", "CS", "--max-degree", "6"),
        ("--file", "{not_json}"), ("--file", "{not_utf8}"),
        ("--file", "{directory}"), ("--file", "{missing}"),
        ("--free", "--weight", "3", "--max-degree", "3"),
        ("--free", "--theory", "CDend", "--dimv", "2", "--weight", "2"),
        ("--free", "--theory", "CS", "--weight", "2"),
        ("--free", "--dimv", "0", "--weight", "2"),
        ("--free", "--weight", "0"), ("--free",), (),
        ("--free", "--weight", "x"), ("--theory", "CQ"),
    ],
    "koszul-dual": [
        ("--preset", "dias"), ("--preset", "as"), ("--file", "{quadratic}"),
        ("--file", "{algebra}"), ("--file", "{not_json}"),
        ("--file", "{not_utf8}"), ("--file", "{directory}"),
        ("--file", "{missing}"), ("--preset", "lie"), (),
    ],
    "poincare": [
        (), ("--preset", "dend", "--degree", "6", "--check-inverse"),
        ("--degree", "0"), ("--degree", "-3"), ("--degree", "x"),
        ("--preset", "as"),
    ],
    "compose": [
        ("--outer", "[2,1]", "--pos", "1", "--inner", "[2,1]"),
        ("--outer", "[2,1]", "--pos", "9", "--inner", "[1]"),
        ("--outer", "[2,1]", "--pos", "0", "--inner", "[1]"),
        ("--outer", "[2,2]", "--pos", "1", "--inner", "[1]"),
        ("--outer", "[2,1]", "--pos", "1"),
    ],
    "sh-relations": [
        ("--n", "2"), ("--n", "0"), ("--n", "7"), ("--n", "x"), (),
    ],
    "zinb-map": [
        ("--tree", "[1,3,1]", "--letters", "x y z"), ("--tree", "[1,3,1]"),
        ("--tree", "[1,3,1]", "--letters", "x"), ("--tree", "[2,2]"),
        ("--term", "([2,1]; x y) - 2*([1,2]; y x)"),
        ("--term", "a*([1]; x)"), ("--term", "([1]; x) -"),
        ("--term", "([1]; x y)"), (),
        ("--term", "5e4299*([1,3,1]; x x x)"),
    ],
}


def _grid_files(tmp_path):
    paths = {name: tmp_path / name for name in (
        "algebra", "quadratic", "not_utf8", "not_json", "directory")}
    paths["algebra"].write_text(fixture("tensor_square").to_json(),
                                encoding="utf-8")
    paths["quadratic"].write_text(_AS, encoding="utf-8")
    paths["not_utf8"].write_bytes(b'{"kind": "\xff"}')
    paths["not_json"].write_text("not json", encoding="utf-8")
    paths["directory"].mkdir()
    paths["missing"] = tmp_path / "no-such-file.json"
    return {name: str(p) for name, p in paths.items()}


@pytest.mark.parametrize("argv", [
    pytest.param((command,) + args, id=" ".join((command,) + args))
    for command, cases in _GRID.items() for args in cases])
def test_argument_grid(argv, tmp_path, capsys):
    files = _grid_files(tmp_path)
    argv = [a.format(**files) for a in argv]
    for mode in ([], ["--json"]):
        try:
            code = main(argv + mode)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        if mode and code == 2:
            assert out == ""
        elif mode:
            doc = json.loads(out)
            assert out.endswith("\n")
            assert ("error" in doc) == (code == 1)


@pytest.mark.parametrize("argv", [
    ("psi", "--perm", "[a,b]"),
    ("dias-mul", "--op", "left", "a*y^", "x^"),
    ("dias-mul", "--op", "right", "2/0*y^", "x^"),
    ("dias-mul", "--op", "left", "x^ +", "y^"),
    ("dend-mul", "--op", "prec", "a*([1]; x)", "([1]; z)"),
    ("zinb-mul", "x", "2/0*y"),
    ("bracket", "x^", "y^ -"),
    ("zinb-map", "--term", "a*([1]; x)"),
    ("dias-mul", "--op", "left", "1e5000*x^", "y^"),
    ("dias-mul", "--op", "left", "1e999999999*x^", "y^"),
    ("axioms", "--file", "{directory}"),
    ("halo", "--file", "{not_utf8}"),
    ("assoc", "--file", "{missing}"),
    ("homology", "--file", "{not_utf8}"),
    ("koszul-dual", "--file", "{not_utf8}"),
], ids=" ".join)
def test_bad_arguments_and_unreadable_files_are_malformed_input(
        argv, tmp_path, capsys):
    # each of these once ended in a traceback, printed no JSON, or (the
    # dangling sign) was read as if the sign were not there
    files = _grid_files(tmp_path)
    code, out = run_cli(capsys, *(a.format(**files) for a in argv), "--json")
    assert code == 1
    assert json.loads(out)["error"] == "MalformedInput"


def test_a_signed_exponent_belongs_to_its_coefficient(capsys):
    # the sign after the e of 2e-1 used to split the element, so that 2e
    # was read as a generator and -1 as the coefficient of x
    for text, coeff in (("2e-1*x", "1/5"), ("2E+1*x", 20), ("5e-0*x", 5)):
        code, out = run_cli(capsys, "zinb-mul", text, "y", "--json")
        assert code == 0
        assert json.loads(out)["result"] == [[coeff, "x y"]]
    code, out = run_cli(capsys, "zinb-mul", "x - 2e-1*y + z", "w", "--json")
    assert json.loads(out)["result"] == [
        [1, "x w"], ["-1/5", "y w"], [1, "z w"]]
    code, out = run_cli(capsys, "zinb-mul", "1e-4299*x", "y", "--json")
    assert code == 0
    [[coeff, term]] = json.loads(out)["result"]
    assert term == "x y" and coeff == "1/1" + "0" * 4299


@pytest.mark.parametrize("argv", [
    ("zinb-mul", "1e2200*x", "1e2200*y"),
    ("zinb-map", "--term", "5e4299*([1,3,1]; x x x)"),
], ids=" ".join)
def test_results_too_long_to_print_are_too_large(argv, capsys):
    # each once ended in a ValueError traceback: a result coefficient with
    # more digits than the interpreter converts to text
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["error"] == "TooLarge"
