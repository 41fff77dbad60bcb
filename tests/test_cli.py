"""Command-line interface: worked examples, JSON stability, exit codes."""

import json
import subprocess
import sys

import pytest

from dialab.cli import main
from dialab.finalg import fixture


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


def test_tree_enumeration(capsys):
    code, out = run_cli(capsys, "trees", "--n", "2", "--json")
    assert json.loads(out) == {"n": 2, "trees": ["[1,2]", "[2,1]"]}


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


def test_empty_free_pieces_are_refused(capsys):
    for theory in ("CY", "CDend"):
        for dimv, weight in (("-1", "3"), ("0", "3"), ("1", "0")):
            code, out = run_cli(capsys, "homology", "--free", "--theory",
                                theory, "--dimv", dimv, "--weight", weight,
                                "--json")
            assert code == 1
            assert json.loads(out)["error"] == "DegreeOutOfRange"


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
