"""Self-check of the benchmark itself.

    python3 -m pytest -q bench/selfcheck.py

Toy-size passes only; the whole check takes a few seconds.
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace=0, seed=1):
    rc = run.main(["--workload", workload, "--seed", str(seed),
                   "--seconds", "0", "--trace", str(trace), "--toy"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    return rc, result


@pytest.fixture
def dl():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return run.fresh_dialab()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_pass_reports_every_metric(capsys, workload, trace):
    rc, result = bench(capsys, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def _wrong_betti(dim_v, weight, right=oracles.free_betti):
    table = right(dim_v, weight)
    table[weight] += 1
    return table


def _wrong_size(theory, k, n, right=oracles.finite_basis_size):
    return right(theory, k, n) + (n == 2)


@pytest.mark.parametrize("workload, name, wrong", [
    ("betti", "free_betti", _wrong_betti),
    ("dsq", "finite_basis_size", _wrong_size),
])
def test_wrong_expectation_fails_the_run(capsys, monkeypatch, workload,
                                         name, wrong):
    monkeypatch.setattr(oracles, name, wrong)
    rc, result = bench(capsys, workload)
    assert rc != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_rank_certificate_sees_homology(dl):
    # H_1 of the weight-1 piece is spanned by the generators
    assert workloads._rank_certificate(dl.build_cy_free(2, 1), [1])
    assert not workloads._rank_certificate(dl.build_cy_free(1, 4),
                                           [1, 2, 3, 4])


def test_second_seed_changes_inputs_not_results(dl):
    fx = dl.fixture("tensor_square")
    a = workloads.rescaled(dl, fx, random.Random(1))
    b = workloads.rescaled(dl, fx, random.Random(2))
    assert a.tables != b.tables
    for name in ("dsq", "betti"):
        one, two = (run.Pass(workloads.WORKLOADS[name], seed, True, False,
                             deep=True) for seed in (1, 2))
        assert not one.failures and not two.failures
        assert one.outputs == two.outputs


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dsq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
