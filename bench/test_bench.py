"""Tests of the benchmark itself, on tiny slices of each workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads

run.load_program()

WORKLOADS = ("cli_small", "big_target", "check_small")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def passes():
    return {name: workloads.build(name, 7)[0] for name in WORKLOADS}


def tiny(ops):
    """The first few inputs of a pass: the light ones, as passes list them light first."""
    return ops[:3]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(monkeypatch, passes, name, trace):
    untimed = workloads.overcap()[:2] if name == "big_target" else []
    monkeypatch.setattr(workloads, "build", lambda _name, _seed: (tiny(passes[name]), untimed))
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    for metric in declared:
        assert f"{metric['name']}: " in out.getvalue()


def test_benchmark_file_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(tracing.UNITS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_gate_counts_an_injected_wrong_reference(passes, name):
    cli = run.load_program()
    ops = tiny(passes[name])
    finite = next(i for i, op in enumerate(ops) if isinstance(op.expected, dict))
    wrong = dict(ops[finite].expected, points=ops[finite].expected["points"][1:] + [["0", "0"]])
    ops = [replace(op, expected=wrong) if i == finite else op for i, op in enumerate(ops)]
    tally = run.Tally()
    _, correct = run.run_pass(cli, ops, tally)
    assert correct == len(ops) - 1
    assert tally.failed == tally.unexpected == 1
    assert list(tally.failures) == [(ops[finite].id, "wrong answer", False)]


def test_gate_checks_line_pairs(passes):
    cli = run.load_program()
    op = next(op for op in passes["check_small"] if isinstance(op.expected, tuple))
    _, _, code, out = run.call(cli, op.argv)
    assert reference.check(out, code, op.expected) is None
    doc = json.loads(out)
    doc["lines"][0]["solvable"] = not doc["lines"][0]["solvable"]
    assert reference.check(json.dumps(doc), code, op.expected) == "wrong solvability"
    other = workloads._line_pair(random.Random(1))
    assert reference.check(out, code, other) is not None


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_the_same_inputs(passes, name):
    again = workloads.build(name, 7)[0]
    assert [op.argv for op in again] == [op.argv for op in passes[name]]
    assert [op.expected for op in again] == [op.expected for op in passes[name]]
    assert [op.argv for op in workloads.build(name, 8)[0]] != [op.argv for op in again]


def test_known_failure_is_only_the_seed_failure():
    psi12 = workloads.overcap()[0]
    wrong = {"kind": "finite", "points": psi12.known["points"]}
    assert run.is_known_failure(psi12, 0, json.dumps(wrong))
    assert not run.is_known_failure(psi12, 0, json.dumps(dict(wrong, points=[])))
    limit = workloads.overcap()[1]
    error = {"kind": "invalid", "error": {"code": "divisor-limit", "message": ""}}
    assert run.is_known_failure(limit, 1, json.dumps(error))
    assert not run.is_known_failure(limit, 3, json.dumps(error))


def test_psi12_reference_has_all_eight_points():
    psi12 = workloads.overcap()[0]
    assert len(psi12.expected["points"]) == 8
    assert len(psi12.known["points"]) == 4


def test_factorization_reference_agrees_with_the_oracle(passes):
    finite = [op for op in passes["cli_small"] if isinstance(op.expected, dict)][:40]
    for op in finite:
        c = tuple(int(v) for v in op.argv[-6:])
        assert reference.points_from_factorization(c, None) == reference.oracle_points(c)


def test_target_conic_is_the_power_of_two_family():
    from conicpoints import power_of_two_conic

    rng = random.Random(3)
    c = workloads.target_conic(rng, 2**30)
    conic = power_of_two_conic(c[1], c[3], c[4], 32)
    assert (conic.alpha, conic.beta, conic.gamma, conic.delta, conic.epsilon, conic.j) == c


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, None, "a", 0, None],
        ["cli.build_parser", 1.0, 3.0, 0, "a", 0, None],
        ["solver.solve", 4.0, 9.0, 0, "a", 0, None],
        ["solver.solve_finite", 4.0, 8.0, 2, "a", 0, {"points": 2}],
        ["intmath.positive_divisors", 4.0, 6.0, 3, "a", 0, {"tau": 4}],
    ]
    metrics = tracing.layer_metrics(spans, passes=1)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["solver.enumerate_self_s"] == 2.0
    assert metrics["solver.candidates"] == 8
    assert metrics["solver.hit_ratio"] == 0.25
