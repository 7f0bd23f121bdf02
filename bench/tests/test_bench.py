"""Tests of the benchmark itself: inputs, verification, tracing, metric names.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def mods():
    return run.import_sepdet()


def _tiny_cli_ops(tmp_path: Path) -> list:
    """A two-op CLI batch on a 5-point line, small enough for unit tests."""
    space = {"kind": "finite", "metric": "euclidean",
             "points": [{"id": f"p{i}", "coords": [f"{c}/2"]}
                        for i, c in enumerate((0, 1, 3, 6, 7))]}
    fn = {"kind": "table", "values": {f"p{i}": v for i, v in enumerate(("1", "-2", "3/2", "0", "4"))}}
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "fn.json").write_text(json.dumps(fn))
    ops = []
    for i, name in enumerate(("ball-pairs:sup", "torus-slope:inf")):
        out = tmp_path / f"out{i}.json"
        argv = ("check", "--space", str(tmp_path / "space.json"), "--fn",
                str(tmp_path / "fn.json"), "--name", name, "--q-density", "4",
                "--out", str(out)) + wl.SLACK * i
        ops.append(wl.Op(label=name, argv=argv, out=str(out), expect_points=5))
    return ops


# -- generated inputs ------------------------------------------------------


def test_cli_inputs_are_identical_for_a_fixed_seed(tmp_path):
    a = wl.write_cli_inputs(7, tmp_path / "a" / "in", tmp_path / "a" / "out")
    b = wl.write_cli_inputs(7, tmp_path / "b" / "in", tmp_path / "b" / "out")
    wl.write_cli_inputs(8, tmp_path / "c" / "in", tmp_path / "c" / "out")
    assert run.inputs_digest(tmp_path / "a" / "in") == run.inputs_digest(tmp_path / "b" / "in")
    assert run.inputs_digest(tmp_path / "a" / "in") != run.inputs_digest(tmp_path / "c" / "in")
    assert len(a) == wl.CLI_INPUT_BATCHES
    assert [[op.label for op in ops] for ops in a] == [[op.label for op in ops] for ops in b]
    ops = a[0]
    assert 3 * len(ops) >= 100  # a run of three batches holds >= 100 ops
    reduce_check = [op for op in ops if op.argv[0] != "validate"]
    assert 2 * sum("--eps" in op.argv for op in reduce_check) == len(reduce_check)
    assert all("--q-density" in op.argv and "--out" in op.argv for op in ops)


def test_suite_ops_are_identical_for_a_fixed_seed():
    for workload in wl.SUITE_SLOTS:
        assert wl.suite_ops(workload, 3, 1) == wl.suite_ops(workload, 3, 1)
        assert wl.suite_ops(workload, 3, 1) != wl.suite_ops(workload, 4, 1)
        assert wl.suite_ops(workload, 3, 1) != wl.suite_ops(workload, 3, 2)


def test_inf_mode_cli_ops_read_finite_functions(tmp_path):
    batches = wl.write_cli_inputs(0, tmp_path / "in", tmp_path / "out")
    inf_ops = [op for ops in batches for op in ops if any(a.endswith(":inf") for a in op.argv)]
    assert inf_ops
    for op in inf_ops:
        fn = json.loads(Path(op.argv[op.argv.index("--fn") + 1]).read_text())
        assert "inf" not in fn["values"].values()


# -- verification ----------------------------------------------------------


def test_tampered_cli_output_counts_as_failed(mods, tmp_path):
    ops = _tiny_cli_ops(tmp_path)
    honest = [run.run_op(mods, op, run.SpeedScale()) for op in ops]
    assert all(o.failed == 0 and o.checks > 0 for o in honest)

    out = json.loads(Path(ops[0].out).read_text())
    out["passed"] -= 1
    out["failed"] += 1
    tampered = wl.verify_cli(ops[0], 0, out, 0.0, 0)
    tally = run.Tally()
    tally.add_batch(run.Batch(0, [tampered]))
    tally.expect("digest", tampered.digest, honest[0].digest)
    assert tally.failed == 2 and tally.share > 0


def test_rewritten_output_with_a_passing_verdict_fails_the_digest(mods, tmp_path):
    ops = _tiny_cli_ops(tmp_path)
    honest = run.run_op(mods, ops[1], run.SpeedScale())
    out = json.loads(Path(ops[1].out).read_text())
    out["results"][0]["lhs"] = "123"
    tampered = wl.verify_cli(ops[1], 0, out, 0.0, 0)
    assert tampered.failed == 0  # the verdict fields alone do not catch it
    tally = run.Tally(attempted=1)
    tally.expect("digest", tampered.digest, honest.digest)
    assert tally.share == 1.0


def test_failed_suite_checks_count(mods):
    report = mods["sepdet"].run_suite(
        "thm-2.1", mods["sepdet"].SuiteConfig(instances=1, sizes=(5,), seed=1))
    obj = report.to_json()
    assert wl.verify_suite(obj, 0.0).failed == 0
    obj["checks"]["failed"] = 2
    obj["fails"] = 1
    assert wl.verify_suite(obj, 0.0).failed == 2


def test_non_zero_exit_counts_as_failed(tmp_path):
    op = _tiny_cli_ops(tmp_path)[0]
    assert wl.verify_cli(op, 1, {"fixed_point": True, "passed": 3, "failed": 0,
                                 "skipped": 0}, 0.0, 0).failed == 1


# -- tracing ---------------------------------------------------------------


def test_traced_run_has_no_negative_self_time_and_restores_sepdet(mods, tmp_path):
    sepdet = mods["sepdet"]
    before = {name: dict(vars(m)) for name, m in mods.items()}
    space_cls = mods["sepdet.spaces"].FiniteMetricSpace
    methods = (space_cls.validate, space_cls.distance)
    families = dict(mods["sepdet.functionals"].PROBLEM_FAMILIES)
    tracer = Tracer(mods)
    tracer.install()
    try:
        sepdet.run_suite("prop-1.1", sepdet.SuiteConfig(instances=1, sizes=(6,), seed=2))
        sepdet.run_suite("thm-4.3", sepdet.SuiteConfig(instances=1, sizes=(4,), seed=2))
        for op in _tiny_cli_ops(tmp_path):
            assert run.run_op(mods, op, run.SpeedScale()).failed == 0
    finally:
        tracer.uninstall()
    assert not tracer.stack
    for group, seconds in tracer.group_self.items():
        assert seconds >= 0, group
    metrics = tracer.metrics()
    for name, value in metrics.items():
        if name.endswith("self_s"):
            assert value >= 0, name
    assert metrics["families.member_calls"] == 3
    assert metrics["spaces.validate_calls"] == 2
    assert metrics["functionals.partial_slope_s"] > 0
    assert metrics["scheme.check_calls"] > 0
    for span in tracer.spans:
        assert span[4] <= span[5]
    assert {name: dict(vars(m)) for name, m in mods.items()} == before
    assert mods["sepdet.functionals"].PROBLEM_FAMILIES == families
    assert (space_cls.validate, space_cls.distance) == methods


# -- metric names ----------------------------------------------------------


def test_metric_names_are_well_formed_and_match_the_spec(mods):
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert set(e2e) == set(run.UNITS)
    produced = set(Tracer(mods).metrics()) | {"cli.out_bytes", "trace.overhead"}
    assert produced == set(layer)
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
