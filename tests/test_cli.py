"""CLI verbs: exit codes, diagnostics, and byte-stable JSON reports."""

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sepdet
from sepdet import FunctionOracle, SuiteConfig, cli, lip_local_sup, space_from_descriptor
from sepdet.errors import ScoreRangeError
from sepdet.cli import _build_parser, run_cli

LINE3 = {
    "kind": "finite",
    "metric": "euclidean",
    "points": [
        {"id": "p0", "coords": [0]},
        {"id": "p1", "coords": [1]},
        {"id": "p2", "coords": [3]},
    ],
}

BAD_SYMMETRY = {
    "kind": "finite",
    "metric": "matrix",
    "points": ["a", "b"],
    "matrix": [[0, 2], [3, 0]],
}


@pytest.fixture
def line3_path(tmp_path):
    path = tmp_path / "line3.json"
    path.write_text(json.dumps(LINE3))
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestValidate:
    def test_good_space(self, line3_path, capsys):
        assert run_cli(["validate", "--space", line3_path]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["ok"] and body["points"] == 3

    def test_symmetry_failure_names_the_pair(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_SYMMETRY))
        assert run_cli(["validate", "--space", str(path)]) == 2
        err = capsys.readouterr().err
        assert "matrix[0][1]" in err and "'a'" in err and "'b'" in err

    def test_tiny_exact_triangle_violation_exits_two(self, tmp_path, capsys):
        near = "2000000000000001/1000000000000000"  # 2 + 10^-15 against 1 + 1
        path = tmp_path / "near.json"
        path.write_text(json.dumps({
            "kind": "finite", "metric": "matrix", "points": ["a", "b", "c"],
            "matrix": [[0, near, 1], [near, 0, 1], [1, 1, 0]]}))
        assert run_cli(["validate", "--space", str(path)]) == 2
        assert "triangle inequality fails at points ('a', 'b', 'c')" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["inf", float("nan")])
    def test_non_finite_distance_names_the_field(self, bad, tmp_path, capsys):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps({
            "kind": "finite", "metric": "matrix", "points": ["a", "b", "c"],
            "matrix": [[0, 1, 2], [1, 0, bad], [2, bad, 0]]}))
        assert run_cli(["validate", "--space", str(path)]) == 2
        err = capsys.readouterr().err
        assert "matrix[1][2] = " in err and "distances must be finite" in err

    @pytest.mark.parametrize("bad, shown", [(True, "True"), ("x", "'x'"), ("1/0", "'1/0'")])
    def test_non_number_entry_names_the_row(self, bad, shown, tmp_path, capsys):
        path = tmp_path / "nonnumber.json"
        path.write_text(json.dumps({
            "kind": "finite", "metric": "matrix", "points": ["a", "b"],
            "matrix": [[0, 1], [bad, 0]]}))
        assert run_cli(["validate", "--space", str(path)]) == 2
        assert f"matrix[1]: not a number: {shown}" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["validate", "--space", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_int_past_the_digit_bound_is_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"kind": "finite", "metric": "matrix", "points": ["a", "b"], '
                        '"matrix": [[0, ' + "1" * 5000 + '], [1, 0]]}')
        assert run_cli(["validate", "--space", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["matrix", "values", "--eps"])
    def test_huge_exponent_is_rejected_by_name(self, where, line3_path, tmp_path, capsys):
        # Fraction("1e999999999") would expand 10**999999999 and hang
        huge = "1e999999999"
        space, fn = tmp_path / "space.json", tmp_path / "fn.json"
        space.write_text(json.dumps({"kind": "finite", "metric": "matrix", "points": ["a", "b"],
                                     "matrix": [[0, huge if where == "matrix" else 1], [1, 0]]}))
        fn.write_text(json.dumps({"kind": "table", "values": {
            "p0": huge if where == "values" else 0, "p1": 1, "p2": 2}}))
        argv = {"matrix": ["validate", "--space", str(space)],
                "values": ["validate", "--space", line3_path, "--fn", str(fn)],
                "--eps": ["reduce", "--space", line3_path, "--fn", "coord", "--eps", huge]}
        assert run_cli(argv[where]) == 2
        err = capsys.readouterr().err
        assert where in err and "would expand to more than" in err

    @pytest.mark.parametrize("verb", [["validate"], ["slope", "--x", "p0"]])
    def test_nan_function_value_is_rejected(self, verb, line3_path, tmp_path, capsys):
        fn = tmp_path / "nan.json"
        fn.write_text('{"kind": "table", "values": {"p0": NaN, "p1": 1, "p2": 2}}')
        assert run_cli(verb + ["--space", line3_path, "--fn", str(fn)]) == 2
        assert "values: not a number: nan" in capsys.readouterr().err

    def test_infinite_linear_coefficients_are_rejected(self, line3_path, tmp_path, capsys):
        fn = tmp_path / "lin.json"  # would be inf * 0 - inf = NaN at coordinate 0
        fn.write_text(json.dumps({"kind": "linear", "coeffs": ["inf"], "offset": "-inf"}))
        assert run_cli(["slope", "--space", line3_path, "--fn", str(fn), "--x", "p0"]) == 2
        assert "coeffs[0], offset must be finite" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["validate", "--space", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_space_flag_required(self, capsys):
        assert run_cli(["validate"]) == 2
        assert "--space" in capsys.readouterr().err

    def test_improper_function_rejected(self, line3_path, tmp_path, capsys):
        fn = tmp_path / "top.json"
        fn.write_text(json.dumps(
            {"kind": "table", "values": {"p0": "inf", "p1": "inf", "p2": "inf"}}))
        assert run_cli(["validate", "--space", line3_path, "--fn", str(fn)]) == 2
        assert "finite" in capsys.readouterr().err


class TestReduce:
    def test_closure_reaches_a_fixed_point(self, line3_path, capsys):
        code = run_cli(["reduce", "--space", line3_path, "--fn", "coord",
                        "--x", "p0"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["fixed_point"] is True
        assert body["union"] == ["p0", "p1", "p2"]
        assert body["seed"] == ["p0"]
        assert set(body["provenance"]) == {"p1", "p2"}

    def test_depth_bound_exits_one(self, line3_path, capsys):
        # from p2 the sup closure needs two rounds (p1 first, then p0)
        code = run_cli(["reduce", "--space", line3_path, "--fn", "coord",
                        "--x", "p2", "--depth", "1"])
        assert code == 1
        body = json.loads(capsys.readouterr().out)
        assert body["fixed_point"] is False
        assert body["depth_exceeded"] is True
        assert body["union"] == ["p2", "p1"]  # generation order: seed first

    def test_unknown_builtin_function(self, line3_path, capsys):
        assert run_cli(["reduce", "--space", line3_path, "--fn", "cord"]) == 2
        err = capsys.readouterr().err
        assert "cord" in err and "coord" in err

    def test_unknown_family(self, line3_path, capsys):
        code = run_cli(["reduce", "--space", line3_path, "--fn", "coord",
                        "--name", "mystery-balls"])
        assert code == 2
        assert "mystery-balls" in capsys.readouterr().err

    def test_cap_below_one_exits_two(self, line3_path, capsys):
        # cap 0 used to report the seed alone as the closure, with exit 0
        code = run_cli(["reduce", "--space", line3_path, "--fn", "coord", "--cap", "0"])
        assert code == 2
        assert "cap must be at least 1" in capsys.readouterr().err

    def test_unknown_seed_point(self, line3_path, capsys):
        code = run_cli(["reduce", "--space", line3_path, "--fn", "coord",
                        "--x", "p9"])
        assert code == 2
        assert "p9" in capsys.readouterr().err


class TestCheck:
    def test_all_pairs_pass_on_the_closure(self, line3_path, capsys):
        code = run_cli(["check", "--space", line3_path, "--fn", "coord"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["failed"] == 0
        assert body["passed"] > 0
        assert body["fixed_point"] is True

    def test_single_target_check(self, line3_path, capsys):
        code = run_cli(["check", "--space", line3_path, "--fn", "coord",
                        "--x", "p0", "--param", "4"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert len(body["results"]) == 1
        assert body["results"][0]["verdict"] == "pass"

    def test_param_without_x_exits_two(self, line3_path, capsys):
        # a single check is at (x, param); a lone --param is not a sweep
        code = run_cli(["check", "--space", line3_path, "--fn", "coord",
                        "--name", "punctured-ball", "--param", "1", "--q-density", "4"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--param" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_unfinished_closure_exits_one(self, line3_path, capsys):
        code = run_cli(["check", "--space", line3_path, "--fn", "coord",
                        "--x", "p2", "--depth", "1", "--name",
                        "punctured-ball:sup"])
        assert code == 1
        body = json.loads(capsys.readouterr().out)
        assert body["fixed_point"] is False

    def test_torus_family_with_shell_param(self, line3_path, capsys):
        code = run_cli(["check", "--space", line3_path, "--fn", "coord",
                        "--name", "torus-slope:sup:full",
                        "--x", "p1", "--param", "1,1/2,7/2"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["results"][0]["param"] == ["1", "1/2", "7/2"]

    @pytest.mark.parametrize("flags, message", [
        (["--cap", "0"], "cap must be at least 1"),
        (["--tolerance", "-1"], "tolerance must be nonnegative"),
    ])
    def test_bad_config_exits_two(self, line3_path, capsys, flags, message):
        code = run_cli(["check", "--space", line3_path, "--fn", "coord"] + flags)
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, param", [("punctured-ball", "1,2"),
                                             ("ball-pairs", "1,1/2,7/2"),
                                             ("torus-slope:sup:full", "1"),
                                             ("torus-slope", "1,2")])
    def test_param_of_the_wrong_shape_exits_two(self, line3_path, capsys, name, param):
        code = run_cli(["check", "--space", line3_path, "--fn", "coord",
                        "--name", name, "--x", "p1", "--param", param])
        assert code == 2
        err = capsys.readouterr().err
        assert "--param" in err and "Traceback" not in err


class TestSlopeAndLip:
    def test_slope_values_on_the_line(self, line3_path, capsys):
        assert run_cli(["slope", "--space", line3_path, "--fn", "coord",
                        "--x", "p0"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0
        assert run_cli(["slope", "--space", line3_path, "--fn", "coord",
                        "--x", "p1"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1

    def test_slope_requires_x(self, line3_path, capsys):
        assert run_cli(["slope", "--space", line3_path, "--fn", "coord"]) == 2
        assert "--x" in capsys.readouterr().err

    def test_lip_local_sup_at_a_radius(self, line3_path, capsys):
        # radius 7/2 at p0 holds all three points; every quotient is 1
        code = run_cli(["lip", "--space", line3_path, "--fn", "coord",
                        "--x", "p0", "--param", "7/2"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["value"] == 1 and body["pairs"] == 3

    def test_lip_modulus_default_grid(self, line3_path, capsys):
        code = run_cli(["lip", "--space", line3_path, "--fn", "coord",
                        "--x", "p1"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        # the half-minimum radius ball holds no pair; at 3/2 every quotient is 1
        assert body["value"] == 1
        assert body["radii"] == ["1/2", "3/2", 3]

    def test_a_point_without_neighbours_is_named_as_isolated(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"kind": "finite", "metric": "matrix",
                                    "points": ["a"], "matrix": [[0]]}))
        for verb, grid in (("slope", "shells"), ("lip", "radii")):
            assert run_cli([verb, "--space", str(path), "--fn", "zero", "--x", "a"]) == 2
            err = capsys.readouterr().err
            assert f"no {grid} realized at 'a'" in err and "Traceback" not in err

    def test_lip_rejects_shell_params(self, line3_path, capsys):
        code = run_cli(["lip", "--space", line3_path, "--fn", "coord",
                        "--x", "p0", "--param", "1,2,3"])
        assert code == 2


class TestSuite:
    def test_small_suite_passes_with_instance_counts(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["suite", "--name", "thm-2.1", "--n", "5",
                        "--instances", "3", "--seed", "1", "--out", str(out)])
        assert code == 0
        body = read_json(out)
        assert body["instances"] == 3
        assert body["passes"] == 3 and body["fails"] == 0
        assert body["failures"] == []
        assert "OK" in capsys.readouterr().out

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["suite", "--name", "prop-3.2", "--n", "5", "--instances", "2",
                "--seed", "9"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_suite_requires_a_name(self, capsys):
        assert run_cli(["suite"]) == 2
        assert "--name" in capsys.readouterr().err

    def test_unknown_suite_name(self, capsys):
        assert run_cli(["suite", "--name", "thm-0.0"]) == 2
        assert "thm-0.0" in capsys.readouterr().err

    def test_negative_eps_rejected(self, capsys):
        assert run_cli(["suite", "--name", "thm-2.1", "--eps", "-1"]) == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "sizes must be at least 1"),
        (["--q-density", "1"], "q_density must be an integer >= 2"),
    ])
    def test_bad_sizes_and_density_exit_two(self, capsys, flags, message):
        # --n 0 used to be dropped silently, running the default sizes
        assert run_cli(["suite", "--name", "thm-2.1", "--instances", "1"] + flags) == 2
        assert message in capsys.readouterr().err


class TestParser:
    def test_verb_is_required(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_verb(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "sepdet" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Malformed descriptors: each case is (space, function or None, extra flags,
# a string the diagnostic must contain).  Spaces keep at most 6 points.

HUGE_EXPONENT = st.builds(lambda sign, e: f"{sign}1e{e}", st.sampled_from(["", "-", "2.5"]),
                          st.integers(4301, 10**12) | st.integers(-10**12, -4301))
BAD_NUMBER = st.one_of(st.booleans(), st.just(float("nan")), HUGE_EXPONENT)
HUGE_INT = st.integers(10**18, 10**1000) | st.integers(-10**1000, -10**18)
NON_STRING_ID = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                          st.lists(st.integers(), max_size=2), st.just({"a": 1}))


def line(n):
    return {"kind": "finite", "metric": "euclidean",
            "points": [{"id": f"p{k}", "coords": [k]} for k in range(n)]}


def uniform_matrix(n):
    return {"kind": "finite", "metric": "matrix", "points": [f"p{k}" for k in range(n)],
            "matrix": [[0 if i == j else 1 for j in range(n)] for i in range(n)]}


@st.composite
def non_square(draw):
    n = draw(st.integers(1, 6))
    desc = uniform_matrix(n)
    if draw(st.booleans()):
        desc["matrix"] = desc["matrix"][:-1] if draw(st.booleans()) else desc["matrix"] + [[1] * n]
    else:
        row = desc["matrix"][draw(st.integers(0, n - 1))]
        if n == 1 or draw(st.booleans()):
            row.append(1)
        else:
            row.pop()
    return desc, None, [], "matrix"


@st.composite
def bad_entry(draw):
    n = draw(st.integers(2, 6))
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    desc = uniform_matrix(n)
    kind = draw(st.sampled_from(["number", "nan", "huge-int"]))
    if kind == "number":
        bad = draw(st.one_of(st.booleans(), HUGE_EXPONENT))
        desc["matrix"][j][i] = bad
        return desc, None, [], f"matrix[{j}]"
    if kind == "nan":
        desc["matrix"][i][j] = desc["matrix"][j][i] = float("nan")
    else:
        big = draw(HUGE_INT)
        desc["matrix"][i][j], desc["matrix"][j][i] = big, big + 1
    return desc, None, [], f"matrix[{i}][{j}]"


@st.composite
def bad_point(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n - 1))
    desc = line(n)
    kind = draw(st.sampled_from(["missing", "not a string", "coords"]))
    if kind == "missing":
        del desc["points"][k]["id"]
        return desc, None, [], f"points[{k}] is missing 'id'"
    if kind == "not a string":
        desc["points"][k]["id"] = draw(NON_STRING_ID)
        return desc, None, [], f"points[{k}].id"
    desc["points"][k]["coords"] = [draw(BAD_NUMBER)]
    return desc, None, [], f"points[{k}].coords"


@st.composite
def bad_function(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["table", "unknown", "linear", "quadratic", "abs"]))
    if kind == "table":
        values = {f"p{k}": k for k in range(n)}
        bad = draw(st.integers(0, n - 1))
        values[f"p{bad}"] = draw(BAD_NUMBER)
        return line(n), {"kind": "table", "values": values}, [], f"at point 'p{bad}'"
    if kind == "unknown":
        name = draw(st.text("xyz", min_size=1, max_size=5))
        return line(n), {"kind": name}, [], f"unknown function kind {name!r}"
    inf = draw(st.sampled_from(["inf", "-inf"]))
    if draw(st.booleans()):
        return line(n), {"kind": kind, "coeffs": [inf]}, [], "coeffs[0]"
    return line(n), {"kind": kind, "coeffs": [1], "offset": inf}, [], "offset"


@st.composite
def bad_eps(draw):
    return line(draw(st.integers(1, 6))), None, ["--eps", draw(HUGE_EXPONENT)], "--eps"


class TestMalformedDescriptors:
    @given(st.one_of(non_square(), bad_entry(), bad_point(), bad_function(), bad_eps()))
    def test_every_malformed_descriptor_exits_two_naming_the_field(self, case):
        self.exits_two_naming(*case)

    @pytest.mark.parametrize("pid", [None, True, [1, 2]])
    def test_a_point_id_that_is_not_a_string_is_named(self, pid):
        space = uniform_matrix(3)
        space["points"][1] = {"id": pid}
        self.exits_two_naming(space, None, [], "points[1].id must be a string")

    def test_a_bad_table_value_names_its_point(self):
        fn = {"kind": "table", "values": {"a": 1, "b": "1e999999999", "c": 2}}
        space = {"kind": "finite", "metric": "matrix", "points": ["a", "b", "c"],
                 "matrix": uniform_matrix(3)["matrix"]}
        self.exits_two_naming(space, fn, [], "would expand to more than 4300 digits at point 'b'")

    @staticmethod
    def exits_two_naming(space, fn, flags, field):
        with tempfile.TemporaryDirectory() as tmp:
            space_path, fn_path = Path(tmp) / "space.json", Path(tmp) / "fn.json"
            space_path.write_text(json.dumps(space))
            argv = ["validate", "--space", str(space_path)]
            if fn is not None:
                fn_path.write_text(json.dumps(fn))
                argv += ["--fn", str(fn_path)]
            if flags:
                argv = ["reduce", "--space", str(space_path), "--fn", "coord"] + flags
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(argv)
        assert code == 2, err.getvalue()
        assert field in err.getvalue() and "Traceback" not in err.getvalue()


# Values past the float range next to an infinity, and over a float distance
PAST_FLOATS = {"kind": "table", "values": {"a": "0", "b": "1e999", "c": "inf"}}
BY_FLOAT = {"kind": "table", "values": {"a": "0", "b": "1e999", "c": "1"}}
PLANE3 = {"kind": "finite", "metric": "euclidean", "points": [
    {"id": "a", "coords": [0.0, 0.0]}, {"id": "b", "coords": [1.0, 0.5]},
    {"id": "c", "coords": [2.0, 0.0]}]}


def write_inputs(tmp_path, space, fn):
    space_path, fn_path = tmp_path / "space.json", tmp_path / "fn.json"
    space_path.write_text(json.dumps(space))
    fn_path.write_text(json.dumps(fn))
    return ["--space", str(space_path), "--fn", str(fn_path)]


@pytest.mark.parametrize("verb", ["check", "reduce", "slope"])
def test_an_infinity_beside_a_value_past_the_floats_is_exact(verb, tmp_path, capsys):
    # (t - f(u))^+ at t = +inf, f(u) = 1e999 raised OverflowError in extreal.sub
    space = {"kind": "finite", "metric": "matrix", "points": ["a", "b", "c"],
             "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
    argv = [verb, *write_inputs(tmp_path, space, PAST_FLOATS), "--x", "a"]
    assert run_cli(argv + ["--name", "torus-slope:sup:full"] * (verb != "slope")) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["lip", "--x", "a"], ["check", "--name", "ball-pairs:sup"]])
def test_a_quotient_past_the_floats_by_a_float_distance_exits_two(verb, tmp_path, capsys):
    # 1e999 / d(a, b) with a float distance raised OverflowError in _exact_div
    assert run_cli(verb[:1] + write_inputs(tmp_path, PLANE3, BY_FLOAT) + verb[1:]) == 2
    err = capsys.readouterr().err
    assert "is past the floats" in err and "Traceback" not in err
    space, f = space_from_descriptor(PLANE3), FunctionOracle.from_descriptor(BY_FLOAT)
    with pytest.raises(ScoreRangeError, match="exact quotient by the float 1.118033988749895"):
        lip_local_sup(f, space, space.point("a"), 3)


# Every knob a run can take.  A field or flag added later fails here first,
# so that the change that adds it names it.
SUITE_CONFIG_FIELDS = ["instances", "sizes", "seed", "eps", "cap", "max_depth", "tolerance",
                       "q_density"]
COMMON_FLAGS = ["--cap", "--depth", "--eps", "--help", "--instances", "--n", "--name", "--out",
                "--param", "--q-density", "--seed", "--tolerance", "--x"]
VERB_FLAGS = {verb: sorted(COMMON_FLAGS + ["--fn", "--space"])
              for verb in ("validate", "reduce", "check", "slope", "lip")} | {
    "suite": COMMON_FLAGS}


@pytest.mark.parametrize("verb", [
    ["reduce", "--fn", "coord"],
    ["check", "--fn", "coord"],
    ["suite", "--name", "thm-2.1", "--n", "5", "--instances", "1"],
])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_out_path_that_cannot_be_written_exits_two(verb, where, line3_path, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "o.json" if where == "missing directory" else tmp_path
    space = [] if verb[0] == "suite" else ["--space", line3_path]
    assert run_cli(verb + space + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {str(out)!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_a_suite_checks_its_out_path_before_it_runs(where, tmp_path, capsys, monkeypatch):
    def run_suite(*args, **kwargs):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(sepdet.harness, "run_suite", run_suite)
    out = tmp_path / "no" / "o.json" if where == "missing directory" else tmp_path
    assert run_cli(["suite", "--name", "thm-2.1", "--out", str(out)]) == 2
    got = capsys.readouterr()
    assert got.out == "" and f"cannot write {str(out)!r}" in got.err


@pytest.mark.parametrize("name", ["ball-pairs:sup:bogus", "ball-pairs:sup:full",
                                  "punctured-ball:inf:full", "punctured-ball:sup:sample"])
def test_a_t_mode_on_a_family_without_levels_exits_two(name, line3_path, capsys):
    # a t_mode used to be dropped silently on the families without shells
    assert run_cli(["reduce", "--space", line3_path, "--fn", "coord", "--name", name]) == 2
    family = name.split(":")[0]
    assert f"t_mode applies to torus-slope only, not to {family!r}" in capsys.readouterr().err


def test_the_option_surface_is_pinned():
    assert [field.name for field in dataclasses.fields(SuiteConfig)] == SUITE_CONFIG_FIELDS
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {verb: sorted(flag for action in sub._actions for flag in action.option_strings
                         if flag.startswith("--"))
            for verb, sub in verbs.choices.items()} == VERB_FLAGS
    assert sorted(flag for action in parser._actions for flag in action.option_strings) == \
        ["--help", "-h"]


def test_two_calls_build_one_parser(line3_path, capsys):
    _build_parser.cache_clear()
    for verb in ("validate", "reduce"):
        assert run_cli([verb, "--space", line3_path, "--fn", "coord", "--x", "p0"]) == 0
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_an_argparse_error_leaves_the_kept_parser_as_it_was(line3_path, capsys):
    # the same valid call on a fresh parser and after an error on the kept one
    call = ["reduce", "--space", line3_path, "--fn", "coord", "--x", "p0", "--cap", "2"]
    _build_parser.cache_clear()
    assert run_cli(call) == 0
    first = capsys.readouterr().out
    assert run_cli(["reduce", "--space", line3_path, "--cap", "two"]) == 2
    assert "--cap" in capsys.readouterr().err
    assert run_cli(call) == 0
    assert capsys.readouterr().out == first and _build_parser.cache_info().misses == 1


def test_descriptor_cli_batch_0_keeps_its_pinned_digest(tmp_path, monkeypatch):
    # the seed-0 descriptor-cli batch 0 of the benchmark, run through run_cli:
    # every byte of its reports (slack closures included) is pinned in
    # bench/digests.json, and neither depends on where the files are written
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    wl = importlib.import_module("workloads")
    ops = wl.write_cli_inputs(0, tmp_path / "inputs", tmp_path / "outs")[0]
    outcomes = [wl.run_cli_op(cli, op) for op in ops]
    assert [o.problems for o in outcomes if o.failed] == []
    pinned = json.loads((bench / "digests.json").read_text(encoding="utf-8"))
    assert wl.batch_digest(outcomes) == pinned["descriptor-cli"]


def test_descriptor_cli_batch_0_reads_every_region_from_a_table(tmp_path, monkeypatch):
    # its ball-pair functions hold +inf pairs (the int 0) beside equal Fractions
    # (Fraction(0)); ranked, not declined, they leave no region to the scan
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    wl = importlib.import_module("workloads")
    ops = wl.write_cli_inputs(0, tmp_path / "inputs", tmp_path / "outs")[0]
    scans, score_region = [], sepdet.scheme._score_region
    monkeypatch.setattr(sepdet.scheme, "_score_region",
                        lambda *args: scans.append(args[1]) or score_region(*args))
    outcomes = [wl.run_cli_op(cli, op) for op in ops]
    assert scans == []
    pinned = json.loads((bench / "digests.json").read_text(encoding="utf-8"))
    assert wl.batch_digest(outcomes) == pinned["descriptor-cli"]


@pytest.mark.parametrize("workload", ["closure-exact", "slope-full"])
def test_suite_workload_batch_0_keeps_its_pinned_digest(workload, monkeypatch):
    # the seed-0 batch 0 of a suite workload of the benchmark, run through
    # run_suite: every byte of its reports is pinned in bench/digests.json
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    wl = importlib.import_module("workloads")
    outcomes = [wl.run_suite_op(sepdet, op) for op in wl.suite_ops(workload, 0, 0)]
    assert [o.problems for o in outcomes if o.failed] == []
    pinned = json.loads((bench / "digests.json").read_text(encoding="utf-8"))
    assert wl.batch_digest(outcomes) == pinned[workload]
