"""Instance generators, the brute-force oracle, dumps/replay, suite runs."""

import ast
import functools
import hashlib
import importlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sepdet import (
    EmptyRegion,
    SuiteConfig,
    SuiteReport,
    UnknownSuite,
    builtin_function,
    ball_pairs_problem,
    brute_force_optimum,
    check_reduction,
    closure_iterate,
    dyadic_interval_space,
    punctured_ball_problem,
    random_finite_metric,
    random_table_function,
    replay_check,
    run_suite,
    step_function,
    torus_slope_problem,
    witness_dump,
)
import sepdet.functionals as functionals
import sepdet.harness as harness
import sepdet.scheme as scheme
import sepdet.spaces as spaces
from sepdet.extreal import fmt, is_finite
from sepdet.harness import SUITES, Instance, _plan_sizes
from sepdet.scheme import Radii, ShellGrid, Shells

COORD = builtin_function("coord")


def inject_shells(monkeypatch, *shells):
    """Every suite instance sweeps these shells in place of its own truncation."""
    monkeypatch.setattr(Instance, "shells", lambda self, f, t_mode: Shells(shells))


class TestSpaceGenerator:
    def test_single_point(self):
        space = random_finite_metric(1, "s")
        assert len(space) == 1
        assert space.matrix == ((0,),)

    def test_two_points_symmetric_positive(self):
        space = random_finite_metric(2, "s")
        assert space.matrix[0][1] == space.matrix[1][0] > 0

    @pytest.mark.parametrize("method,dim", [
        ("shortest-path", 1), ("euclidean", 1), ("euclidean", 2)])
    def test_axioms_hold(self, method, dim):
        for seed in range(4):
            space = random_finite_metric(8, f"t{seed}", method, dim=dim)
            space.validate()
            assert len(space) == 8

    def test_shortest_path_triangle_at_scale(self):
        space = random_finite_metric(50, "big", "shortest-path")
        space.validate(tol=0)  # integer distances check exactly

    def test_exactness_by_method(self):
        assert random_finite_metric(6, "x", "shortest-path").exact
        assert random_finite_metric(6, "x", "euclidean", dim=1).exact
        assert not random_finite_metric(6, "x", "euclidean", dim=2).exact

    def test_deterministic_in_the_seed(self):
        a = random_finite_metric(7, "same", "euclidean", dim=1)
        b = random_finite_metric(7, "same", "euclidean", dim=1)
        assert a.matrix == b.matrix
        c = random_finite_metric(7, "other", "euclidean", dim=1)
        assert a.matrix != c.matrix

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            random_finite_metric(4, "s", "random-walk")

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            random_finite_metric(0, "s")


class TestFunctionGenerators:
    def test_table_function_is_finite_by_default(self):
        space = random_finite_metric(10, "f")
        f = random_table_function(space, "f")
        assert all(is_finite(f.value(p)) for p in space.points)

    def test_inf_share_keeps_a_finite_value(self):
        space = random_finite_metric(6, "f")
        f = random_table_function(space, "f", inf_share=1.0)
        vals = [f.value(p) for p in space.points]
        assert any(not is_finite(v) for v in vals)
        assert any(is_finite(v) for v in vals)

    def test_deterministic_in_the_seed(self):
        space = random_finite_metric(6, "f")
        a = random_table_function(space, "g")
        b = random_table_function(space, "g")
        assert a.tabulate(space) == b.tabulate(space)

    def test_step_function_takes_two_values(self):
        space = random_finite_metric(9, "f", "euclidean", dim=1)
        f = step_function(space, "f")
        assert len({f.value(p) for p in space.points}) <= 2


class TestDyadicSpace:
    def test_enumeration_and_distance(self):
        lazy = dyadic_interval_space()
        pts = lazy.enumerate_points(8)
        assert len(pts) == 8
        assert len({p.id for p in pts}) == 8
        a, b = pts[0], pts[1]
        assert lazy.distance(a, b) == abs(a.coords[0] - b.coords[0])
        assert all(0 <= p.coords[0] <= 1 for p in pts)


class TestBruteForce:
    def test_matches_the_max_on_the_line(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        got = brute_force_optimum(prob, (line3.point("p0"), Fraction(4)))
        assert got == 3

    def test_pair_problem_on_the_line(self, line3):
        prob = ball_pairs_problem(line3, COORD, "sup")
        got = brute_force_optimum(prob, (line3.point("p0"), Fraction(7, 2)))
        assert got == 1  # every coordinate pair quotient is exactly 1

    def test_restriction_narrows_the_scan(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        z = (line3.point("p0"), Fraction(4))
        got = brute_force_optimum(prob, z, restrict=[line3.point("p1")])
        assert got == 1

    def test_empty_scan_raises(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        with pytest.raises(EmptyRegion):
            brute_force_optimum(prob, (line3.point("p0"), Fraction(1, 2)))

    @pytest.mark.parametrize("mode", ["sup", "inf"])
    def test_agrees_with_the_check_lhs_everywhere(self, mode):
        # dual route: member() scan vs region() enumeration
        for i in range(6):
            n = 5 + i % 3
            method = ("euclidean", "shortest-path")[i % 2]
            space = random_finite_metric(n, f"bf:{i}", method, dim=1)
            f = random_table_function(space, f"bf:{i}")
            for build in (punctured_ball_problem, ball_pairs_problem,
                          torus_slope_problem):
                prob = build(space, f, mode)
                Y = space.points
                for x in Y:
                    for p in prob.params.truncation:
                        chk = check_reduction(prob, Y, (x, p))
                        if chk.verdict == "skipped-empty-region":
                            with pytest.raises(EmptyRegion):
                                brute_force_optimum(prob, (x, p))
                            continue
                        assert brute_force_optimum(prob, (x, p)) == chk.lhs


class TestSuiteReportBookkeeping:
    def test_instances_and_checks_are_counted_separately(self):
        report = SuiteReport(name="t", seed=0)
        report.begin_instance()
        report.check_pass()
        report.check_pass()
        report.end_instance()
        report.begin_instance()
        report.fail({"kind": "planted"})
        report.end_instance()
        assert report.instances == 2
        assert (report.passes, report.fails) == (1, 1)
        assert (report.checks_passed, report.checks_failed) == (2, 1)
        assert not report.ok

    def test_skips_do_not_fail_an_instance(self):
        report = SuiteReport(name="t", seed=0)
        report.begin_instance()
        report.check_skip("skipped_empty_shell")
        report.end_instance()
        assert report.ok and report.passes == 1
        assert report.notes == {"skipped_empty_shell": 1}

    def test_dump_cap(self):
        report = SuiteReport(name="t", seed=0)
        report.begin_instance()
        for _ in range(25):
            report.fail({"kind": "planted"})
        report.end_instance()
        assert report.checks_failed == 25
        assert len(report.failures) == SuiteReport.MAX_DUMPS

    def test_json_form_has_no_runtime(self):
        report = SuiteReport(name="t", seed=3)
        report.runtime_seconds = 1.5
        body = report.to_json()
        assert "runtime" not in json.dumps(body)
        assert body["name"] == "t" and body["seed"] == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(instances=0)
        with pytest.raises(ValueError):
            SuiteConfig(eps=-1)
        with pytest.raises(ValueError):
            SuiteConfig(cap=0)
        with pytest.raises(ValueError):
            SuiteConfig(tolerance=-1)
        # a NaN tolerance used to make thm-2.1 report oracle failures
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            SuiteConfig(eps=float("nan"))
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            SuiteConfig(tolerance=float("nan"))

    def test_config_rejects_bad_sizes_and_density(self):
        with pytest.raises(ValueError, match="sizes must be at least 1"):
            SuiteConfig(sizes=(5, 0))
        with pytest.raises(ValueError, match="q_density must be an integer >= 2"):
            SuiteConfig(q_density=1)
        assert "inf_share" not in SuiteConfig.__dataclass_fields__


def planted_failure(line3):
    """A deliberately unclosed Y: the inf check at (p0, 4) must fail."""
    prob = punctured_ball_problem(line3, COORD, "inf")
    Y = [line3.point("p0"), line3.point("p2")]
    chk = check_reduction(prob, Y, (line3.point("p0"), Fraction(4)))
    return prob, Y, chk


class TestDumpAndReplay:
    def test_failing_check_replays_to_the_same_verdict(self, line3):
        prob, Y, chk = planted_failure(line3)
        assert chk.verdict == "fail"
        dump = witness_dump(line3, COORD, prob, Y, chk)
        replayed = replay_check(dump)
        assert replayed.verdict == "fail"
        assert replayed.lhs == chk.lhs and replayed.rhs == chk.rhs

    def test_dump_is_json_serializable_and_complete(self, line3):
        prob, Y, chk = planted_failure(line3)
        dump = witness_dump(line3, COORD, prob, Y, chk)
        encoded = json.dumps(dump, sort_keys=True)
        back = json.loads(encoded)
        assert back["problem"]["family"] == "punctured-ball"
        assert back["problem"]["mode"] == "inf"
        assert back["Y"] == ["p0", "p2"]
        assert replay_check(back).verdict == "fail"

    def test_passing_check_replays_to_a_pass(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        Y = closure_iterate(prob, [line3.point("p0")]).union
        chk = check_reduction(prob, Y, (line3.point("p0"), Fraction(4)))
        dump = witness_dump(line3, COORD, prob, Y, chk)
        assert replay_check(dump).verdict == "pass"


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("thm-9.9")

    def test_registry_covers_the_ten_suites(self):
        assert sorted(SUITES) == [
            "prop-1.1", "prop-3.2", "prop-4.1", "thm-2.1", "thm-2.2",
            "thm-2.3", "thm-3.1", "thm-3.3", "thm-4.2", "thm-4.3"]
        assert all(desc for _, desc in SUITES.values())

    def test_tiny_sup_suite_passes(self):
        report = run_suite("thm-2.1", SuiteConfig(instances=3, sizes=(5,), seed=1))
        assert report.ok
        assert report.instances == 3 and report.passes == 3
        assert report.checks_passed > 0

    def test_reports_are_byte_identical_across_runs(self):
        cfg = SuiteConfig(instances=2, sizes=(5, 6), seed=7)
        a = run_suite("thm-3.1", cfg)
        b = run_suite("thm-3.1", cfg)
        assert (json.dumps(a.to_json(), sort_keys=True)
                == json.dumps(b.to_json(), sort_keys=True))

    def test_different_seeds_differ(self):
        a = run_suite("thm-2.1", SuiteConfig(instances=1, sizes=(6,), seed=1))
        b = run_suite("thm-2.1", SuiteConfig(instances=1, sizes=(6,), seed=2))
        assert (json.dumps(a.to_json(), sort_keys=True)
                != json.dumps(b.to_json(), sort_keys=True))

    def test_singleton_spaces_skip_cleanly(self):
        report = run_suite("prop-3.2", SuiteConfig(instances=2, sizes=(1,), seed=1))
        assert report.ok and report.passes == 2
        assert report.checks_failed == 0

    @pytest.mark.parametrize("name", ["thm-2.1", "thm-2.2"])
    def test_singleton_spaces_draw_no_oracle_point(self, name):
        # a one-point space has empty truncations, so there is nothing to cross-check
        report = run_suite(name, SuiteConfig(instances=2, sizes=(1,)))
        assert report.ok and report.passes == 2
        assert "oracle_crosschecks" not in report.notes

    def test_singleton_spaces_skip_the_modulus(self):
        report = run_suite("thm-3.3", SuiteConfig(instances=2, sizes=(1,)))
        assert report.ok and report.checks_passed == 0
        assert report.notes["skipped_isolated"] == 2

    def test_an_isolated_center_skips_the_slope(self, monkeypatch):
        # some center of a six-point space has no point at a distance in (1/2, 3/2)
        inject_shells(monkeypatch, (1, Fraction(1, 2), Fraction(3, 2)))
        report = run_suite("thm-4.2", SuiteConfig(instances=2, sizes=(6,)))
        assert report.ok
        assert report.notes.get("skipped_isolated", 0) > 0
        # no shell reaches past distance 100, so every center is skipped, and
        # one where f = +inf (seed 2 has one) counts no convention-branch check
        inject_shells(monkeypatch, (1, 100, 200))
        report = run_suite("thm-4.2", SuiteConfig(instances=8, sizes=(6,), seed=2))
        assert report.ok and report.checks_passed == 0
        assert report.notes["skipped_isolated"] == 8
        assert "convention_branch_checks" not in report.notes

    def test_two_point_spaces_note_pairless_balls(self):
        report = run_suite("prop-3.2", SuiteConfig(instances=2, sizes=(2,), seed=1))
        assert report.ok
        assert report.notes.get("skipped_no_pairs", 0) > 0

    def test_shell_override_skips_every_region(self, monkeypatch):
        inject_shells(monkeypatch, (1, Fraction(1, 8), Fraction(1, 4)))
        report = run_suite("prop-4.1", SuiteConfig(instances=2, sizes=(4,), seed=1))
        assert report.ok
        assert report.checks_passed == 0
        assert report.notes.get("skipped_empty_shell", 0) > 0

    def test_adversarial_rejection_is_total(self):
        report = run_suite("thm-4.3", SuiteConfig(instances=2, sizes=(4,), seed=3))
        assert report.ok
        assert report.notes.get("adversarial_rejected", 0) >= 10
        assert all(d.get("kind") != "adversarial-accepted" for d in report.failures)

    def test_runtime_is_recorded(self):
        report = run_suite("thm-2.1", SuiteConfig(instances=1, sizes=(5,), seed=1))
        assert report.runtime_seconds > 0
        assert "OK" in report.summary()


def typed(v):
    return [typed(u) for u in v] if type(v) is tuple else (v, type(v))


@pytest.mark.parametrize("suite,formula", [("prop-3.2", "lip_local_sups"),
                                           ("prop-4.1", "torus_sups")])
def test_pair_and_torus_sweeps_give_the_per_center_formulas(suite, formula, monkeypatch):
    # at the GOLDEN configs, each sweep check's (lhs, rhs) is the formula over
    # the whole space and over Y, in value and type, and the sweep skips where
    # the formula's whole-space side is empty; the suite then reads neither formula
    read = getattr(functionals, formula)
    spec = SUITES[suite][0]
    instances, sizes = GOLDEN_SIZES.get(suite, (4, (5, 7, 9, 11)))
    for eps, cap in ((0, 1), (Fraction(1, 2), 3)):
        cfg = SuiteConfig(instances=instances, sizes=sizes, eps=eps, cap=cap)
        plan = _plan_sizes(cfg, spec)
        for i in range(len(plan)):
            [stage] = spec.build(Instance(suite, cfg, i, plan))
            Y = stage.close().union
            [(f, problem)] = stage.problems()
            checks = scheme.check_sweep(problem, Y, cfg.tolerance)
            for x in Y:
                sides = (read(f, problem.space, x, problem.params, y) for y in (None, Y))
                for full, rest in zip(*sides):
                    if formula == "lip_local_sups":
                        skipped, full, rest = full.pairs == 0, full.value, rest.value
                    else:
                        skipped = full is None
                    chk = next(checks)
                    assert (chk.x, chk.verdict == "skipped-empty-region") == (x, skipped)
                    if not skipped:
                        assert typed((chk.lhs, chk.rhs)) == typed((full, rest))
            assert next(checks, None) is None

    def forbidden(*args, **kwargs):
        raise AssertionError("a suite read a per-center formula")

    for name in ("lip_local_sups", "torus_sups"):
        monkeypatch.setattr(functionals, name, forbidden)
    report = run_suite(suite, SuiteConfig())
    assert report.ok and report.checks_passed > 0


@pytest.mark.parametrize("suite", ["prop-4.1", "thm-4.2", "thm-4.3"])
def test_the_shell_suites_prepare_each_truncation_once(suite, monkeypatch):
    # every parameter is checked at most once per truncation built, a shell
    # layout is built with its truncation and a slope grid once per truncation,
    # and no formula call prepares anything
    built, counts, depth = [], Counter(), [0]

    def counted(name, fn):
        def run(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return run

    for module in (scheme, spaces):
        for name in ("_check_radius", "_check_shell"):
            monkeypatch.setattr(module, name, counted("checks", getattr(module, name)))
    grid = functools.cached_property(counted("grids", Shells.__dict__["grid"].func))
    grid.__set_name__(Shells, "grid")
    monkeypatch.setattr(Shells, "grid", grid)
    inits = {kind: kind.__init__ for kind in (Radii, ShellGrid)}

    def recorded(self, params=(), repeats=False, layout=None):
        laid_out = type(self) is not Radii and layout is None  # from plain parameters
        built.append((type(self), len(self), laid_out, depth[0]))
        if type(self) is Radii:
            return inits[Radii](self, params, repeats)
        return inits[ShellGrid](self, params, repeats, layout)

    for kind in inits:
        monkeypatch.setattr(kind, "__init__", recorded)
    for name in ("slope_at", "partial_slope"):
        def formula(*args, real=getattr(harness, name), **kwargs):
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(harness, name, formula)
    report = run_suite(suite, SuiteConfig(instances=4, sizes=(6, 9)))
    assert report.ok and report.checks_passed > 0
    assert all(not inside for *_, inside in built)
    assert not any(laid_out for _, _, laid_out, _ in built)
    assert counts["checks"] <= sum(n for kind, n, *_ in built if kind is Radii)
    assert counts["grids"] <= sum(kind is Shells for kind, *_ in built)


# the formulas of each suite that read the closure's own tables (prop-3.2 and
# prop-4.1 check their families' sweeps, which read them with no formula); a
# slope reads the one-level table of its grid, which no closure builds
CLOSURE_READS = {"prop-3.2": (), "thm-3.3": ("lip_modulus",),
                 "thm-3.1": ("liminf_at", "limsup_at", "continuity_check"),
                 "prop-4.1": (), "thm-4.2": ("slope_at",),
                 "thm-4.3": ("partial_slope",)}


@pytest.mark.parametrize("suite", sorted(CLOSURE_READS))
def test_each_optimum_table_is_built_once(suite, monkeypatch):
    # a table is built once per (function, truncation object, mode, level,
    # center), and the comparisons that the closure's tables serve build none
    built, inside = [], [None]
    for name in ("_points_table", "_pairs_table", "_torus_table"):
        def builder(rankings, centers, params, *key, name=name, real=getattr(functionals, name)):
            # params is kept in the record, so its id is not reused during the run
            built.extend(((name, rankings, id(params), *key, i), params, inside[0])
                         for i in centers)
            return real(rankings, centers, params, *key)
        monkeypatch.setattr(functionals, name, builder)
    for name in CLOSURE_READS[suite]:
        def formula(*args, name=name, real=getattr(harness, name), **kwargs):
            inside[0] = name
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] = None
        monkeypatch.setattr(harness, name, formula)
    report = run_suite(suite, SuiteConfig(instances=4, sizes=(5, 8)))
    assert report.ok and report.checks_passed > 0
    keys = Counter(key for key, *_ in built)
    assert keys and max(keys.values()) == 1
    by_formulas = [key for key, _, name in built if name is not None]
    if suite in ("thm-4.2", "thm-4.3"):  # one level each: (name, rankings, grid, mode, level, i)
        assert by_formulas and all(len(key) == 6 for key in by_formulas)
    else:
        assert by_formulas == []
    assert sum(name is None for *_, name in built) > 0  # the closures build theirs


# sha256 of the sorted-key JSON report of every suite at a small config, under
# exact argmax selection and under eps = 1/2, cap = 3.  Any change to what a
# suite computes or reports moves one of these.
GOLDEN_SIZES = {"prop-1.1": (3, (5, 7, 9)), "thm-2.3": (3, (4, 6, 8)),
                "thm-4.2": (3, (5, 7, 9)), "prop-4.1": (3, (5, 7, 9)),
                "thm-4.3": (2, (6, 9))}
GOLDEN = {
    "prop-1.1 0/1": "7cb92123001cf7d90c2ca75e2fac51e5439ef3494f9c64381e19dc00950b6b58",
    "prop-3.2 0/1": "c06528b656402e93772388eeb203e699caf85813e04a1ffbd6197b611735a0d1",
    "prop-4.1 0/1": "833019bc2409a2ac32ad6e84482e1e4cec2aaa7e38e43a3acdf23764814c87bc",
    "thm-2.1 0/1": "d33cc216d341a03f142707b8a5b0190cb46e15c83689fec8139611bad2981f09",
    "thm-2.2 0/1": "e715f91d3671a6e658681443d9ad315320f584ba09435522bd25d12946db10f1",
    "thm-2.3 0/1": "1b113579808b7df8da8da32324c41d959777f5ae078d21799c29edbc04776583",
    "thm-3.1 0/1": "80fa48a84e8e0197b9426b9dd25e3a180307ec2b3788c935015028e7017bcaf1",
    "thm-3.3 0/1": "a0de42348b4778f95e7e8f8093875d6aaf53670d244a840bea819cd7f65710a4",
    "thm-4.2 0/1": "605bfba02e25be76bf7e55d88e13638691bb21221d105e959d3ef53fb852cdc2",
    "thm-4.3 0/1": "e144f8440ed5485c245775fa5a644876241c36d10598fae468f4c1b82d950c31",
    "prop-1.1 1/2/3": "7cb92123001cf7d90c2ca75e2fac51e5439ef3494f9c64381e19dc00950b6b58",
    "prop-3.2 1/2/3": "c06528b656402e93772388eeb203e699caf85813e04a1ffbd6197b611735a0d1",
    "prop-4.1 1/2/3": "833019bc2409a2ac32ad6e84482e1e4cec2aaa7e38e43a3acdf23764814c87bc",
    "thm-2.1 1/2/3": "eece81ff6ff4f504de4a45241d76131c8158749f1b1940d5a662fbee69de2013",
    "thm-2.2 1/2/3": "83192b3f39cd7c1fe4c0966801f68b8ade31ee4640fd14072c6a5e39d6d3bbb9",
    "thm-2.3 1/2/3": "1b113579808b7df8da8da32324c41d959777f5ae078d21799c29edbc04776583",
    "thm-3.1 1/2/3": "39bb76af7fc092ebf766693a6f277a4bbf1b9f0b505f75508ca3d52a3629b546",
    "thm-3.3 1/2/3": "ce7b132ca6958b24a352a67c1c62357e2eeea7ed60e3f9d9ae25e1fd994a59fa",
    "thm-4.2 1/2/3": "605bfba02e25be76bf7e55d88e13638691bb21221d105e959d3ef53fb852cdc2",
    "thm-4.3 1/2/3": "e144f8440ed5485c245775fa5a644876241c36d10598fae468f4c1b82d950c31",
}


def test_small_suite_reports_are_pinned():
    got = {}
    for eps, cap in ((0, 1), (Fraction(1, 2), 3)):
        for name in sorted(SUITES):
            instances, sizes = GOLDEN_SIZES.get(name, (4, (5, 7, 9, 11)))
            report = run_suite(name, SuiteConfig(instances=instances, sizes=sizes,
                                                 eps=eps, cap=cap))
            text = json.dumps(report.to_json(), sort_keys=True).encode()
            got[f"{name} {eps}/{cap}"] = hashlib.sha256(text).hexdigest()
    assert got == GOLDEN


def test_table_comparisons_at_the_golden_configs_compare_no_value(monkeypatch):
    # both sides of a passing table comparison read one value object, so the
    # verdict rule never reaches close; thm-2.1's oracle cross-checks compare
    # a scanned optimum with a table's, by value where they are two objects,
    # which shows that the count sees agree's calls
    calls = Counter()
    by_value = scheme.close

    def counted(a, b, tol=0):
        calls[name] += 1
        return by_value(a, b, tol)

    monkeypatch.setattr(scheme, "close", counted)
    for eps, cap in ((0, 1), (Fraction(1, 2), 3)):
        for name in ("prop-3.2", "prop-4.1", "thm-2.1", "thm-3.3", "thm-4.2", "thm-4.3"):
            instances, sizes = GOLDEN_SIZES.get(name, (4, (5, 7, 9, 11)))
            report = run_suite(name, SuiteConfig(instances=instances, sizes=sizes,
                                                 eps=eps, cap=cap))
            assert report.ok and report.checks_passed > 0
            if name == "thm-2.1":
                assert 0 < calls.pop(name) <= report.notes["oracle_crosschecks"]
        assert not calls


# the sweep stages that replaced a per-parameter comparison, by skip note, and
# that comparison's name: their checks' (lhs, rhs) are its (full, restricted)
SWEPT = {"skipped_no_pairs": "pair-sup", "skipped_empty_shell": "torus-sup"}


def compared_values(name: str, cfg: SuiteConfig) -> list:
    """Every value each comparison of the suite computes, as (fmt, type name).

    A report keeps no value of a passing check, so this pins what the
    formulas compute, not only their verdicts.  The pair and torus sweeps
    enter under their old comparisons' names and skip notes.
    """

    def enc(v):
        if type(v) is tuple:
            return [enc(u) for u in v]
        return None if v is None else [fmt(v), type(v).__name__]

    spec = SUITES[name][0]
    sizes = _plan_sizes(cfg, spec)
    got = []
    for i in range(len(sizes) + spec.extra(cfg)):
        for stage in spec.build(Instance(name, cfg, i, sizes)):
            Y = None if stage.close is None else stage.close().union
            for comp in stage.comparisons:
                for at in comp.points(Y):
                    out = comp.at(Y, at)
                    got.append([i, comp.name, out if isinstance(out, str) else enc(out)])
            for _, problem in stage.problems() if stage.skip_note in SWEPT else ():
                for chk in scheme.check_sweep(problem, Y, cfg.tolerance):
                    skipped = chk.verdict == "skipped-empty-region"
                    got.append([i, SWEPT[stage.skip_note],
                                stage.skip_note if skipped else enc((chk.lhs, chk.rhs))])
    return got


# sha256 of compared_values at the GOLDEN configs; the suites without a
# comparison (thm-2.1, thm-2.2, thm-2.3) hash the empty list.
PINNED_VALUES = {
    "prop-1.1 0/1": "32c976d282e34b25e09f600ef4883f0728a9dd3dc1e6494c125e31026508c5ea",
    "prop-3.2 0/1": "11a24d175b0b00d78949a2b768bba7c0d4ae0c033bc17ede229d6084bff9cf89",
    "prop-4.1 0/1": "3ad0d657b2601c461eefd9c65b940bcc2c867b53d9b99fdda09d4f254a37fc42",
    "thm-2.1 0/1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "thm-2.2 0/1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "thm-2.3 0/1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "thm-3.1 0/1": "45790c2ef4d773a82a6200faea7825a19345751121eda8b916b224730ee94a4d",
    "thm-3.3 0/1": "8919df376bce9c54fffe7a0b22c7a7a5e92cfb90103d8314d6115bea232d62b2",
    "thm-4.2 0/1": "8c4c62d534e4b3dca5f3b737fc60b26ee82cfa5b5d4ac7fe035a506c7a4ab60a",
    "thm-4.3 0/1": "dc7d6ae580ece4bfc7e7c9b97569aafedad191038a05acf49dcf0a3c062504a6",
    "prop-1.1 1/2/3": "32c976d282e34b25e09f600ef4883f0728a9dd3dc1e6494c125e31026508c5ea",
    "prop-3.2 1/2/3": "11a24d175b0b00d78949a2b768bba7c0d4ae0c033bc17ede229d6084bff9cf89",
    "prop-4.1 1/2/3": "5bec62574ee3c7dca0eabeb1ca65dad71bf0d4c5e54278a212996e11743a1e1e",
    "thm-2.1 1/2/3": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "thm-2.2 1/2/3": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "thm-2.3 1/2/3": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "thm-3.1 1/2/3": "92c7f8525141a6238ddf42eb62e234b2fcc9c4ce6bf5da06197386e46d205c05",
    "thm-3.3 1/2/3": "5c39cabb04412aae09b7397eb29efca1b9e11a2b2dc4cb598cfaf341e550d4a0",
    "thm-4.2 1/2/3": "dc2dc0603ec4b684a9d1efc94e946a6937c4bc2a37de8c290a80beecb921b1e8",
    "thm-4.3 1/2/3": "a9027bf142d724b0cd0646fe3f59eb9abaa658d5d804808e596954d54f88b2b5",
}


def test_small_suite_values_are_pinned():
    got = {}
    for eps, cap in ((0, 1), (Fraction(1, 2), 3)):
        for name in sorted(SUITES):
            instances, sizes = GOLDEN_SIZES.get(name, (4, (5, 7, 9, 11)))
            cfg = SuiteConfig(instances=instances, sizes=sizes, eps=eps, cap=cap)
            text = json.dumps(compared_values(name, cfg)).encode()
            got[f"{name} {eps}/{cap}"] = hashlib.sha256(text).hexdigest()
    assert got == PINNED_VALUES


def test_every_traced_name_resolves_on_sepdet():
    # bench/tracing.py wraps sepdet's functions by (module, attribute) and the
    # problem factories by name; its tables are read from the source, without
    # importing or running it, so renaming a traced function fails here
    # instead of in a traced benchmark run
    source = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(source.read_text(encoding="utf-8")).body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("_TIMED", "_FACTORIES")}
    assert tables["_TIMED"] and tables["_FACTORIES"]
    targets = [(row[0], row[1]) for row in tables["_TIMED"]]
    # each factory is patched where it is defined and where the harness binds it
    targets += [(module, name) for name in tables["_FACTORIES"]
                for module in ("sepdet.functionals", "sepdet.harness")]
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, missing
