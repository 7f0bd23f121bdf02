"""Witness selection, closures, and full-vs-restricted optimum checks."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepdet import (
    EmptyRegion,
    FiniteMetricSpace,
    FunctionOracle,
    NoCoordinates,
    ParamSpace,
    Point,
    ScoreRangeError,
    SpaceMismatch,
    ball_pairs_problem,
    builtin_function,
    check_reduction,
    check_sweep,
    closure_iterate,
    closure_round,
    intersect_problems,
    level_grid,
    product_closure,
    punctured_ball_problem,
    random_finite_metric,
    random_table_function,
    rational_span_close,
    shell_truncation,
    torus_slope_problem,
    witness_select,
)
import sepdet.scheme as scheme
from sepdet.scheme import Radii, ShellGrid, Shells, agree, sweep_tally
from sepdet.extreal import NEG_INF
from conftest import coord_space

COORD = builtin_function("coord")


@pytest.fixture
def chain5():
    # integer chain 0..4; with radii (3/2,) each region is the neighbor set
    return coord_space([(f"c{k}", k) for k in range(5)])


def neighbor_problem(space, mode="sup"):
    return punctured_ball_problem(space, COORD, mode,
                                  truncation=(Fraction(3, 2),))


class TestParamSpace:
    def test_duplicate_truncation_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamSpace((1, Fraction(2), 1))

    @pytest.mark.parametrize("levels, twin", [([1, Fraction(1)], "(Fraction(1, 1), "),
                                              ([Fraction(1, 2), 0.5], "(0.5, "),
                                              ([2, 0, 2], "(2, ")])
    def test_shell_levels_equal_by_value_are_duplicates(self, line3, levels, twin):
        with pytest.raises(ValueError, match=re.escape(f"duplicate parameter {twin}")):
            shell_truncation(line3, levels)

    def test_prepared_kinds_find_duplicates_by_value(self):
        with pytest.raises(ValueError, match=re.escape("duplicate parameter Fraction(1, 1)")):
            Radii((1, 2, Fraction(1)))
        with pytest.raises(ValueError, match=re.escape("duplicate parameter (1.0, 1, 2.0)")):
            Shells([(1, 1, 2), (1.0, 1, 2.0)])
        with pytest.raises(ValueError, match=re.escape("duplicate parameter (1, 2.0)")):
            ShellGrid([(1, 2), (1, 3), (1, 2.0)])
        # a formula's grid may repeat a parameter; levels of two types stay two rows
        assert len(Shells([(1, 1, 2)] * 2, repeats=True)) == 2
        shells = Shells([(1, 1, 2), (Fraction(1), 1, 3)])
        assert shells.levels == [1, Fraction(1)] and shells.rows.tolist() == [0, 1]

    @pytest.mark.parametrize("levels", [[0, Fraction(1, 2), 3], [2]])
    def test_a_built_truncation_is_laid_out_as_its_plain_parameters(self, levels):
        space = coord_space([(f"c{k}", k * k) for k in range(5)])
        assert len(shell_truncation(space, [])) == 0
        built = shell_truncation(space, levels)
        plain = Shells(tuple(built))
        assert built == plain and type(built.truncation) is Shells
        for field in ("levels", "radii", "rows", "inner", "outer"):
            assert list(getattr(built, field)) == list(getattr(plain, field))
        firsts = []  # each distinct (r, s) where it first appears
        for _, r, s in built:
            if (r, s) not in firsts:
                firsts.append((r, s))
        assert list(built.grid) == firsts and built.grid is built.grid
        assert list(built.grid.outer) == list(ShellGrid(firsts).outer)

    def test_list_shells_check_and_report_as_tuples_do(self, line3):
        # the duplicate check no longer hashes whole parameters, so a list passes
        checks = [[c.to_json() for c in check_sweep(torus_slope_problem(
            line3, COORD, truncation=[shell, (1, 3, 4)]), line3.points)]
            for shell in ([0, Fraction(1, 2), 2], (0, Fraction(1, 2), 2))]
        assert checks[0] == checks[1] and checks[0][0]["param"] == [0, "1/2", 2]

    @pytest.mark.parametrize("kind, params", [(Radii, (1, 2)), (Shells, [(0, 1, 2)]),
                                              (ShellGrid, [(1, 2), (1, 3)])])
    def test_a_prepared_value_is_passed_on_as_it_is(self, kind, params):
        prepared = kind(params)
        assert kind.of(prepared) is prepared and kind.of(prepared, repeats=True) is prepared
        grid = kind(list(params) * 2, repeats=True)
        assert kind.of(grid, repeats=True) is grid and kind.of(grid) is grid
        assert kind.of(list(params)) == prepared
        with pytest.raises(ValueError, match="duplicate"):  # a plain repeated sequence
            kind.of(list(params) * 2)



class TestWitnessSelect:
    def test_single_optimum(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        z = (line3.point("p0"), Fraction(7, 2))
        got = witness_select(prob, z)
        assert [u[0].id for u in got] == ["p2"]  # f(p2) = 3 beats f(p1) = 1

    def test_matches_exhaustive_argmax(self, grid5):
        prob = punctured_ball_problem(grid5, COORD, "sup")
        for x in grid5.points:
            for r in prob.params.truncation:
                region = prob.region(x, r)
                if region.is_empty:
                    continue
                best = max(prob.score((x, r), u) for u in region)
                picked = witness_select(prob, (x, r))
                assert prob.score((x, r), picked[0]) == best

    def test_constant_score_breaks_ties_lexicographically(self, line3):
        one = FunctionOracle("const1", lambda p: 1)
        prob = punctured_ball_problem(line3, one, "sup")
        z = (line3.point("p0"), Fraction(7, 2))
        assert [u[0].id for u in witness_select(prob, z)] == ["p1"]
        assert [u[0].id for u in witness_select(prob, z, cap=3)] == ["p1", "p2"]

    def test_eps_relaxation_widens_the_selection(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        z = (line3.point("p0"), Fraction(7, 2))
        got = witness_select(prob, z, eps=2, cap=4)
        assert [u[0].id for u in got] == ["p1", "p2"]

    def test_empty_region_raises(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        with pytest.raises(EmptyRegion):
            witness_select(prob, (line3.point("p0"), Fraction(1, 2)))

    def test_bad_selection_config(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        z = (line3.point("p0"), Fraction(7, 2))
        with pytest.raises(ValueError):
            witness_select(prob, z, eps=-1)
        with pytest.raises(ValueError):
            witness_select(prob, z, cap=0)

    def test_score_outside_mode_range(self, line3):
        bottom = FunctionOracle("bottom", lambda p: NEG_INF)
        prob = punctured_ball_problem(line3, bottom, "sup")
        with pytest.raises(ScoreRangeError):
            witness_select(prob, (line3.point("p0"), Fraction(7, 2)))


class TestClosure:
    def test_whole_space_is_already_closed(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        gen = closure_iterate(prob, line3.points)
        assert gen.fixed_point and not gen.depth_exceeded
        assert gen.union == line3.points
        assert gen.level_sizes() == [3, 3]
        assert gen.provenance == {}

    def test_chain_grows_one_point_per_round(self, chain5):
        gen = closure_iterate(neighbor_problem(chain5), [chain5.point("c0")])
        assert gen.fixed_point
        assert gen.level_sizes() == [1, 2, 3, 4, 5, 5]
        assert [p.id for p in gen.union] == ["c0", "c1", "c2", "c3", "c4"]

    def test_provenance_covers_everything_beyond_the_seed(self, chain5):
        gen = closure_iterate(neighbor_problem(chain5), [chain5.point("c0")])
        assert set(gen.provenance) == set(gen.union) - {chain5.point("c0")}
        for pt, why in gen.provenance.items():
            assert why.witness[why.component] == pt
            assert why.problem == "punctured-ball[sup]"

    def test_depth_bound_sets_flag_instead_of_raising(self, chain5):
        gen = closure_iterate(neighbor_problem(chain5), [chain5.point("c0")],
                              max_depth=2)
        assert gen.depth_exceeded and not gen.fixed_point
        assert gen.level_sizes() == [1, 2, 3]

    def test_inf_closure_stops_at_the_minimizing_side(self, line3):
        # from p0 the argmin witness is always p1, so {p0, p1} is closed
        prob = punctured_ball_problem(line3, COORD, "inf")
        gen = closure_iterate(prob, [line3.point("p0")])
        assert [p.id for p in gen.union] == ["p0", "p1"]
        assert gen.fixed_point

    def test_idempotence(self, chain5):
        prob = neighbor_problem(chain5)
        first = closure_iterate(prob, [chain5.point("c0")])
        again = closure_iterate(prob, first.union)
        assert again.union == first.union
        assert again.level_sizes() == [5, 5]
        assert again.provenance == {}

    def test_determinism(self, grid5):
        prob = punctured_ball_problem(grid5, COORD, "sup")
        a = closure_iterate(prob, [grid5.point("g2")])
        b = closure_iterate(prob, [grid5.point("g2")])
        assert a.to_json() == b.to_json()

    def test_empty_seed_rejected(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        with pytest.raises(ValueError):
            closure_iterate(prob, [])

    def test_foreign_seed_rejected(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        with pytest.raises(Exception):
            closure_iterate(prob, [Point(id="alien")])

    def test_skipped_empty_regions_are_counted(self, line3):
        # the r = 1/2 ball is empty at every center
        prob = punctured_ball_problem(line3, COORD, "sup",
                                      truncation=(Fraction(1, 2), Fraction(4),))
        gen = closure_iterate(prob, [line3.point("p0")])
        assert gen.fixed_point
        assert gen.skipped_empty >= 1

    def test_strict_empty_raises(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup",
                                      truncation=(Fraction(1, 2),))
        with pytest.raises(EmptyRegion):
            closure_iterate(prob, [line3.point("p0")], strict_empty=True)

    def test_closure_round_reports_new_points(self, chain5):
        prob = neighbor_problem(chain5)
        new, skipped = closure_round([prob], [chain5.point("c2")])
        assert {p.id for p in new} == {"c3"}  # argmax neighbor of c2
        assert skipped == 0

    @pytest.mark.parametrize("bad, message", [({"cap": 0}, "cap must be at least 1"),
                                              ({"eps": -1}, "eps must be nonnegative"),
                                              ({"eps": math.nan}, "eps must be nonnegative")])
    def test_bad_selection_config_rejected_by_every_closure(self, line3, bad, message):
        # cap = 0, and eps = nan (no score reaches a NaN cut), used to return the seed alone,
        # marked as a fixed point
        prob = punctured_ball_problem(line3, COORD, "sup")
        seed = [line3.point("p0")]
        with pytest.raises(ValueError, match=message):
            closure_iterate(prob, seed, **bad)
        with pytest.raises(ValueError, match=message):
            closure_round([prob], seed, bad.get("eps", 0), bad.get("cap", 1))
        with pytest.raises(ValueError, match=message):
            intersect_problems([prob], seed, **bad)
        with pytest.raises(ValueError, match=message):
            product_closure(lambda y: prob, seed, [line3.point("p1")], **bad)

    def test_intersect_problems_requires_one_space(self, line3, grid5):
        a = punctured_ball_problem(line3, COORD, "sup")
        b = punctured_ball_problem(grid5, COORD, "sup")
        with pytest.raises(SpaceMismatch):
            intersect_problems([a, b], [line3.point("p0")])


class TestChecks:
    def test_restricted_equals_full_on_the_inf_closure(self, line3):
        prob = punctured_ball_problem(line3, COORD, "inf")
        Y = closure_iterate(prob, [line3.point("p0")]).union
        for x in Y:
            for r in prob.params.truncation:
                chk = check_reduction(prob, Y, (x, r))
                assert chk.verdict != "fail"

    def test_check_fields_on_a_strict_restriction(self, line3):
        prob = punctured_ball_problem(line3, COORD, "inf")
        Y = [line3.point("p0"), line3.point("p1")]
        chk = check_reduction(prob, Y, (line3.point("p0"), Fraction(4)))
        assert chk.verdict == "pass"
        assert chk.lhs == 1 and chk.rhs == 1
        assert chk.region_size == 2 and chk.restricted_size == 1
        assert chk.tolerance == 0  # exact scores resolve the default to 0

    def test_unclosed_set_fails_the_check(self, line3):
        prob = punctured_ball_problem(line3, COORD, "inf")
        Y = [line3.point("p0"), line3.point("p2")]
        chk = check_reduction(prob, Y, (line3.point("p0"), Fraction(4)))
        assert chk.verdict == "fail"
        assert chk.lhs == 1 and chk.rhs == 3

    def test_empty_restriction_fails_with_region_hit_false(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        chk = check_reduction(prob, [line3.point("p0")], (line3.point("p0"), Fraction(3, 2)))
        assert chk.verdict == "fail" and not chk.region_hit

    def test_empty_region_is_skipped(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        chk = check_reduction(prob, line3.points, (line3.point("p0"), Fraction(1, 2)))
        assert chk.verdict == "skipped-empty-region"
        assert chk.lhs is None and chk.rhs is None

    def test_center_must_lie_in_y(self, line3):
        prob = punctured_ball_problem(line3, COORD, "sup")
        with pytest.raises(Exception, match="must lie in Y"):
            check_reduction(prob, [line3.point("p1")], (line3.point("p0"), Fraction(4)))

    def test_negative_tolerance_rejected(self, line3):
        # a NaN tolerance used to fail a check whose two sides are equal,
        # while the table sweep passed the same check by code
        prob = punctured_ball_problem(line3, COORD, "sup")
        z = (line3.point("p0"), Fraction(4))
        for tol in (-1, math.nan):
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                check_reduction(prob, line3.points, z, tol=tol)
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                list(check_sweep(prob, line3.points, tol))

    def test_float_scores_get_the_float_tolerance(self):
        # 2-D coordinates force sqrt distances, hence float scores
        plane = coord_space([("a", 0), ("b", 1)])
        pts = [Point(id=p.id, coords=(p.coords[0], Fraction(k)))
               for k, p in enumerate(plane.points)]
        from sepdet import FiniteMetricSpace, ball_pairs_problem
        space = FiniteMetricSpace.from_coords(pts)
        prob = ball_pairs_problem(space, COORD, "sup")
        chk = check_reduction(prob, space.points, (space.points[0], space.diameter() + 1))
        assert chk.verdict == "pass"
        assert chk.tolerance == pytest.approx(1e-12)

    def test_exact_optima_beside_a_float_compare_exactly(self):
        # B(p0, 4) holds g's values 3 and 2.5, and f's pair quotients 3 / 1, 1 / 2
        # and 2 / 1.5 at a float distance: both families' optima, full and within
        # Y, are the int 3; g's float value leaves its table to the scan
        space = FiniteMetricSpace.from_matrix([Point(f"p{k}") for k in range(3)],
                                              [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
        f = FunctionOracle.from_table({"p0": 0, "p1": 3, "p2": 1})
        g = FunctionOracle.from_table({"p0": 0, "p1": 3, "p2": 2.5})
        Y = [space.point("p0"), space.point("p1")]
        for prob, read in ((ball_pairs_problem(space, f, "sup", truncation=[4]), True),
                           (punctured_ball_problem(space, g, "sup", truncation=[4]), False)):
            assert (prob.optima(Y[:1])[0] is not None) == read  # the sweep reads the table
            for chk in (next(check_sweep(prob, Y)), check_reduction(prob, Y, (Y[0], 4))):
                assert (chk.verdict, chk.lhs, chk.rhs) == ("pass", 3, 3)
                assert chk.tolerance == 0 and type(chk.tolerance) is int

    @given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                    min_size=2, max_size=6, unique=True),
           st.integers(0, 10))
    def test_restricted_optimum_never_beats_the_full_one(self, coords, drop):
        # the one-sided bound behind every determinacy check
        space = coord_space([(f"q{i}", c) for i, c in enumerate(coords)])
        prob = punctured_ball_problem(space, COORD, "sup")
        Y = list(space.points)
        x = Y[drop % len(Y)]
        Y = [p for p in Y if p == x or p.id > Y[drop % len(Y)].id] or [x]
        for r in prob.params.truncation:
            chk = check_reduction(prob, Y, (x, r))
            if chk.verdict == "skipped-empty-region" or not chk.region_hit:
                continue
            assert chk.rhs <= chk.lhs


HALF = Fraction(1, 2)
NAN = math.nan
PAIR = (1, NAN)


class TestAgree:
    """agree, the one verdict rule: one object passes, others compare by value."""

    @pytest.mark.parametrize("full, restricted, tol, verdict", [
        (HALF, HALF, 0, True),  # one object
        (Fraction(1, 2), Fraction(1, 2), 0, True),  # two objects, equal values
        (2, Fraction(2), 0, True),
        (float("inf"), float("inf"), 0, True),
        (Fraction(1, 3), Fraction(2, 3), 0, False),
        (Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), True),
        (float("inf"), float("-inf"), 10**9, False),
        ((1, HALF, True), (1, Fraction(1, 2), True), 0, True),  # element by element
        ((1, HALF, True), (1, Fraction(1, 2), False), 0, False),
        ((1, 2), (1, 3), 0, False),
        ((1, 2), (1, 3), 1, True),
        ((1, 2), None, 0, False),
        (None, 0, 0, False),
        (0, None, 0, False),
        (None, None, 0, True),
        (True, True, 0, True),
        (True, False, 1, False),  # bools by ==, not within tol
        (NAN, NAN, 1, False),  # one object, but NaN
        (PAIR, PAIR, 1, False),
        (NAN, float("nan"), 1, False),
    ])
    def test_the_rule(self, full, restricted, tol, verdict):
        assert agree(full, restricted, tol) is verdict

    def test_separate_equal_objects_are_separate(self):
        assert Fraction(1, 2) is not Fraction(1, 2)
        assert float("inf") is not float("inf")

    def test_one_object_makes_no_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("compared by value")

        monkeypatch.setattr(scheme, "close", refuse)
        value = Fraction(7, 3)
        assert agree(value, value, 0) and agree((value, True), (value, True), 0)

    def test_a_nan_score_fails_its_check_though_both_sides_are_one_object(self, line3):
        prob = dataclasses.replace(punctured_ball_problem(line3, COORD, "sup"),
                                   score=lambda z, u: NAN, optima=None)
        chk = check_reduction(prob, line3.points, (line3.point("p0"), Fraction(4)))
        assert chk.lhs is chk.rhs is NAN
        assert chk.region_hit and chk.verdict == "fail"


@st.composite
def range_queries(draw):
    """(keys, rows, lo, hi): keys of -1 and up, as the tables hold, and slices
    that are all prefixes or start anywhere, empty ones included."""
    m = draw(st.integers(1, 40) | st.sampled_from([1, 2, 4, 8, 16, 32]))
    k, q = draw(st.integers(1, 3)), draw(st.integers(0, 16))
    keys = draw(st.lists(st.lists(st.integers(-1, 99), min_size=m, max_size=m),
                         min_size=k, max_size=k))
    ends = draw(st.lists(st.tuples(st.integers(0, m), st.integers(0, m)), min_size=q, max_size=q))
    if draw(st.booleans()):  # mostly nonempty slices
        ends = [sorted(e) for e in ends]
    lo, hi = [a for a, _ in ends], [b for _, b in ends]
    if draw(st.booleans()):
        lo = [0] * q
    return keys, draw(st.lists(st.integers(0, k - 1), min_size=q, max_size=q)), lo, hi


@settings(max_examples=300)
@given(range_queries())
@example(([[5]], [0, 0], [0, 0], [1, 0]))  # m = 1, prefixes, one empty
@example(([[5], [-1]], [1, 0, 0], [0, 1, 0], [1, 1, 1]))  # m = 1, one slice from 1
@example(([[3, 1, 4, 1, 5, 9, 2, 6]], [0] * 4, [0] * 4, [8, 6, 0, 1]))  # m = 2**3, prefixes
@example(([[3, 1, 4, 1, 5, 9, 2, 6], [-1] * 8], [0, 0, 1, 0, 0], [2, 5, 0, 7, 3],
          [6, 5, 8, 8, 4]))  # mixed starts, an empty slice
@example(([[-1, 7, -1, 2]], [0, 0], [3, 0], [2, 4]))  # an empty slice beside prefixes
@example(([list(range(16))], [0, 0], [1, 3], [16, 12]))  # the largest key last in a slice
def test_range_max_matches_the_brute_force(query):
    keys, rows, lo, hi = query
    keys = np.array(keys, dtype=np.int64)
    got = scheme._range_max(keys, *(np.array(v, dtype=np.int64) for v in (rows, lo, hi)))
    assert got.tolist() == [max(keys[r, a:b].tolist(), default=-1)
                            for r, a, b in zip(rows, lo, hi)]


def test_a_request_builds_one_block_and_a_sweep_reads_each_block_once(monkeypatch):
    # every center's full best comes from one _range_max call per builder call,
    # and a sweep makes one masked call per block its Y's tables come from
    calls, real = [], scheme._range_max
    monkeypatch.setattr(scheme, "_range_max", lambda *args: calls.append(args) or real(*args))
    space = random_finite_metric(9, 4, "euclidean", dim=1)
    f = random_table_function(space, 4)
    shells = shell_truncation(space, level_grid(f, space, "sample"))
    for prob in (punctured_ball_problem(space, f, "inf"), ball_pairs_problem(space, f, "sup"),
                 torus_slope_problem(space, f, "sup", truncation=shells)):
        calls.clear()
        first = prob.optima(space.points[6:1:-1])  # k = 5 centers, unsorted
        assert None not in first and len(calls) == 1
        assert None not in prob.optima(space.points) and len(calls) == 2  # the 4 missing ones
        calls.clear()
        Y = space.points[::-2] + space.points[1::2]  # centers of both blocks
        sweep_tally(prob, Y)
        assert 1 <= len(calls) <= 2
        calls.clear()
        sweep_tally(prob, space.points[3:6])  # centers of the first block only
        assert len(calls) == 1


def test_a_failing_check_beside_a_value_past_the_floats_reports_fail():
    # close(1e999, 0.5) raised OverflowError from abs(a - b) instead of a verdict
    space = FiniteMetricSpace.from_coords([Point(pid, (c,)) for pid, c in
                                           (("a", 0.0), ("b", 1.0), ("c", 2.5))])
    f = FunctionOracle.from_table({"a": "1e999", "b": 0.5, "c": 0.25})
    problem, Y = punctured_ball_problem(space, f, "sup"), [space.point("b"), space.point("c")]
    chk = check_reduction(problem, Y, (space.point("c"), 3))
    assert chk.verdict == "fail" and chk.lhs == 10**999 and chk.rhs == 0.5
    # the ball of radius 3.5 (the last of the truncation) at c holds a
    verdicts = {(c.x.id, c.param): c.verdict for c in check_sweep(problem, Y)}
    assert verdicts[("c", 3.5)] == verdicts[("b", 3.5)] == "fail"


class TestProductClosure:
    def test_singleton_second_factor_reduces_to_plain_closure(self, chain5):
        other = coord_space([("y0", 0), ("y1", 1)])

        def make_problem(y):
            return neighbor_problem(chain5)

        gen, Y2 = product_closure(make_problem, [chain5.point("c0")],
                                  [other.point("y0")])
        plain = closure_iterate(neighbor_problem(chain5), [chain5.point("c0")])
        assert gen.union == plain.union
        assert [p.id for p in Y2] == ["y0"]

    def test_score_independent_of_y_adds_nothing_new(self, chain5):
        other = coord_space([("y0", 0), ("y1", 1)])

        def make_problem(y):
            return neighbor_problem(chain5)

        gen, Y2 = product_closure(make_problem, [chain5.point("c0")],
                                  other.points)
        plain = closure_iterate(neighbor_problem(chain5), [chain5.point("c0")])
        assert gen.union == plain.union
        assert len(Y2) == 2

    def test_empty_second_seed_rejected(self, chain5):
        with pytest.raises(ValueError):
            product_closure(lambda y: neighbor_problem(chain5),
                            [chain5.point("c0")], [])


def _coords_of(points):
    return {p.coords for p in points}


class TestRationalSpanClose:
    def test_single_vector_spans_its_multiples(self):
        e1 = Point(id="e1", coords=(Fraction(1), Fraction(0)))
        out = rational_span_close([e1], budget=8)
        assert _coords_of(out) == {
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(0)),
        }

    def test_pair_combination_appears(self):
        e1 = Point(id="e1", coords=(Fraction(1), Fraction(0)))
        e2 = Point(id="e2", coords=(Fraction(0), Fraction(1)))
        out = rational_span_close([e1, e2], budget=12,
                                  coeffs=(Fraction(0), Fraction(1)))
        got = _coords_of(out)
        assert (Fraction(1), Fraction(1)) in got  # e1 + e2
        assert (Fraction(0), Fraction(0)) in got
        assert len(got) == 4

    def test_inputs_always_survive_and_budget_caps(self):
        e1 = Point(id="e1", coords=(Fraction(1),))
        out = rational_span_close([e1], budget=2)
        assert len(out) == 2 and out[0] is e1

    def test_identity_once_the_budget_is_exhausted(self):
        e1 = Point(id="e1", coords=(Fraction(1), Fraction(0)))
        out = rational_span_close([e1], budget=4)
        again = rational_span_close(out, budget=len(out))
        assert _coords_of(again) == _coords_of(out)

    def test_coordinate_free_points_rejected(self):
        with pytest.raises(NoCoordinates):
            rational_span_close([Point(id="bare")], budget=4)

    def test_mixed_dimensions_rejected(self):
        a = Point(id="a", coords=(Fraction(1),))
        b = Point(id="b", coords=(Fraction(1), Fraction(0)))
        with pytest.raises(ValueError):
            rational_span_close([a, b], budget=4)

    def test_deterministic_output_order(self):
        e1 = Point(id="e1", coords=(Fraction(1), Fraction(0)))
        e2 = Point(id="e2", coords=(Fraction(0), Fraction(1)))
        first = rational_span_close([e1, e2], budget=16)
        second = rational_span_close([e1, e2], budget=16)
        assert [p.id for p in first] == [p.id for p in second]
