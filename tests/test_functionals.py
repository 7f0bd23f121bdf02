"""Variational quantities: limits, Lipschitz suprema, shell slopes, slices."""

import gc
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepdet import (
    BadShell,
    DescriptorError,
    EmptyRegion,
    FunctionOracle,
    IsolatedPoint,
    LazyMetricSpace,
    NonPositiveRadius,
    SuiteConfig,
    ball_pairs,
    ball_pairs_problem,
    ball_points,
    brute_force_optimum,
    builtin_function,
    check_reduction,
    check_sweep,
    closure_iterate,
    continuity_check,
    default_radius_grid,
    default_shell_grid,
    dyadic_interval_space,
    level_grid,
    lip_local_sup,
    lip_local_sups,
    lip_modulus,
    liminf_at,
    limsup_at,
    lipschitz_second_witness,
    midpoint_grid,
    partial_slope,
    product_closure,
    punctured_ball_points,
    punctured_ball_problem,
    radius_truncation,
    run_suite,
    shell_truncation,
    slice_oracle,
    slope_at,
    torus_points,
    torus_slope_problem,
    torus_sup,
    torus_sups,
    verify_lipschitz_second,
    witness_select,
)
from sepdet import functionals, harness
from sepdet.scheme import fold_sweep
from sepdet.scheme import ShellGrid
from sepdet.extreal import POS_INF, is_pos_inf
from conftest import coord_space

COORD = builtin_function("coord")
ABS = builtin_function("abs")
ZERO = builtin_function("zero")

table_values = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=2, max_size=6)


def random_instance(values):
    space = coord_space([(f"q{i}", i) for i in range(len(values))])
    f = FunctionOracle.from_table(
        {f"q{i}": v for i, v in enumerate(values)})
    return space, f


class TestGrids:
    def test_midpoint_grid_realizes_every_sublevel(self):
        grid = midpoint_grid([1, 2, 3])
        assert grid == (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), 4)

    def test_midpoint_grid_empty(self):
        assert midpoint_grid([]) == ()

    def test_default_radius_grid_from_center(self, line3):
        # distances from p0 are {1, 3}
        assert default_radius_grid(line3, line3.point("p0")) == (
            Fraction(1, 2), Fraction(2), 4)

    def test_default_shell_grid_orders_pairs(self, grid5):
        shells = default_shell_grid(grid5, grid5.point("g2"))
        assert all(r < s for r, s in shells)
        assert len(shells) == len(set(shells))

    def test_level_grid_sample_and_full(self, line3):
        assert level_grid(COORD, line3, "sample") == (-1, 1, 4)
        assert level_grid(COORD, line3, "full") == (-1, 0, 1, 3, 4)

    def test_level_grid_needs_a_finite_value(self, line3):
        top = FunctionOracle("top", lambda p: POS_INF)
        with pytest.raises(ValueError):
            level_grid(top, line3)


class TestLimits:
    def test_constant_function(self, grid5):
        grid = default_radius_grid(grid5)
        x = grid5.point("g2")
        assert liminf_at(ZERO, grid5, x, grid) == 0
        assert limsup_at(ZERO, grid5, x, grid) == 0
        assert continuity_check(ZERO, grid5, x, grid)

    def test_continuity_check_reads_a_one_shot_y_once(self, grid5, line3):
        # both limits read Y, so an iterator must not be used up by the first
        x, grid = grid5.point("g2"), default_radius_grid(grid5)
        assert continuity_check(ZERO, grid5, x, grid, Y=iter(grid5.points))
        p0, grid = line3.point("p0"), default_radius_grid(line3)
        assert not continuity_check(COORD, line3, p0, grid, Y=iter(line3.points))

    def test_line_values_at_the_endpoints(self, line3):
        grid = default_radius_grid(line3)
        p0 = line3.point("p0")
        # nearest neighbor of p0 carries value 1, so both limits are 1
        assert liminf_at(COORD, line3, p0, grid) == 1
        assert limsup_at(COORD, line3, p0, grid) == 1
        assert not continuity_check(COORD, line3, p0, grid)

    def test_small_scales_dominate_the_limsup(self, line3):
        # at p1 the scale 3/2 ball sees only p0, so the limsup collapses to 0
        grid = default_radius_grid(line3)
        p1 = line3.point("p1")
        assert liminf_at(COORD, line3, p1, grid) == 0
        assert limsup_at(COORD, line3, p1, grid) == 0

    def test_indicator_spike_is_invisible_from_its_own_center(self, grid5):
        x = grid5.point("g2")
        spike = FunctionOracle("spike", lambda p: 1 if p == x else 0)
        grid = default_radius_grid(grid5)
        assert liminf_at(spike, grid5, x, grid) == 0
        assert limsup_at(spike, grid5, x, grid) == 0
        assert not continuity_check(spike, grid5, x, grid)

    def test_restriction_that_is_closed_changes_nothing(self, line3):
        grid = default_radius_grid(line3)
        p0 = line3.point("p0")
        Y = [p0, line3.point("p1")]
        assert liminf_at(COORD, line3, p0, grid, Y=Y) == 1
        assert limsup_at(COORD, line3, p0, grid, Y=Y) == 1

    def test_isolated_point_raises(self, line3):
        with pytest.raises(IsolatedPoint):
            liminf_at(COORD, line3, line3.point("p0"), (Fraction(1, 2),))

    @given(table_values)
    def test_duality_limsup_is_minus_liminf_of_minus(self, values):
        space, f = random_instance(values)
        neg = FunctionOracle("neg", lambda p: -f.value(p))
        grid = default_radius_grid(space)
        for x in space.points:
            assert limsup_at(f, space, x, grid) == -liminf_at(neg, space, x, grid)

    @given(table_values)
    def test_limits_bracket_each_other(self, values):
        space, f = random_instance(values)
        grid = default_radius_grid(space)
        for x in space.points:
            assert liminf_at(f, space, x, grid) <= limsup_at(f, space, x, grid)


class TestLipschitz:
    def test_linear_slope_two(self, grid5):
        double = FunctionOracle.from_coords(lambda c: 2 * c[0], "double")
        x = grid5.point("g2")
        got = lip_local_sup(double, grid5, x, Fraction(3, 2))
        assert got.value == 2 and got.pairs == 3  # ball {g1, g2, g3}
        assert lip_modulus(double, grid5, x, (Fraction(3, 2), Fraction(5))) == 2

    def test_constant_has_modulus_zero(self, grid5):
        x = grid5.point("g2")
        assert lip_local_sup(ZERO, grid5, x, Fraction(5)).value == 0
        assert lip_modulus(ZERO, grid5, x, default_radius_grid(grid5)) == 0

    def test_singleton_ball_reports_no_pairs(self, grid5):
        got = lip_local_sup(COORD, grid5, grid5.point("g2"), Fraction(1, 2))
        assert got == (0, 0)

    def test_abs_function_modulus(self, grid5):
        x = grid5.point("g2")
        assert lip_modulus(ABS, grid5, x, (Fraction(3, 2), Fraction(5))) == 1

    def test_restriction_shrinks_the_pair_set(self, grid5):
        x = grid5.point("g2")
        Y = [x, grid5.point("g3")]
        got = lip_local_sup(COORD, grid5, x, Fraction(5), Y=Y)
        assert got.pairs == 1 and got.value == 1

    @given(table_values)
    def test_local_sup_monotone_in_radius(self, values):
        space, f = random_instance(values)
        x = space.points[0]
        radii = default_radius_grid(space)
        sups = [lip_local_sup(f, space, x, r).value for r in radii]
        assert sups == sorted(sups)


class TestTorusSup:
    def test_line_example(self, line3):
        got = torus_sup(COORD, line3, line3.point("p0"), 2,
                        Fraction(1, 2), Fraction(7, 2))
        assert got == 1  # (2 - 1)/1 beats (2 - 3)^+/3 = 0

    def test_level_below_the_shell_minimum_gives_zero(self, line3):
        got = torus_sup(COORD, line3, line3.point("p0"), 0,
                        Fraction(1, 2), Fraction(7, 2))
        assert got == 0

    def test_infinite_level_gives_infinite_sup(self, line3):
        got = torus_sup(COORD, line3, line3.point("p0"), POS_INF,
                        Fraction(1, 2), Fraction(7, 2))
        assert is_pos_inf(got)

    def test_infinite_values_cancel_at_an_infinite_level(self, line3):
        top = FunctionOracle("top", lambda p: POS_INF)
        got = torus_sup(top, line3, line3.point("p0"), POS_INF,
                        Fraction(1, 2), Fraction(7, 2))
        assert got == 0  # the +inf - +inf = 0 convention

    def test_empty_shell_raises(self, line3):
        with pytest.raises(EmptyRegion):
            torus_sup(COORD, line3, line3.point("p0"), 2,
                      Fraction(1, 4), Fraction(1, 2))

    def test_restriction_to_a_shellless_set_raises(self, line3):
        with pytest.raises(EmptyRegion):
            torus_sup(COORD, line3, line3.point("p0"), 2,
                      Fraction(1, 2), Fraction(7, 2), Y=[line3.point("p0")])


class TestSlope:
    def test_symmetric_grid_center(self, grid5):
        assert slope_at(COORD, grid5, grid5.point("g2")) == 1

    def test_line_endpoint_is_a_minimum(self, line3):
        assert slope_at(COORD, line3, line3.point("p0")) == 0

    def test_line_interior(self, line3):
        assert slope_at(COORD, line3, line3.point("p1")) == 1

    def test_abs_at_its_minimizer(self, grid5):
        assert slope_at(ABS, grid5, grid5.point("g2")) == 0

    def test_constant_slope_is_zero(self, grid5):
        for x in grid5.points:
            assert slope_at(ZERO, grid5, x) == 0

    def test_global_minimizer_has_slope_zero(self, grid5):
        assert slope_at(COORD, grid5, grid5.point("g0")) == 0

    def test_all_infinite_values_cancel(self, grid5):
        top = FunctionOracle("top", lambda p: POS_INF)
        assert slope_at(top, grid5, grid5.point("g2")) == 0

    def test_infinite_center_over_finite_neighbors(self, grid5):
        x = grid5.point("g2")
        f = FunctionOracle("peak", lambda p: POS_INF if p == x else 0)
        assert is_pos_inf(slope_at(f, grid5, x))

    def test_explicit_grid_overrides_the_default(self, grid5):
        # the single shell (3/2, 5/2) sees g0 and g4; g0 wins with (0-(-2))/2
        grid = ((Fraction(3, 2), Fraction(5, 2)),)
        assert slope_at(COORD, grid5, grid5.point("g2"), grid) == 1

    def test_empty_shells_raise_isolated(self, grid5):
        grid = ((Fraction(1, 4), Fraction(1, 2)),)
        with pytest.raises(IsolatedPoint):
            slope_at(COORD, grid5, grid5.point("g2"), grid)

    def test_an_explicit_empty_grid_raises_and_none_keeps_the_default(self, grid5):
        # as the limits' empty radius grid does, before the center check
        x, y = grid5.point("g2"), grid5.point("g0")
        for grid in ((), [], ShellGrid(()), iter(())):
            for Y in (None, [y]):
                with pytest.raises(ValueError, match="^shell grid is empty$"):
                    slope_at(COORD, grid5, x, grid, Y)
                with pytest.raises(ValueError, match="^shell grid is empty$"):
                    partial_slope(lambda u, v: u.coords[0], grid5, x, x, grid=grid, Y1=Y)
        default = default_shell_grid(grid5, x)
        assert slope_at(COORD, grid5, x, None) == slope_at(COORD, grid5, x, default) == 1
        assert partial_slope(lambda u, v: u.coords[0], grid5, x, x, grid=None) == 1

    @given(table_values, st.fractions(min_value=0, max_value=4, max_denominator=4))
    def test_positive_homogeneity(self, values, c):
        space, f = random_instance(values)
        scaled = FunctionOracle("scaled", lambda p: c * f.value(p))
        for x in space.points:
            assert slope_at(scaled, space, x) == c * slope_at(f, space, x)

    @given(table_values)
    def test_slope_zero_at_any_global_minimizer(self, values):
        space, f = random_instance(values)
        best = min(values)
        for x in space.points:
            if f.value(x) == best:
                assert slope_at(f, space, x) == 0


class TestProductSlices:
    def make_pair(self):
        s1 = coord_space([(f"a{k}", k) for k in range(5)])
        s2 = coord_space([(f"b{k}", 2 * k) for k in range(3)])
        return s1, s2

    def test_witness_for_a_violated_bound(self):
        s1, s2 = self.make_pair()

        def f2(x, y):
            return 3 * y.coords[0]

        w = lipschitz_second_witness(f2, s1, s2, k=1)
        assert w is not None
        x, y1, y2 = w
        assert abs(f2(x, y1) - f2(x, y2)) > s2.distance(y1, y2)
        assert not verify_lipschitz_second(f2, s1, s2, k=1)

    def test_bound_independent_of_y_verifies_at_k_zero(self):
        s1, s2 = self.make_pair()

        def f2(x, y):
            return x.coords[0] ** 2

        assert verify_lipschitz_second(f2, s1, s2, k=0)

    def test_true_bound_verifies(self):
        s1, s2 = self.make_pair()
        y0 = s2.point("b0")

        def f2(x, y):
            return x.coords[0] + Fraction(1, 2) * s2.distance(y, y0)

        assert verify_lipschitz_second(f2, s1, s2, k=Fraction(1, 2))
        assert not verify_lipschitz_second(f2, s1, s2, k=Fraction(1, 4))

    def test_partial_slope_of_an_x_only_function(self):
        s1, s2 = self.make_pair()

        def f2(x, y):
            return x.coords[0]

        x = s1.point("a2")
        assert partial_slope(f2, s1, x, s2.point("b1")) == slope_at(COORD, s1, x)

    def test_partial_slope_scans_a_lazy_factor_within_the_budget(self):
        space = dyadic_interval_space()
        x, y = space.point_at(2), space.point_at(0)  # x = 1/2
        grid = ((Fraction(1, 8), Fraction(1, 2)), (Fraction(1, 16), Fraction(1, 4)))
        assert slope_at(COORD, space, x, grid, budget=16) == 1
        assert partial_slope(lambda u, v: u.coords[0], space, x, y, grid=grid,
                             budget=16) == 1

    def test_witness_compares_exact_values_exactly(self):
        s1, s2 = self.make_pair()
        slope = 1 + Fraction(1, 10**15)  # breaks k = 1 by far less than 1e-12

        def f2(x, y):
            return slope * y.coords[0]

        w = lipschitz_second_witness(f2, s1, s2, k=1)
        assert [p.id for p in w] == ["a0", "b0", "b1"]  # the first triple scanned
        assert not verify_lipschitz_second(f2, s1, s2, k=1)

    def test_witness_scans_the_whole_first_factor(self):
        s1, s2 = self.make_pair()

        def f2(x, y):  # breaks the bound only at the last first-factor point
            return (3 if x.id == "a4" else 1) * y.coords[0]

        assert lipschitz_second_witness(f2, s1, s2, k=1)[0].id == "a4"

    def test_a_holding_bound_reads_each_value_once(self):
        s1, s2 = self.make_pair()
        y0 = s2.point("b0")
        calls = []

        def f2(x, y):
            calls.append((x, y))
            return x.coords[0] + Fraction(1, 2) * s2.distance(y, y0)

        assert verify_lipschitz_second(f2, s1, s2, k=Fraction(1, 2))
        assert len(calls) == 15  # 5 x 3 points, where a read per triple end takes 30
        assert set(calls) == {(x, y) for x in s1.points for y in s2.points}

    def test_witness_stops_at_the_budget(self):
        s1, s2 = self.make_pair()
        calls = []

        def f2(x, y):  # breaks the bound only at a1, past the first three triples
            calls.append((x, y))
            return (3 if x.id == "a1" else 1) * y.coords[0]

        assert verify_lipschitz_second(f2, s1, s2, k=1, budget=3)
        assert 0 < len(calls) <= 2 * 3
        assert not verify_lipschitz_second(f2, s1, s2, k=1, budget=4)

    @pytest.mark.parametrize("keyword", ["product_fn", "second_space", "lipschitz_k",
                                         "spot_budget"])
    def test_product_closure_checks_no_bound(self, keyword):
        s1, s2 = self.make_pair()
        with pytest.raises(TypeError, match=keyword):
            product_closure(lambda y: torus_slope_problem(s1, COORD), [s1.point("a0")],
                            s2.points, **{keyword: None})

    @pytest.mark.parametrize("keyword", ["k", "space2"])
    def test_partial_slope_checks_no_bound(self, keyword):
        s1, s2 = self.make_pair()
        with pytest.raises(TypeError, match=keyword):
            partial_slope(lambda x, y: 0, s1, s1.point("a0"), s2.point("b0"),
                          **{keyword: None})

    def test_partial_slopes_read_the_closure_slices(self, monkeypatch):
        # the fold sweep of a slice's grid problem reads the rankings of the
        # slice its closure ranked, as thm-4.3 holds one slice per y for both:
        # it ranks nothing new and gives partial_slope's two sides at every x
        # (partial_slope itself ranks a new slice per call)
        s1, s2 = self.make_pair()
        y0 = s2.point("b0")

        def f2(x, y):
            return x.coords[0] ** 2 + Fraction(1, 2) * s2.distance(y, y0)

        slices = {y: slice_oracle(f2, y) for y in s2.points}
        problems = {y: torus_slope_problem(s1, slices[y], t_mode="full") for y in s2.points}
        gen, Y2 = product_closure(problems.__getitem__, [s1.point("a2")], s2.points)
        Y = sorted(gen.union, key=lambda p: p.id)
        grids = {y: problems[y].params.grid for y in Y2}
        want = {(y, x): (partial_slope(f2, s1, x, y, grids[y]),
                         partial_slope(f2, s1, x, y, grids[y], Y1=Y)) for y in Y2 for x in Y}
        built = []
        monkeypatch.setattr(functionals._Rankings, "__init__",
                            lambda self, *a: built.append(a))

        def descents():
            return sum(len(slices[y]._rankings[s1].memo) for y in Y2)

        before = descents()
        for y in Y2:
            problem = torus_slope_problem(s1, slices[y], "sup", grids[y])
            for x, _, same, value in fold_sweep(problem, Y, grids[y].outer):
                assert same and (value(0), value(1)) == want[y, x]
        assert built == [] and descents() == before

    def test_slices_are_shared_while_held_and_dropped_after(self, monkeypatch):
        # slice_oracle keeps no slice: each call makes a new oracle, which goes
        # with its last holder; thm-4.3 holds one slice per (instance, y) for
        # its closure and its folds, and drops them with the instance
        s1, s2 = self.make_pair()

        def f2(x, y):
            return x.coords[0]

        y = s2.point("b1")
        held = slice_oracle(f2, y)
        assert slice_oracle(f2, y) is not held
        dead = weakref.ref(held)
        del held
        gc.collect()
        assert dead() is None
        made, real = [], harness.slice_oracle

        def recorded(f2, y):
            got = real(f2, y)
            made.append(weakref.ref(got))
            return got

        monkeypatch.setattr(harness, "slice_oracle", recorded)
        run_suite("thm-4.3", SuiteConfig(instances=2, sizes=(4,)))
        gc.collect()
        assert len(made) == 2 * 3  # three second seeds in each of the two product instances
        assert all(ref() is None for ref in made)

    def test_thm_4_3_ranks_each_slice_once(self, monkeypatch):
        seen, spaces = [], []
        init = functionals._Rankings.__init__

        def counted(self, f, space):
            seen.append((f.name, id(space)))
            spaces.append(space)  # keeps every id distinct for the whole run
            init(self, f, space)

        monkeypatch.setattr(functionals._Rankings, "__init__", counted)
        run_suite("thm-4.3", SuiteConfig(instances=2, sizes=(8,)))
        assert seen and len(set(seen)) == len(seen)


class TestMalformedParameters:
    """A parameter that is no radius or shell is named when it is prepared:
    by a formula on entry, by a problem factory at construction."""

    @pytest.fixture
    def six(self):
        return coord_space([(f"e{i}", i) for i in range(6)])

    @pytest.mark.parametrize("call, error, named", [
        (lambda s, x: lip_local_sups(COORD, s, x, ("a",)), NonPositiveRadius, "got a"),
        (lambda s, x: lip_modulus(COORD, s, x, [1, None]), NonPositiveRadius, "got None"),
        (lambda s, x: liminf_at(COORD, s, x, [(1, 2)]), NonPositiveRadius, "got (1, 2)"),
        (lambda s, x: torus_sups(COORD, s, x, [(1, 2)]), BadShell, "got (1, 2)"),
        (lambda s, x: torus_sups(COORD, s, x, [(0, "a", 2)]), BadShell, "got (0, 'a', 2)"),
        (lambda s, x: torus_sups(COORD, s, x, [("t", 1, 2)]), BadShell, "got ('t', 1, 2)"),
        (lambda s, x: torus_sup(COORD, s, x, 0, 2, 1), BadShell, "r=2, s=1"),
        (lambda s, x: slope_at(COORD, s, x, [(0, 1, 2)]), BadShell, "got (0, 1, 2)"),
        (lambda s, x: slope_at(COORD, s, x, [HALF, 1]), BadShell, "got Fraction(1, 2)"),
    ])
    def test_formulas_name_the_parameter(self, six, call, error, named):
        with pytest.raises(error, match=re.escape(named)):
            call(six, six.point("e2"))

    @pytest.mark.parametrize("build, error", [
        (lambda s: punctured_ball_problem(s, COORD, truncation=("a",)), NonPositiveRadius),
        (lambda s: ball_pairs_problem(s, COORD, truncation=(1, 0)), NonPositiveRadius),
        (lambda s: torus_slope_problem(s, COORD, truncation=[(1, 2)]), BadShell),
        (lambda s: torus_slope_problem(s, COORD, truncation=[(0, 2, 1)]), BadShell),
        (lambda s: torus_slope_problem(s, COORD, truncation=[(0, 1, 2, 3)]), BadShell),
    ])
    def test_factories_reject_a_bad_truncation_at_construction(self, six, build, error):
        with pytest.raises(error):
            build(six)

    def test_a_bad_truncation_ends_before_its_closure(self, six):
        with pytest.raises(NonPositiveRadius, match="got a"):
            closure_iterate(punctured_ball_problem(six, COORD, truncation=("a",)),
                            [six.point("e0")])


class TestDescriptors:
    def test_table_roundtrip(self, line3):
        f = FunctionOracle.from_table({"p0": "1/2", "p1": 2, "p2": "inf"})
        desc = f.to_descriptor()
        back = FunctionOracle.from_descriptor(desc)
        assert back.value(line3.point("p0")) == Fraction(1, 2)
        assert is_pos_inf(back.value(line3.point("p2")))

    def test_closed_forms(self, grid5):
        linear = FunctionOracle.from_descriptor(
            {"kind": "linear", "coeffs": [2], "offset": 1})
        assert linear.value(grid5.point("g3")) == 3
        quad = FunctionOracle.from_descriptor(
            {"kind": "quadratic", "coeffs": [1]})
        assert quad.value(grid5.point("g0")) == 4
        step = FunctionOracle.from_descriptor(
            {"kind": "step", "threshold": 0, "low": -1, "high": 1})
        assert step.value(grid5.point("g1")) == -1
        assert step.value(grid5.point("g2")) == 1

    @pytest.mark.parametrize("desc,needle", [
        ({"kind": "mystery"}, "kind"),
        ({"kind": "table", "values": {}}, "values"),
        ({"kind": "linear"}, "coeffs"),
        ({"kind": "step", "axis": -1}, "axis"),
        ({"kind": "table", "values": {"p0": "x"}}, "values"),
    ])
    def test_bad_descriptors_name_the_field(self, desc, needle):
        with pytest.raises(DescriptorError) as err:
            FunctionOracle.from_descriptor(desc)
        assert needle in str(err.value)

    def test_check_proper(self, line3):
        top = FunctionOracle("top", lambda p: POS_INF)
        with pytest.raises(ValueError):
            top.check_proper(line3)
        COORD.check_proper(line3)


def counting_lazy_space():
    """The dyadic interval, counting every enumerated point."""
    base = dyadic_interval_space()
    calls = []

    def point_at(i):
        calls.append(i)
        return base.point_at(i)

    return LazyMetricSpace(point_at, base.dist, name="counted"), base.point_at(2), calls


HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
# every public entry point given a lazy space, no budget and no truncation
LAZY_CALLS = {
    "default_radius_grid": lambda s, x: default_radius_grid(s, x),
    "default_shell_grid": lambda s, x: default_shell_grid(s, x),
    "radius_truncation": lambda s, x: radius_truncation(s),
    "shell_truncation": lambda s, x: shell_truncation(s, (0,)),
    "level_grid": lambda s, x: level_grid(COORD, s),
    "punctured_ball_problem": lambda s, x: punctured_ball_problem(s, COORD),
    "ball_pairs_problem": lambda s, x: ball_pairs_problem(s, COORD),
    "torus_slope_problem": lambda s, x: torus_slope_problem(s, COORD),
    "liminf_at": lambda s, x: liminf_at(COORD, s, x, (HALF,)),
    "limsup_at": lambda s, x: limsup_at(COORD, s, x, (HALF,)),
    "continuity_check": lambda s, x: continuity_check(COORD, s, x, (HALF,)),
    "lip_local_sup": lambda s, x: lip_local_sup(COORD, s, x, HALF),
    "lip_local_sups": lambda s, x: lip_local_sups(COORD, s, x, (HALF,)),
    "lip_modulus": lambda s, x: lip_modulus(COORD, s, x, (HALF,)),
    "torus_sup": lambda s, x: torus_sup(COORD, s, x, 1, QUARTER, HALF),
    "torus_sups": lambda s, x: torus_sups(COORD, s, x, ((1, QUARTER, HALF),)),
    "slope_at": lambda s, x: slope_at(COORD, s, x),
    "slope_at on a grid": lambda s, x: slope_at(COORD, s, x, ((QUARTER, HALF),)),
    "partial_slope": lambda s, x: partial_slope(lambda u, v: u.coords[0], s, x, x),
    "ball_points": lambda s, x: ball_points(s, x, HALF),
    "punctured_ball_points": lambda s, x: punctured_ball_points(s, x, HALF),
    "torus_points": lambda s, x: torus_points(s, x, QUARTER, HALF),
    "ball_pairs": lambda s, x: ball_pairs(s, x, HALF),
    "enumerate_points": lambda s, x: s.enumerate_points(),
    "check_proper": lambda s, x: COORD.check_proper(s),
    "to_descriptor": lambda s, x: COORD.to_descriptor(s),
    "lipschitz_second_witness": lambda s, x: lipschitz_second_witness(
        lambda u, v: u.coords[0], s, s, 1),
    "closure_iterate": lambda s, x: closure_iterate(
        punctured_ball_problem(s, COORD, truncation=(HALF,)), [x]),
    "closure_iterate to a depth": lambda s, x: closure_iterate(
        punctured_ball_problem(s, COORD, truncation=(HALF,)), [x], max_depth=2),
    "witness_select": lambda s, x: witness_select(
        punctured_ball_problem(s, COORD, truncation=(HALF,)), (x, HALF)),
    "check_reduction": lambda s, x: check_reduction(
        ball_pairs_problem(s, COORD, truncation=(HALF,)), [x], (x, HALF)),
    "check_sweep": lambda s, x: list(check_sweep(
        torus_slope_problem(s, COORD, truncation=((1, QUARTER, HALF),)), [x])),
    "brute_force_optimum": lambda s, x: brute_force_optimum(
        punctured_ball_problem(s, COORD, truncation=(HALF,)), (x, HALF)),
}


@pytest.mark.parametrize("name", sorted(LAZY_CALLS))
def test_lazy_spaces_never_enumerate_without_a_budget(name):
    space, x, calls = counting_lazy_space()
    with pytest.raises(ValueError, match="lazy space"):
        LAZY_CALLS[name](space, x)
    assert calls == []
