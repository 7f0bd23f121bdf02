"""Spaces and regions: distances, balls, shells, pairs, descriptors."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdet import (
    BadShell,
    DescriptorError,
    FiniteMetricSpace,
    LazyMetricSpace,
    NonPositiveRadius,
    Point,
    UnknownPoint,
    ball_pairs,
    ball_points,
    punctured_ball_points,
    space_from_descriptor,
    space_to_descriptor,
    torus_points,
)
from sepdet.extreal import FLOAT_TOL, fmt, is_exact
from conftest import coord_space

# unique rational coordinates -> an exact 1-D space
coord_lists = st.lists(
    st.fractions(min_value=-8, max_value=8, max_denominator=8),
    min_size=2, max_size=8, unique=True)


def space_of(coords) -> FiniteMetricSpace:
    return coord_space([(f"q{i}", c) for i, c in enumerate(coords)])


class TestDistances:
    def test_line_values(self, line3):
        p0, p1, p2 = line3.points
        assert line3.distance(p0, p0) == 0
        assert line3.distance(p0, p2) == 3
        assert line3.distance(p0, p1) == 1
        assert line3.distance(p1, p2) == 2

    def test_exact_flag_and_diameter(self, line3):
        assert line3.exact
        assert line3.diameter() == 3
        assert line3.realized_distances() == (1, 2, 3)

    def test_realized_from_center(self, line3):
        assert line3.realized_distances(line3.point("p1")) == (1, 2)

    @given(coord_lists)
    def test_coordinate_distance_matches_abs(self, coords):
        space = space_of(coords)
        for a in space.points:
            for b in space.points:
                assert space.distance(a, b) == abs(a.coords[0] - b.coords[0])

    @given(coord_lists)
    def test_metric_axioms_hold(self, coords):
        space_of(coords).validate(tol=0)

    def test_unknown_point(self, line3):
        with pytest.raises(UnknownPoint):
            line3.distance(line3.point("p0"), Point(id="zz"))
        with pytest.raises(UnknownPoint):
            line3.point("zz")


class TestBalls:
    def test_line_ball(self, line3):
        got = ball_points(line3, line3.point("p0"), Fraction(3, 2))
        assert [p.id for p in got] == ["p0", "p1"]

    def test_ball_beyond_diameter_is_everything(self, line3):
        got = ball_points(line3, line3.point("p1"), line3.diameter() + 1)
        assert got == line3.points

    def test_punctured_ball_drops_center(self, line3):
        got = punctured_ball_points(line3, line3.point("p0"), Fraction(3, 2))
        assert [p.id for p in got] == ["p1"]

    def test_radius_must_be_positive(self, line3):
        with pytest.raises(NonPositiveRadius):
            ball_points(line3, line3.point("p0"), 0)
        with pytest.raises(NonPositiveRadius):
            punctured_ball_points(line3, line3.point("p0"), Fraction(-1))

    @given(coord_lists, st.integers(0, 40), st.integers(0, 40))
    def test_ball_monotone_in_radius(self, coords, a, b):
        space = space_of(coords)
        r1, r2 = Fraction(min(a, b) + 1, 4), Fraction(max(a, b) + 1, 4)
        x = space.points[0]
        small = set(ball_points(space, x, r1))
        assert small <= set(ball_points(space, x, r2))

    @given(coord_lists, st.integers(1, 40))
    def test_ball_is_exhaustive_filter(self, coords, num):
        space = space_of(coords)
        r = Fraction(num, 4)
        x = space.points[-1]
        expect = tuple(u for u in space.points if space.distance(x, u) < r)
        assert ball_points(space, x, r) == expect


class TestShells:
    def test_line_shell(self, line3):
        got = torus_points(line3, line3.point("p0"), Fraction(1, 2), Fraction(7, 2))
        assert [p.id for p in got] == ["p1", "p2"]

    def test_shell_below_min_distance_is_empty(self, line3):
        got = torus_points(line3, line3.point("p0"), Fraction(1, 4), Fraction(1, 2))
        assert got == ()

    def test_shell_validation(self, line3):
        x = line3.point("p0")
        with pytest.raises(BadShell):
            torus_points(line3, x, Fraction(2), Fraction(1))
        with pytest.raises(BadShell):
            torus_points(line3, x, 0, 1)

    @given(coord_lists, st.integers(1, 30), st.integers(1, 30))
    def test_shell_is_ball_minus_closed_ball(self, coords, a, b):
        space = space_of(coords)
        r = Fraction(min(a, b), 4)
        s = Fraction(max(a, b), 4) + 1
        x = space.points[0]
        shell = set(torus_points(space, x, r, s))
        outer = set(ball_points(space, x, s))
        expect = {u for u in outer if space.distance(x, u) > r}
        assert shell == expect
        assert x not in shell


class TestBallPairs:
    def test_singleton_ball_has_no_pairs(self, line3):
        region = ball_pairs(line3, line3.point("p0"), Fraction(1, 2))
        assert region.is_empty and region.arity == 2

    def test_two_point_ball(self, line3):
        region = ball_pairs(line3, line3.point("p0"), Fraction(3, 2))
        ids = {(a.id, b.id) for a, b in region}
        assert ids == {("p0", "p1"), ("p1", "p0")}

    @given(coord_lists, st.integers(1, 40))
    def test_count_is_k_times_k_minus_one(self, coords, num):
        space = space_of(coords)
        r = Fraction(num, 4)
        x = space.points[0]
        k = len(ball_points(space, x, r))
        region = ball_pairs(space, x, r)
        assert len(region) == k * (k - 1)
        assert all(a != b for a, b in region)

    def test_region_membership(self, line3):
        region = ball_pairs(line3, line3.point("p0"), Fraction(3, 2))
        p0, p1 = line3.point("p0"), line3.point("p1")
        assert (p0, p1) in region.members
        assert (p0, p0) not in region.members


class TestValidation:
    def test_symmetry_violation_names_the_pair(self):
        pts = [Point(id="a"), Point(id="b")]
        with pytest.raises(DescriptorError) as err:
            FiniteMetricSpace.from_matrix(pts, [[0, 2], [3, 0]])
        msg = str(err.value)
        assert "'a'" in msg and "'b'" in msg

    def test_nonzero_diagonal(self):
        pts = [Point(id="a"), Point(id="b")]
        with pytest.raises(DescriptorError, match="diagonal"):
            FiniteMetricSpace.from_matrix(pts, [[1, 2], [2, 0]])

    def test_triangle_violation_names_the_triple(self):
        pts = [Point(id="a"), Point(id="b"), Point(id="c")]
        matrix = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(DescriptorError, match="triangle"):
            FiniteMetricSpace.from_matrix(pts, matrix)

    def test_zero_distance_between_distinct_points(self):
        pts = [Point(id="a"), Point(id="b")]
        with pytest.raises(DescriptorError, match="positive"):
            FiniteMetricSpace.from_matrix(pts, [[0, 0], [0, 0]])

    def test_duplicate_ids_rejected(self):
        pts = [Point(id="a"), Point(id="a")]
        with pytest.raises(DescriptorError, match="duplicate"):
            FiniteMetricSpace(pts, [[0, 1], [1, 0]])


# d(a, b) = 2 + 10^-15 against d(a, c) + d(c, b) = 2: off by far less than 1e-12
NEAR_MISS = [[0, Fraction(2000000000000001, 1000000000000000), 1],
             [Fraction(2000000000000001, 1000000000000000), 0, 1],
             [1, 1, 0]]
ABC = [Point(id="a"), Point(id="b"), Point(id="c")]


class TestExactValidation:
    def test_tiny_exact_violation_rejected_by_from_matrix(self):
        with pytest.raises(DescriptorError, match=r"triangle .* \('a', 'b', 'c'\)"):
            FiniteMetricSpace.from_matrix(ABC, NEAR_MISS)

    def test_exact_matrices_ignore_the_float_tolerance(self):
        with pytest.raises(DescriptorError, match="triangle"):
            FiniteMetricSpace.from_matrix(ABC, NEAR_MISS, tol=1)

    def test_tiny_exact_violation_rejected_by_descriptor(self):
        desc = {"kind": "finite", "metric": "matrix", "points": ["a", "b", "c"],
                "matrix": [[fmt(v) for v in row] for row in NEAR_MISS]}
        with pytest.raises(DescriptorError, match="triangle"):
            space_from_descriptor(desc)

    def test_float_slack_still_applies_to_floats(self):
        off = 2.0 + 1e-13
        matrix = [[0.0, off, 1.0], [off, 0.0, 1.0], [1.0, 1.0, 0.0]]
        FiniteMetricSpace.from_matrix(ABC, matrix)
        with pytest.raises(DescriptorError, match="triangle"):
            FiniteMetricSpace.from_matrix(ABC, matrix, tol=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_distance_names_the_field(self, bad):
        matrix = [[0, 1, 2], [1, 0, bad], [2, bad, 0]]
        with pytest.raises(DescriptorError, match=r"matrix\[1\]\[2\] = .*: distances must be finite"):
            FiniteMetricSpace.from_matrix(ABC, matrix)


def reference_validate(space: FiniteMetricSpace, tol) -> None:
    """The axiom checks as a plain triple loop, in the order validate promises."""
    n, m, ids = len(space.points), space.matrix, [p.id for p in space.points]
    for i in range(n):
        if len(m[i]) != n:
            raise DescriptorError(f"matrix row {i} has length {len(m[i])}, expected {n}")
        if m[i][i] != 0:
            raise DescriptorError(f"matrix[{i}][{i}] = {m[i][i]!r}, diagonal must be 0")
    exact = all(is_exact(v) for row in m for v in row)
    if exact:
        tol = 0
    else:
        for i in range(n):
            for j in range(n):
                v = m[i][j]
                if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
                    raise DescriptorError(
                        f"matrix[{i}][{j}] = {fmt(v)}: distances must be finite")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise DescriptorError(
                    f"matrix[{i}][{j}] != matrix[{j}][{i}] "
                    f"({fmt(m[i][j])} vs {fmt(m[j][i])}) for pair ({ids[i]!r}, {ids[j]!r})")
            if m[i][j] <= 0:
                raise DescriptorError(
                    f"matrix[{i}][{j}] = {fmt(m[i][j])}: distinct points "
                    f"{ids[i]!r}, {ids[j]!r} need positive distance")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m[i][j] > m[i][k] + m[k][j] + tol:
                    raise DescriptorError(
                        f"triangle inequality fails at points "
                        f"({ids[i]!r}, {ids[j]!r}, {ids[k]!r})")


def verdict(check, space, tol):
    try:
        check(space, tol)
    except DescriptorError as exc:
        return str(exc)
    return None


BIG = 1 << 63
# entry kinds: how a nonnegative integer weight w becomes a distance
KINDS = {
    "int": lambda w, draw: w,
    "fraction": lambda w, draw: Fraction(w, draw(st.sampled_from([1, 2, 3, 6]))),
    "float": lambda w, draw: w / draw(st.sampled_from([1.0, 3.0, 7.0])),
    "int-float": lambda w, draw: draw(st.sampled_from([int(w), float(w) / 3])),
    "big-int": lambda w, draw: w * BIG + draw(st.integers(0, 3)),
    "big-int-float": lambda w, draw: draw(st.sampled_from([w * BIG + 1, float(w)])),
}
AXIOMS = ("none", "length", "diagonal", "finite", "symmetry", "positivity", "triangle")


@st.composite
def planted_matrices(draw):
    """A distance matrix of one kind, mostly metric, with at most one planted fault."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(sorted(KINDS)))
    to_value = KINDS[kind]
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = draw(st.integers(1, 9))
    for k in range(n):  # shortest paths: a metric on the integer weights
        for i in range(n):
            for j in range(n):
                w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = to_value(w[i][j], draw)
    axiom = draw(st.sampled_from(AXIOMS))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if axiom == "length":
        m[i] = m[i][:-1] if draw(st.booleans()) else m[i] + [1]
    elif axiom == "diagonal":
        m[i][i] = to_value(draw(st.integers(1, 3)), draw)
    elif axiom == "finite":
        m[i][j] = m[j][i] = draw(st.sampled_from([math.nan, math.inf]))
    elif axiom == "symmetry" and i != j:
        m[i][j] = m[i][j] + to_value(draw(st.integers(1, 3)), draw)
    elif axiom == "positivity" and i != j:
        m[i][j] = m[j][i] = to_value(draw(st.integers(-2, 0)), draw)
    elif axiom == "triangle" and i != j:
        m[i][j] = m[j][i] = to_value(9 * n + draw(st.integers(0, 3)), draw)
    tol = draw(st.sampled_from([0, FLOAT_TOL, Fraction(1, 2), 1.5]))
    return m, tol


class TestValidateKernel:
    @settings(max_examples=300)
    @given(planted_matrices())
    def test_kernel_matches_the_reference_loop(self, case):
        matrix, tol = case
        pts = [Point(id=f"v{i}") for i in range(len(matrix))]
        expect = verdict(reference_validate, FiniteMetricSpace(pts, matrix), tol)
        got = verdict(FiniteMetricSpace.validate, FiniteMetricSpace(pts, matrix), tol)
        assert got == expect

    def test_first_triangle_failure_in_loop_order(self):
        # (a, b, c) comes first in i, j, k order; a k-major scan would name (a, d, b)
        pts = [Point(id=c) for c in "abcd"]
        matrix = [[0, 3, 1, 5], [3, 0, 1, 1], [1, 1, 0, 6], [5, 1, 6, 0]]
        with pytest.raises(DescriptorError) as err:
            FiniteMetricSpace.from_matrix(pts, matrix)
        assert str(err.value) == "triangle inequality fails at points ('a', 'b', 'c')"

    def test_ints_beyond_float_precision_keep_python_arithmetic(self):
        # d(a, b) = 2^53 + 1 > d(a, c) + d(c, b) = 2^53, which float64 rounds away
        pts = [Point(id=c) for c in "abcd"]
        top = 1 << 53
        matrix = [[0, top + 1, top - 1, 1.5], [top + 1, 0, 1, top],
                  [top - 1, 1, 0, top], [1.5, top, top, 0]]
        with pytest.raises(DescriptorError) as err:
            FiniteMetricSpace.from_matrix(pts, matrix, tol=0)
        assert str(err.value) == "triangle inequality fails at points ('a', 'b', 'c')"

    @pytest.mark.parametrize("d", [1 << 62, BIG])  # the sum of two overflows int64
    def test_huge_exact_entries_stay_exact(self, d):
        big = [[0, d, d], [d, 0, d], [d, d, 0]]
        FiniteMetricSpace.from_matrix(ABC, big)
        big[0][1] = big[1][0] = 2 * d + 1
        with pytest.raises(DescriptorError, match="triangle"):
            FiniteMetricSpace.from_matrix(ABC, big)

    def test_memory_stays_quadratic(self):
        n = 200
        rng = np.random.default_rng(0)
        w = rng.integers(1, 9, size=(n, n))
        w = np.minimum(w, w.T)
        np.fill_diagonal(w, 0)
        for k in range(n):
            np.minimum(w, w[:, k:k + 1] + w[k:k + 1, :], out=w)
        space = FiniteMetricSpace([Point(id=f"p{i}") for i in range(n)], w.tolist())
        tracemalloc.start()
        try:
            space.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # a full n^3 cube would take 8 MB even as bools


class TestDescriptors:
    def test_euclidean_roundtrip(self, line3):
        desc = space_to_descriptor(line3)
        back = space_from_descriptor(desc)
        assert [p.id for p in back.points] == ["p0", "p1", "p2"]
        assert back.matrix == line3.matrix

    def test_matrix_roundtrip(self):
        pts = [Point(id="a"), Point(id="b"), Point(id="c")]
        matrix = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        space = FiniteMetricSpace.from_matrix(pts, matrix)
        back = space_from_descriptor(space_to_descriptor(space))
        assert back.matrix == space.matrix

    def test_rational_entries_survive(self):
        desc = {
            "kind": "finite", "metric": "matrix", "points": ["a", "b"],
            "matrix": [["0", "1/3"], ["1/3", "0"]],
        }
        space = space_from_descriptor(desc)
        assert space.matrix[0][1] == Fraction(1, 3)

    @pytest.mark.parametrize("mangle,field", [
        (lambda d: d.update(kind="infinite"), "kind"),
        (lambda d: d.update(metric="manhattan"), "metric"),
        (lambda d: d.update(points=[]), "points"),
        (lambda d: d["matrix"][0].pop(), "matrix[0]"),
        (lambda d: d["matrix"][0].__setitem__(1, "x"), "matrix[0]"),
    ])
    def test_bad_descriptor_names_field(self, mangle, field):
        desc = {
            "kind": "finite", "metric": "matrix", "points": ["a", "b"],
            "matrix": [[0, 1], [1, 0]],
        }
        mangle(desc)
        with pytest.raises(DescriptorError) as err:
            space_from_descriptor(desc)
        assert field.split("[")[0] in str(err.value)

    def test_euclidean_descriptor_requires_coords(self):
        desc = {"kind": "finite", "metric": "euclidean", "points": ["a", "b"]}
        with pytest.raises(DescriptorError, match="coords"):
            space_from_descriptor(desc)


class TestLazySpace:
    def test_budget_required(self):
        lazy = LazyMetricSpace(
            point_at=lambda i: Point(id=f"n{i}", coords=(Fraction(i),)),
            dist=lambda a, b: abs(a.coords[0] - b.coords[0]))
        with pytest.raises(ValueError):
            list(lazy.iter_points())
        got = lazy.enumerate_points(4)
        assert [p.id for p in got] == ["n0", "n1", "n2", "n3"]

    def test_regions_take_budgets(self):
        lazy = LazyMetricSpace(
            point_at=lambda i: Point(id=f"n{i:03d}", coords=(Fraction(i),)),
            dist=lambda a, b: abs(a.coords[0] - b.coords[0]))
        x = lazy.point_at(0)
        got = ball_points(lazy, x, Fraction(5, 2), budget=10)
        assert [p.id for p in got] == ["n000", "n001", "n002"]
