"""Optimum tables, shared rankings and sorted-row regions against the scan.

Every problem family reads exact optima from per-center tables when eps = 0
and cap = 1 and in check sweeps; removing the table (optima=None) leaves the
region scan.  Both routes, and the brute-force oracle, must agree on
witnesses, reported values, verdicts, sizes, tolerances and raised errors.
Sweeps decide table checks by code equality, and closure rounds read each
distinct witness key once; counted tallies, per-check sweeps and closures
must match the scan's.
The pair and shell formulas read their family's table of the center, one
read for every parameter (lip_local_sups, torus_sups), and the limits read
f's rankings; a budget covering the whole space leaves them the scan, and
both must give the same value of the same type, or raise the same error, as
must the one-parameter forms.
"""

import dataclasses
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdet import (
    EmptyRegion,
    FiniteMetricSpace,
    FunctionOracle,
    InvariantViolation,
    Point,
    SepdetError,
    ball_pairs_problem,
    ball_points,
    brute_force_optimum,
    check_reduction,
    check_sweep,
    closure_iterate,
    continuity_check,
    intersect_problems,
    level_grid,
    liminf_at,
    limsup_at,
    lip_local_sup,
    lip_local_sups,
    lip_modulus,
    midpoint_grid,
    partial_slope,
    punctured_ball_points,
    punctured_ball_problem,
    random_finite_metric,
    shell_truncation,
    slope_at,
    torus_points,
    torus_slope_problem,
    torus_sup,
    torus_sups,
    witness_select,
)
from sepdet.extreal import NEG_INF, POS_INF
from sepdet.functionals import _rankings
from sepdet.scheme import rank_scores, sweep_tally

# Function values; "mixed" holds equal scores of different types (2, 2.0,
# Fraction(2)), which the tables must leave to the scan.  Finite "fraction"
# values give every center a table.
PALETTES = {
    "fraction": (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 2), Fraction(7, 4)),
    "exact": (0, 1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(7, 4)),
    "mixed": (0, 2, Fraction(2), 2.0, Fraction(1, 2), 0.5, -1),
    "float": (0.0, 0.25, 1.5, -2.0, 3.0),
}
SPACES = ("int", "fraction", "float-2d")


def make_space(kind: str, n: int, seed: int, shuffle_ids: bool) -> FiniteMetricSpace:
    method, dim = {"int": ("shortest-path", 1), "fraction": ("euclidean", 1),
                   "float-2d": ("euclidean", 2)}[kind]
    space = random_finite_metric(n, seed, method, dim=dim)
    if not shuffle_ids:
        return space
    ids = [p.id for p in space.points]
    Random(seed).shuffle(ids)  # ids no longer follow the enumeration order
    points = [Point(pid, p.coords) for pid, p in zip(ids, space.points)]
    return FiniteMetricSpace(points, space.matrix, metric_name=space.metric_name)


def make_function(space, seed: int, palette: str, inf: float) -> FunctionOracle:
    rng = Random(seed)
    values = {p.id: rng.choice(PALETTES[palette]) for p in space.points}
    for p in space.points[1:]:
        if rng.random() < inf:
            values[p.id] = rng.choice((POS_INF, NEG_INF))
    return FunctionOracle.from_table(values)


def outcome(run):
    """A result, or the type and message of the package error it raised."""
    try:
        return "ok", run()
    except SepdetError as exc:
        return type(exc).__name__, str(exc)


def problems(space, f, mode):
    shells = shell_truncation(space, level_grid(f, space, "full"))
    return [punctured_ball_problem(space, f, mode), ball_pairs_problem(space, f, mode),
            torus_slope_problem(space, f, mode, truncation=shells)]


instances = st.fixed_dictionaries({
    "kind": st.sampled_from(SPACES),
    "n": st.integers(2, 6),
    "seed": st.integers(0, 10**6),
    "shuffle_ids": st.booleans(),
    "palette": st.sampled_from(sorted(PALETTES)),
    "inf": st.sampled_from((0.0, 0.0, 0.3)),
    "mode": st.sampled_from(("sup", "inf")),
})


@given(instances)
def test_tables_agree_with_the_scan_and_the_oracle(case):
    space = make_space(case["kind"], case["n"], case["seed"], case["shuffle_ids"])
    f = make_function(space, case["seed"], case["palette"], case["inf"])
    if not any(f.is_finite_at(p) for p in space.points):
        return
    rng = Random(case["seed"])
    for prob in problems(space, f, case["mode"]):
        if case["palette"] == "fraction" and not case["inf"]:
            assert all(prob.optima(x) is not None for x in space.points)
        scan = dataclasses.replace(prob, optima=None)
        seed = [rng.choice(space.points)]
        for eps in (0, Fraction(1, 2)):
            for cap in (1, 3):
                for strict in (False, True):
                    def closure(problem):
                        return closure_iterate(problem, seed, eps=eps, cap=cap,
                                               strict_empty=strict).to_json()
                    assert outcome(lambda: closure(prob)) == outcome(lambda: closure(scan))
        got = outcome(lambda: closure_iterate(prob, seed).union)
        some = tuple(rng.sample(space.points, rng.randint(1, len(space))))
        for Y in ((got[1],) if got[0] == "ok" else ()) + (some,):
            check_both_routes(prob, scan, Y, space)


def check_both_routes(prob, scan, Y, space):
    for tol in (None, 0, Fraction(1, 2)):
        fast = outcome(lambda: [c.to_json() for c in check_sweep(prob, Y, tol)])
        slow = outcome(lambda: [check_reduction(scan, Y, (x, p), tol).to_json()
                                for x in Y for p in prob.params.truncation])
        assert fast == slow
    for x in Y:
        table = prob.optima(x)
        if table is None:
            continue
        rbest, _ = table.read(np.array([p in Y for p in space.points]))
        for i, p in enumerate(prob.params.truncation):
            z = (x, p)
            if table.best[i] < 0:
                assert outcome(lambda: brute_force_optimum(prob, z))[0] == "EmptyRegion"
                continue
            witness = table.witness(i)
            assert (witness,) == witness_select(scan, z)
            best = brute_force_optimum(prob, z)
            assert prob.score(z, witness) == best == table.value(i, table.best[i])
            if rbest[i] >= 0:
                assert table.value(i, rbest[i]) == brute_force_optimum(prob, z, restrict=Y)


def reference_shell(space, x, r, s, budget=None):
    return tuple(u for u in space.iter_points(budget) if r < space.distance(x, u) < s)


@given(st.sampled_from(SPACES), st.integers(1, 7), st.integers(0, 10**6), st.booleans(),
       st.sampled_from((None, 0, 2, 5)))
def test_sorted_row_regions_match_a_filter(kind, n, seed, shuffle_ids, budget):
    space = make_space(kind, n, seed, shuffle_ids)
    grid = sorted(set(space.realized_distances()) | {Fraction(1, 3), 100})
    for x in space.points:
        for r in grid:
            pts = space.iter_points(budget)
            assert ball_points(space, x, r, budget) == tuple(
                u for u in pts if space.distance(x, u) < r)
            pts = space.iter_points(budget)
            assert punctured_ball_points(space, x, r, budget) == tuple(
                u for u in pts if u != x and space.distance(x, u) < r)
            for s in grid:
                if r < s:
                    assert torus_points(space, x, r, s, budget) == \
                        reference_shell(space, x, r, s, budget)


def test_duplicate_points_stay_in_the_punctured_ball():
    # an unvalidated space where two distinct points sit at distance 0
    a, b, c = Point("a", (0,)), Point("b", (0,)), Point("c", (1,))
    space = FiniteMetricSpace.from_coords([a, b, c])
    assert space.distance(a, b) == 0
    assert punctured_ball_points(space, b, Fraction(1, 2)) == (a,)
    assert torus_points(space, a, Fraction(1, 2), 2) == (c,)
    # no shell reaches a point at distance 0, whose descent quotient would divide by 0
    f = FunctionOracle.from_table({"a": 0, "b": 3, "c": -1})
    scan = len(space)  # a budget covering the space leaves the formulas the scan
    shells = ((Fraction(1, 2), 2), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), 1))
    for x in space.points:
        for Y in (None, [x, c], space.points):
            for t in (-1, 0, 3, POS_INF):
                for r, s in shells:
                    assert typed(lambda: torus_sup(f, space, x, t, r, s, Y)) == \
                        typed(lambda: torus_sup(f, space, x, t, r, s, Y, budget=scan))
            for grid in (None, shells):
                assert typed(lambda: slope_at(f, space, x, grid, Y)) == \
                    typed(lambda: slope_at(f, space, x, grid, Y, budget=scan))
    trunc = shell_truncation(space, level_grid(f, space, "full"))
    prob = torus_slope_problem(space, f, truncation=trunc)
    assert all(prob.optima(x) is not None for x in space.points)
    by_scan = torus_slope_problem(space, f, truncation=trunc, budget=scan)
    for Y in ([a, c], [b, c], space.points):
        assert [chk.to_json() for chk in check_sweep(prob, Y)] == \
            [chk.to_json() for chk in check_sweep(by_scan, Y)]


def typed(run):
    """A result as its type and repr, or the type and message of what it raised."""
    try:
        v = run()
    except (SepdetError, ValueError) as exc:  # ValueError: an empty radius grid
        return type(exc).__name__, str(exc)
    return "ok", type(v).__name__, repr(v)


@given(st.fixed_dictionaries({
    "kind": st.sampled_from(SPACES),
    "n": st.integers(1, 7),
    "seed": st.integers(0, 10**6),
    "shuffle_ids": st.booleans(),
    "palette": st.sampled_from(sorted(PALETTES)),
    "inf": st.sampled_from((0.0, 0.3)),
}))
def test_descent_rows_agree_with_the_shell_scan(case):
    space = make_space(case["kind"], case["n"], case["seed"], case["shuffle_ids"])
    f = make_function(space, case["seed"], case["palette"], case["inf"])
    scan = len(space)  # a budget covering the space leaves the formulas the scan
    rng = Random(case["seed"])
    dists = space.realized_distances()
    # radii at realized distances, between them, below and beyond them all
    radii = sorted(set(dists) | set(midpoint_grid(dists)) | {Fraction(1, 3), 100})
    shells = [(r, s) for i, r in enumerate(radii) for s in radii[i + 1:]]
    bad = [(0, 1), (2, 1), (Fraction(1, 2), Fraction(1, 2)), (-1, 1)]
    least = dists[0] if dists else 1
    empty = [(least / 3, least / 2)]  # holds no point around any center
    levels = sorted({f.value(p) for p in space.points}, key=repr)[:3] + [Fraction(2), POS_INF]
    for x in space.points:
        others = [p for p in space.points if p != x]
        inside = [x] + rng.sample(others, rng.randint(0, len(others)))
        for Y in (None, inside, others):
            picked = rng.sample(shells, min(8, len(shells))) + empty
            for t in levels:
                for r, s in picked + [rng.choice(bad)]:
                    assert typed(lambda: torus_sup(f, space, x, t, r, s, Y)) == \
                        typed(lambda: torus_sup(f, space, x, t, r, s, Y, budget=scan))
            grids = [None, tuple(picked), tuple(empty),
                     tuple(picked[:3] + bad[:1] + picked[3:])]
            for grid in grids:
                assert typed(lambda: slope_at(f, space, x, grid, Y)) == \
                    typed(lambda: slope_at(f, space, x, grid, Y, budget=scan))

                def f2(u, v):
                    return f.value(u)

                assert typed(lambda: partial_slope(f2, space, x, x, grid, Y)) == \
                    typed(lambda: partial_slope(f2, space, x, x, grid, Y, budget=scan))


def each_empty_as_none(run):
    """A one-parameter form's value, None where it raises EmptyRegion."""
    try:
        return run()
    except EmptyRegion:
        return None


@given(st.fixed_dictionaries({
    "kind": st.sampled_from(SPACES),
    "n": st.integers(1, 7),
    "seed": st.integers(0, 10**6),
    "shuffle_ids": st.booleans(),
    "palette": st.sampled_from(sorted(PALETTES)),
    "inf": st.sampled_from((0.0, 0.3)),
}))
def test_per_center_reads_agree_with_the_one_parameter_forms_and_the_scan(case):
    space = make_space(case["kind"], case["n"], case["seed"], case["shuffle_ids"])
    f = make_function(space, case["seed"], case["palette"], case["inf"])
    scan = len(space)  # a budget covering the space leaves the formulas the scan
    rng = Random(case["seed"])
    dists = space.realized_distances()
    radii = sorted(set(dists) | set(midpoint_grid(dists)) | {Fraction(1, 3), 100})
    levels = sorted({f.value(p) for p in space.points}, key=repr)[:3] + [Fraction(2), POS_INF]
    for x in space.points:
        others = [p for p in space.points if p != x]
        for Y in (None, [x] + rng.sample(others, rng.randint(0, len(others))), others):
            picked = rng.sample(radii, min(5, len(radii)))
            if rng.random() < 0.2:
                picked.insert(rng.randint(0, len(picked)), rng.choice((0, Fraction(-1, 2))))
            got = typed(lambda: lip_local_sups(f, space, x, picked, Y))
            assert got == typed(lambda: lip_local_sups(f, space, x, picked, Y, budget=scan))
            assert got == typed(lambda: [lip_local_sup(f, space, x, r, Y) for r in picked])
            params = [(rng.choice(levels), r, s) for i, r in enumerate(radii)
                      for s in radii[i + 1:] if rng.random() < 0.5]
            if rng.random() < 0.2:
                params.insert(rng.randint(0, len(params)), (0, Fraction(1, 2), Fraction(1, 2)))
            got = typed(lambda: torus_sups(f, space, x, params, Y))
            assert got == typed(lambda: torus_sups(f, space, x, params, Y, budget=scan))
            assert not params or got == typed(lambda: [each_empty_as_none(lambda: torus_sup(f, space, x, *p, Y))
                                         for p in params])


@pytest.mark.parametrize("ids", [("a", "b", "c"), ("a", "c", "b")])
def test_equal_quotients_of_two_types_keep_the_first_in_enumeration_order(ids):
    # from a: b at distance 1 gives (2 - 0) / 1 = 2, c at 2 gives (2 + 2.0) / 2 = 2.0
    values = {"a": 2, "b": 0, "c": -2.0}
    matrix = {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 1}
    points = [Point(pid) for pid in ids]
    space = FiniteMetricSpace.from_matrix(points, [
        [0 if p == q else matrix.get((p.id, q.id), matrix.get((q.id, p.id))) for q in points]
        for p in points])
    f = FunctionOracle.from_table({pid: values[pid] for pid in ids})
    a = space.point("a")
    first = int if ids[1] == "b" else float  # the scan keeps the first maximal member
    assert type(torus_sup(f, space, a, 2, Fraction(1, 2), 3)) is first
    assert type(slope_at(f, space, a, ((Fraction(1, 2), 3),))) is first
    # shells sharing s = 3: the inner supremum keeps the first maximal shell in grid order,
    # and the narrow shell holds c alone
    wide, narrow = (Fraction(1, 2), 3), (Fraction(3, 2), 3)
    assert type(slope_at(f, space, a, (narrow, wide))) is float
    assert type(slope_at(f, space, a, (wide, narrow))) is first


def oracle_or_none(prob, x, r, Y):
    """The brute-force optimum of B(x, r) (within Y), None when no tuple qualifies."""
    try:
        return brute_force_optimum(prob, (x, r), restrict=Y)
    except EmptyRegion:
        return None


@pytest.mark.parametrize("palette", sorted(PALETTES))
@pytest.mark.parametrize("kind", SPACES)
@settings(max_examples=10)
@given(st.fixed_dictionaries({
    "n": st.integers(1, 7),
    "seed": st.integers(0, 10**6),
    "shuffle_ids": st.booleans(),
    "inf": st.sampled_from((0.0, 0.3)),
}))
def test_pair_and_limit_reads_agree_with_the_scan_and_the_oracle(kind, palette, case):
    space = make_space(kind, case["n"], case["seed"], case["shuffle_ids"])
    f = make_function(space, case["seed"], palette, case["inf"])
    if palette == "fraction" and not case["inf"]:  # the reads are taken
        assert _rankings(f, space).pairs("sup") is not None
        assert _rankings(f, space).points("sup") is not None
    scan = len(space)  # a budget covering the space leaves the formulas the scan
    rng = Random(case["seed"])
    dists = space.realized_distances()
    # radii at realized distances, between them, below and beyond them all
    radii = sorted(set(dists) | set(midpoint_grid(dists)) | {Fraction(1, 3), 100})
    bad = [0, -1, Fraction(-1, 2)]
    pairs = ball_pairs_problem(space, f, "sup", truncation=radii)
    lows, highs = (punctured_ball_problem(space, f, mode, truncation=radii)
                   for mode in ("inf", "sup"))
    for x in space.points:
        others = [p for p in space.points if p != x]
        inside = [x] + rng.sample(others, rng.randint(0, len(others)))
        picked = rng.sample(radii, min(4, len(radii)))
        grids = [tuple(radii), tuple(picked), (), (rng.choice(bad),) + tuple(picked),
                 tuple(picked[:2]) + (rng.choice(bad),) + tuple(picked[2:])]
        for Y in (None, inside, others):
            for r in radii + bad:
                got = typed(lambda: lip_local_sup(f, space, x, r, Y))
                assert got == typed(lambda: lip_local_sup(f, space, x, r, Y, budget=scan))
            for grid in grids:
                for formula in (lip_modulus, liminf_at, limsup_at, continuity_check):
                    assert typed(lambda: formula(f, space, x, grid, Y)) == \
                        typed(lambda: formula(f, space, x, grid, Y, budget=scan))
            if Y is others:
                continue  # the formulas need the center in Y; the oracle does not
            sups = [oracle_or_none(pairs, x, r, Y) for r in radii]
            for r, best in zip(radii, sups):
                got = lip_local_sup(f, space, x, r, Y)
                assert (got.pairs > 0) == (best is not None)
                assert got.value == (best or 0)
            lip = [best for best in sups if best is not None]
            assert outcome(lambda: lip_modulus(f, space, x, radii, Y)) == (
                ("ok", min(lip)) if lip else ("IsolatedPoint", no_pair(x)))
            low = [v for v in (oracle_or_none(lows, x, r, Y) for r in radii) if v is not None]
            high = [v for v in (oracle_or_none(highs, x, r, Y) for r in radii) if v is not None]
            assert outcome(lambda: liminf_at(f, space, x, radii, Y)) == (
                ("ok", max(low)) if low else ("IsolatedPoint", isolated(x)))
            assert outcome(lambda: limsup_at(f, space, x, radii, Y)) == (
                ("ok", min(high)) if high else ("IsolatedPoint", isolated(x)))


def isolated(x):
    return f"every punctured ball at {x.id!r} along the grid is empty"


def no_pair(x):
    return f"no ball at {x.id!r} along the grid holds a pair"


@pytest.mark.parametrize("zero", [Fraction(3, 2), 0.5])
def test_a_ball_of_zero_quotients_gives_int_zero(zero, line3):
    f = FunctionOracle.from_table({p.id: zero for p in line3.points})
    x = line3.point("p0")
    for budget in (None, len(line3)):
        got = lip_local_sup(f, line3, x, 4, budget=budget)
        assert got == (0, 3) and type(got.value) is int
        assert type(lip_modulus(f, line3, x, (Fraction(3, 2), 4), budget=budget)) is int


@pytest.mark.parametrize("ids", [("a", "b", "c"), ("a", "c", "b")])
def test_equal_pair_quotients_and_values_of_two_types_keep_the_first(ids):
    # unit distances: |0 - 2| = 2 and |0 - 2.0| = 2.0 are the largest quotients
    # at a, and f is 2 at b and 2.0 at c
    values = {"a": 0, "b": 2, "c": 2.0}
    points = [Point(pid) for pid in ids]
    space = FiniteMetricSpace.from_matrix(
        points, [[0 if p == q else 1 for q in points] for p in points])
    f = FunctionOracle.from_table({pid: values[pid] for pid in ids})
    a = space.point("a")
    first = int if ids[1] == "b" else float  # the scan keeps the first in enumeration order
    assert type(lip_local_sup(f, space, a, 2).value) is first
    assert type(lip_modulus(f, space, a, (2,))) is first
    assert type(liminf_at(f, space, a, (2,))) is first
    assert type(limsup_at(f, space, a, (2,))) is first


def routes_agree(prob, space, Y):
    """Closures from every seed and check sweeps on Y, with and without the table."""
    scan = dataclasses.replace(prob, optima=None)
    for x in space.points:
        assert outcome(lambda: closure_iterate(prob, [x]).to_json()) == \
            outcome(lambda: closure_iterate(scan, [x]).to_json())
    for tol in (None, 0):
        assert outcome(lambda: [c.to_json() for c in check_sweep(prob, Y, tol)]) == \
            outcome(lambda: [check_reduction(scan, Y, (x, p), tol).to_json()
                             for x in Y for p in prob.params.truncation])


@pytest.mark.parametrize("mode", ["sup", "inf"])
def test_nan_values_are_left_to_the_scan(mode):
    assert rank_scores([1, float("nan"), 2], "sup") is None
    space = random_finite_metric(5, 3, "euclidean", dim=1)
    values = dict(zip((p.id for p in space.points), (1, 3, float("nan"), 0, 2)))
    f = FunctionOracle("nan", lambda p: values[p.id])  # from_table rejects NaN
    for prob in (punctured_ball_problem(space, f, mode), ball_pairs_problem(space, f, mode)):
        routes_agree(prob, space, space.points[:3])


@pytest.mark.parametrize("far", [-1.0, NEG_INF])
def test_unrankable_scores_outside_every_shell_leave_the_center_to_the_scan(far):
    # on 0 < 1 < 2 < 3, the shells from a reach b only; c scores (2 - 0) / 2 = 1,
    # d scores (2 - far) / 3: the float 1.0 ties c's int 1, and +inf is out of
    # range in inf mode, so a's descent row is declined as a whole
    points = [Point(pid, (Fraction(k),)) for k, pid in enumerate("abcd")]
    space = FiniteMetricSpace.from_coords(points)
    f = FunctionOracle.from_table({"a": 2, "b": 1, "c": 0, "d": far})
    shells = ((2, Fraction(1, 2), Fraction(3, 2)), (1, Fraction(1, 2), Fraction(3, 2)))
    for mode in ("sup", "inf"):
        prob = torus_slope_problem(space, f, mode, truncation=shells)
        routes_agree(prob, space, points[:3])


def tallied(tally):
    passed, skipped, failures, drawn = tally
    return passed, skipped, [c.to_json() for c in failures], drawn and drawn.to_json()


def counted(checks, drawn):
    """What sweep_tally reports, counted from check_sweep's checks."""
    checks = list(checks)
    at = [c.to_json() for c in checks if c.x is drawn[0] and c.param is drawn[1]]
    return (sum(c.verdict == "pass" for c in checks),
            sum(c.verdict == "skipped-empty-region" for c in checks),
            [c.to_json() for c in checks if c.verdict == "fail"], at[0])


def one_short(union, seed):
    """The closure without its last-added point, unless that is the seed."""
    return union[:-1] if union[-1] not in seed else union


@pytest.mark.parametrize("palette", sorted(PALETTES))
@pytest.mark.parametrize("kind", SPACES)
def test_sweep_tallies_agree_with_check_sweep_and_the_scan(kind, palette):
    failures = 0
    for seed in range(3):
        space = make_space(kind, 3 + 2 * seed, seed, shuffle_ids=seed == 1)
        f = make_function(space, seed, palette, 0.3 if seed == 2 else 0.0)
        if not any(f.is_finite_at(p) for p in space.points):
            continue
        rng = Random(seed)
        for mode in ("sup", "inf"):
            for prob in problems(space, f, mode):
                scan = dataclasses.replace(prob, optima=None)
                start = [rng.choice(space.points)]
                closed = outcome(lambda: closure_iterate(prob, start).union)
                some = tuple(rng.sample(space.points, rng.randint(1, len(space))))
                Ys = (closed[1], one_short(closed[1], start)) if closed[0] == "ok" else ()
                for Y in Ys + (some,):
                    drawn = (rng.choice(Y), rng.choice(prob.params.truncation))
                    for tol in (None, 0, Fraction(1, 3)):
                        got = outcome(lambda: tallied(sweep_tally(prob, Y, tol, drawn)))
                        assert got == outcome(lambda: tallied(sweep_tally(scan, Y, tol, drawn)))
                        assert got == outcome(lambda: counted(check_sweep(prob, Y, tol), drawn))
                        assert got == outcome(lambda: counted(check_sweep(scan, Y, tol), drawn))
                        failures += got[0] == "ok" and len(got[1][2]) > 0
    assert failures > 0  # the truncated closures make some checks fail


def test_a_restricted_key_above_the_full_key_raises():
    space = make_space("int", 5, 1, False)
    f = make_function(space, 1, "fraction", 0.0)
    prob = ball_pairs_problem(space, f, "sup")
    x = space.points[0]
    table = prob.optima(x)
    read = table.read

    def corrupted(mask=None):
        best, size = read(mask)
        return np.where(table.best >= 0, table.best + 1, best), size

    table.read = corrupted
    with pytest.raises(InvariantViolation, match="restricted key"):
        sweep_tally(prob, space.points)
    with pytest.raises(InvariantViolation, match="restricted key"):
        list(check_sweep(prob, [x]))


def closed(problems, x, strict):
    """closure_iterate of one problem, intersect_problems of several, from x."""
    if len(problems) == 1:
        return closure_iterate(problems[0], [x], strict_empty=strict).to_json()
    return intersect_problems(problems, [x], strict_empty=strict).to_json()


@pytest.mark.parametrize("palette", sorted(PALETTES))
@pytest.mark.parametrize("kind", SPACES)
def test_closures_agree_with_the_scan_key_by_key(kind, palette):
    raised = 0
    for seed in range(3):
        space = make_space(kind, 3 + 2 * seed, seed, shuffle_ids=seed == 1)
        f = make_function(space, seed, palette, 0.3 if seed == 2 else 0.0)
        if not any(f.is_finite_at(p) for p in space.points):
            continue
        for mode in ("sup", "inf"):
            probs = problems(space, f, mode)
            scans = [dataclasses.replace(prob, optima=None) for prob in probs]
            for k in (0, 1, 2, None):
                fast, slow = (probs, scans) if k is None else ([probs[k]], [scans[k]])
                for x in space.points:
                    for strict in (False, True):
                        got = outcome(lambda: closed(fast, x, strict))
                        assert got == outcome(lambda: closed(slow, x, strict))
                        raised += got[0] == EmptyRegion.__name__
    assert raised > 0  # strict closures meet empty regions
