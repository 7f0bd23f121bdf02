"""Optimum tables, shared rankings and sorted-row regions against the scan.

Every problem family reads its closures' selections (exact or with slack:
eps > 0, cap > 1) and its check sweeps from per-center tables; removing the
table (optima=None) leaves the region scan.  Both routes, and the
brute-force oracle, must agree on witnesses, reported values, verdicts,
sizes, tolerances and raised errors.  Sweeps decide table checks by code
equality, and exact closure rounds read each distinct witness key once;
counted tallies, per-check sweeps and closures must match the scan's, and
slack closures on tables must make no region or score call.
The pair and shell formulas read their family's table of the center, one
read for every parameter (lip_local_sups, torus_sups), and the limits read
the punctured-ball [inf] and [sup] tables; a budget covering the whole space leaves them the scan, and
both must give the same value of the same type, or raise the same error, as
must the one-parameter forms.  The limits, the modulus and the slope fold the
regions' codes and build one value: the fold of the brute-force oracle's
optima must give it, and a read off a table builds no other.
"""

import dataclasses
import itertools
import json
from collections import Counter
from fractions import Fraction
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepdet import (
    EmptyRegion,
    FiniteMetricSpace,
    FunctionOracle,
    InvariantViolation,
    IsolatedPoint,
    Point,
    SepdetError,
    ball_pairs_problem,
    ball_points,
    brute_force_optimum,
    check_reduction,
    check_sweep,
    closure_iterate,
    continuity_check,
    default_shell_grid,
    family_for,
    intersect_problems,
    is_member,
    level_grid,
    liminf_at,
    limsup_at,
    lip_local_sup,
    lip_local_sups,
    lip_modulus,
    midpoint_grid,
    partial_slope,
    product_closure,
    punctured_ball_points,
    punctured_ball_problem,
    radius_truncation,
    random_finite_metric,
    shell_truncation,
    slice_oracle,
    slope_at,
    torus_points,
    torus_slope_problem,
    torus_sup,
    torus_sups,
    witness_select,
)
from sepdet.extreal import NEG_INF, POS_INF, close
import sepdet.functionals as functionals
from sepdet.functionals import _rankings
from sepdet.scheme import Optima, Radii, ShellGrid, Shells, agree, rank_scores, sweep_tally

# Function values; "mixed" holds equal scores of different types (2, 2.0,
# Fraction(2)): the tables leave a float tie to the scan and give an int and
# a Fraction one code.  Finite "fraction" values give every center a table.
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
# codes an int and a Fraction share, with ids out of enumeration order: shells
# (at 2 and Fraction(2)), pair quotients (2 and Fraction(2); two +inf values'
# int 0 beside Fraction(0))
@example({"kind": "int", "n": 4, "seed": 39, "shuffle_ids": True, "palette": "mixed",
          "inf": 0.0, "mode": "sup"})
@example({"kind": "int", "n": 4, "seed": 3, "shuffle_ids": True, "palette": "exact",
          "inf": 0.0, "mode": "sup"})
@example({"kind": "int", "n": 4, "seed": 8, "shuffle_ids": True, "palette": "fraction",
          "inf": 0.3, "mode": "sup"})
def test_tables_agree_with_the_scan_and_the_oracle(case):
    space = make_space(case["kind"], case["n"], case["seed"], case["shuffle_ids"])
    f = make_function(space, case["seed"], case["palette"], case["inf"])
    if not any(f.is_finite_at(p) for p in space.points):
        return
    rng = Random(case["seed"])
    for prob in problems(space, f, case["mode"]):
        if case["palette"] == "fraction" and not case["inf"]:
            assert all(table is not None for table in prob.optima(space.points))
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
    for x, table in zip(Y, prob.optima(Y)):
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
    assert all(table is not None for table in prob.optima(space.points))
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
# descent codes an int and a Fraction share
@example({"kind": "int", "n": 4, "seed": 39, "shuffle_ids": True, "palette": "mixed", "inf": 0.0})
@example({"kind": "int", "n": 5, "seed": 4, "shuffle_ids": True, "palette": "mixed", "inf": 0.3})
def test_descent_rows_agree_with_the_shell_scan(case):
    space = make_space(case["kind"], case["n"], case["seed"], case["shuffle_ids"])
    f = make_function(space, case["seed"], case["palette"], case["inf"])
    scan = len(space)  # a budget covering the space leaves the formulas the scan
    rng = Random(case["seed"])
    dists = space.realized_distances()
    # radii at realized distances, between them, below and beyond them all
    radii = sorted(set(dists) | set(midpoint_grid(dists)) | {Fraction(1, 3), 100})
    shells = [(r, s) for i, r in enumerate(radii) for s in radii[i + 1:]]
    bad = [(0, 1), (2, 1), (Fraction(1, 2), Fraction(1, 2)), (-1, 1), ("a", 1), (1, None)]
    malformed = [(0, 1, 2), (1,), "rs", 1]  # no (r, s) pair
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
                     tuple(picked[:3] + bad[:1] + picked[3:]),
                     tuple(picked[:2] + [rng.choice(malformed)] + picked[2:])]
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
# a level 3 of one read and Fraction(3) of another make equal truncations whose
# quotients differ in type: a table memo keyed by the truncation's value fails here
@example({"kind": "int", "n": 4, "seed": 0, "shuffle_ids": False, "palette": "mixed",
          "inf": 0.0})
@example({"kind": "int", "n": 4, "seed": 39, "shuffle_ids": True, "palette": "mixed",
          "inf": 0.0})
@example({"kind": "int", "n": 4, "seed": 3, "shuffle_ids": True, "palette": "exact",
          "inf": 0.0})
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
                picked.insert(rng.randint(0, len(picked)),
                              rng.choice((0, Fraction(-1, 2), "a", None)))
            got = typed(lambda: lip_local_sups(f, space, x, picked, Y))
            assert got == typed(lambda: lip_local_sups(f, space, x, picked, Y, budget=scan))
            assert got == typed(lambda: [lip_local_sup(f, space, x, r, Y) for r in picked])
            params = [(rng.choice(levels), r, s) for i, r in enumerate(radii)
                      for s in radii[i + 1:] if rng.random() < 0.5]
            if rng.random() < 0.2:
                params.insert(rng.randint(0, len(params)), rng.choice((
                    (0, Fraction(1, 2), Fraction(1, 2)), (0, "a", 1), ("t", Fraction(1, 2), 1),
                    (Fraction(1, 2), 1), [0, 1, 2, 3])))
            got = typed(lambda: torus_sups(f, space, x, params, Y))
            assert got == typed(lambda: torus_sups(f, space, x, params, Y, budget=scan))
            if params and all(len(p) == 3 for p in params):  # a triple each, as torus_sup takes
                assert got == typed(lambda: [each_empty_as_none(
                    lambda: torus_sup(f, space, x, *p, Y)) for p in params])


def test_equal_levels_of_two_types_each_read_their_own_quotients():
    # ((3, r, s),) == ((Fraction(3), r, s),), but from a the shell's best quotient
    # is (3 - 1) / 1, the int 2 at level 3 and Fraction(2) at level Fraction(3)
    points = [Point(pid) for pid in "abc"]
    space = FiniteMetricSpace.from_matrix(points, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    f = FunctionOracle.from_table({"a": 0, "b": 1, "c": 2})
    a = space.point("a")
    for t in (3, Fraction(3), 3, Fraction(3)):
        for params in (((t, Fraction(1, 2), 3),), Shells(((t, Fraction(1, 2), 3),))):
            for Y in (None, space.points):
                got = torus_sups(f, space, a, params, Y)
                assert typed(lambda: got) == typed(
                    lambda: torus_sups(f, space, a, params, Y, budget=len(space)))
                assert got == [2] and type(got[0]) is type(t)


@pytest.mark.parametrize("far", [POS_INF, NEG_INF])
def test_limits_of_a_function_with_an_infinite_value_match_the_scan(far):
    # +inf declines the [inf] ranking, so liminf scans while limsup reads its
    # [sup] table; -inf declines the [sup] ranking, the other way round
    space = make_space("int", 5, 0, False)
    values = (far, 1, Fraction(1, 2), 2, 0)
    f = FunctionOracle.from_table({p.id: v for p, v in zip(space.points, values)})
    rankings = _rankings(f, space)
    assert (rankings.points("inf") is None, rankings.points("sup") is None) == (far > 0, far < 0)
    radii = radius_truncation(space)
    for x in space.points:
        others = [p for p in space.points if p != x]
        for Y in (None, [x] + others[:2], [x] + others[2:]):
            for formula in (liminf_at, limsup_at, continuity_check):
                assert typed(lambda: formula(f, space, x, radii, Y)) == \
                    typed(lambda: formula(f, space, x, radii, Y, budget=len(space)))


def prepare(kind, params):
    """params prepared as a formula's grid, or the error naming its bad parameter."""
    try:
        return kind(params, repeats=True), None
    except SepdetError as exc:
        return None, (type(exc).__name__, str(exc))


@settings(max_examples=40)
@given(st.fixed_dictionaries({
    "kind": st.sampled_from(SPACES),
    "n": st.integers(1, 6),
    "seed": st.integers(0, 10**6),
    "palette": st.sampled_from(sorted(PALETTES)),
    "inf": st.sampled_from((0.0, 0.3)),
    "bad": st.booleans(),
}))
def test_every_formula_reads_a_prepared_grid_as_its_plain_sequence(case):
    space = make_space(case["kind"], case["n"], case["seed"], False)
    f = make_function(space, case["seed"], case["palette"], case["inf"])
    rng = Random(case["seed"])
    dists = space.realized_distances()
    values = sorted(set(dists) | set(midpoint_grid(dists)) | {100})
    radii = rng.sample(values, min(4, len(values))) + [rng.choice(values)]  # may repeat one
    shells = [(r, s) for i, r in enumerate(values) for s in values[i + 1:] if rng.random() < 0.5]
    levels = sorted({f.value(p) for p in space.points}, key=repr)[:2] + [Fraction(1, 3)]
    triples = [(rng.choice(levels), r, s) for r, s in shells]
    triples += triples[:1]  # repeats one
    if case["bad"]:  # the center check still comes first
        for params, bad in ((radii, (0, "a")), (shells, ((2, 1), (0, 1, 2))),
                            (triples, ((0, 2, 1), (1, 2)))):
            params.insert(rng.randint(0, len(params)), rng.choice(bad))

    def f2(u, v):
        return f.value(u)

    formulas = [
        (Radii, radii, lambda g, x, Y: liminf_at(f, space, x, g, Y)),
        (Radii, radii, lambda g, x, Y: limsup_at(f, space, x, g, Y)),
        (Radii, radii, lambda g, x, Y: continuity_check(f, space, x, g, Y)),
        (Radii, radii, lambda g, x, Y: lip_modulus(f, space, x, g, Y)),
        (Radii, radii, lambda g, x, Y: lip_local_sups(f, space, x, g, Y)),
        (Shells, triples, lambda g, x, Y: torus_sups(f, space, x, g, Y)),
        (ShellGrid, shells, lambda g, x, Y: slope_at(f, space, x, g, Y)),
        (ShellGrid, shells, lambda g, x, Y: partial_slope(f2, space, x, x, g, Y)),
    ]
    for kind, params, formula in formulas:
        prepared, error = prepare(kind, params)
        for x in space.points:
            others = [p for p in space.points if p != x]
            for Y in (None, [x] + others[:2], others):
                plain = typed(lambda: formula(iter(params), x, Y))  # read once, as given
                if error is None:
                    assert typed(lambda: formula(prepared, x, Y)) == plain
                elif Y is others:
                    assert plain == ("UnknownPoint",
                                     f"center {x.id!r} must lie in the restriction set")
                else:
                    assert plain == error


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
# on the int space, pair and point codes an int and a Fraction share
@example({"n": 4, "seed": 3, "shuffle_ids": True, "inf": 0.0})
@example({"n": 4, "seed": 8, "shuffle_ids": True, "inf": 0.3})
@example({"n": 3, "seed": 4, "shuffle_ids": True, "inf": 0.0})
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
    bad = [0, -1, Fraction(-1, 2), "a", None, (1, 2)]
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
            # the limits and the slope against the same fold of the oracle's optima,
            # typed where the oracle scans Y in enumeration order (it scans by id)
            same = typed if Y is None or not case["shuffle_ids"] else outcome
            for formula, prob, least in ((liminf_at, lows, False), (limsup_at, highs, True)):
                optima = {r: oracle_or_none(prob, x, r, Y) for r in radii}
                for grid in (radii, picked):
                    best = oracle_fold([optima[r] for r in grid], range(len(grid)), least)
                    assert same(lambda: formula(f, space, x, grid, Y)) == (
                        same(lambda: best) if best is not None else ("IsolatedPoint", isolated(x)))
            t, shells = f.value(x), default_shell_grid(space, x)
            slopes = torus_slope_problem(space, f, truncation=[(t, r, s) for r, s in shells])
            optima = {(r, s): oracle_or_none(slopes, x, (t, r, s), Y) for r, s in shells}
            for grid in [None, rng.sample(shells, min(6, len(shells)))] if shells else [None]:
                at = shells if grid is None else grid
                best = oracle_fold([optima[p] for p in at], [s for _, s in at], True)
                assert same(lambda: slope_at(f, space, x, grid, Y)) == (
                    same(lambda: best) if best is not None else ("IsolatedPoint", (
                        f"every shell at {x.id!r} is empty" if at else
                        f"no shells realized at {x.id!r}")))


def oracle_fold(optima, groups, least):
    """The formulas' fold over oracle optima (None for an empty region): each
    group's first greatest, in the order the groups first hold an optimum,
    and the first least of those (least) or the first greatest; None when
    every region is empty."""
    inner = {}
    for v, group in zip(optima, groups):
        if v is not None and (group not in inner or v > inner[group]):
            inner[group] = v
    return (min if least else max)(inner.values(), default=None)


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
    for tol in (None, 0):  # compared as JSON text, where a NaN score equals itself
        assert json.dumps(outcome(lambda: [c.to_json() for c in check_sweep(prob, Y, tol)])) == \
            json.dumps(outcome(lambda: [check_reduction(scan, Y, (x, p), tol).to_json()
                                        for x in Y for p in prob.params.truncation]))


def unit_space(ids):
    points = [Point(pid) for pid in ids]
    return FiniteMetricSpace.from_matrix(
        points, [[0 if p == q else 1 for q in points] for p in points])


# An int and an equal Fraction share one code; a table gives it in the type of
# the region's first member of it in enumeration order, as the scan does.
SCAN = {"budget": 4}  # a budget covering the space leaves the formulas the scan


@pytest.mark.parametrize("ids", ["dcba", "abcd"])
def test_a_pair_code_of_an_int_and_a_fraction_reads_the_first_pair(ids):
    # unit distances: |1 - 3| is the int 2 at (a, b) and Fraction(2) at (c, d),
    # (a, d) and (b, c); the least ids make the int pair the witness, but in
    # the order d, c, b, a the first optimal pair is (d, c)
    values = {"a": 1, "b": 3, "c": Fraction(1), "d": Fraction(3)}
    space = unit_space(ids)
    f = FunctionOracle.from_table({pid: values[pid] for pid in ids})
    prob = ball_pairs_problem(space, f, truncation=(2,))
    assert None not in prob.optima(space.points)  # ranked, not left to the scan
    a, b, c, d = map(space.point, "abcd")
    first = Fraction if ids[0] == "d" else int
    assert [type(chk.lhs) for chk in check_sweep(prob, [a])] == [first]
    assert type(lip_local_sup(f, space, a, 2).value) is first
    for Y in (space.points, [a, b], [a, c, d]):  # the int pair, then the Fraction pairs alone
        routes_agree(prob, space, Y)
        for x in Y:
            assert typed(lambda: lip_local_sup(f, space, x, 2, Y)) == \
                typed(lambda: lip_local_sup(f, space, x, 2, Y, **SCAN))


@pytest.mark.parametrize("ids", ["abc", "acb"])
def test_a_point_code_of_an_int_and_a_fraction_reads_the_first_point(ids):
    values = {"a": 0, "b": 2, "c": Fraction(2)}
    space = unit_space(ids)
    f = FunctionOracle.from_table({pid: values[pid] for pid in ids})
    a, b, c = map(space.point, "abc")
    first = int if ids[1] == "b" else Fraction
    assert type(limsup_at(f, space, a, (2,))) is first
    for mode in ("sup", "inf"):
        prob = punctured_ball_problem(space, f, mode, truncation=(2,))
        assert None not in prob.optima(space.points)
        for Y in (space.points, [a, b], [a, c]):
            routes_agree(prob, space, Y)
            for limit in (liminf_at, limsup_at):
                assert typed(lambda: limit(f, space, a, (2,), Y)) == \
                    typed(lambda: limit(f, space, a, (2,), Y, **SCAN))


@pytest.mark.parametrize("ids", ["abc", "acb"])
def test_a_descent_code_of_an_int_and_a_fraction_reads_the_first_point(ids):
    # from a at level 3 over unit distances: 3 - 1 = 2 at b, 3 - Fraction(1) at c
    values = {"a": 3, "b": 1, "c": Fraction(1)}
    space = unit_space(ids)
    f = FunctionOracle.from_table({pid: values[pid] for pid in ids})
    a, b, c = map(space.point, "abc")
    first = int if ids[1] == "b" else Fraction
    shell = (Fraction(1, 2), 2)
    assert type(torus_sup(f, space, a, 3, *shell)) is first
    assert type(slope_at(f, space, a, (shell,))) is first
    prob = torus_slope_problem(space, f, truncation=shell_truncation(
        space, level_grid(f, space, "full")))
    assert None not in prob.optima(space.points)
    for Y in (space.points, [a, b], [a, c]):
        routes_agree(prob, space, Y)
        assert typed(lambda: slope_at(f, space, a, (shell,), Y)) == \
            typed(lambda: slope_at(f, space, a, (shell,), Y, **SCAN))


def test_a_slope_keeps_the_scans_first_outer_radius():
    # on the line a, b, c, d = 0, 1, 2, 3 at level f(a) = 4 the quotients are the
    # int 2 at b, Fraction(2) at c and 0 at d.  s = 4 comes first (its shell
    # holding d alone), and its best shell holds c; s = 3 ties it by value with
    # the int at b, so the slope is the scan's Fraction(2)
    points = [Point(pid) for pid in "abcd"]
    space = FiniteMetricSpace.from_matrix(points, [[abs(i - j) for j in range(4)]
                                                   for i in range(4)])
    f = FunctionOracle.from_table({"a": 4, "b": 2, "c": Fraction(0), "d": 4})
    grid = ((Fraction(5, 2), 4), (Fraction(1, 2), 3), (Fraction(3, 2), 4))
    a = space.point("a")
    assert typed(lambda: slope_at(f, space, a, grid)) == ("ok", "Fraction", "Fraction(2, 1)")
    assert typed(lambda: slope_at(f, space, a, grid, **SCAN)) == \
        ("ok", "Fraction", "Fraction(2, 1)")


def test_a_formula_read_off_a_table_builds_one_value(monkeypatch):
    # the limits, the modulus and the slope fold the regions' codes and build
    # the value of the region that answers alone
    calls, real = [], Optima.value
    monkeypatch.setattr(Optima, "value", lambda *args: calls.append(args) or real(*args))
    space = FiniteMetricSpace.from_coords([Point(f"p{k}", (k,)) for k in range(5)])
    f = FunctionOracle.from_table({"p0": 0, "p1": 3, "p2": Fraction(1, 2), "p3": 2, "p4": -1})
    x = space.point("p1")  # at distances 1, 1, 2, 3 from p0, p2, p3, p4
    radii = (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), 5)
    shells = ((Fraction(1, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(5, 2)),
              (Fraction(5, 2), Fraction(7, 2)), (Fraction(1, 2), Fraction(5, 2)))
    for Y in (None, space.points[:4]):  # without p4: the shell (5/2, 7/2) is empty
        for formula, grid in ((liminf_at, radii), (limsup_at, radii), (lip_modulus, radii),
                              (slope_at, shells)):
            calls.clear()
            formula(f, space, x, grid, Y)
            assert len(calls) == 1
        # over at least three nonempty regions each, every one read off a table
        assert sum(s.pairs > 0 for s in lip_local_sups(f, space, x, radii, Y)) >= 3
        levels = torus_sups(f, space, x, [(3, r, s) for r, s in shells], Y)
        assert sum(v is not None for v in levels) >= 3
        assert all(prob.optima([x]) != [None] for prob in (
            punctured_ball_problem(space, f, "inf", truncation=radii),
            punctured_ball_problem(space, f, "sup", truncation=radii),
            ball_pairs_problem(space, f, "sup", truncation=radii),
            torus_slope_problem(space, f, "sup", truncation=[(3, r, s) for r, s in shells])))


@pytest.mark.parametrize("budget", [None, 3])  # 3 covers the space: the scan
def test_equal_optima_of_two_types_across_radii_keep_the_first_radius(budget):
    # a, c, b in that index order at 0, 2, 1.  From a, B(a, 3/2) \ {a} holds b
    # alone, and B(a, 5/2) \ {a} holds c first and then b: with f(b) = 2 and
    # f(c) = Fraction(2) both balls' inf and sup are 2, the int at 3/2 and the
    # Fraction at 5/2, and the first radius in grid order gives the limit's type
    space = FiniteMetricSpace.from_coords([Point("a", (0,)), Point("c", (2,)),
                                           Point("b", (1,))])
    a = space.point("a")
    f = FunctionOracle.from_table({"a": 5, "c": Fraction(2), "b": 2})
    # from a the pair quotients are 2 at (a, b) and Fraction(2) at (a, c) and
    # (c, b): B(a, 3/2) holds the int pair alone, and (a, c) comes first in B(a, 5/2)
    g = FunctionOracle.from_table({"a": 0, "c": Fraction(4), "b": 2})
    if budget is None:  # the tables are read
        assert None not in (_rankings(f, space).points("inf"), _rankings(f, space).points("sup"),
                            _rankings(g, space).pairs("sup"))
    low, high = Fraction(3, 2), Fraction(5, 2)
    for grid, first in (((low, high), "int"), ((high, low), "Fraction")):
        two = ("ok", first, repr(2 if first == "int" else Fraction(2)))
        for formula, h in ((liminf_at, f), (limsup_at, f), (lip_modulus, g)):
            assert typed(lambda: formula(h, space, a, grid, budget=budget)) == two
            assert typed(lambda: formula(h, space, a, grid, space.points, budget)) == two


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


def value_rule(full, restricted, tol) -> bool:
    """The rule formula comparisons followed before agree: every outcome by
    value, with no identity test."""
    if type(full) is tuple and restricted is not None:
        return all(value_rule(u, v, tol) for u, v in zip(full, restricted))
    if full is None or restricted is None or type(full) is bool:
        return full == restricted
    return close(full, restricted, tol)


def sides(formula, Y) -> list:
    """[(formula(None), formula(Y))] as the suites take it: [None] (skipped)
    where the full side raises IsolatedPoint, None for Y's side where it does."""
    try:
        full = formula(None)
    except IsolatedPoint:
        return [None]
    try:
        return [(full, formula(Y))]
    except IsolatedPoint:
        return [(full, None)]


def pair_sups(f, space, x, grids, Y, tol, budget):
    full, rest = (lip_local_sups(f, space, x, grids[0], y, budget) for y in (None, Y))
    return [None if a.pairs == b.pairs == 0 else (a.value, b.value) for a, b in zip(full, rest)]


def shell_sups(f, space, x, grids, Y, tol, budget):
    full, rest = (torus_sups(f, space, x, grids[1], y, budget) for y in (None, Y))
    return [None if a is None else (a, b) for a, b in zip(full, rest)]


# Each formula comparison at a center x: the (full, restricted) pairs it
# compares, None where it skips one; grids is (radii, shells).  The pair and
# shell sups are the library formulas whose values prop-3.2's and prop-4.1's
# sweeps give (tests/test_harness.py).
COMPARISONS = {
    "pair-sup": pair_sups,
    "modulus": lambda f, space, x, grids, Y, tol, budget: sides(
        lambda y: lip_modulus(f, space, x, grids[0], y, budget), Y),
    "torus-sup": shell_sups,
    "slope": lambda f, space, x, grids, Y, tol, budget: sides(
        lambda y: slope_at(f, space, x, grids[1].grid, y, budget), Y),
    "limits": lambda f, space, x, grids, Y, tol, budget: sides(lambda y: (
        liminf_at(f, space, x, grids[0], y, budget), limsup_at(f, space, x, grids[0], y, budget),
        continuity_check(f, space, x, grids[0], y, tol, budget)), Y),
}


@pytest.mark.parametrize("palette", sorted(PALETTES))
@pytest.mark.parametrize("kind", SPACES)
def test_comparison_verdicts_agree_with_the_value_rule_on_the_scan(kind, palette):
    # agree on the table route against the value rule on the scan route, over
    # closures, closures one point short and random subsets
    failures = 0
    for seed in range(3):
        space = make_space(kind, 3 + 2 * seed, seed, shuffle_ids=seed == 1)
        f = make_function(space, seed, palette, 0.3 if seed == 2 else 0.0)
        if not any(f.is_finite_at(p) for p in space.points):
            continue
        rng = Random(seed)
        grids = (radius_truncation(space), shell_truncation(space, level_grid(f, space, "full")))
        pairs = ball_pairs_problem(space, f, "sup", truncation=grids[0])
        torus = torus_slope_problem(space, f, "sup", truncation=grids[1])
        balls = [punctured_ball_problem(space, f, mode, truncation=grids[0])
                 for mode in ("sup", "inf")]
        for closing, names in (([pairs], ("pair-sup", "modulus")),
                               ([torus], ("torus-sup", "slope")), (balls, ("limits",))):
            start = [rng.choice(space.points)]
            closed = outcome(lambda: intersect_problems(closing, start).union)
            some = tuple(rng.sample(space.points, rng.randint(1, len(space))))
            Ys = (closed[1], one_short(closed[1], start)) if closed[0] == "ok" else ()
            for Y, tol, name in itertools.product(Ys + (some,), (0, Fraction(1, 3)), names):
                def verdicts(rule, budget):
                    return [None if out is None else rule(*out, tol) for x in Y
                            for out in COMPARISONS[name](f, space, x, grids, Y, tol, budget)]

                got = outcome(lambda: verdicts(agree, None))
                assert got == outcome(lambda: verdicts(value_rule, len(space)))
                failures += got[0] == "ok" and False in got[1]
    assert failures > 0  # the truncated closures and the subsets make some comparisons fail


def test_a_restricted_key_above_the_full_key_raises():
    space = make_space("int", 5, 1, False)
    f = make_function(space, 1, "fraction", 0.0)
    prob = ball_pairs_problem(space, f, "sup")
    x = space.points[0]
    [table] = prob.optima([x])
    block, read = table.block, table.block.read  # a sweep reads each block once

    def corrupted(mask, cs):
        best, size = read(mask, cs)
        return np.where(block.best[cs] >= 0, block.best[cs] + 1, best), size

    block.read = corrupted
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


# Slack selections (eps > 0 or cap > 1) read the tables too: the cut is the
# scan's (best - eps, best + eps in inf mode, in the scan's arithmetic), found
# as a code threshold, and the cap least-id tuples at or above it are kept.
SLACK_EPS = (0, Fraction(1, 2), Fraction(1, 3), 0.1, 2, 10 ** 9)  # +inf is rejected


@example({"kind": "float-2d", "n": 5, "seed": 7, "shuffle_ids": True, "palette": "float",
          "inf": 0.0, "mode": "sup"}, 0.1, 3, False)  # a float cut that rounds
@example({"kind": "fraction", "n": 6, "seed": 3, "shuffle_ids": False, "palette": "exact",
          "inf": 0.3, "mode": "sup"}, Fraction(1, 2), 50, False)  # +inf bests, cap past the region
@example({"kind": "int", "n": 6, "seed": 11, "shuffle_ids": True, "palette": "fraction",
          "inf": 0.0, "mode": "inf"}, 10 ** 9, 2, True)  # ball pairs in inf mode, strict
@given(instances, st.sampled_from(SLACK_EPS), st.sampled_from((1, 2, 3, 50)), st.booleans())
def test_slack_selections_read_from_the_tables_agree_with_the_scan(case, eps, cap, strict):
    space = make_space(case["kind"], case["n"], case["seed"], case["shuffle_ids"])
    f = make_function(space, case["seed"], case["palette"], case["inf"])
    if not any(f.is_finite_at(p) for p in space.points):
        return
    seed = [Random(case["seed"]).choice(space.points)]
    sup = case["mode"] == "sup"
    for prob in problems(space, f, case["mode"]):
        scan = dataclasses.replace(prob, optima=None)

        def closure(problem):
            return closure_iterate(problem, seed, eps=eps, cap=cap, strict_empty=strict).to_json()

        assert outcome(lambda: closure(prob)) == outcome(lambda: closure(scan))
        for x, table in zip(space.points, prob.optima(space.points)):
            for i, kept in table.select(eps, cap, sup) if table is not None else ():
                assert kept == witness_select(scan, (x, prob.params[i]), eps, cap)


def test_slack_selections_take_the_scans_cut():
    points = [Point(pid, (Fraction(c),)) for pid, c in zip("abcd", (0, 1, 2, 3))]
    space = FiniteMetricSpace.from_coords(points)
    a, r = space.point("a"), Fraction(5, 2)  # B(a, 5/2) = {a, b, c}
    near = Fraction(19999999999999999, 10**17)  # below 3/10 - 0.1, above its float
    cases = [
        # +inf best in sup mode: the cut stays +inf under every finite eps
        ({"b": POS_INF, "c": 1}, punctured_ball_problem, "sup", Fraction(1, 2), 50, ["b"]),
        ({"b": POS_INF, "c": 1}, punctured_ball_problem, "sup", 10 ** 9, 50, ["b"]),
        ({"b": 2, "c": 1}, punctured_ball_problem, "sup", 10 ** 9, 50, ["b", "c"]),
        ({"b": Fraction(3, 10), "c": near}, punctured_ball_problem, "sup", 0.1, 3, ["b", "c"]),
        # quotients (a, b) 2, (a, c) 1/2, (b, c) 1 in inf mode, cap past the region
        ({"b": 2, "c": 1}, ball_pairs_problem, "inf", Fraction(1, 2), 50,
         ["ac", "bc", "ca", "cb"]),
        ({"b": 2, "c": 1}, ball_pairs_problem, "inf", 10 ** 9, 50,
         ["ab", "ac", "ba", "bc", "ca", "cb"]),
        ({"b": 2, "c": 1}, ball_pairs_problem, "inf", 0, 2, ["ac", "ca"]),
    ]
    for values, family, mode, eps, cap, expected in cases:
        f = FunctionOracle.from_table({"a": 0, "d": 0} | values)
        prob = family(space, f, mode, truncation=[r])
        [(_, got)] = prob.optima([a])[0].select(eps, cap, mode == "sup")
        assert got == witness_select(dataclasses.replace(prob, optima=None), (a, r), eps, cap)
        assert ["".join(p.id for p in u) for u in got] == expected


def counting(prob, calls):
    """prob with its region map and score counted in calls."""
    def region(x, p):
        calls["region"] += 1
        return prob.region(x, p)

    def score(z, u):
        calls["score"] += 1
        return prob.score(z, u)

    return dataclasses.replace(prob, region=region, score=score)


@pytest.mark.parametrize("mode", ["sup", "inf"])
def test_slack_closures_and_memberships_make_no_region_or_score_call(mode):
    space = make_space("fraction", 6, 3, shuffle_ids=True)
    f = make_function(space, 3, "fraction", 0.0)
    calls = Counter()
    probs = [counting(prob, calls) for prob in problems(space, f, mode)]

    def f2(u, y):
        return f.value(u) + space.distance(u, y)

    def make_slice(y):
        return counting(punctured_ball_problem(space, slice_oracle(f2, y), mode), calls)

    for eps, cap in ((Fraction(1, 2), 1), (0, 3), (10 ** 9, 2)):
        for prob in probs:
            closure_iterate(prob, space.points[:1], eps=eps, cap=cap)
        Y = intersect_problems(probs, space.points[:1], eps=eps, cap=cap).union
        assert is_member(family_for(probs, eps, cap), Y)
        product_closure(make_slice, space.points[:1], space.points[:2], eps=eps, cap=cap)
    assert calls == {}
    closure_iterate(dataclasses.replace(probs[0], optima=None), space.points[:1], cap=3)
    assert calls["region"] > 0 and calls["score"] > 0  # the scan is counted


# A request's centers share one table block: each center's table, read from
# its block, must be the table built for that center alone, and the oracle's.

TIE = Fraction(6004799503160661, 2 ** 54)  # float(Fraction(1, 3)): the two tie as floats


def tied_space() -> FiniteMetricSpace:
    """From t0, the distances TIE and 1/3 share one float image but differ, and
    the midpoint grid puts a radius between them."""
    coords = (0, TIE, Fraction(1, 3), Fraction(1), Fraction(3, 2))
    return FiniteMetricSpace.from_coords([Point(f"t{k}", (c,)) for k, c in enumerate(coords)])


def same_table(table, alone, mask, sup):
    assert (table.width, table.best.tolist(), table.size) == (
        alone.width, alone.best.tolist(), alone.size)
    for m in (None, mask):
        (best, size), (best1, size1) = table.read(m), alone.read(m)
        assert (best.tolist(), size) == (best1.tolist(), size1)
        for i, key in enumerate(best.tolist()):  # each region's optimum, of the same type
            if key >= 0:
                got, alone_got = table.value(i, key, m), alone.value(i, key, m)
                assert (type(got), got) == (type(alone_got), alone_got)
    for i in np.flatnonzero(table.best >= 0).tolist():
        assert table.witness(i) == alone.witness(i)
    for eps, cap in ((0, 1), (Fraction(1, 2), 3)):
        assert table.select(eps, cap, sup) == alone.select(eps, cap, sup)


def oracle_agrees(prob, table, x, Y, mask):
    """Every region's optimum and size, whole and within Y, as the member scan finds them."""
    rbest, rsize = table.read(mask)
    tuples = list(itertools.product(prob.space.points, repeat=prob.arity))
    for i, p in enumerate(prob.params.truncation):
        members = [u for u in tuples if prob.member(x, p, u)]
        assert table.size[i] == len(members)
        assert rsize[i] == sum(all(c in Y for c in u) for u in members)
        for key, restrict, m in ((table.best[i], None, None), (rbest[i], Y, mask)):
            got = outcome(lambda: brute_force_optimum(prob, (x, p), restrict=restrict))
            assert got[0] == "EmptyRegion" if key < 0 else got == ("ok", table.value(i, key, m))


@given(st.fixed_dictionaries({
    "kind": st.sampled_from(SPACES + ("tied",)),
    "n": st.integers(2, 5),
    "seed": st.integers(0, 10**6),
    "palette": st.sampled_from(sorted(PALETTES)),
    "mode": st.sampled_from(("sup", "inf")),
    "request": st.sampled_from(("one", "some", "all")),
    "bound": st.sampled_from((2 ** 15, 1)),  # 1 splits a request into one block per center
}))
# tied images, every center asked, split and whole
@example({"kind": "tied", "n": 5, "seed": 1, "palette": "exact", "mode": "sup",
          "request": "all", "bound": 2 ** 15})
@example({"kind": "tied", "n": 5, "seed": 2, "palette": "fraction", "mode": "inf",
          "request": "all", "bound": 1})
# a float quotient beside an equal int declines one center's descents; float distances
@example({"kind": "int", "n": 5, "seed": 5, "palette": "mixed", "mode": "sup",
          "request": "all", "bound": 2 ** 15})
@example({"kind": "float-2d", "n": 5, "seed": 3, "palette": "exact", "mode": "inf",
          "request": "some", "bound": 1})
def test_a_block_gives_each_center_its_own_table_and_the_oracles(case):
    space = tied_space() if case["kind"] == "tied" else make_space(
        case["kind"], case["n"], case["seed"], True)
    f = make_function(space, case["seed"], case["palette"], 0.0)
    rng, n, mode = Random(case["seed"]), len(space), case["mode"]
    order = rng.sample(range(n), n)  # unsorted, and the first center asked twice
    request = {"one": order[:1], "some": order[:max(2, n // 2)], "all": order}[case["request"]]
    request = request + request[:1]
    Y = rng.sample(space.points, rng.randint(1, n))
    mask = np.array([p in Y for p in space.points])
    radii = radius_truncation(space)
    shells = shell_truncation(space, level_grid(f, space, "sample"))
    rankings = _rankings(f, space)
    for name, params, prob in (
            ("_points_table", radii, punctured_ball_problem(space, f, mode, truncation=radii)),
            ("_pairs_table", radii, ball_pairs_problem(space, f, mode, truncation=radii)),
            ("_torus_table", shells, torus_slope_problem(space, f, mode, truncation=shells))):
        build = getattr(functionals, name)
        with mock.patch.object(functionals._Rankings, "PASS_BOUND", case["bound"]):
            tables = build(rankings, request, params, mode)
        assert len(tables) == len(request)
        for i, table in zip(request, tables):
            alone = build(rankings, [i], params, mode)[0]
            assert (table is None) == (alone is None)
            if table is not None:
                same_table(table, alone, mask, mode == "sup")
        for i, table in dict(zip(request, tables)).items():
            if table is not None:
                oracle_agrees(prob, table, space.points[i], Y, mask)
